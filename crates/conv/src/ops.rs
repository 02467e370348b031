//! Non-convolution CNN operators: pooling, ReLU, LRN, fully connected and
//! softmax.
//!
//! These are the "other layers" of AlexNet/VGG the paper's code generator
//! has templates for (§6: "templates for various type of layers including
//! convolution, pooling, and local response normalization").

use crate::gemm::{ConvPhase, ConvStats};
use crate::kernel::ExecCtx;
use crate::microkernel::KernelChoice;
use crate::tensor::{Scalar, Tensor};
use crate::{ConvError, ConvGeometry};
use std::time::Instant;
use winofuse_runtime::PoolProfiler;

/// Pooling flavor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PoolKind {
    /// Maximum over the window (AlexNet/VGG pooling layers).
    Max,
    /// Arithmetic mean over the window (only in-bounds elements count).
    Average,
}

/// Spatial pooling with the given window geometry (kernel/stride/pad taken
/// from `geom`; channel count is preserved).
///
/// # Errors
///
/// Returns [`ConvError::ShapeMismatch`] when `input` disagrees with `geom`.
///
/// # Examples
///
/// ```
/// use winofuse_conv::{ops, tensor::Tensor, ConvGeometry};
///
/// # fn main() -> Result<(), winofuse_conv::ConvError> {
/// let geom = ConvGeometry::new(4, 4, 2, 2, 0)?;
/// let x = Tensor::from_fn(1, 1, 4, 4, |_, _, h, w| (h * 4 + w) as f32);
/// let y = ops::pool(&x, geom, ops::PoolKind::Max)?;
/// assert_eq!(y.as_slice(), &[5.0, 7.0, 13.0, 15.0]);
/// # Ok(())
/// # }
/// ```
pub fn pool<T: Scalar + PartialOrd>(
    input: &Tensor<T>,
    geom: ConvGeometry,
    kind: PoolKind,
) -> Result<Tensor<T>, ConvError> {
    check_pool_input(input, geom)?;
    let (k, s, pad) = (geom.kernel(), geom.stride(), geom.pad() as isize);
    let (oh, ow) = (geom.output_height(), geom.output_width());
    let mut out = Tensor::zeros(input.n(), input.c(), oh, ow);
    for b in 0..input.n() {
        for c in 0..input.c() {
            for i in 0..oh {
                for j in 0..ow {
                    let mut best: Option<T> = None;
                    let mut sum = 0.0f32;
                    let mut count = 0usize;
                    for u in 0..k {
                        for v in 0..k {
                            let hh = (i * s + u) as isize - pad;
                            let ww = (j * s + v) as isize - pad;
                            if hh < 0
                                || ww < 0
                                || hh as usize >= input.h()
                                || ww as usize >= input.w()
                            {
                                continue; // padding excluded from pooling
                            }
                            let val = input.get(b, c, hh as usize, ww as usize);
                            match kind {
                                PoolKind::Max => {
                                    best = Some(match best {
                                        Some(cur) if cur >= val => cur,
                                        _ => val,
                                    });
                                }
                                PoolKind::Average => {
                                    sum += val.to_f32();
                                    count += 1;
                                }
                            }
                        }
                    }
                    let result = match kind {
                        PoolKind::Max => best.unwrap_or_else(T::zero),
                        PoolKind::Average => {
                            if count == 0 {
                                T::zero()
                            } else {
                                T::from_f32(sum / count as f32)
                            }
                        }
                    };
                    out.set(b, c, i, j, result);
                }
            }
        }
    }
    Ok(out)
}

fn check_pool_input<T: Scalar>(input: &Tensor<T>, geom: ConvGeometry) -> Result<(), ConvError> {
    if input.h() != geom.height() || input.w() != geom.width() {
        return Err(ConvError::ShapeMismatch {
            expected: format!("input {}x{}", geom.height(), geom.width()),
            found: format!("{}x{}", input.h(), input.w()),
        });
    }
    Ok(())
}

/// Output planes one [`lrn_parallel`] or [`pool_parallel`] job owns at
/// most (a tuning constant; results never depend on it).
const PLANES_PER_JOB: usize = 8;

/// Runs a plane-parallel layer on the pool under `ctx.prof.scoped(phase)`.
/// `out` is `n × c` planes of `plane` elements; each job owns a block of
/// up to [`PLANES_PER_JOB`] whole planes of one frame and gets
/// `body(state, first, dst)`, where `first` is the flat
/// (`frame·c + channel`) index of `dst`'s first plane. With `ctx.stats`,
/// each job's time is recorded as [`ConvPhase::Gemm`].
fn run_plane_jobs<T: Send, S>(
    ctx: &ExecCtx<'_>,
    phase: &str,
    out: &mut [T],
    (c, plane): (usize, usize),
    init: impl Fn() -> S + Sync,
    body: impl Fn(&mut S, usize, &mut [T]) + Sync,
) -> Result<(), ConvError> {
    if c == 0 || plane == 0 {
        return Ok(());
    }
    let firsts: Vec<usize> = (0..out.len() / plane)
        .filter(|p| (p % c).is_multiple_of(PLANES_PER_JOB))
        .collect();
    let lengths: Vec<usize> = firsts
        .iter()
        .map(|&p| PLANES_PER_JOB.min(c - p % c) * plane)
        .collect();
    winofuse_runtime::run_sliced_jobs_isolated(
        winofuse_runtime::resolve_threads(ctx.threads),
        winofuse_runtime::split_lengths(out, &lengths),
        &ctx.prof.scoped(phase),
        init,
        |state, job, dst| {
            let t0 = ctx.stats.map(|_| Instant::now());
            body(state, firsts[job], dst);
            if let (Some(s), Some(t0)) = (ctx.stats, t0) {
                s.add_phase_ns(ConvPhase::Gemm, t0.elapsed().as_nanos() as u64);
            }
        },
    )?;
    Ok(())
}

/// Records a plane-parallel layer's exact work as its one compute phase,
/// [`ConvPhase::Gemm`] (as [`PackedFc::run`] does).
fn add_layer_work<T>(stats: Option<&ConvStats>, flops: u64, elements: usize) {
    if let Some(s) = stats {
        s.add_phase(
            ConvPhase::Gemm,
            flops,
            (elements * std::mem::size_of::<T>()) as u64,
        );
    }
}

/// A pooling layer's window grid, computed once per call.
struct PoolGrid {
    /// Per output row, then per output column: the first in-bounds input
    /// index and the number of in-bounds taps (`(0, 0)` for a window
    /// wholly in the padding).
    rows: Vec<(usize, usize)>,
    cols: Vec<(usize, usize)>,
    /// Output columns whose windows lie wholly inside the input.
    inner: std::ops::Range<usize>,
    kernel: usize,
    stride: usize,
}

impl PoolGrid {
    fn new(geom: ConvGeometry) -> Self {
        let (k, s, pad) = (geom.kernel(), geom.stride(), geom.pad());
        let spans = |out_len: usize, in_len: usize| -> Vec<(usize, usize)> {
            (0..out_len)
                .map(|o| {
                    // Padded coordinates: taps `o·s..o·s + k`, input at
                    // `pad..in_len + pad`.
                    let lo = (o * s).max(pad);
                    let hi = (o * s + k).min(in_len + pad);
                    if hi > lo {
                        (lo - pad, hi - lo)
                    } else {
                        (0, 0)
                    }
                })
                .collect()
        };
        let cols = spans(geom.output_width(), geom.width());
        let first = cols.iter().position(|&(_, t)| t == k).unwrap_or(0);
        let last = cols.iter().rposition(|&(_, t)| t == k).map_or(0, |j| j + 1);
        PoolGrid {
            rows: spans(geom.output_height(), geom.height()),
            cols,
            inner: first..last.max(first),
            kernel: k,
            stride: s,
        }
    }

    /// Pools one plane (`src`, rows of `w`) into `dst`. Every output folds
    /// its in-bounds taps in [`pool`]'s row-major order, one input row at
    /// a time: columns in `inner` take each tap offset across the whole
    /// run of windows with no bounds branch, and only border columns walk
    /// their clipped spans. The max starts from the window's first tap
    /// (comparing it with itself keeps it), so the `>=` fold and the
    /// in-bounds average match [`pool`] bit for bit. `sums` holds one
    /// output row (average only).
    fn pool_plane<T: Scalar + PartialOrd>(
        &self,
        src: &[T],
        w: usize,
        kind: PoolKind,
        sums: &mut [f32],
        dst: &mut [T],
    ) {
        match kind {
            PoolKind::Max => {
                for (drow, &(r0, nr)) in dst.chunks_exact_mut(self.cols.len()).zip(&self.rows) {
                    for (d, &(c0, nc)) in drow.iter_mut().zip(&self.cols) {
                        *d = if nr * nc == 0 {
                            T::zero()
                        } else {
                            src[r0 * w + c0]
                        };
                    }
                    self.fold_rows(&src[r0 * w..(r0 + nr) * w], w, drow, |acc, v| {
                        *acc = if *acc >= v { *acc } else { v };
                    });
                }
            }
            PoolKind::Average => {
                for (drow, &(r0, nr)) in dst.chunks_exact_mut(self.cols.len()).zip(&self.rows) {
                    sums.fill(0.0);
                    self.fold_rows(&src[r0 * w..(r0 + nr) * w], w, sums, |acc, v: T| {
                        *acc += v.to_f32();
                    });
                    for ((d, &sum), &(_, nc)) in drow.iter_mut().zip(&*sums).zip(&self.cols) {
                        let count = nr * nc;
                        *d = if count == 0 {
                            T::zero()
                        } else {
                            T::from_f32(sum / count as f32)
                        };
                    }
                }
            }
        }
    }

    /// Folds every tap of one output row's windows (`window` = its
    /// in-bounds input rows) into `accs`, in row-major tap order per
    /// output.
    fn fold_rows<T: Copy, A>(
        &self,
        window: &[T],
        w: usize,
        accs: &mut [A],
        fold: impl Fn(&mut A, T),
    ) {
        let inner = self.inner.clone();
        for row in window.chunks_exact(w) {
            if !inner.is_empty() {
                let c0 = self.cols[inner.start].0;
                for v in 0..self.kernel {
                    let taps = row[c0 + v..].iter().step_by(self.stride);
                    for (acc, &x) in accs[inner.clone()].iter_mut().zip(taps) {
                        fold(acc, x);
                    }
                }
            }
            for j in (0..inner.start).chain(inner.end..self.cols.len()) {
                let (c0, nc) = self.cols[j];
                for &x in &row[c0..c0 + nc] {
                    fold(&mut accs[j], x);
                }
            }
        }
    }

    /// Exact work per plane: `t − 1` compares (max) or `t` adds and one
    /// divide (average) per window with `t ≥ 1` in-bounds taps.
    fn flops_per_plane(&self, kind: PoolKind) -> usize {
        let taps = |spans: &[(usize, usize)]| spans.iter().map(|&(_, t)| t).sum::<usize>();
        let live = |spans: &[(usize, usize)]| spans.iter().filter(|&&(_, t)| t > 0).count();
        let all = taps(&self.rows) * taps(&self.cols);
        let windows = live(&self.rows) * live(&self.cols);
        match kind {
            PoolKind::Max => all - windows,
            PoolKind::Average => all + windows,
        }
    }
}

/// [`pool`] on the worker pool, bit-identical to it at any thread count.
///
/// Each job pools a block of whole output planes of one frame, reading
/// contiguous input planes. Jobs run under `ctx.prof.scoped("pool")`, so
/// the fault site is `pool.<label>/pool` and retries and the deadline
/// follow the profiler's guard.
///
/// With `ctx.stats`, the exact work lands in [`ConvPhase::Gemm`]: per
/// output with `t ≥ 1` in-bounds taps, `t − 1` compares (max) or `t`
/// adds and one divide (average), and nothing for an all-padding
/// window; bytes are the input read once and the output written once.
///
/// # Errors
///
/// [`ConvError::ShapeMismatch`] when `input` disagrees with `geom`, and
/// [`ConvError::KernelFault`] when a pool job faults.
pub fn pool_parallel<T: Scalar + PartialOrd + Send + Sync>(
    input: &Tensor<T>,
    geom: ConvGeometry,
    kind: PoolKind,
    ctx: &ExecCtx<'_>,
) -> Result<Tensor<T>, ConvError> {
    check_pool_input(input, geom)?;
    let grid = PoolGrid::new(geom);
    let (oh, ow) = (geom.output_height(), geom.output_width());
    let (c, w, plane) = (input.c(), input.w(), input.h() * input.w());
    let mut out = Tensor::zeros(input.n(), c, oh, ow);
    let x = input.as_slice();
    run_plane_jobs(
        ctx,
        "pool",
        out.as_mut_slice(),
        (c, oh * ow),
        || match kind {
            PoolKind::Max => Vec::new(),
            PoolKind::Average => vec![0.0f32; ow],
        },
        |sums, first, dst| {
            for (p, d) in (first..).zip(dst.chunks_exact_mut(oh * ow)) {
                grid.pool_plane(&x[p * plane..][..plane], w, kind, sums, d);
            }
        },
    )?;
    let flops = input.n() * c * grid.flops_per_plane(kind);
    add_layer_work::<T>(ctx.stats, flops as u64, input.len() + out.len());
    Ok(out)
}

/// Rectified linear unit applied element-wise: `max(x, 0)`.
///
/// The paper integrates ReLU into the preceding convolutional layer
/// (§7.2: "ReLU layers can be easily integrated into convolutional
/// layers"); it is exposed separately here for reference computation.
pub fn relu<T: Scalar + PartialOrd>(input: &Tensor<T>) -> Tensor<T> {
    let mut out = input.clone();
    for v in out.as_mut_slice() {
        if *v < T::zero() {
            *v = T::zero();
        }
    }
    out
}

/// Parameters of AlexNet-style cross-channel local response normalization:
///
/// ```text
/// b[c] = a[c] / (k + α/n · Σ_{c'∈window} a[c']²)^β
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LrnParams {
    /// Window size `n` (channels, centered).
    pub local_size: usize,
    /// Scale `α`.
    pub alpha: f32,
    /// Exponent `β`.
    pub beta: f32,
    /// Bias `k`.
    pub k: f32,
}

impl Default for LrnParams {
    /// AlexNet's published constants: `n=5, α=1e−4, β=0.75, k=2`.
    fn default() -> Self {
        LrnParams {
            local_size: 5,
            alpha: 1e-4,
            beta: 0.75,
            k: 2.0,
        }
    }
}

/// The LRN window must have a center channel.
fn check_local_size(params: &LrnParams) -> Result<(), ConvError> {
    if params.local_size == 0 || params.local_size.is_multiple_of(2) {
        return Err(ConvError::InvalidGeometry(format!(
            "lrn local_size must be odd and nonzero, got {}",
            params.local_size
        )));
    }
    Ok(())
}

/// Cross-channel local response normalization (computed in `f32`).
///
/// # Errors
///
/// Returns [`ConvError::InvalidGeometry`] when `local_size` is zero or
/// even (the window must have a center channel).
pub fn lrn<T: Scalar>(input: &Tensor<T>, params: LrnParams) -> Result<Tensor<T>, ConvError> {
    check_local_size(&params)?;
    let half = (params.local_size / 2) as isize;
    let mut out = Tensor::zeros(input.n(), input.c(), input.h(), input.w());
    for b in 0..input.n() {
        for c in 0..input.c() {
            for h in 0..input.h() {
                for w in 0..input.w() {
                    let mut sum_sq = 0.0f32;
                    for dc in -half..=half {
                        let cc = c as isize + dc;
                        if cc < 0 || cc as usize >= input.c() {
                            continue;
                        }
                        let v = input.get(b, cc as usize, h, w).to_f32();
                        sum_sq += v * v;
                    }
                    let denom = (params.k + params.alpha / params.local_size as f32 * sum_sq)
                        .powf(params.beta);
                    let a = input.get(b, c, h, w).to_f32();
                    out.set(b, c, h, w, T::from_f32(a / denom));
                }
            }
        }
    }
    Ok(out)
}

/// Positions of one channel row [`lrn_span`] sums at a time, on the stack.
const LRN_LANES: usize = 64;

/// The per-element sequence of [`lrn`] for output channels
/// `c0..c0 + out.len() / stride` of one frame. `input` holds all of the
/// frame's channels, `stride` elements apart: `H·W` for NCHW planes, `W`
/// for one `[channel][w]` row of a line buffer.
///
/// Each output sums the squares of its in-range window channels in
/// ascending order from `0.0`, then divides by
/// `(k + α/n·Σ).powf(β)`, all in `f32` — the oracle's exact operations,
/// so the result is bit-identical to [`lrn`]. The sums run across 64
/// positions of a channel row at a time, which vectorizes; the `powf`
/// stays scalar. `local_size` is not checked here ([`lrn`] and
/// [`lrn_parallel`] reject an even one).
pub fn lrn_span<T: Scalar>(
    input: &[T],
    stride: usize,
    params: &LrnParams,
    c0: usize,
    out: &mut [T],
) {
    if stride == 0 {
        return;
    }
    let channels = input.len() / stride;
    let half = params.local_size / 2;
    let scale = params.alpha / params.local_size as f32;
    let mut sum_sq = [0.0f32; LRN_LANES];
    for (c, dst) in (c0..).zip(out.chunks_exact_mut(stride)) {
        let window = c.saturating_sub(half)..(c + half + 1).min(channels);
        for (w0, dst) in (0..).step_by(LRN_LANES).zip(dst.chunks_mut(LRN_LANES)) {
            let sums = &mut sum_sq[..dst.len()];
            sums.fill(0.0);
            for cc in window.clone() {
                for (s, &v) in sums.iter_mut().zip(&input[cc * stride + w0..]) {
                    let v = v.to_f32();
                    *s += v * v;
                }
            }
            for ((d, &a), &s) in dst.iter_mut().zip(&input[c * stride + w0..]).zip(&*sums) {
                let denom = (params.k + scale * s).powf(params.beta);
                *d = T::from_f32(a.to_f32() / denom);
            }
        }
    }
}

/// [`lrn`] on the worker pool, bit-identical to it at any thread count.
///
/// Each job normalizes a block of whole output planes of one frame with
/// [`lrn_span`], reading contiguous planes. Jobs run under
/// `ctx.prof.scoped("lrn")`, so the fault site is `pool.<label>/lrn` and
/// retries and the deadline follow the profiler's guard.
///
/// With `ctx.stats`, the exact work lands in [`ConvPhase::Gemm`]: per
/// output element, 2 flops (square, add) per in-range window channel
/// plus 4 (scale, bias, `powf` counted as one, divide); bytes are the
/// input read once and the output written once.
///
/// # Errors
///
/// [`ConvError::InvalidGeometry`] for an even or zero `local_size`, and
/// [`ConvError::KernelFault`] when a pool job faults.
pub fn lrn_parallel<T: Scalar + Send + Sync>(
    input: &Tensor<T>,
    params: LrnParams,
    ctx: &ExecCtx<'_>,
) -> Result<Tensor<T>, ConvError> {
    check_local_size(&params)?;
    let (c, plane) = (input.c(), input.h() * input.w());
    let mut out = Tensor::zeros(input.n(), c, input.h(), input.w());
    let x = input.as_slice();
    run_plane_jobs(
        ctx,
        "lrn",
        out.as_mut_slice(),
        (c, plane),
        || (),
        |(), first, dst| {
            let frame = &x[first / c * c * plane..][..c * plane];
            lrn_span(frame, plane, &params, first % c, dst);
        },
    )?;
    let half = params.local_size / 2;
    let window: usize = (0..c)
        .map(|ch| (ch + half + 1).min(c) - ch.saturating_sub(half))
        .sum();
    let flops = (input.n() * plane * (2 * window + 4 * c)) as u64;
    add_layer_work::<T>(ctx.stats, flops, 2 * input.len());
    Ok(out)
}

/// Fully connected layer: flattens the input (per batch element) and
/// multiplies by `weights` (`out_features × in_features`) plus `bias`.
///
/// # Errors
///
/// Returns [`ConvError::ShapeMismatch`] when `in_features != c·h·w` or the
/// bias length differs from `out_features`.
pub fn fully_connected<T: Scalar>(
    input: &Tensor<T>,
    weights: &[T],
    bias: &[T],
    out_features: usize,
) -> Result<Tensor<T>, ConvError> {
    let in_features = input.c() * input.h() * input.w();
    if weights.len() != out_features * in_features {
        return Err(ConvError::ShapeMismatch {
            expected: format!(
                "{} weights ({out_features}x{in_features})",
                out_features * in_features
            ),
            found: format!("{}", weights.len()),
        });
    }
    if bias.len() != out_features {
        return Err(ConvError::ShapeMismatch {
            expected: format!("{out_features} bias values"),
            found: format!("{}", bias.len()),
        });
    }
    let mut out = Tensor::zeros(input.n(), out_features, 1, 1);
    for b in 0..input.n() {
        let base = b * in_features;
        let flat = input.as_slice();
        for o in 0..out_features {
            let mut acc = bias[o];
            for i in 0..in_features {
                acc = acc + weights[o * in_features + i] * flat[base + i];
            }
            out.set(b, o, 0, 0, acc);
        }
    }
    Ok(out)
}

/// Output rows per packed FC panel: four 8-lane accumulators.
pub const FC_PANEL: usize = 32;
/// Input features per K-block: every frame of a batch runs against one
/// panel slice (`FC_KBLOCK·FC_PANEL` floats, 64 KiB) while it is cached.
const FC_KBLOCK: usize = 512;
/// Panels owned by one pool job (a tuning constant; results never
/// depend on it).
const FC_PANELS_PER_JOB: usize = 8;
/// Input features transposed per pack step, so the pack writes one
/// contiguous `FC_PACK_BLOCK·FC_PANEL` region at a time.
const FC_PACK_BLOCK: usize = 64;

/// A fully connected layer's weights packed once into 32-row output
/// panels, `[panel][i][FC_PANEL]`, for [`PackedFc::run`].
///
/// Only the last, ragged panel is zero-padded (1000 outputs pack into
/// 1024 rows); the padded rows are computed and discarded.
///
/// `run` is bit-identical to [`fully_connected`]: each panel keeps 32
/// accumulators that start from the bias and add `w[o][i]·x[i]` for
/// ascending `i` as a separate multiply and add — exactly the scalar
/// loop's sequence per output. Storing the accumulators between
/// K-blocks does not round.
#[derive(Debug, Clone)]
pub struct PackedFc {
    panels: Vec<f32>,
    /// Bias padded to whole panels.
    bias: Vec<f32>,
    out_features: usize,
    in_features: usize,
}

impl PackedFc {
    /// Packs a row-major `out_features × in_features` matrix and its bias.
    ///
    /// # Errors
    ///
    /// Returns [`ConvError::ShapeMismatch`] when `weights` does not hold
    /// `out_features·in_features` values or `bias` not `out_features`.
    pub fn new(
        weights: &[f32],
        bias: &[f32],
        out_features: usize,
        in_features: usize,
    ) -> Result<Self, ConvError> {
        if out_features.checked_mul(in_features) != Some(weights.len()) {
            return Err(ConvError::ShapeMismatch {
                expected: format!("{out_features}x{in_features} weights"),
                found: format!("{}", weights.len()),
            });
        }
        if bias.len() != out_features {
            return Err(ConvError::ShapeMismatch {
                expected: format!("{out_features} bias values"),
                found: format!("{}", bias.len()),
            });
        }
        let n_panels = out_features.div_ceil(FC_PANEL);
        let panel_len = in_features * FC_PANEL;
        let mut panels = vec![0.0f32; n_panels * panel_len];
        for p in 0..n_panels {
            let panel = &mut panels[p * panel_len..][..panel_len];
            let rows = FC_PANEL.min(out_features - p * FC_PANEL);
            for i0 in (0..in_features).step_by(FC_PACK_BLOCK) {
                let i1 = (i0 + FC_PACK_BLOCK).min(in_features);
                let block = &mut panel[i0 * FC_PANEL..i1 * FC_PANEL];
                for r in 0..rows {
                    let src = &weights[(p * FC_PANEL + r) * in_features..][i0..i1];
                    for (dst, &v) in block.chunks_exact_mut(FC_PANEL).zip(src) {
                        dst[r] = v;
                    }
                }
            }
        }
        let mut padded = vec![0.0f32; n_panels * FC_PANEL];
        padded[..out_features].copy_from_slice(bias);
        Ok(PackedFc {
            panels,
            bias: padded,
            out_features,
            in_features,
        })
    }

    /// Heap footprint of the packed panels and bias.
    fn bytes(&self) -> u64 {
        ((self.panels.len() + self.bias.len()) * std::mem::size_of::<f32>()) as u64
    }

    /// Runs the layer on every frame of `input` (flattened per frame),
    /// threaded over panel jobs on the shared pool (`prof` scoped to
    /// `fc`). Frames are the GEMM N dimension: within each K-block every
    /// frame runs against the same cached panel slice. Each output is
    /// written by one job in a fixed order, so the result is
    /// bit-identical to [`fully_connected`] at any thread count and on
    /// every `kernel`.
    ///
    /// With `stats`, the exact `2·out·in·n` flops, the bytes moved
    /// (packed weights, input, output) and the per-job kernel time are
    /// recorded as [`ConvPhase::Gemm`].
    ///
    /// # Errors
    ///
    /// Returns [`ConvError::ShapeMismatch`] when `c·h·w` of `input`
    /// differs from the packed `in_features`, and
    /// [`ConvError::KernelFault`] when a pool job faults.
    pub fn run(
        &self,
        input: &Tensor<f32>,
        threads: usize,
        stats: Option<&ConvStats>,
        prof: &PoolProfiler,
        kernel: KernelChoice,
    ) -> Result<Tensor<f32>, ConvError> {
        let in_f = input.c() * input.h() * input.w();
        if in_f != self.in_features {
            return Err(ConvError::ShapeMismatch {
                expected: format!("{} input features", self.in_features),
                found: format!("{in_f}"),
            });
        }
        let (n, out_f) = (input.n(), self.out_features);
        let mut out = Tensor::zeros(n, out_f, 1, 1);
        if n == 0 {
            return Ok(out);
        }
        let n_panels = out_f.div_ceil(FC_PANEL);
        let x = input.as_slice();
        // Staged as [panel][frame][FC_PANEL]: each job owns a contiguous
        // run of whole panels.
        let mut staged = vec![0.0f32; n_panels * n * FC_PANEL];
        let slices = winofuse_runtime::split_chunks(&mut staged, FC_PANELS_PER_JOB * n * FC_PANEL);
        winofuse_runtime::run_sliced_jobs_isolated(
            winofuse_runtime::resolve_threads(threads),
            slices,
            &prof.scoped("fc"),
            || (),
            |(), job, job_accs| {
                let t0 = stats.map(|_| Instant::now());
                let p0 = job * FC_PANELS_PER_JOB;
                for (p, accs) in (p0..).zip(job_accs.chunks_exact_mut(n * FC_PANEL)) {
                    let panel = &self.panels[p * in_f * FC_PANEL..][..in_f * FC_PANEL];
                    let bias = &self.bias[p * FC_PANEL..][..FC_PANEL];
                    for acc in accs.chunks_exact_mut(FC_PANEL) {
                        acc.copy_from_slice(bias);
                    }
                    for k0 in (0..in_f).step_by(FC_KBLOCK) {
                        let k1 = (k0 + FC_KBLOCK).min(in_f);
                        let w = &panel[k0 * FC_PANEL..k1 * FC_PANEL];
                        for (b, acc) in accs.chunks_exact_mut(FC_PANEL).enumerate() {
                            let acc: &mut [f32; FC_PANEL] =
                                acc.try_into().expect("invariant: accumulator is one panel");
                            kernel.fc_panel_f32(acc, w, &x[b * in_f + k0..b * in_f + k1]);
                        }
                    }
                }
                if let (Some(s), Some(t0)) = (stats, t0) {
                    s.add_phase_ns(ConvPhase::Gemm, t0.elapsed().as_nanos() as u64);
                }
            },
        )?;
        let dst = out.as_mut_slice();
        for (p, panel) in staged.chunks_exact(n * FC_PANEL).enumerate() {
            let rows = FC_PANEL.min(out_f - p * FC_PANEL);
            for (b, acc) in panel.chunks_exact(FC_PANEL).enumerate() {
                dst[b * out_f + p * FC_PANEL..][..rows].copy_from_slice(&acc[..rows]);
            }
        }
        if let Some(s) = stats {
            let flops = 2 * (out_f * in_f * n) as u64;
            let io = ((n * in_f + n * out_f) * std::mem::size_of::<f32>()) as u64;
            s.add_phase(ConvPhase::Gemm, flops, self.bytes() + io);
        }
        Ok(out)
    }
}

/// Numerically stable softmax over the channel dimension (computed in
/// `f32`; `h` and `w` must be 1, i.e. the output of a fully connected
/// layer).
///
/// # Errors
///
/// Returns [`ConvError::ShapeMismatch`] for spatially extended input.
pub fn softmax<T: Scalar>(input: &Tensor<T>) -> Result<Tensor<T>, ConvError> {
    if input.h() != 1 || input.w() != 1 {
        return Err(ConvError::ShapeMismatch {
            expected: "1x1 spatial extent".into(),
            found: format!("{}x{}", input.h(), input.w()),
        });
    }
    let mut out = Tensor::zeros(input.n(), input.c(), 1, 1);
    for b in 0..input.n() {
        let vals: Vec<f32> = (0..input.c())
            .map(|c| input.get(b, c, 0, 0).to_f32())
            .collect();
        let max = vals.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let exps: Vec<f32> = vals.iter().map(|v| (v - max).exp()).collect();
        let total: f32 = exps.iter().sum();
        for (c, e) in exps.iter().enumerate() {
            out.set(b, c, 0, 0, T::from_f32(e / total));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixed::Fix16;
    use crate::tensor::random_tensor;

    #[test]
    fn max_pool_2x2() {
        let geom = ConvGeometry::new(4, 4, 2, 2, 0).unwrap();
        let x = Tensor::from_fn(1, 1, 4, 4, |_, _, h, w| (h * 4 + w) as f32);
        let y = pool(&x, geom, PoolKind::Max).unwrap();
        assert_eq!(y.as_slice(), &[5.0, 7.0, 13.0, 15.0]);
    }

    #[test]
    fn avg_pool_2x2() {
        let geom = ConvGeometry::new(2, 2, 2, 2, 0).unwrap();
        let x = Tensor::from_vec(1, 1, 2, 2, vec![1.0f32, 2.0, 3.0, 4.0]).unwrap();
        let y = pool(&x, geom, PoolKind::Average).unwrap();
        assert_eq!(y.as_slice(), &[2.5]);
    }

    #[test]
    fn max_pool_handles_negative_values() {
        let geom = ConvGeometry::new(2, 2, 2, 2, 0).unwrap();
        let x = Tensor::from_vec(1, 1, 2, 2, vec![-5.0f32, -2.0, -9.0, -3.0]).unwrap();
        let y = pool(&x, geom, PoolKind::Max).unwrap();
        assert_eq!(y.as_slice(), &[-2.0]);
    }

    #[test]
    fn pool_padding_is_excluded_not_zero() {
        // With pad 1 and all-negative input, a zero-padding max pool would
        // wrongly return 0.
        let geom = ConvGeometry::new(2, 2, 3, 2, 1).unwrap();
        let x = Tensor::filled(1, 1, 2, 2, -1.0f32);
        let y = pool(&x, geom, PoolKind::Max).unwrap();
        assert!(y.as_slice().iter().all(|&v| v == -1.0));
        // Average over a padded corner window counts only in-bounds cells.
        let ya = pool(&x, geom, PoolKind::Average).unwrap();
        assert!(ya.as_slice().iter().all(|&v| (v + 1.0).abs() < 1e-6));
    }

    #[test]
    fn overlapping_pool_alexnet_style() {
        // AlexNet uses 3x3 pooling with stride 2.
        let geom = ConvGeometry::new(5, 5, 3, 2, 0).unwrap();
        let x = Tensor::from_fn(1, 1, 5, 5, |_, _, h, w| (h * 5 + w) as f32);
        let y = pool(&x, geom, PoolKind::Max).unwrap();
        assert_eq!(y.shape(), (1, 1, 2, 2));
        assert_eq!(y.get(0, 0, 1, 1), 24.0);
    }

    #[test]
    fn relu_clamps_negatives() {
        let x = Tensor::from_vec(1, 1, 1, 4, vec![-1.0f32, 0.0, 0.5, -0.1]).unwrap();
        let y = relu(&x);
        assert_eq!(y.as_slice(), &[0.0, 0.0, 0.5, 0.0]);
    }

    #[test]
    fn relu_works_on_fix16() {
        let x: Tensor<Fix16> = Tensor::from_vec(
            1,
            1,
            1,
            2,
            vec![Fix16::from_f32(-2.0), Fix16::from_f32(3.0)],
        )
        .unwrap();
        let y = relu(&x);
        assert_eq!(y.get(0, 0, 0, 0), Fix16::ZERO);
        assert_eq!(y.get(0, 0, 0, 1), Fix16::from_f32(3.0));
    }

    #[test]
    fn lrn_preserves_shape_and_shrinks_magnitudes() {
        let x = random_tensor(1, 8, 3, 3, 42);
        let y = lrn(&x, LrnParams::default()).unwrap();
        assert_eq!(y.shape(), x.shape());
        for (a, b) in x.as_slice().iter().zip(y.as_slice()) {
            assert!(b.abs() <= a.abs() + 1e-6, "lrn must not amplify");
            assert_eq!(a.signum(), if *b == 0.0 { a.signum() } else { b.signum() });
        }
    }

    #[test]
    fn lrn_denominator_formula() {
        // Single channel, local_size 1: b = a / (k + α·a²)^β.
        let x = Tensor::filled(1, 1, 1, 1, 2.0f32);
        let p = LrnParams {
            local_size: 1,
            alpha: 0.5,
            beta: 1.0,
            k: 1.0,
        };
        let y = lrn(&x, p).unwrap();
        assert!((y.get(0, 0, 0, 0) - 2.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn lrn_rejects_even_window() {
        let x = random_tensor(1, 4, 2, 2, 1);
        let p = LrnParams {
            local_size: 4,
            ..LrnParams::default()
        };
        assert!(lrn(&x, p).is_err());
    }

    #[test]
    fn fully_connected_known_values() {
        let x = Tensor::from_vec(1, 1, 1, 3, vec![1.0f32, 2.0, 3.0]).unwrap();
        let w = vec![1.0f32, 0.0, -1.0, 0.5, 0.5, 0.5];
        let b = vec![10.0f32, 0.0];
        let y = fully_connected(&x, &w, &b, 2).unwrap();
        assert_eq!(y.get(0, 0, 0, 0), 8.0); // 1 - 3 + 10
        assert_eq!(y.get(0, 1, 0, 0), 3.0); // (1+2+3)/2
    }

    #[test]
    fn fully_connected_validates_shapes() {
        let x = Tensor::from_vec(1, 1, 1, 3, vec![1.0f32, 2.0, 3.0]).unwrap();
        assert!(fully_connected(&x, &[0.0; 5], &[0.0; 2], 2).is_err());
        assert!(fully_connected(&x, &[0.0; 6], &[0.0; 3], 2).is_err());
    }

    #[test]
    fn softmax_sums_to_one_and_orders() {
        let x = Tensor::from_vec(1, 3, 1, 1, vec![1.0f32, 3.0, 2.0]).unwrap();
        let y = softmax(&x).unwrap();
        let s: f32 = y.as_slice().iter().sum();
        assert!((s - 1.0).abs() < 1e-6);
        assert!(y.get(0, 1, 0, 0) > y.get(0, 2, 0, 0));
        assert!(y.get(0, 2, 0, 0) > y.get(0, 0, 0, 0));
    }

    #[test]
    fn softmax_is_stable_for_large_logits() {
        let x = Tensor::from_vec(1, 2, 1, 1, vec![1000.0f32, 1000.0]).unwrap();
        let y = softmax(&x).unwrap();
        assert!((y.get(0, 0, 0, 0) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn softmax_rejects_spatial_input() {
        let x: Tensor<f32> = Tensor::zeros(1, 2, 2, 2);
        assert!(softmax(&x).is_err());
    }
}
