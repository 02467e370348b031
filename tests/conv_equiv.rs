//! Equivalence contract for the fast convolution execution backends.
//!
//! The batched Winograd-as-GEMM path and the blocked im2col+GEMM direct
//! path must agree with the naive reference kernels on arbitrary
//! geometries — including awkward ones where the image size is not a
//! multiple of the Winograd output tile — and must be *bit-identical*
//! across worker counts: `--threads N` may change wall-clock time, never
//! results. Fixed-point results must match the naive kernel exactly
//! (wide-integer accumulation is order-independent).

use proptest::prelude::*;
use winofuse::conv::cook_toom::{f43, WinogradTransform};
use winofuse::conv::direct::PackedKernels;
use winofuse::conv::fixed::Fix16;
use winofuse::conv::kernel::{ConvKernel, ExecCtx};
use winofuse::conv::microkernel::KernelChoice;
use winofuse::conv::ops::{self, PackedFc};
use winofuse::conv::sparse::SparseFilters;
use winofuse::conv::tensor::{random_tensor, Tensor};
use winofuse::conv::winograd::{self, BatchedFilters, WinoSchedule};
use winofuse::conv::{direct, ConvGeometry};
use winofuse::model::runtime::{LayerWeights, NetworkExecutor, NetworkWeights};
use winofuse::model::{ConvParams, FcParams, FmShape, LayerKind, ModelError, Network, PoolParams};
use winofuse::runtime::faults::{install_quiet_panic_hook, FaultInjector, FaultMode};
use winofuse::runtime::{GuardPolicy, PoolProfiler};
use winofuse::telemetry::Telemetry;

const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Absolute tolerance scaled by accumulation depth (inputs are in
/// [-1, 1), so the sum of `channels·K²` products bounds the magnitude).
fn tol(channels: usize, k: usize) -> f32 {
    1e-4 * (channels * k * k) as f32 + 1e-4
}

/// Runs the batched Winograd path at every thread count and checks the
/// results are bit-identical before returning the single-threaded one.
fn batched_all_threads(x: &Tensor<f32>, kr: &Tensor<f32>, geom: ConvGeometry) -> Tensor<f32> {
    let filters = ConvKernel::Winograd(BatchedFilters::new(kr, &f43()).unwrap());
    let base = filters.run(x, geom, &ExecCtx::new(1)).unwrap();
    for threads in &THREADS[1..] {
        let y = filters.run(x, geom, &ExecCtx::new(*threads)).unwrap();
        assert_eq!(base, y, "batched Winograd differs at {threads} threads");
    }
    base
}

/// Same contract for the blocked direct path.
fn direct_fast_all_threads(x: &Tensor<f32>, kr: &Tensor<f32>, geom: ConvGeometry) -> Tensor<f32> {
    let packed = ConvKernel::Direct(PackedKernels::new(kr));
    let base = packed.run(x, geom, &ExecCtx::new(1)).unwrap();
    for threads in &THREADS[1..] {
        let y = packed.run(x, geom, &ExecCtx::new(*threads)).unwrap();
        assert_eq!(base, y, "fast direct differs at {threads} threads");
    }
    base
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Fast Winograd vs naive Winograd vs naive direct, on geometries
    /// whose edges rarely align with the F(4,3) output tile.
    #[test]
    fn fast_winograd_matches_both_references(
        batch in 1usize..3,
        h in 5usize..20,
        w in 5usize..20,
        pad in 0usize..3,
        in_c in 1usize..18,
        out_c in 1usize..18,
        seed in 0u64..1000,
    ) {
        let geom = ConvGeometry::rect(h, w, 3, 1, pad).unwrap();
        let x = random_tensor(batch, in_c, h, w, seed);
        let kr = random_tensor(out_c, in_c, 3, 3, seed + 1);
        let naive_wino = winograd::conv2d_f43(&x, &kr, geom).unwrap();
        let naive_direct = direct::conv2d(&x, &kr, geom).unwrap();
        let fast = batched_all_threads(&x, &kr, geom);
        prop_assert!(
            fast.approx_eq(&naive_wino, tol(in_c, 3)),
            "vs naive winograd: max diff {}",
            fast.max_abs_diff(&naive_wino).unwrap()
        );
        prop_assert!(
            fast.approx_eq(&naive_direct, tol(in_c, 3)),
            "vs naive direct: max diff {}",
            fast.max_abs_diff(&naive_direct).unwrap()
        );
    }

    /// Blocked direct vs naive direct, including strided and large-kernel
    /// shapes the Winograd path never sees.
    #[test]
    fn fast_direct_matches_naive(
        h in 3usize..16,
        w in 3usize..16,
        k in 1usize..6,
        s in 1usize..3,
        pad in 0usize..3,
        in_c in 1usize..18,
        out_c in 1usize..18,
        seed in 0u64..1000,
    ) {
        prop_assume!(k <= h + 2 * pad && k <= w + 2 * pad);
        let geom = ConvGeometry::rect(h, w, k, s, pad).unwrap();
        let x = random_tensor(1, in_c, h, w, seed);
        let kr = random_tensor(out_c, in_c, k, k, seed + 3);
        let naive = direct::conv2d(&x, &kr, geom).unwrap();
        let fast = direct_fast_all_threads(&x, &kr, geom);
        prop_assert!(
            fast.approx_eq(&naive, tol(in_c, k)),
            "max diff {}",
            fast.max_abs_diff(&naive).unwrap()
        );
    }

    /// Fixed-point fast path: exact accumulation means *equality* with
    /// the naive kernel, at every thread count.
    #[test]
    fn fix16_fast_is_exact(
        h in 3usize..14,
        w in 3usize..14,
        k in 1usize..6,
        s in 1usize..3,
        pad in 0usize..3,
        in_c in 1usize..10,
        out_c in 1usize..10,
        seed in 0u64..1000,
    ) {
        prop_assume!(k <= h + 2 * pad && k <= w + 2 * pad);
        let geom = ConvGeometry::rect(h, w, k, s, pad).unwrap();
        let x: Tensor<Fix16> = random_tensor(1, in_c, h, w, seed).cast();
        let kr: Tensor<Fix16> = random_tensor(out_c, in_c, k, k, seed + 5).cast();
        let naive = direct::conv2d_fix16(&x, &kr, geom).unwrap();
        for threads in THREADS {
            let fast = direct::conv2d_fix16_fast(&x, &kr, geom, &ExecCtx::new(threads)).unwrap();
            prop_assert_eq!(&naive, &fast, "fix16 differs at {} threads", threads);
        }
    }
}

// --- Microkernel oracle matrix -------------------------------------------
//
// The scalar 4×8 kernel is the bit-exactness oracle: every other
// `MicroKernel` implementation the host supports must reproduce its
// output *bitwise* through every execution path (batched Winograd under
// both schedules, the fused direct path, the fixed-point span path), at
// every thread count. The vector kernels keep the same per-element
// ascending-k accumulation order, so this is an equality contract, not a
// tolerance contract.

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Batched Winograd: every supported kernel × both schedules ×
    /// several thread counts, bitwise against the scalar serial oracle.
    /// Odd geometries keep partial tiles and edge clips in play.
    #[test]
    fn winograd_kernels_match_scalar_oracle(
        batch in 1usize..3,
        h in 5usize..24,
        w in 5usize..24,
        pad in 0usize..2,
        in_c in 1usize..14,
        out_c in 1usize..14,
        seed in 0u64..1000,
    ) {
        let geom = ConvGeometry::rect(h, w, 3, 1, pad).unwrap();
        let x = random_tensor(batch, in_c, h, w, seed);
        let kr = random_tensor(out_c, in_c, 3, 3, seed + 11);
        let filters = ConvKernel::Winograd(BatchedFilters::new(&kr, &f43()).unwrap());
        let oracle = filters.run(&x, geom, &ExecCtx {
            schedule: WinoSchedule::TransformPoint,
            kernel: Some(KernelChoice::Scalar),
            ..ExecCtx::new(1)
        }).unwrap();
        for kernel in KernelChoice::all_supported() {
            for schedule in [WinoSchedule::TransformPoint, WinoSchedule::TileBlock] {
                for threads in [1usize, 4] {
                    let y = filters.run(&x, geom, &ExecCtx {
                        schedule,
                        kernel: Some(kernel),
                        ..ExecCtx::new(threads)
                    }).unwrap();
                    prop_assert_eq!(
                        &y, &oracle,
                        "{} under {:?} @ {} threads diverges from scalar oracle",
                        kernel.name(), schedule, threads
                    );
                }
            }
        }
    }

    /// Fused direct path: every supported kernel bitwise against the
    /// scalar oracle, including strided/large-kernel geometries.
    #[test]
    fn direct_kernels_match_scalar_oracle(
        h in 3usize..16,
        w in 3usize..16,
        k in 1usize..6,
        s in 1usize..3,
        pad in 0usize..3,
        in_c in 1usize..14,
        out_c in 1usize..14,
        seed in 0u64..1000,
    ) {
        prop_assume!(k <= h + 2 * pad && k <= w + 2 * pad);
        let geom = ConvGeometry::rect(h, w, k, s, pad).unwrap();
        let x = random_tensor(2, in_c, h, w, seed);
        let kr = random_tensor(out_c, in_c, k, k, seed + 13);
        let packed = ConvKernel::Direct(PackedKernels::new(&kr));
        let oracle = packed.run(&x, geom, &ExecCtx {
            kernel: Some(KernelChoice::Scalar),
            ..ExecCtx::new(1)
        }).unwrap();
        for kernel in KernelChoice::all_supported() {
            for threads in [1usize, 4] {
                let y = packed.run(&x, geom, &ExecCtx {
                    kernel: Some(kernel),
                    ..ExecCtx::new(threads)
                }).unwrap();
                prop_assert_eq!(
                    &y, &oracle,
                    "{} direct @ {} threads diverges from scalar oracle",
                    kernel.name(), threads
                );
            }
        }
    }

    /// Fixed-point span path: every supported kernel must equal the naive
    /// wide-accumulator reference exactly (integer accumulation is exact,
    /// so any lane arrangement is bit-identical by construction — this
    /// pins that the packed lanes actually are).
    #[test]
    fn fix16_kernels_match_scalar_oracle(
        h in 3usize..14,
        w in 3usize..14,
        k in 1usize..6,
        s in 1usize..3,
        pad in 0usize..3,
        in_c in 1usize..10,
        out_c in 1usize..10,
        seed in 0u64..1000,
    ) {
        prop_assume!(k <= h + 2 * pad && k <= w + 2 * pad);
        let geom = ConvGeometry::rect(h, w, k, s, pad).unwrap();
        let x: Tensor<Fix16> = random_tensor(1, in_c, h, w, seed).cast();
        let kr: Tensor<Fix16> = random_tensor(out_c, in_c, k, k, seed + 17).cast();
        let naive = direct::conv2d_fix16(&x, &kr, geom).unwrap();
        for kernel in KernelChoice::all_supported() {
            for threads in [1usize, 4] {
                let ctx = ExecCtx { kernel: Some(kernel), ..ExecCtx::new(threads) };
                let y = direct::conv2d_fix16_fast(&x, &kr, geom, &ctx).unwrap();
                prop_assert_eq!(
                    &y, &naive,
                    "{} fix16 @ {} threads diverges from naive reference",
                    kernel.name(), threads
                );
            }
        }
    }
}

/// Hand-picked geometries where neither image edge is a multiple of the
/// F(4,3) output tile — the clipping paths get no slack here.
#[test]
fn odd_geometries_batched_winograd() {
    for &(h, w, pad, in_c, out_c) in &[
        (9usize, 11usize, 0usize, 3usize, 5usize),
        (13, 7, 1, 17, 4),
        (17, 5, 2, 7, 17),
        (6, 10, 1, 1, 1),
        (5, 5, 0, 2, 3),
    ] {
        let geom = ConvGeometry::rect(h, w, 3, 1, pad).unwrap();
        let x = random_tensor(2, in_c, h, w, h as u64 * 31 + w as u64);
        let kr = random_tensor(out_c, in_c, 3, 3, 977);
        let naive = winograd::conv2d_f43(&x, &kr, geom).unwrap();
        let fast = batched_all_threads(&x, &kr, geom);
        assert!(
            fast.approx_eq(&naive, tol(in_c, 3)),
            "{h}x{w} pad {pad}: max diff {}",
            fast.max_abs_diff(&naive).unwrap()
        );
    }
}

// --- Transform-kernel oracle matrix --------------------------------------
//
// The scatter and gather transforms run over nonzero coefficient lists on
// 8 lanes (tiles or channels). They must reproduce, bit for bit, the dense
// scalar products a naive per-tile implementation computes — every
// coefficient, ascending order, one multiply then one add from +0.0 —
// for every transform size, remainder lane count, padding, schedule and
// kernel.

/// `a[n×k] · b[k×p]`, row-major, dense and in ascending `k`.
fn dense_matmul(a: &[f32], b: &[f32], n: usize, k: usize, p: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; n * p];
    for i in 0..n {
        for j in 0..p {
            let mut acc = 0.0f32;
            for l in 0..k {
                acc += a[i * k + l] * b[l * p + j];
            }
            out[i * p + j] = acc;
        }
    }
    out
}

/// Per-tile scalar Winograd: `V = Bᵀ·d·B` per channel, `M = Σ_c U ⊙ V` in
/// ascending channel order, `Y = Aᵀ·M·A`, clipped at the edges. With
/// `in_c` inside one GEMM `KC` block this is the association the batched
/// path uses, so the two agree exactly.
fn naive_scalar_winograd(
    x: &Tensor<f32>,
    kr: &Tensor<f32>,
    geom: ConvGeometry,
    t: &WinogradTransform,
) -> Tensor<f32> {
    let (m, alpha) = (t.m(), t.alpha());
    let (b_t, a_t) = (t.b_t_f32(), t.a_t_f32());
    let (b, a) = (b_t.transpose(), a_t.transpose());
    let u = winograd::TransformedFilters::new(kr, t).unwrap();
    let (batch, in_c, _, _) = x.shape();
    let out_c = kr.n();
    let (oh, ow) = (geom.output_height(), geom.output_width());
    let pad = geom.pad() as isize;
    let mut out = Tensor::zeros(batch, out_c, oh, ow);
    for bn in 0..batch {
        for th in 0..oh.div_ceil(m) {
            for tw in 0..ow.div_ceil(m) {
                let (h0, w0) = ((th * m) as isize - pad, (tw * m) as isize - pad);
                let v: Vec<Vec<f32>> = (0..in_c)
                    .map(|c| {
                        let d: Vec<f32> = (0..alpha * alpha)
                            .map(|i| {
                                let (du, dv) = ((i / alpha) as isize, (i % alpha) as isize);
                                x.get_padded(bn, c, h0 + du, w0 + dv)
                            })
                            .collect();
                        let t1 = dense_matmul(b_t.as_slice(), &d, alpha, alpha, alpha);
                        dense_matmul(&t1, b.as_slice(), alpha, alpha, alpha)
                    })
                    .collect();
                for n in 0..out_c {
                    let mt: Vec<f32> = (0..alpha * alpha)
                        .map(|uv| {
                            let mut acc = 0.0f32;
                            for (c, vc) in v.iter().enumerate() {
                                acc += u.bank(n, c).as_slice()[uv] * vc[uv];
                            }
                            acc
                        })
                        .collect();
                    let g1 = dense_matmul(a_t.as_slice(), &mt, m, alpha, alpha);
                    let y = dense_matmul(&g1, a.as_slice(), m, alpha, m);
                    for du in 0..m.min(oh - th * m) {
                        for dv in 0..m.min(ow - tw * m) {
                            out.set(bn, n, th * m + du, tw * m + dv, y[du * m + dv]);
                        }
                    }
                }
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Dense and density-1000 sparse banks, both schedules, every
    /// supported kernel: bitwise equal to the naive scalar transforms.
    /// Tile counts and `in_c` range over non-multiples of 8, so partial
    /// lane groups run on both lane axes.
    #[test]
    fn lane_transforms_match_naive_scalar(
        m_idx in 0usize..3,
        batch in 1usize..3,
        h in 5usize..23,
        w in 5usize..23,
        pad in 0usize..3,
        in_c in 1usize..20,
        out_c in 1usize..10,
        seed in 0u64..1000,
    ) {
        let m = [2usize, 4, 6][m_idx];
        let t = WinogradTransform::generate(m, 3).unwrap();
        let geom = ConvGeometry::rect(h, w, 3, 1, pad).unwrap();
        let x = random_tensor(batch, in_c, h, w, seed);
        let kr = random_tensor(out_c, in_c, 3, 3, seed + 19);
        let oracle = naive_scalar_winograd(&x, &kr, geom, &t);
        let dense = ConvKernel::Winograd(BatchedFilters::new(&kr, &t).unwrap());
        let sparse = ConvKernel::Sparse(SparseFilters::new(&kr, &t, 1000).unwrap());
        for kernel in KernelChoice::all_supported() {
            for schedule in [WinoSchedule::TransformPoint, WinoSchedule::TileBlock] {
                let ctx = ExecCtx { schedule, kernel: Some(kernel), ..ExecCtx::new(2) };
                let y = dense.run(&x, geom, &ctx).unwrap();
                prop_assert_eq!(
                    &y, &oracle,
                    "dense F({},3) {} under {:?} diverges from the scalar transforms",
                    m, kernel.name(), schedule
                );
                let ys = sparse.run(&x, geom, &ctx).unwrap();
                prop_assert_eq!(
                    &ys, &oracle,
                    "sparse F({},3) {} under {:?} diverges from the scalar transforms",
                    m, kernel.name(), schedule
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Packed FC panels: every supported kernel at 1/2/4/8 threads,
    /// bitwise equal to the scalar `ops::fully_connected` loop. `out`
    /// covers a single row, ragged panels and several panels; `in`
    /// ranges over values that are mostly not multiples of 8 and cross
    /// the 512-wide K-block.
    #[test]
    fn packed_fc_matches_scalar_fully_connected(
        out_idx in 0usize..6,
        in_f in 1usize..1100,
        batch in 1usize..10,
        seed in 0u64..1000,
    ) {
        let out_f = [1usize, 7, 31, 32, 33, 100][out_idx];
        let x = random_tensor(batch, in_f, 1, 1, seed);
        let w = random_tensor(1, 1, out_f, in_f, seed + 1).as_slice().to_vec();
        let bias = random_tensor(1, 1, 1, out_f, seed + 2).as_slice().to_vec();
        let oracle = ops::fully_connected(&x, &w, &bias, out_f).unwrap();
        let packed = PackedFc::new(&w, &bias, out_f, in_f).unwrap();
        let prof = PoolProfiler::disabled();
        for kernel in KernelChoice::all_supported() {
            for threads in THREADS {
                let y = packed.run(&x, threads, None, &prof, kernel).unwrap();
                prop_assert_eq!(
                    &y, &oracle,
                    "{} fc {}x{} batch {} @ {} threads diverges from the scalar loop",
                    kernel.name(), out_f, in_f, batch, threads
                );
            }
        }
    }
}

/// conv → pool → fc+relu → fc → softmax: the smallest net that sends
/// the executor down its FC path (no zoo test net has an FC layer).
fn fc_test_net() -> Network {
    Network::builder("fc_head", FmShape::new(3, 12, 12))
        .conv("conv1", ConvParams::new(8, 3, 1, 1, true))
        .pool("pool1", PoolParams::max2x2())
        .fc(
            "fc1",
            FcParams {
                num_output: 40,
                relu: true,
            },
        )
        .fc(
            "fc2",
            FcParams {
                num_output: 10,
                relu: false,
            },
        )
        .softmax("prob")
        .build()
        .expect("fc test net")
}

#[test]
fn executor_fc_layers_match_scalar_oracle_at_any_thread_count() {
    install_quiet_panic_hook();
    let net = fc_test_net();
    let weights = NetworkWeights::random(&net, 61).expect("weights");
    let x = random_tensor(3, 3, 12, 12, 62);
    let run_all = |threads: usize| {
        NetworkExecutor::new(&net, &weights)
            .expect("executor")
            .with_threads(threads)
            .run_all(&x)
            .expect("run")
    };
    let base = run_all(1);

    // Every FC output equals the scalar loop applied to the executor's
    // own previous output, bit for bit.
    let mut fc_layers = 0;
    for (i, layer) in net.layers().iter().enumerate() {
        let LayerKind::Fc(fc) = &layer.kind else {
            continue;
        };
        let LayerWeights::Fc { weights: w, bias } = weights.layer(i) else {
            panic!("fc layer `{}` has no fc weights", layer.name);
        };
        let mut want = ops::fully_connected(&base[i - 1], w, bias, fc.num_output).unwrap();
        if fc.relu {
            want = ops::relu(&want);
        }
        assert_eq!(
            base[i], want,
            "`{}` differs from ops::fully_connected",
            layer.name
        );
        fc_layers += 1;
    }
    assert_eq!(fc_layers, 2);

    for threads in THREADS {
        assert_eq!(
            run_all(threads),
            base,
            "outputs differ at {threads} threads"
        );
    }

    // FC pool jobs are fault sites: a panic in one fc1 job surfaces as a
    // typed fault naming fc1.
    let faulty = NetworkExecutor::new(&net, &weights)
        .expect("executor")
        .with_threads(2)
        .with_faults(FaultInjector::parse("panic@pool.fc1/fc#1").expect("spec"))
        .run_all(&x);
    match faulty {
        Err(winofuse::model::ModelError::KernelFault { layer, .. }) => {
            assert!(layer.contains("fc1"), "fault site `{layer}`")
        }
        other => panic!("expected KernelFault, got {other:?}"),
    }
}

/// A transient panic in one packed-FC panel job is absorbed by one retry,
/// and the retried job rewrites its outputs exactly.
#[test]
fn packed_fc_job_panic_recovers_through_retry() {
    install_quiet_panic_hook();
    // 300 outputs = 10 panels = 2 jobs; 600 inputs cross a K-block.
    let (out_f, in_f) = (300, 600);
    let x = random_tensor(3, in_f, 1, 1, 71);
    let w = random_tensor(1, 1, out_f, in_f, 72).as_slice().to_vec();
    let bias = random_tensor(1, 1, 1, out_f, 73).as_slice().to_vec();
    let oracle = ops::fully_connected(&x, &w, &bias, out_f).unwrap();
    let packed = PackedFc::new(&w, &bias, out_f, in_f).unwrap();
    let tel = Telemetry::enabled();
    let prof = PoolProfiler::new(tel.clone(), "fc1")
        .with_faults(FaultInjector::parse("panic@pool.fc1/fc#1").expect("spec"))
        .with_guard(GuardPolicy {
            retries: 1,
            deadline: None,
        });
    let y = packed
        .run(&x, 2, None, &prof, KernelChoice::auto())
        .expect("one retry must absorb the panic");
    assert_eq!(y, oracle, "retried fc job changed the output");
    let s = tel.summary();
    assert_eq!(s.counter("pool.job_panics"), 1);
    assert_eq!(s.counter("pool.job_retries"), 1);
}

/// Element bit patterns, so `-0.0`/`0.0` and NaN payloads count.
fn bits(t: &Tensor<f32>) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The pooled LRN and pooling kernels at 1/2/4/8 threads are bitwise
    /// equal to `ops::lrn` / `ops::pool`. Channel counts cross the job
    /// block, `pad = 1` with `kernel = 1` makes windows that are all
    /// padding, and `negative` pushes every input below zero (a max pool
    /// that counted padding as zero would return 0).
    #[test]
    fn pooled_lrn_and_pool_match_oracles_bitwise(
        (batch, channels) in (1usize..10, 1usize..101),
        (h, w) in (1usize..24, 1usize..24),
        local_idx in 0usize..4,
        (alpha, beta, lrn_k) in (1e-4f32..2.0, 0.5f32..1.0, 1.0f32..2.0),
        (kernel, stride, pad) in (1usize..4, 1usize..4, 0usize..2),
        negative in prop::bool::ANY,
        seed in 0u64..1000,
    ) {
        let mut x = random_tensor(batch, channels, h, w, seed);
        if negative {
            for v in x.as_mut_slice() {
                *v = -v.abs() - 0.25;
            }
        }
        let params = ops::LrnParams {
            local_size: [1, 3, 5, 7][local_idx],
            alpha,
            beta,
            k: lrn_k,
        };
        let lrn = bits(&ops::lrn(&x, params).unwrap());
        let geom = ConvGeometry::rect(h, w, kernel, stride, pad);
        for threads in THREADS {
            let ctx = ExecCtx::new(threads);
            let y = ops::lrn_parallel(&x, params, &ctx).unwrap();
            prop_assert!(bits(&y) == lrn, "lrn differs at {} threads", threads);
            let Ok(geom) = geom else { continue };
            for kind in [ops::PoolKind::Max, ops::PoolKind::Average] {
                let want = ops::pool(&x, geom, kind).unwrap();
                let y = ops::pool_parallel(&x, geom, kind, &ctx).unwrap();
                prop_assert!(
                    bits(&y) == bits(&want),
                    "{:?} pool k{} s{} p{} differs at {} threads", kind, kernel, stride, pad, threads
                );
            }
        }
        // fix16 takes the same bodies.
        let xf: Tensor<Fix16> = x.cast();
        let ctx = ExecCtx::new(2);
        prop_assert_eq!(ops::lrn_parallel(&xf, params, &ctx).unwrap(), ops::lrn(&xf, params).unwrap());
        if let Ok(geom) = geom {
            let kind = ops::PoolKind::Max;
            prop_assert_eq!(
                ops::pool_parallel(&xf, geom, kind, &ctx).unwrap(),
                ops::pool(&xf, geom, kind).unwrap()
            );
        }
    }
}

/// Windows wholly in the padding produce 0 for both pool kinds, like the
/// oracle (and no out-of-range read).
#[test]
fn pooled_all_padding_windows_match_oracle() {
    let x = Tensor::filled(2, 3, 2, 3, -1.5f32);
    for (k, s, pad) in [(1, 1, 1), (1, 2, 1), (1, 1, 2), (2, 3, 2)] {
        let geom = ConvGeometry::rect(2, 3, k, s, pad).unwrap();
        for kind in [ops::PoolKind::Max, ops::PoolKind::Average] {
            let want = ops::pool(&x, geom, kind).unwrap();
            assert!(
                want.as_slice().contains(&0.0),
                "k{k} s{s} p{pad} has no empty window"
            );
            let y = ops::pool_parallel(&x, geom, kind, &ExecCtx::new(2)).unwrap();
            assert_eq!(bits(&y), bits(&want), "{kind:?} k{k} s{s} p{pad}");
        }
    }
}

/// conv → LRN → pool: the executor's LRN and pool layers equal their
/// `ops` oracles on its own previous outputs and are bit-identical at
/// every thread count; their pool jobs are fault sites whose panics
/// surface as typed faults naming the layer in both fault modes, and a
/// retried panic rewrites its planes exactly.
#[test]
fn executor_lrn_and_pool_layers_match_oracles_and_fault_cleanly() {
    install_quiet_panic_hook();
    let net = winofuse::model::zoo::mixed_test_net();
    let weights = NetworkWeights::random(&net, 81).expect("weights");
    let x = random_tensor(3, 4, 24, 24, 82);
    let exec = |threads: usize| {
        NetworkExecutor::new(&net, &weights)
            .expect("executor")
            .with_threads(threads)
    };
    let base = exec(1).run_all(&x).expect("run");
    let mut checked = 0;
    for (i, layer) in net.layers().iter().enumerate() {
        let want = match &layer.kind {
            LayerKind::Lrn(spec) => ops::lrn(&base[i - 1], (*spec).into()).unwrap(),
            LayerKind::Pool(p) => {
                let prev = &base[i - 1];
                let geom = ConvGeometry::rect(prev.h(), prev.w(), p.kernel, p.stride, p.pad);
                ops::pool(prev, geom.unwrap(), p.kind).unwrap()
            }
            _ => continue,
        };
        assert_eq!(
            bits(&base[i]),
            bits(&want),
            "`{}` differs from its oracle",
            layer.name
        );
        checked += 1;
    }
    assert_eq!(checked, 3, "norm1, pool1 and pool2");
    for threads in THREADS {
        let outs = exec(threads).run_all(&x).expect("run");
        assert!(
            outs.iter().zip(&base).all(|(a, b)| bits(a) == bits(b)),
            "outputs differ at {threads} threads"
        );
    }

    for (site, layer) in [
        ("pool.norm1/lrn#1", "norm1"),
        ("pool.pool1/pool#1", "pool1"),
    ] {
        for mode in [FaultMode::Strict, FaultMode::Lenient] {
            let faulty = exec(2)
                .with_faults(FaultInjector::parse(&format!("panic@{site}")).expect("spec"))
                .with_fault_mode(mode)
                .run_all(&x);
            match faulty {
                Err(ModelError::KernelFault { layer: l, .. }) => {
                    assert_eq!(l, layer, "{site} in {mode:?} mode")
                }
                other => panic!("{site} in {mode:?} mode: expected KernelFault, got {other:?}"),
            }
        }
    }

    // The norm1 layer's pool jobs with one retry: the panicking job runs
    // again and the output is the oracle's.
    let LayerKind::Lrn(spec) = net.layers()[1].kind else {
        panic!("layer 1 of the mixed net is norm1");
    };
    let tel = Telemetry::enabled();
    let ctx = ExecCtx {
        prof: PoolProfiler::new(tel.clone(), "norm1")
            .with_faults(FaultInjector::parse("panic@pool.norm1/lrn#1").expect("spec"))
            .with_guard(GuardPolicy {
                retries: 1,
                deadline: None,
            }),
        ..ExecCtx::new(2)
    };
    let y = ops::lrn_parallel(&base[0], spec.into(), &ctx).expect("one retry absorbs the panic");
    assert_eq!(
        bits(&y),
        bits(&base[1]),
        "retried lrn job changed the output"
    );
    let s = tel.summary();
    assert_eq!(s.counter("pool.job_panics"), 1);
    assert_eq!(s.counter("pool.job_retries"), 1);
}
