//! The one f32 fast-path entry point: a convolution kernel prepared once
//! at plan lowering ([`ConvKernel`]), a layer's per-group kernels with
//! their fault-ladder fallback ([`PreparedConv`]), and the per-call
//! context a kernel runs in ([`ExecCtx`]).
//!
//! The paper's per-layer decision — conventional or Winograd — is made
//! once, when the layer's kernel is prepared; every later call goes
//! through [`ConvKernel::run`] whatever the choice was, the way
//! WinoCNN's kernel-sharing engine serves every layer configuration
//! through one interface.

use crate::cook_toom::WinogradTransform;
use crate::direct::PackedKernels;
use crate::gemm::ConvStats;
use crate::microkernel::KernelChoice;
use crate::sparse::SparseFilters;
use crate::tensor::Tensor;
use crate::winograd::{self, BatchedFilters, WinoBank, WinoSchedule};
use crate::{ConvError, ConvGeometry};
use winofuse_runtime::PoolProfiler;

/// A convolution layer's (or channel group's) filters, prepared once for
/// the algorithm the plan chose.
#[derive(Debug, Clone)]
pub enum ConvKernel {
    /// The conventional algorithm: im2col row blocks against the filter
    /// matrix packed into GEMM `A` panels. Any stride and padding.
    Direct(PackedKernels),
    /// Batched Winograd against the dense transformed planes (stride 1,
    /// `r × r` kernels).
    Winograd(BatchedFilters),
    /// Batched Winograd against transform-domain pruned CSR planes.
    Sparse(SparseFilters),
}

/// Everything a kernel call needs besides its operands.
pub struct ExecCtx<'a> {
    /// Worker threads; `0` auto-detects, `1` runs inline. Results are
    /// bit-identical at any count.
    pub threads: usize,
    /// Phase accounting (flops, bytes, per-phase time) when `Some`.
    pub stats: Option<&'a ConvStats>,
    /// Worker-lane tracing, fault injection and the pool's retry/deadline
    /// guard.
    pub prof: PoolProfiler,
    /// Microkernel pin; `None` dispatches to [`KernelChoice::auto`].
    pub kernel: Option<KernelChoice>,
    /// Parallel partitioning of the Winograd kernels (ignored by the
    /// direct kernel). Every schedule gives bit-identical results.
    pub schedule: WinoSchedule,
}

impl ExecCtx<'_> {
    /// A context with no accounting, no tracing, auto-selected
    /// microkernel and schedule.
    pub fn new(threads: usize) -> Self {
        ExecCtx {
            threads,
            stats: None,
            prof: PoolProfiler::disabled(),
            kernel: None,
            schedule: WinoSchedule::Auto,
        }
    }

    /// The microkernel this call runs.
    pub(crate) fn micro(&self) -> KernelChoice {
        self.kernel.unwrap_or_else(KernelChoice::auto)
    }
}

impl ConvKernel {
    /// Convolves `x` (`N×C×H×W`) with the prepared filters under `geom`.
    ///
    /// # Errors
    ///
    /// * [`ConvError::ShapeMismatch`] when `x` or the kernel size
    ///   disagrees with `geom`, or the input channels with the filters;
    /// * [`ConvError::StrideUnsupported`] for a Winograd or sparse kernel
    ///   with `geom.stride() != 1`;
    /// * [`ConvError::KernelFault`] when the worker pool caught a job
    ///   panic or hit its deadline.
    ///
    /// # Examples
    ///
    /// ```
    /// use winofuse_conv::cook_toom::f43;
    /// use winofuse_conv::kernel::{ConvKernel, ExecCtx};
    /// use winofuse_conv::winograd::BatchedFilters;
    /// use winofuse_conv::{direct, tensor::random_tensor, ConvGeometry};
    ///
    /// # fn main() -> Result<(), winofuse_conv::ConvError> {
    /// let geom = ConvGeometry::new(12, 12, 3, 1, 1)?;
    /// let x = random_tensor(1, 4, 12, 12, 1);
    /// let w = random_tensor(8, 4, 3, 3, 2);
    /// let kernel = ConvKernel::Winograd(BatchedFilters::new(&w, &f43())?);
    /// let y = kernel.run(&x, geom, &ExecCtx::new(2))?;
    /// assert!(direct::conv2d(&x, &w, geom)?.approx_eq(&y, 1e-3));
    /// # Ok(())
    /// # }
    /// ```
    pub fn run(
        &self,
        x: &Tensor<f32>,
        geom: ConvGeometry,
        ctx: &ExecCtx<'_>,
    ) -> Result<Tensor<f32>, ConvError> {
        match self {
            ConvKernel::Direct(k) => k.run(x, geom, ctx),
            ConvKernel::Winograd(f) => winograd::run_batched(WinoBank::Dense(f), x, geom, ctx),
            ConvKernel::Sparse(f) => winograd::run_batched(WinoBank::Sparse(f), x, geom, ctx),
        }
    }
}

/// The algorithm a layer's kernels are prepared for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelAlgo {
    /// [`ConvKernel::Direct`].
    Direct,
    /// [`ConvKernel::Winograd`].
    Winograd,
    /// [`ConvKernel::Sparse`], keeping `density_pm` per-mille of each
    /// transform-domain plane.
    Sparse {
        /// Kept coefficients per plane, per mille.
        density_pm: u16,
    },
}

/// A convolution layer prepared for both rungs of the fault ladder: one
/// kernel per channel group of the chosen algorithm, and — when that
/// choice is Winograd or sparse — the same groups' prepacked direct
/// kernels, which a faulted call falls back to.
#[derive(Debug, Clone)]
pub struct PreparedConv {
    kernels: Vec<ConvKernel>,
    /// Empty when `kernels` are direct already.
    fallback: Vec<ConvKernel>,
}

impl PreparedConv {
    /// Prepares every group's kernels (`groups[g]` is group `g`'s
    /// `N/g × C/g × r × r` slice) for `algo`, the Winograd and sparse
    /// banks under `transform`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`BatchedFilters::new`] and
    /// [`SparseFilters::new`].
    pub fn new(
        groups: &[Tensor<f32>],
        algo: KernelAlgo,
        transform: &WinogradTransform,
    ) -> Result<Self, ConvError> {
        let direct = |k| ConvKernel::Direct(PackedKernels::new(k));
        let kernels = groups
            .iter()
            .map(|k| {
                Ok(match algo {
                    KernelAlgo::Direct => direct(k),
                    KernelAlgo::Winograd => {
                        ConvKernel::Winograd(BatchedFilters::new(k, transform)?)
                    }
                    KernelAlgo::Sparse { density_pm } => {
                        ConvKernel::Sparse(SparseFilters::new(k, transform, density_pm)?)
                    }
                })
            })
            .collect::<Result<Vec<_>, ConvError>>()?;
        let fallback = match algo {
            KernelAlgo::Direct => Vec::new(),
            _ => groups.iter().map(direct).collect(),
        };
        Ok(PreparedConv { kernels, fallback })
    }

    /// The per-group kernels one rung runs: the prepared choice, or with
    /// `force_direct` its direct fallback (the choice itself when it is
    /// direct already).
    pub fn rung(&self, force_direct: bool) -> &[ConvKernel] {
        if force_direct && self.has_fallback() {
            &self.fallback
        } else {
            &self.kernels
        }
    }

    /// Whether a fault in [`Self::rung`]`(false)` has a different rung to
    /// fall back to (false for direct layers).
    pub fn has_fallback(&self) -> bool {
        !self.fallback.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cook_toom::f43;
    use crate::tensor::random_tensor;

    #[test]
    fn prepared_conv_falls_back_to_direct_only_from_winograd_banks() {
        let geom = ConvGeometry::new(10, 10, 3, 1, 1).unwrap();
        let x = random_tensor(1, 4, 10, 10, 3);
        let groups = [random_tensor(6, 4, 3, 3, 4)];
        let ctx = ExecCtx::new(2);
        let direct = PreparedConv::new(&groups, KernelAlgo::Direct, &f43()).unwrap();
        assert!(!direct.has_fallback());
        assert!(matches!(direct.rung(true)[0], ConvKernel::Direct(_)));
        let want = direct.rung(false)[0].run(&x, geom, &ctx).unwrap();
        for algo in [
            KernelAlgo::Winograd,
            KernelAlgo::Sparse { density_pm: 1000 },
        ] {
            let conv = PreparedConv::new(&groups, algo, &f43()).unwrap();
            assert!(conv.has_fallback());
            assert!(!matches!(conv.rung(false)[0], ConvKernel::Direct(_)));
            let y = conv.rung(true)[0].run(&x, geom, &ctx).unwrap();
            assert_eq!(
                y.as_slice(),
                want.as_slice(),
                "fallback rung is the direct kernel"
            );
        }
    }
}
