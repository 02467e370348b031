//! Equivalence contract for the sparse Winograd execution backend.
//!
//! Sparse Winograd is the one algorithm in the menu whose *plan choice
//! changes computed values* — pruning drops transform-domain
//! coefficients. That makes its contract three-sided:
//!
//! * at density 1000‰ nothing is pruned and the CSR path must be
//!   **bit-identical** to the dense batched Winograd path (the sparse
//!   GEMM splits accumulation at the same `KC` boundaries);
//! * at pruned densities the output error must stay under the analytic
//!   bound implied by the dropped transform-domain mass — pruning is a
//!   controlled approximation, not an uncontrolled one;
//! * like every other backend, results must be bit-identical across
//!   worker counts: `--threads N` may change wall-clock time, never
//!   results.

use proptest::prelude::*;
use winofuse::conv::cook_toom::f43;
use winofuse::conv::kernel::{ConvKernel, ExecCtx};
use winofuse::conv::sparse::SparseFilters;
use winofuse::conv::tensor::{random_tensor, Tensor};
use winofuse::conv::winograd::{BatchedFilters, TransformedFilters};
use winofuse::conv::ConvGeometry;

const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Runs the sparse batched path at every thread count and checks the
/// results are bit-identical before returning the single-threaded one.
fn sparse_all_threads(x: &Tensor<f32>, filters: &SparseFilters, geom: ConvGeometry) -> Tensor<f32> {
    let kernel = ConvKernel::Sparse(filters.clone());
    let base = kernel.run(x, geom, &ExecCtx::new(1)).unwrap();
    for threads in &THREADS[1..] {
        let y = kernel.run(x, geom, &ExecCtx::new(*threads)).unwrap();
        assert_eq!(base, y, "sparse Winograd differs at {threads} threads");
    }
    base
}

/// Analytic output-error bound for pruning: with inputs in `[-1, 1)`,
/// `|Δy| ≤ ‖A‖₁² · ‖B‖₁² · max_{oc,uv} Σ_ic |dropped U[oc,ic,uv]|`
/// (each dropped coefficient perturbs one transform point of one tile by
/// at most its magnitude times the largest transformed input value).
fn pruning_error_bound(kr: &Tensor<f32>, filters: &SparseFilters) -> f32 {
    let t = f43();
    let dense = TransformedFilters::new(kr, &t).unwrap();
    let alpha = t.alpha();
    let row_abs_max = |m: &winofuse::conv::matrix::Mat<f32>| -> f32 {
        (0..m.rows())
            .map(|i| (0..m.cols()).map(|j| m.get(i, j).abs()).sum::<f32>())
            .fold(0.0f32, f32::max)
    };
    let a1 = row_abs_max(&t.a_t_f32());
    let b1 = row_abs_max(&t.b_t_f32());
    let mut worst_dropped = 0.0f32;
    for uv in 0..alpha * alpha {
        let plane = filters.plane(uv);
        for oc in 0..filters.out_c() {
            let total: f32 = (0..filters.in_c())
                .map(|ic| dense.bank(oc, ic).as_slice()[uv].abs())
                .sum();
            let kept: f32 = plane.row(oc).1.iter().map(|v| v.abs()).sum();
            worst_dropped = worst_dropped.max(total - kept);
        }
    }
    a1 * a1 * b1 * b1 * worst_dropped
}

/// FP slack on top of the analytic bound: accumulation-order rounding,
/// scaled by depth like `conv_equiv::tol`.
fn fp_slack(in_c: usize) -> f32 {
    1e-4 * (in_c * 9) as f32 + 1e-4
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Density 1000‰ prunes nothing; the CSR path must reproduce the
    /// dense batched Winograd output bit-for-bit on awkward geometries.
    #[test]
    fn full_density_sparse_is_bit_identical_to_dense(
        batch in 1usize..3,
        h in 5usize..20,
        w in 5usize..20,
        pad in 0usize..3,
        in_c in 1usize..18,
        out_c in 1usize..18,
        seed in 0u64..1000,
    ) {
        let t = f43();
        let geom = ConvGeometry::rect(h, w, 3, 1, pad).unwrap();
        let x = random_tensor(batch, in_c, h, w, seed);
        let kr = random_tensor(out_c, in_c, 3, 3, seed + 1);
        let dense_bank = ConvKernel::Winograd(BatchedFilters::new(&kr, &t).unwrap());
        let dense = dense_bank.run(&x, geom, &ExecCtx::new(1)).unwrap();
        let sparse_bank = SparseFilters::new(&kr, &t, 1000).unwrap();
        let sparse = sparse_all_threads(&x, &sparse_bank, geom);
        prop_assert_eq!(dense, sparse, "density 1000 must be bit-identical to dense");
    }

    /// Pruned densities: the output may differ from dense, but only by
    /// the analytic bound the dropped transform-domain mass implies.
    #[test]
    fn pruned_error_is_bounded_by_dropped_mass(
        h in 6usize..18,
        w in 6usize..18,
        pad in 0usize..2,
        in_c in 2usize..14,
        out_c in 2usize..14,
        density_pm in 100u16..1000,
        seed in 0u64..1000,
    ) {
        let t = f43();
        let geom = ConvGeometry::rect(h, w, 3, 1, pad).unwrap();
        let x = random_tensor(1, in_c, h, w, seed);
        let kr = random_tensor(out_c, in_c, 3, 3, seed + 1);
        let dense_bank = ConvKernel::Winograd(BatchedFilters::new(&kr, &t).unwrap());
        let dense = dense_bank.run(&x, geom, &ExecCtx::new(1)).unwrap();
        let sparse_bank = SparseFilters::new(&kr, &t, density_pm).unwrap();
        let sparse = sparse_all_threads(&x, &sparse_bank, geom);
        let bound = pruning_error_bound(&kr, &sparse_bank) + fp_slack(in_c);
        let diff = sparse.max_abs_diff(&dense).unwrap();
        prop_assert!(
            diff <= bound,
            "pruning error {diff} exceeds analytic bound {bound} at {density_pm}‰"
        );
    }

    /// Thread invariance holds at *every* density, not just the dense
    /// limit — job decomposition depends on shape alone.
    #[test]
    fn sparse_is_thread_count_invariant_at_any_density(
        h in 5usize..16,
        w in 5usize..16,
        in_c in 1usize..12,
        out_c in 1usize..12,
        density_pm in 1u16..1001,
        seed in 0u64..1000,
    ) {
        let geom = ConvGeometry::rect(h, w, 3, 1, 1).unwrap();
        let x = random_tensor(2, in_c, h, w, seed);
        let kr = random_tensor(out_c, in_c, 3, 3, seed + 1);
        let bank = SparseFilters::new(&kr, &f43(), density_pm).unwrap();
        // sparse_all_threads asserts 1/2/4/8-thread bit-equality.
        let _ = sparse_all_threads(&x, &bank, geom);
    }
}
