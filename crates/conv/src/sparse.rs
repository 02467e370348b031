//! Sparse Winograd filter banks and the CSR-panel sparse GEMM.
//!
//! "Efficient Sparse-Winograd Convolutional Neural Networks" (1810.01973)
//! prunes weights *in the transform domain*: the `α²` coefficient planes
//! of a [`crate::winograd::BatchedFilters`] bank are thresholded so only
//! the top-magnitude fraction survives, and the per-transform-point GEMMs
//! skip the zeros. This module provides the pruning pass
//! ([`SparseFilters`]), the CSR plane layout ([`CsrPlane`]), and the
//! sparse GEMM kernel ([`sparse_gemm`]) the batched Winograd path
//! dispatches to.
//!
//! ## Determinism contract
//!
//! * **Pruning** keeps *exactly* `⌈coeffs · density/1000⌉` coefficients
//!   per plane — the same count the analytic DRAM model
//!   (`winofuse_fpga::engine::sparse_stream_bytes`) charges for — chosen
//!   by descending magnitude with ties broken toward the lower flat
//!   index. No data-dependent surprises: the bank's wire size is a pure
//!   function of shape and density.
//! * **The sparse GEMM** accumulates each output element's products in
//!   ascending column order, split at the same `KC` boundaries as the
//!   dense blocked GEMM (first block overwrites, later blocks
//!   accumulate). At density 1000 the stored planes contain every
//!   coefficient in ascending order, so the result is **bit-identical**
//!   to [`crate::gemm::gemm_f32_prepacked`] — the oracle relationship the
//!   test matrix pins, mirroring the dense microkernel's scalar-oracle
//!   pattern.

use crate::cook_toom::WinogradTransform;
use crate::gemm::{BOperand, GemmBlocking};
use crate::tensor::Tensor;
use crate::winograd::{TileTransform, TransformedFilters};
use crate::ConvError;

/// Per-mille density denominator (1000‰ = dense).
pub const DENSITY_SCALE: u64 = 1000;

/// Number of coefficients retained when pruning `coeffs` values at
/// `density_pm` per-mille density. Must stay in lock-step with
/// `winofuse_fpga::engine::sparse_nnz` — the fused runner's strict DRAM
/// reconciliation pins the two against each other.
pub fn sparse_keep_count(coeffs: u64, density_pm: u16) -> u64 {
    (coeffs * density_pm as u64).div_ceil(DENSITY_SCALE)
}

/// One transform point's pruned coefficient plane in compressed sparse
/// row form: rows are output channels, columns are input channels.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrPlane {
    /// `out_c + 1` row offsets into `cols`/`vals`.
    row_ptr: Vec<u32>,
    /// Input-channel column of each retained coefficient, ascending
    /// within each row.
    cols: Vec<u16>,
    /// Retained coefficient values, parallel to `cols`.
    vals: Vec<f32>,
}

impl CsrPlane {
    /// Retained nonzero slots (including stored exact zeros — the count
    /// is shape-determined, not value-determined).
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Number of rows (output channels).
    pub fn rows(&self) -> usize {
        self.row_ptr.len() - 1
    }

    /// The `(columns, values)` slices of row `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    pub fn row(&self, i: usize) -> (&[u16], &[f32]) {
        let lo = self.row_ptr[i] as usize;
        let hi = self.row_ptr[i + 1] as usize;
        (&self.cols[lo..hi], &self.vals[lo..hi])
    }
}

/// A transformed filter bank pruned plane-wise to a target density:
/// `α²` [`CsrPlane`]s, one per transform point, each keeping exactly
/// [`sparse_keep_count`]`(out_c·in_c, density_pm)` coefficients.
#[derive(Debug, Clone)]
pub struct SparseFilters {
    /// The transform's run-time tables, as the dense bank keeps them.
    pub(crate) tile: TileTransform,
    out_c: usize,
    in_c: usize,
    density_pm: u16,
    planes: Vec<CsrPlane>,
}

impl SparseFilters {
    /// Transforms a kernel tensor (`N×C×r×r`) and prunes each of the `α²`
    /// coefficient planes to `density_pm` per-mille of its `N·C` entries,
    /// by descending magnitude (ties toward the lower flat index).
    ///
    /// # Errors
    ///
    /// [`ConvError::ShapeMismatch`] when the kernel spatial size is not
    /// `r × r`, when `density_pm` is outside `1..=1000`, or when the
    /// channel counts overflow the CSR index types (`in_c > 65535`).
    pub fn new(
        kernels: &Tensor<f32>,
        transform: &WinogradTransform,
        density_pm: u16,
    ) -> Result<Self, ConvError> {
        if density_pm == 0 || density_pm as u64 > DENSITY_SCALE {
            return Err(ConvError::ShapeMismatch {
                expected: "sparse density in 1..=1000 per-mille".into(),
                found: format!("{density_pm}"),
            });
        }
        let (out_c, in_c) = (kernels.n(), kernels.c());
        if in_c > u16::MAX as usize {
            return Err(ConvError::ShapeMismatch {
                expected: "at most 65535 input channels for CSR u16 columns".into(),
                found: format!("{in_c}"),
            });
        }
        let banks = TransformedFilters::new(kernels, transform)?;
        let alpha = transform.alpha();
        let aa = alpha * alpha;
        // Dense plane scratch plus the selection index, reused per uv.
        let mut dense = vec![0.0f32; out_c * in_c];
        let keep = sparse_keep_count((out_c * in_c) as u64, density_pm) as usize;
        let mut order: Vec<u32> = Vec::with_capacity(out_c * in_c);
        let mut planes = Vec::with_capacity(aa);
        for uv in 0..aa {
            for k in 0..out_c {
                for c in 0..in_c {
                    dense[k * in_c + c] = banks.bank(k, c).as_slice()[uv];
                }
            }
            order.clear();
            order.extend(0..(out_c * in_c) as u32);
            // Top-magnitude selection, deterministic: magnitude descending,
            // flat index ascending on ties.
            order.sort_by(|&a, &b| {
                dense[b as usize]
                    .abs()
                    .total_cmp(&dense[a as usize].abs())
                    .then(a.cmp(&b))
            });
            let mut kept = order[..keep].to_vec();
            kept.sort_unstable(); // row-major order → CSR rows ascending
            let mut row_ptr = Vec::with_capacity(out_c + 1);
            let mut cols = Vec::with_capacity(keep);
            let mut vals = Vec::with_capacity(keep);
            row_ptr.push(0u32);
            let mut row = 0usize;
            for &flat in &kept {
                let (k, c) = ((flat as usize) / in_c, (flat as usize) % in_c);
                while row < k {
                    row_ptr.push(cols.len() as u32);
                    row += 1;
                }
                cols.push(c as u16);
                vals.push(dense[flat as usize]);
            }
            while row < out_c {
                row_ptr.push(cols.len() as u32);
                row += 1;
            }
            debug_assert_eq!(row_ptr.len(), out_c + 1);
            debug_assert_eq!(cols.len(), keep);
            planes.push(CsrPlane {
                row_ptr,
                cols,
                vals,
            });
        }
        Ok(SparseFilters {
            tile: TileTransform::new(transform),
            out_c,
            in_c,
            density_pm,
            planes,
        })
    }

    /// The pruned CSR plane for transform point `uv`.
    pub fn plane(&self, uv: usize) -> &CsrPlane {
        &self.planes[uv]
    }

    /// Output channels.
    pub fn out_c(&self) -> usize {
        self.out_c
    }

    /// Input channels.
    pub fn in_c(&self) -> usize {
        self.in_c
    }

    /// Tile side `α` of the transform the bank was built with.
    pub fn alpha(&self) -> usize {
        self.tile.alpha
    }

    /// Configured retained density in per-mille.
    pub fn density_pm(&self) -> u16 {
        self.density_pm
    }

    /// Total retained coefficients across all `α²` planes — exactly
    /// `α² ·` [`sparse_keep_count`]`(N·C, density)` by construction, the
    /// invariant that lets the analytic DRAM model price the stream
    /// without looking at the weights.
    pub fn nnz_total(&self) -> u64 {
        self.planes.iter().map(|p| p.nnz() as u64).sum()
    }
}

/// Sparse GEMM kernel flavor. Mirrors
/// [`crate::microkernel::KernelChoice`]: `Scalar` is the oracle every
/// future vectorized variant must match bit-for-bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SparseKernelChoice {
    /// Portable scalar CSR row sweep — the bit-exactness oracle.
    #[default]
    Scalar,
}

impl SparseKernelChoice {
    /// Every kernel the current build can run (oracle first).
    pub fn all_supported() -> Vec<SparseKernelChoice> {
        vec![SparseKernelChoice::Scalar]
    }

    /// Kernel name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            SparseKernelChoice::Scalar => "sparse-scalar",
        }
    }
}

/// `C = A·B` for a CSR `A` plane (`out_c × in_c`), strided `B`
/// (`in_c × n`) and row-major `C` (`out_c × n`, fully overwritten).
///
/// Accumulation replicates the dense blocked GEMM's association exactly:
/// the column space is split at `blocking.kc` boundaries, each block's
/// partial sum accumulates in ascending column order with separate
/// multiply and add, the first block *overwrites* `C` and later blocks
/// *add* — so at density 1000 (every coefficient stored) the result is
/// bit-identical to [`crate::gemm::gemm_f32_prepacked`] on the same
/// operands, including `-0.0` copy-vs-add semantics.
///
/// Returns the exact multiply-add flops performed (`2·nnz·n`).
///
/// # Panics
///
/// Panics when `c.len() != out_c·n` or `blocking.kc == 0`.
pub fn sparse_gemm(
    kernel: SparseKernelChoice,
    plane: &CsrPlane,
    in_c: usize,
    n: usize,
    b: BOperand<'_>,
    c: &mut [f32],
    blocking: GemmBlocking,
) -> u64 {
    let SparseKernelChoice::Scalar = kernel;
    let m = plane.rows();
    assert_eq!(c.len(), m * n, "C must be out_c×n row-major");
    assert!(blocking.kc > 0, "KC block depth must be positive");
    if n == 0 {
        return 0;
    }
    if in_c == 0 {
        c.fill(0.0);
        return 0;
    }
    let kc = blocking.kc;
    for i in 0..m {
        let (cols, vals) = plane.row(i);
        let out_row = &mut c[i * n..(i + 1) * n];
        // Walk the row once per KC block: entries are ascending, so each
        // block is a contiguous sub-range.
        let mut e0 = 0usize;
        let mut first = true;
        let mut pc = 0usize;
        while pc < in_c {
            let hi = (pc + kc).min(in_c);
            let mut e1 = e0;
            while e1 < cols.len() && (cols[e1] as usize) < hi {
                e1 += 1;
            }
            for (j, slot) in out_row.iter_mut().enumerate() {
                let mut acc = 0.0f32;
                for e in e0..e1 {
                    let prod = vals[e] * b.at(cols[e] as usize, j);
                    acc += prod;
                }
                if first {
                    *slot = acc;
                } else {
                    *slot += acc;
                }
            }
            first = false;
            e0 = e1;
            pc = hi;
        }
    }
    2 * plane.nnz() as u64 * n as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cook_toom::f43;
    use crate::gemm::{gemm_f32_prepacked, GemmScratch, PackedA};
    use crate::tensor::random_tensor;
    use crate::winograd::BatchedFilters;

    #[test]
    fn keep_count_rounds_up_and_saturates() {
        assert_eq!(sparse_keep_count(32, 250), 8);
        assert_eq!(sparse_keep_count(33, 250), 9);
        assert_eq!(sparse_keep_count(32, 1000), 32);
        assert_eq!(sparse_keep_count(1, 1), 1); // never zero
    }

    #[test]
    fn pruning_keeps_exactly_the_budgeted_count_per_plane() {
        let k = random_tensor(6, 5, 3, 3, 11);
        let t = f43();
        for density in [1u16, 100, 250, 500, 999, 1000] {
            let sf = SparseFilters::new(&k, &t, density).unwrap();
            let keep = sparse_keep_count(30, density) as usize;
            for uv in 0..36 {
                assert_eq!(sf.plane(uv).nnz(), keep, "density {density} uv {uv}");
            }
            assert_eq!(sf.nnz_total(), 36 * keep as u64);
        }
    }

    #[test]
    fn pruning_keeps_top_magnitudes() {
        let k = random_tensor(4, 3, 3, 3, 23);
        let t = f43();
        let dense = BatchedFilters::new(&k, &t).unwrap();
        let sf = SparseFilters::new(&k, &t, 500).unwrap();
        // Every kept value must be ≥ every dropped value in magnitude.
        for uv in 0..36 {
            let plane = sf.plane(uv);
            let mut kept = std::collections::HashSet::new();
            for i in 0..plane.rows() {
                let (cols, vals) = plane.row(i);
                for (c, v) in cols.iter().zip(vals) {
                    kept.insert(i * sf.in_c() + *c as usize);
                    // Stored values equal the dense transform's.
                    let dense_v = dense_plane_value(&k, &t, uv, i, *c as usize);
                    assert_eq!(*v, dense_v);
                }
            }
            let min_kept = (0..plane.rows())
                .flat_map(|i| plane.row(i).1.iter().map(|v| v.abs()))
                .fold(f32::INFINITY, f32::min);
            for flat in 0..sf.out_c() * sf.in_c() {
                if !kept.contains(&flat) {
                    let v = dense_plane_value(&k, &t, uv, flat / sf.in_c(), flat % sf.in_c());
                    assert!(
                        v.abs() <= min_kept,
                        "dropped |{v}| > kept min {min_kept} at uv {uv}"
                    );
                }
            }
        }
        let _ = dense;
    }

    fn dense_plane_value(
        k: &Tensor<f32>,
        t: &WinogradTransform,
        uv: usize,
        row: usize,
        col: usize,
    ) -> f32 {
        let banks = TransformedFilters::new(k, t).unwrap();
        banks.bank(row, col).as_slice()[uv]
    }

    #[test]
    fn density_1000_stores_every_coefficient_in_order() {
        let k = random_tensor(3, 4, 3, 3, 31);
        let sf = SparseFilters::new(&k, &f43(), 1000).unwrap();
        for uv in 0..36 {
            let plane = sf.plane(uv);
            for i in 0..plane.rows() {
                let (cols, _) = plane.row(i);
                let expect: Vec<u16> = (0..4u16).collect();
                assert_eq!(cols, &expect[..], "uv {uv} row {i}");
            }
        }
    }

    #[test]
    fn rejects_bad_density_and_wrong_kernel_size() {
        let k = random_tensor(2, 2, 3, 3, 5);
        assert!(SparseFilters::new(&k, &f43(), 0).is_err());
        assert!(SparseFilters::new(&k, &f43(), 1001).is_err());
        let k5 = random_tensor(2, 2, 5, 5, 5);
        assert!(SparseFilters::new(&k5, &f43(), 500).is_err());
    }

    #[test]
    fn sparse_gemm_density_1000_bit_identical_to_dense() {
        // The oracle contract: at density 1000 the CSR sweep must
        // reproduce the dense blocked GEMM bit-for-bit, including across
        // multiple KC blocks.
        for &(m, k, n, kc) in &[
            (4usize, 8usize, 16usize, 256usize),
            (7, 300, 19, 256), // k spans two KC blocks
            (5, 37, 1, 16),
            (1, 1, 1, 1),
        ] {
            let a: Vec<f32> = (0..m * k)
                .map(|i| ((i * 37 % 19) as f32 - 9.0) / 7.0)
                .collect();
            let bvals: Vec<f32> = (0..k * n)
                .map(|i| ((i * 53 % 23) as f32 - 11.0) / 5.0)
                .collect();
            let blocking = GemmBlocking {
                kc,
                ..GemmBlocking::default()
            };
            let packed = PackedA::pack(&a, m, k, blocking);
            let mut scratch = GemmScratch::new();
            let mut dense_c = vec![f32::NAN; m * n];
            gemm_f32_prepacked(
                &mut scratch,
                &packed,
                n,
                BOperand::row_major(&bvals, n),
                &mut dense_c,
                false,
            );
            // Build a density-1000 CSR plane directly from `a`.
            let plane = csr_from_dense(&a, m, k);
            let mut sparse_c = vec![f32::NAN; m * n];
            let flops = sparse_gemm(
                SparseKernelChoice::Scalar,
                &plane,
                k,
                n,
                BOperand::row_major(&bvals, n),
                &mut sparse_c,
                blocking,
            );
            assert_eq!(flops, 2 * (m * k * n) as u64);
            assert_eq!(
                sparse_c.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                dense_c.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "{m}x{k}x{n} kc={kc}"
            );
        }
    }

    fn csr_from_dense(a: &[f32], m: usize, k: usize) -> CsrPlane {
        let mut row_ptr = vec![0u32];
        let mut cols = Vec::new();
        let mut vals = Vec::new();
        for i in 0..m {
            for c in 0..k {
                cols.push(c as u16);
                vals.push(a[i * k + c]);
            }
            row_ptr.push(cols.len() as u32);
        }
        CsrPlane {
            row_ptr,
            cols,
            vals,
        }
    }

    #[test]
    fn sparse_gemm_skips_pruned_rows_but_overwrites_output() {
        // A plane with an empty row must still overwrite C (no stale
        // garbage in the first-KC-block copy).
        let plane = CsrPlane {
            row_ptr: vec![0, 2, 2, 3],
            cols: vec![0, 2, 1],
            vals: vec![2.0, -1.0, 3.0],
        };
        let b = [1.0f32, 10.0, 100.0, 1000.0, 0.5, 0.25];
        let mut c = vec![f32::NAN; 6];
        sparse_gemm(
            SparseKernelChoice::Scalar,
            &plane,
            3,
            2,
            BOperand::row_major(&b, 2),
            &mut c,
            GemmBlocking::default(),
        );
        // Row 0: 2·b[0] − 1·b[2]; row 1 empty → zeros; row 2: 3·b[1].
        assert_eq!(c, vec![2.0 - 0.5, 20.0 - 0.25, 0.0, 0.0, 300.0, 3000.0]);
    }

    #[test]
    fn sparse_gemm_strided_b_matches_row_major() {
        let k = random_tensor(5, 6, 3, 3, 77);
        let sf = SparseFilters::new(&k, &f43(), 400).unwrap();
        let n = 9usize;
        let in_c = 6usize;
        let dense: Vec<f32> = (0..in_c * n).map(|i| (i as f32).sin()).collect();
        // Column-major copy: row stride 1, col stride in_c.
        let mut colmajor = vec![0.0f32; in_c * n];
        for r in 0..in_c {
            for cc in 0..n {
                colmajor[cc * in_c + r] = dense[r * n + cc];
            }
        }
        let plane = sf.plane(7);
        let mut c1 = vec![0.0f32; 5 * n];
        let mut c2 = vec![0.0f32; 5 * n];
        sparse_gemm(
            SparseKernelChoice::Scalar,
            plane,
            in_c,
            n,
            BOperand::row_major(&dense, n),
            &mut c1,
            GemmBlocking::default(),
        );
        sparse_gemm(
            SparseKernelChoice::Scalar,
            plane,
            in_c,
            n,
            BOperand::strided(&colmajor, 1, in_c),
            &mut c2,
            GemmBlocking::default(),
        );
        assert_eq!(c1, c2);
    }
}
