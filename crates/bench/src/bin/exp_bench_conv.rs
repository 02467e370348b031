//! **Convolution benchmark** — throughput of the fast execution backends
//! (batched Winograd-as-GEMM, blocked im2col+GEMM, and sparse Winograd
//! CSR GEMM) against the naive reference kernels, serial and threaded.
//!
//! Three layers spanning the paper's workload spectrum: VGG-E `conv3_1`
//! (many tiles, mid channels), VGG-E `conv5_1` (few tiles, deep
//! channels), and AlexNet `conv2` (5×5 grouped — the shape Winograd
//! never sees, exercising the direct path). Reports the median of
//! `--runs` repetitions as effective GFLOP/s (direct-convolution FLOP
//! count, the usual Winograd convention), cross-checks the fast outputs
//! against the naive ones, and writes `BENCH_conv.json` for CI to
//! archive.
//!
//! ```text
//! exp_bench_conv [--smoke] [--runs N] [--threads N]
//!   --smoke      one run per configuration (CI sanity mode)
//!   --runs N     repetitions per kernel        [default 5]
//!   --threads N  parallel worker count         [default 4]
//! ```

use winofuse_bench::{banner, BenchCase, BenchReport, LatencySamples};
use winofuse_conv::cook_toom::f43;
use winofuse_conv::direct::{self, PackedKernels};
use winofuse_conv::kernel::{ConvKernel, ExecCtx};
use winofuse_conv::sparse::SparseFilters;
use winofuse_conv::tensor::{random_tensor, Tensor};
use winofuse_conv::winograd::{self, BatchedFilters};
use winofuse_conv::ConvGeometry;

/// Transform-domain density of the sparse regime, matching the CLI's
/// `--exec-algo sparse` default.
const SPARSE_DENSITY_PM: u16 = 250;

struct Case {
    name: &'static str,
    in_c: usize,
    out_c: usize,
    h: usize,
    w: usize,
    kernel: usize,
    pad: usize,
    groups: usize,
    /// Whether the fast path under test is the batched Winograd (3×3
    /// stride-1 layers) or the blocked direct GEMM.
    winograd: bool,
}

fn cases() -> Vec<Case> {
    vec![
        Case {
            name: "vgg_e_conv3_1",
            in_c: 128,
            out_c: 256,
            h: 56,
            w: 56,
            kernel: 3,
            pad: 1,
            groups: 1,
            winograd: true,
        },
        Case {
            name: "vgg_e_conv5_1",
            in_c: 512,
            out_c: 512,
            h: 14,
            w: 14,
            kernel: 3,
            pad: 1,
            groups: 1,
            winograd: true,
        },
        Case {
            name: "alexnet_conv2",
            in_c: 96,
            out_c: 256,
            h: 27,
            w: 27,
            kernel: 5,
            pad: 2,
            groups: 2,
            winograd: false,
        },
    ]
}

impl Case {
    fn geometry(&self) -> ConvGeometry {
        ConvGeometry::rect(self.h, self.w, self.kernel, 1, self.pad)
            .expect("benchmark geometries are valid")
    }

    /// Direct-convolution FLOPs (multiply + add), the denominator for
    /// every algorithm's "effective" GFLOP/s.
    fn flops(&self) -> f64 {
        let geom = self.geometry();
        let per_group_c = self.in_c / self.groups;
        2.0 * (self.out_c * per_group_c * self.kernel * self.kernel) as f64
            * (geom.output_height() * geom.output_width()) as f64
    }
}

/// Runs `f` once to warm caches, then `runs` timed repetitions; returns
/// (median milliseconds via the shared histogram, last output).
fn median_ms<F: FnMut() -> Tensor<f32>>(runs: usize, mut f: F) -> (f64, Tensor<f32>) {
    let samples = LatencySamples::new();
    let mut out = f();
    for _ in 0..runs {
        out = samples.time(&mut f);
    }
    (samples.median_ms(), out)
}

struct Measurement {
    naive_ms: f64,
    serial_ms: f64,
    parallel_ms: f64,
    /// Sparse-Winograd regime (serial, parallel), 3×3 stride-1 cases only.
    sparse_ms: Option<(f64, f64)>,
}

/// Applies `conv` group by group, concatenating the per-group outputs —
/// the same decomposition the network executor performs.
fn grouped<F: FnMut(&Tensor<f32>, &Tensor<f32>) -> Tensor<f32>>(
    x: &Tensor<f32>,
    kernels: &Tensor<f32>,
    case: &Case,
    mut conv: F,
) -> Tensor<f32> {
    if case.groups <= 1 {
        return conv(x, kernels);
    }
    let geom = case.geometry();
    let cg = case.in_c / case.groups;
    let ng = case.out_c / case.groups;
    let mut out = Tensor::zeros(x.n(), case.out_c, geom.output_height(), geom.output_width());
    for g in 0..case.groups {
        let xs = x.slice_channels(g * cg, (g + 1) * cg);
        let ks = kernels.slice_channels_n(g * ng, (g + 1) * ng);
        out.write_channels(g * ng, &conv(&xs, &ks));
    }
    out
}

fn run_case(case: &Case, threads: usize, runs: usize) -> Measurement {
    let geom = case.geometry();
    let x = random_tensor(1, case.in_c, case.h, case.w, 11);
    let kernels = random_tensor(
        case.out_c,
        case.in_c / case.groups,
        case.kernel,
        case.kernel,
        13,
    );
    let transform = f43();

    let (naive_ms, naive_out) = median_ms(runs, || {
        grouped(&x, &kernels, case, |xs, ks| {
            if case.winograd {
                winograd::conv2d_f43(xs, ks, geom).expect("naive winograd")
            } else {
                direct::conv2d(xs, ks, geom).expect("naive direct")
            }
        })
    });

    let fast = |threads: usize| {
        median_ms(runs, || {
            grouped(&x, &kernels, case, |xs, ks| {
                let kernel = if case.winograd {
                    ConvKernel::Winograd(
                        BatchedFilters::new(ks, &transform).expect("filter transform"),
                    )
                } else {
                    ConvKernel::Direct(PackedKernels::new(ks))
                };
                kernel
                    .run(xs, geom, &ExecCtx::new(threads))
                    .expect("fast conv")
            })
        })
    };
    let (serial_ms, serial_out) = fast(1);
    let (parallel_ms, parallel_out) = fast(threads);

    // The fast paths must reproduce the naive results, and threading must
    // not change a single bit.
    let tol = 1e-4 * (case.in_c * case.kernel * case.kernel) as f32;
    assert!(
        serial_out.approx_eq(&naive_out, tol),
        "{}: fast output diverged from naive by {}",
        case.name,
        serial_out.max_abs_diff(&naive_out).unwrap()
    );
    assert_eq!(
        serial_out, parallel_out,
        "{}: thread count changed the result",
        case.name
    );

    // Sparse Winograd regime: same layers, transform domain pruned to
    // SPARSE_DENSITY_PM. Filter pruning runs inside the timed closure,
    // mirroring the dense path's in-loop filter transform.
    let sparse_ms = case.winograd.then(|| {
        let sparse = |threads: usize| {
            median_ms(runs, || {
                grouped(&x, &kernels, case, |xs, ks| {
                    let bank = SparseFilters::new(ks, &transform, SPARSE_DENSITY_PM)
                        .expect("sparse pruning");
                    ConvKernel::Sparse(bank)
                        .run(xs, geom, &ExecCtx::new(threads))
                        .expect("sparse winograd")
                })
            })
        };
        let (sparse_serial_ms, sparse_serial_out) = sparse(1);
        let (sparse_parallel_ms, sparse_parallel_out) = sparse(threads);
        // Thread invariance holds at pruned density too.
        assert_eq!(
            sparse_serial_out, sparse_parallel_out,
            "{}: thread count changed the sparse result",
            case.name
        );
        // At density 1000 nothing is pruned: the CSR path must be
        // bit-identical to the dense batched Winograd output.
        let full = grouped(&x, &kernels, case, |xs, ks| {
            let bank = SparseFilters::new(ks, &transform, 1000).expect("sparse pruning");
            ConvKernel::Sparse(bank)
                .run(xs, geom, &ExecCtx::new(1))
                .expect("sparse winograd")
        });
        assert_eq!(
            full, serial_out,
            "{}: full-density sparse diverged from dense",
            case.name
        );
        (sparse_serial_ms, sparse_parallel_ms)
    });

    Measurement {
        naive_ms,
        serial_ms,
        parallel_ms,
        sparse_ms,
    }
}

fn main() {
    let opts = winofuse_bench::parse_bench_args("exp_bench_conv", std::env::args().skip(1));
    let (runs, threads) = (opts.runs, opts.threads);

    banner(
        "BENCH conv",
        &format!("convolution kernel throughput, naive vs fast, 1 vs {threads} threads, median of {runs}"),
        None,
    );

    let mut report = BenchReport::new("conv", &opts);
    for case in cases() {
        let m = run_case(&case, threads, runs);
        let gf = case.flops() / 1e6; // ms → GFLOP/s divisor
        let (g_naive, g_serial, g_parallel) =
            (gf / m.naive_ms, gf / m.serial_ms, gf / m.parallel_ms);
        println!(
            "{:<16} naive {:7.2} GF/s | serial {:7.2} GF/s ({:5.1}x) | {} threads {:7.2} GF/s ({:4.2}x over serial)",
            case.name,
            g_naive,
            g_serial,
            m.naive_ms / m.serial_ms,
            threads,
            g_parallel,
            m.serial_ms / m.parallel_ms,
        );
        let mut bench_case = BenchCase::default()
            .text("algo", if case.winograd { "winograd" } else { "direct" })
            .float("median_naive_ms", m.naive_ms)
            .float("median_serial_ms", m.serial_ms)
            .float("median_parallel_ms", m.parallel_ms)
            .float("gflops_naive", g_naive)
            .float("gflops_serial", g_serial)
            .float("gflops_parallel", g_parallel)
            .float("speedup_serial_vs_naive", m.naive_ms / m.serial_ms)
            .float("speedup_parallel_vs_serial", m.serial_ms / m.parallel_ms);
        if let Some((sparse_serial_ms, sparse_parallel_ms)) = m.sparse_ms {
            let (g_ss, g_sp) = (gf / sparse_serial_ms, gf / sparse_parallel_ms);
            println!(
                "{:<16} sparse {}‰: serial {:7.2} GF/s | {} threads {:7.2} GF/s | {:4.2}x vs dense serial",
                "", SPARSE_DENSITY_PM, g_ss, threads, g_sp, m.serial_ms / sparse_serial_ms,
            );
            bench_case = bench_case
                .float("sparse_density_pm", SPARSE_DENSITY_PM as f64)
                .float("median_sparse_serial_ms", sparse_serial_ms)
                .float("median_sparse_parallel_ms", sparse_parallel_ms)
                .float("gflops_sparse_serial", g_ss)
                .float("gflops_sparse_parallel", g_sp)
                .float("speedup_sparse_vs_dense", m.serial_ms / sparse_serial_ms);
        }
        report.case(case.name, bench_case);
    }
    let path = report.write().expect("write BENCH_conv.json");
    println!("wrote {}", path.display());
}
