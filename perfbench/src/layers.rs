//! Per-layer metrics read from what the program already records: its
//! telemetry counters and histograms, and the per-layer profiles of
//! `NetworkExecutor::run_profiled`.

use winofuse_model::runtime::LayerProfile;
use winofuse_telemetry::RunTelemetry;

use crate::common::Report;

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// `runtime` job-pool metrics, per operation (`ops` operations ran),
/// and the executor's fallback count.
pub fn pool(r: &mut Report, t: &RunTelemetry, ops: f64) {
    let busy = t
        .histograms
        .get("pool.worker_busy_ns")
        .map_or(0.0, |h| h.sum as f64);
    let idle = t.counter("pool.idle_ns") as f64;
    let wait_us = t.histograms.get("pool.job_wait_us").map_or(0, |h| h.p50());
    r.set("pool.runs", ratio(t.counter("pool.runs") as f64, ops));
    r.set("pool.jobs", ratio(t.counter("pool.jobs") as f64, ops));
    r.set("pool.utilization", ratio(busy, busy + idle));
    r.set("pool.job_wait_ms.p50", wait_us as f64 / 1e3);
    r.set("pool.job_retries", t.counter("pool.job_retries") as f64);
    r.set("pool.job_panics", t.counter("pool.job_panics") as f64);
    r.set("exec.fallbacks", t.counter("exec.fallbacks") as f64);
}

/// `core` strategy-search counters, per plan build (`builds` builds ran).
pub fn search(r: &mut Report, t: &RunTelemetry, builds: f64) {
    for name in [
        "bnb.nodes_expanded",
        "bnb.leaves_evaluated",
        "bnb.plans_computed",
        "bnb.menu_dominated",
    ] {
        r.set(name, ratio(t.counter(name) as f64, builds));
    }
    // `Framework::optimize` solves the fusion DP over memoized frontier
    // cells (`dp.subproblems` computed, `dp.cache_hits` reused);
    // `dp.cell_evals` counts the cells of the unit-budget DP variant.
    let computed = (t.counter("dp.subproblems") + t.counter("dp.cell_evals")) as f64;
    let hits = t.counter("dp.cache_hits") as f64;
    r.set("dp.cell_evals", ratio(computed, builds));
    r.set("dp.cache_hit_ratio", ratio(hits, hits + computed));
}

/// `model` and `conv` metrics from `run_profiled`, per frame. Each entry
/// of `calls` is one invocation's profile over `frames_per_call` frames.
pub fn profile(r: &mut Report, calls: &[Vec<LayerProfile>], frames_per_call: usize) {
    let frames = (calls.len() * frames_per_call).max(1) as f64;
    let sum_ms = |pick: &dyn Fn(&LayerProfile) -> bool| -> f64 {
        calls
            .iter()
            .flatten()
            .filter(|p| pick(p))
            .map(|p| p.wall_ns as f64)
            .sum::<f64>()
            / 1e6
            / frames
    };
    r.set(
        "exec.conv_winograd_ms",
        sum_ms(&|p| p.kind == "conv" && p.algo == "winograd"),
    );
    r.set(
        "exec.conv_direct_ms",
        sum_ms(&|p| p.kind == "conv" && p.algo == "direct"),
    );
    r.set("exec.fc_ms", sum_ms(&|p| p.kind == "fc"));
    r.set("exec.lrn_ms", sum_ms(&|p| p.kind == "lrn"));
    r.set("exec.pool_ms", sum_ms(&|p| p.kind == "pool"));

    let convs = || calls.iter().flatten().filter(|p| p.kind == "conv");
    let total = |f: &dyn Fn(&LayerProfile) -> u64| convs().map(|p| f(p) as f64).sum::<f64>();
    let per_frame = |f: &dyn Fn(&LayerProfile) -> u64| total(f) / frames;
    let phase_ms = |f: &dyn Fn(&LayerProfile) -> u64| per_frame(f) / 1e6;
    // Phase times are CPU time summed over the pool's workers.
    let (scatter, gemm, gather) = (
        phase_ms(&|p| p.conv.scatter_ns),
        phase_ms(&|p| p.conv.gemm_ns),
        phase_ms(&|p| p.conv.gather_ns),
    );
    r.set("conv.scatter_ms", scatter);
    r.set("conv.gemm_ms", gemm);
    r.set("conv.gather_ms", gather);
    r.set("conv.pack_ms", phase_ms(&|p| p.conv.pack_ns));
    r.set(
        "conv.transform_share",
        ratio(scatter + gather, scatter + gemm + gather),
    );
    // Exact counts; bytes are computed from tensor sizes, not measured.
    r.set("conv.flops_scatter", per_frame(&|p| p.conv.flops_scatter));
    r.set("conv.flops_gemm", per_frame(&|p| p.conv.flops_gemm));
    r.set("conv.flops_gather", per_frame(&|p| p.conv.flops_gather));
    r.set("conv.bytes_scatter", per_frame(&|p| p.conv.bytes_scatter));
    r.set("conv.bytes_gemm", per_frame(&|p| p.conv.bytes_gemm));
    r.set("conv.bytes_gather", per_frame(&|p| p.conv.bytes_gather));
    r.set("conv.gemm_calls", per_frame(&|p| p.conv.gemm_calls));
    r.set("conv.tiles", per_frame(&|p| p.conv.tiles));
    // Direct-equivalent operations (the layer's model op count, whatever
    // algorithm ran) over conv wall time: comparable across algorithms.
    let ops = total(&|p| p.model_ops) * frames_per_call as f64;
    r.set("conv.effective_gflops", ratio(ops, total(&|p| p.wall_ns)));
}
