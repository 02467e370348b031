//! What every workload shares: the run context, the report, set-up
//! repetition, the output check, and the host stamp.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use winofuse_conv::tensor::{random_tensor, Tensor};
use winofuse_core::framework::Framework;
use winofuse_fpga::device::FpgaDevice;
use winofuse_model::Network;
use winofuse_telemetry::Telemetry;

use crate::stats::Samples;
use crate::trace::Tracer;

/// Executor and search threads of every workload.
pub const THREADS: usize = 2;
/// Feature-map transfer budget of every plan: the serving default.
pub const BUDGET_BYTES: u64 = 8 * 1024 * 1024;
/// How often each workload sets itself up; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 3;
/// Largest accepted `max |got - want| / max |want|` against the
/// reference path. The reference runs another algorithm (blocked
/// im2col+GEMM instead of Winograd, unfused instead of fused), so the
/// outputs agree to rounding only; f32 Winograd F(4x4, 3x3) through
/// VGG-E's sixteen layers stays well below this.
pub const REL_TOL: f64 = 1e-3;

pub type Res<T> = Result<T, String>;

/// Converts any displayable error into the benchmark's error string.
pub fn err<E: std::fmt::Display>(what: &str) -> impl FnOnce(E) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// The run's arguments plus the tracer.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub trace: Tracer,
    pub process_start: Instant,
}

impl Ctx {
    pub fn new(
        workload: &str,
        seed: u64,
        seconds: f64,
        traced: bool,
        process_start: Instant,
    ) -> Self {
        Ctx {
            workload: workload.to_string(),
            seed,
            seconds,
            traced,
            trace: Tracer::new(traced),
            process_start,
        }
    }

    /// The framework every workload plans with.
    pub fn framework(&self, telemetry: &Telemetry) -> Framework {
        Framework::new(FpgaDevice::zc706())
            .with_threads(THREADS)
            .with_telemetry(telemetry.clone())
    }

    /// `n` distinct input frames for `net`, derived from the seed.
    pub fn inputs(&self, net: &Network, n: usize) -> Vec<Tensor<f32>> {
        let s = net.input_shape();
        (0..n as u64)
            .map(|k| {
                let seed = self.seed.wrapping_mul(1_000_003).wrapping_add(0x5EED + k);
                random_tensor(1, s.channels, s.height, s.width, seed)
            })
            .collect()
    }

    pub fn trace_path(&self) -> String {
        format!(".perfbench/{}-seed{}.trace.json", self.workload, self.seed)
    }

    /// Sets the workload up [`SETUP_REPEATS`] times and keeps the last
    /// result; returns it with the median set-up time in seconds. The
    /// first set-up is timed from process start. Each earlier result is
    /// dropped before the next build, so memory holds one set-up at a
    /// time.
    pub fn setup<T>(&self, mut build: impl FnMut() -> Res<T>) -> Res<(T, f64)> {
        let mut times = Samples::default();
        let mut kept = None;
        for i in 0..SETUP_REPEATS {
            drop(kept.take());
            let t0 = if i == 0 {
                self.process_start
            } else {
                Instant::now()
            };
            kept = Some(build()?);
            times.push(t0.elapsed().as_secs_f64());
        }
        eprintln!(
            "setup_s: median {:.3} s of {} set-ups {:?}",
            times.median(),
            times.len(),
            times.values()
        );
        let kept = kept.ok_or("no set-up ran")?;
        Ok((kept, times.median()))
    }
}

/// Counts and metric values of one run. Workloads fill `metrics` by the
/// names declared in `BENCHMARK.json`; [`Report::finish`] adds the
/// metrics every workload shares.
#[derive(Default)]
pub struct Report {
    /// Timed operations attempted (requests or frames).
    pub attempted: u64,
    /// Operations that returned an error or were rejected.
    pub failed: u64,
    /// Outputs that failed a check.
    pub wrong: u64,
    /// Largest relative error of an output against its reference.
    pub max_rel_err: f64,
    /// Set when the run's measurement itself is not valid (the load
    /// generator fell behind its schedule).
    pub invalid: Option<String>,
    pub metrics: BTreeMap<String, f64>,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.wrong == 0 && self.invalid.is_none()
    }

    /// Records the result of one output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.wrong += 1;
            eprintln!("CHECK FAILED: {}", what());
        }
    }

    /// Compares `got` with the reference `want` within [`REL_TOL`].
    pub fn check_close(&mut self, what: &str, got: &Tensor<f32>, want: &Tensor<f32>) {
        let rel = rel_err(got, want);
        self.max_rel_err = self.max_rel_err.max(rel);
        self.check(rel <= REL_TOL, || {
            format!("{what}: relative error {rel:.3e} exceeds {REL_TOL:.0e}")
        });
    }

    /// Reports the end-to-end latency metrics of `lat` (milliseconds per
    /// operation) and prints the sample count beside each percentile.
    pub fn latency(&mut self, lat: &Samples) {
        let (p50, p90) = (lat.percentile(50.0), lat.percentile(90.0));
        eprintln!(
            "latency_p50_ms {p50:.3} ms, latency_p90_ms {p90:.3} ms (n = {})",
            lat.len()
        );
        if lat.len() < 100 {
            eprintln!("  note: p90 rests on fewer than 100 samples");
        }
        self.set("latency_p50_ms", p50);
        self.set("latency_p90_ms", p90);
    }

    /// Adds the metrics every workload shares: the error rate, the peak
    /// resident set and, in the traced run, per-layer self times.
    pub fn finish(&mut self, ctx: &Ctx) {
        let attempted = self.attempted.max(1);
        self.set(
            "error_rate",
            (self.failed + self.wrong) as f64 / attempted as f64,
        );
        self.set("peak_rss_mb", peak_rss_mb());
        if ctx.traced {
            for (name, value) in ctx.trace.layer_metrics() {
                self.set(&name, value);
            }
        }
        if let Some(why) = &self.invalid {
            eprintln!("INVALID RUN: {why}");
        }
        eprintln!(
            "attempted {}, failed {}, wrong outputs {}, error_rate {}",
            self.attempted, self.failed, self.wrong, self.metrics["error_rate"]
        );
    }
}

/// `max |got - want| / max |want|`; infinite on a shape mismatch or a
/// non-finite value.
pub fn rel_err(got: &Tensor<f32>, want: &Tensor<f32>) -> f64 {
    let (g, w) = (got.as_slice(), want.as_slice());
    if g.len() != w.len() || got.c() != want.c() || got.h() != want.h() {
        return f64::INFINITY;
    }
    let scale = w.iter().fold(0f64, |m, v| m.max(f64::from(v.abs())));
    let mut diff = 0f64;
    for (a, b) in g.iter().zip(w) {
        let d = f64::from((a - b).abs());
        // `f64::max` would drop a NaN; a NaN output must fail.
        if !d.is_finite() {
            return f64::INFINITY;
        }
        diff = diff.max(d);
    }
    diff / scale.max(f64::MIN_POSITIVE)
}

/// The process's resident-set high-water mark (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// A JSON number with all its digits (non-finite values become 0).
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}

/// `nproc`, executor threads, SIMD kernel and source revision.
pub fn host_stamp() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    format!(
        "host: nproc {nproc}, executor threads {THREADS}, simd {}, git {}",
        winofuse_conv::microkernel::active_kernel_name(),
        git_sha().unwrap_or_else(|| "unknown (not a git checkout)".to_string())
    )
}

/// The checked-out commit, read from `.git` without running git.
fn git_sha() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(sha) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(sha.trim().to_string());
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()?
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|s| s.trim().to_string()))
}

/// SplitMix64: the benchmark's seeded source of schedules and choices.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::rel_err;
    use winofuse_conv::tensor::Tensor;

    #[test]
    fn rel_err_scales_by_the_reference_and_fails_non_finite_outputs() {
        let want = Tensor::from_fn(1, 1, 1, 4, |_, _, _, x| x as f32);
        let close = Tensor::from_fn(1, 1, 1, 4, |_, _, _, x| x as f32 + 0.003);
        assert!((rel_err(&close, &want) - 1e-3).abs() < 1e-6);
        let nan = Tensor::from_fn(
            1,
            1,
            1,
            4,
            |_, _, _, x| if x == 2 { f32::NAN } else { x as f32 },
        );
        assert_eq!(rel_err(&nan, &want), f64::INFINITY);
        let short = Tensor::from_fn(1, 1, 1, 3, |_, _, _, x| x as f32);
        assert_eq!(rel_err(&short, &want), f64::INFINITY);
    }
}
