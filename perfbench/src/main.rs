//! The winofuse benchmark: one command per workload, run from the
//! repository root.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve_alexnet|forward_vgg_e|fused_alexnet> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload builds its inputs from `--seed`, sets itself up several
//! times (the median is `setup_s`), measures for `--seconds`, then checks
//! its outputs against an independent reference outside the timed region.
//! Human-readable lines (sample counts, the host stamp, checks) go to
//! standard error; the last line of standard output is one JSON object
//! whose metric names and units come from `BENCHMARK.json`.
//!
//! `--trace 0` reports the end-to-end metrics with telemetry off.
//! `--trace 1` is a separate run: it enables the program's telemetry,
//! records spans around every public call it makes, writes them to
//! `.perfbench/<workload>-seed<n>.trace.json`, and reports the per-layer
//! metrics.

mod common;
mod forward;
mod fused;
mod layers;
mod plan;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use common::{Ctx, Report};
use winofuse_telemetry::json::{self, JsonValue};

const USAGE: &str = "usage: perfbench --workload <serve_alexnet|forward_vgg_e|fused_alexnet> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag `{flag}` needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed `{value}`"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds `{value}`"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.unwrap_or(false),
    })
}

/// The metric declarations of `BENCHMARK.json`: name → unit, for the
/// end-to-end and the per-layer lists.
struct Declared {
    end_to_end: BTreeMap<String, String>,
    per_layer: BTreeMap<String, String>,
}

fn read_declared() -> Result<Declared, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json (run from the repository root): {e}"))?;
    let doc = json::parse(&text).ok_or("BENCHMARK.json is not valid JSON")?;
    let list = |key: &str| -> Result<BTreeMap<String, String>, String> {
        let mut out = BTreeMap::new();
        for m in doc
            .get(key)
            .and_then(JsonValue::as_array)
            .ok_or_else(|| format!("BENCHMARK.json has no `{key}` list"))?
        {
            let name = m.get("name").and_then(JsonValue::as_str);
            let unit = m.get("unit").and_then(JsonValue::as_str);
            match (name, unit) {
                (Some(n), Some(u)) => out.insert(n.to_string(), u.to_string()),
                _ => return Err(format!("a `{key}` entry lacks a name or unit")),
            };
        }
        Ok(out)
    };
    Ok(Declared {
        end_to_end: list("end_to_end")?,
        per_layer: list("per_layer")?,
    })
}

/// Renders the result line with every declared metric of the run's kind
/// (`declared`). A measured metric that `BENCHMARK.json` declares in
/// neither list is a benchmark bug.
fn result_line(report: &Report, all: &Declared, traced: bool) -> Result<String, String> {
    if let Some(extra) = report
        .metrics
        .keys()
        .find(|k| !all.end_to_end.contains_key(*k) && !all.per_layer.contains_key(*k))
    {
        return Err(format!(
            "metric `{extra}` is not declared in BENCHMARK.json"
        ));
    }
    let declared = if traced {
        &all.per_layer
    } else {
        &all.end_to_end
    };
    let mut not_exercised = Vec::new();
    let metrics: Vec<String> = declared
        .iter()
        .map(|(name, unit)| {
            let value = report.metrics.get(name).copied().unwrap_or_else(|| {
                not_exercised.push(name.as_str());
                0.0
            });
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json::esc(name),
                common::json_number(value),
                json::esc(unit)
            )
        })
        .collect();
    if !not_exercised.is_empty() {
        eprintln!(
            "not exercised by this workload (reported as 0): {}",
            not_exercised.join(", ")
        );
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct(),
        report.attempted.max(1),
        report.failed + report.wrong,
        metrics.join(", ")
    ))
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let declared = match read_declared() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let ctx = Ctx::new(
        &args.workload,
        args.seed,
        args.seconds,
        args.trace,
        process_start,
    );
    eprintln!("{}", common::host_stamp());
    let outcome = match args.workload.as_str() {
        "serve_alexnet" => serve::run(&ctx),
        "forward_vgg_e" => forward::run(&ctx),
        "fused_alexnet" => fused::run(&ctx),
        other => {
            eprintln!("perfbench: unknown workload `{other}`\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut report = match outcome {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    report.finish(&ctx);
    if args.trace {
        let path = ctx.trace_path();
        match ctx.trace.write(&path) {
            Ok(()) => eprintln!("spans written to {path}"),
            Err(e) => {
                eprintln!("perfbench: cannot write spans: {e}");
                return ExitCode::from(1);
            }
        }
    }
    match result_line(&report, &declared, args.trace) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
