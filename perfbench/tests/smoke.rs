//! Smoke test: a one-second run of every workload, timed and traced,
//! must pass its output checks and emit every metric `BENCHMARK.json`
//! declares, with its unit. Each workload must also emit nonzero values
//! for the per-layer metrics of the layers it exercises.
//!
//! ```text
//! cargo test --release --offline --manifest-path perfbench/Cargo.toml
//! ```

use std::path::Path;
use std::process::Command;

use winofuse_telemetry::json::{self, JsonValue};

/// Per-layer metrics each workload must report as nonzero.
const EXERCISED: &[(&str, &[&str])] = &[
    (
        "serve_alexnet",
        &[
            "design_cycles",
            "serve.batch_exec_ms.p50",
            "serve.batch_size.mean",
            "serve.batch_fill",
            "loadgen.late_ms.p90",
            "plan.hits",
            "plan.misses",
            "plan.hit_ratio",
            "plan.search_ms",
            "plan.lower_ms",
            "plan.prepare_ms",
            "bnb.nodes_expanded",
            "bnb.leaves_evaluated",
            "bnb.plans_computed",
            "dp.cell_evals",
            "exec.conv_direct_ms",
            "exec.conv_winograd_ms",
            "exec.lrn_ms",
            "exec.pool_ms",
            "conv.gemm_ms",
            "conv.effective_gflops",
            "pool.runs",
            "pool.jobs",
            "pool.utilization",
            "self.serve_ms",
        ],
    ),
    (
        "forward_vgg_e",
        &[
            "plan.prepare_ms",
            "exec.conv_winograd_ms",
            "exec.fc_ms",
            "exec.pool_ms",
            "conv.scatter_ms",
            "conv.gemm_ms",
            "conv.gather_ms",
            "conv.transform_share",
            "conv.flops_gemm",
            "conv.bytes_gemm",
            "conv.tiles",
            "conv.gemm_calls",
            "conv.effective_gflops",
            "pool.runs",
            "self.conv_ms",
        ],
    ),
    (
        "fused_alexnet",
        &[
            "design_cycles",
            "plan.search_ms",
            "plan.lower_ms",
            "fused.group_ms.max",
            "fused.groups",
            "fused.dram_bytes",
            "pool.runs",
            "self.fusion_ms",
        ],
    ),
];

fn declared(doc: &JsonValue, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(JsonValue::as_array)
        .expect("BENCHMARK.json lists metrics")
        .iter()
        .map(|m| {
            let field = |f| m.get(f).and_then(JsonValue::as_str).expect("name and unit");
            (field("name").to_string(), field("unit").to_string())
        })
        .collect()
}

fn run(root: &Path, workload: &str, trace: &str) -> JsonValue {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(root)
        .args(["--workload", workload, "--seed", "1", "--seconds", "1"])
        .args(["--trace", trace])
        .output()
        .expect("benchmark starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stderr}"
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    json::parse(last).unwrap_or_else(|| panic!("result line is not JSON: {last}"))
}

#[test]
fn every_workload_emits_every_metric_and_passes_its_checks() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark sits in the repository");
    let doc = json::parse(&std::fs::read_to_string(root.join("BENCHMARK.json")).unwrap())
        .expect("BENCHMARK.json parses");
    let end_to_end = declared(&doc, "end_to_end");
    let per_layer = declared(&doc, "per_layer");
    for &(workload, exercised) in EXERCISED {
        for (trace, metrics) in [("0", &end_to_end), ("1", &per_layer)] {
            let result = run(root, workload, trace);
            let what = format!("{workload} --trace {trace}");
            assert_eq!(
                result.get("correct"),
                Some(&JsonValue::Bool(true)),
                "{what}"
            );
            assert_eq!(
                result.get("failed").and_then(JsonValue::as_u64),
                Some(0),
                "{what}"
            );
            assert!(
                result.get("attempted").and_then(JsonValue::as_u64) >= Some(1),
                "{what}"
            );
            let got = result.get("metrics").expect("metrics");
            let value = |name: &str| {
                got.get(name)
                    .and_then(|m| m.get("value"))
                    .and_then(JsonValue::as_f64)
                    .unwrap_or_else(|| panic!("{what}: no value for `{name}`"))
            };
            for (name, unit) in metrics.iter() {
                let m = got
                    .get(name)
                    .unwrap_or_else(|| panic!("{what}: `{name}` missing"));
                assert_eq!(
                    m.get("unit").and_then(JsonValue::as_str),
                    Some(unit.as_str())
                );
                if trace == "0" {
                    assert!(value(name) > 0.0, "{what}: `{name}` is not positive");
                }
            }
            if trace == "1" {
                for name in exercised {
                    assert!(value(name) != 0.0, "{what}: `{name}` is 0");
                }
                assert_eq!(value("error_rate"), 0.0, "{what}");
                assert_eq!(value("fused.dram_delta_max"), 0.0, "{what}");
                if workload == "serve_alexnet" {
                    assert_eq!(value("plan.misses"), 1.0, "{what}: one plan build");
                }
            }
        }
    }
}
