//! Integration tests for the `winofuse` command-line driver.

use std::path::PathBuf;
use std::process::Command;

const DEMO: &str = r#"
name: "cli-test"
input_shape { channels: 3 height: 24 width: 24 }
layer {
  name: "conv1"
  type: "Convolution"
  convolution_param { num_output: 8 kernel_size: 3 pad: 1 }
}
layer { name: "relu1" type: "ReLU" }
layer {
  name: "pool1"
  type: "Pooling"
  pooling_param { pool: MAX kernel_size: 2 stride: 2 }
}
"#;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_winofuse"))
}

fn demo_path(tag: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!(
        "winofuse_cli_{tag}_{}.prototxt",
        std::process::id()
    ));
    std::fs::write(&p, DEMO).expect("write demo prototxt");
    p
}

#[test]
fn info_prints_layer_table() {
    let p = demo_path("info");
    let out = bin().arg("info").arg(&p).output().expect("run");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("conv1"));
    assert!(text.contains("pool1"));
    assert!(text.contains("feature-map transfer"));
    let _ = std::fs::remove_file(p);
}

#[test]
fn optimize_prints_strategy_and_report() {
    let p = demo_path("optimize");
    let out = bin()
        .args(["optimize"])
        .arg(&p)
        .args(["--budget-mb", "2"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("group 0"));
    assert!(text.contains("utilization"));
    assert!(text.contains("power"));
    let _ = std::fs::remove_file(p);
}

#[test]
fn threads_flag_does_not_change_the_design() {
    let p = demo_path("threads");
    let run = |threads: &str| {
        let out = bin()
            .args(["optimize"])
            .arg(&p)
            .args(["--budget-mb", "2", "--threads", threads])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "--threads {threads}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    assert_eq!(run("1"), run("4"), "worker count must not affect output");
    let _ = std::fs::remove_file(p);
}

#[test]
fn simulate_validates_against_reference() {
    let p = demo_path("simulate");
    let out = bin()
        .arg("simulate")
        .arg(&p)
        .args(["--seed", "3"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("matches the layer-by-layer reference"));
    let _ = std::fs::remove_file(p);
}

#[test]
fn codegen_writes_project_with_testbench() {
    let p = demo_path("codegen");
    let dir = std::env::temp_dir().join(format!("winofuse_cli_out_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = bin()
        .arg("codegen")
        .arg(&p)
        .args(["--out"])
        .arg(&dir)
        .args(["--budget-mb", "2", "--testbench"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(dir.join("winofuse.h").exists());
    assert!(dir.join("fusion_group_0.cpp").exists());
    assert!(dir.join("tb_fusion_group_0.cpp").exists());
    let tb = std::fs::read_to_string(dir.join("tb_fusion_group_0.cpp")).unwrap();
    assert!(tb.contains("tb_expected"));
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_file(p);
}

#[test]
fn bad_inputs_fail_cleanly() {
    // Missing file.
    let out = bin()
        .args(["info", "/nonexistent/x.prototxt"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));

    // Unknown command.
    let p = demo_path("bad");
    let out = bin().arg("frobnicate").arg(&p).output().unwrap();
    assert!(!out.status.success());

    // Infeasible budget.
    let out = bin()
        .arg("optimize")
        .arg(&p)
        .args(["--budget-kb", "1"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("minimum"));
    let _ = std::fs::remove_file(p);
}

#[test]
fn oversized_and_empty_inputs_are_model_errors() {
    // A 4e9 x 4e9 input overflows the element count of its feature maps,
    // and a zero batch has nothing to run: both are typed model errors
    // (exit 3), caught by shape inference before anything is allocated.
    let alexnet = std::fs::read_to_string(
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("assets/alexnet.prototxt"),
    )
    .unwrap();
    for (tag, doc, needle) in [
        (
            "huge",
            alexnet.replace("input_dim: 227", "input_dim: 4000000000"),
            "more elements than fit in memory",
        ),
        (
            "empty",
            alexnet.replacen("input_dim: 1", "input_dim: 0", 1),
            "degenerate input batch 0",
        ),
    ] {
        let p = std::env::temp_dir().join(format!(
            "winofuse_cli_{tag}_{}.prototxt",
            std::process::id()
        ));
        std::fs::write(&p, doc).unwrap();
        for cmd in ["run", "optimize"] {
            let out = bin().arg(cmd).arg(&p).output().unwrap();
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(3), "{cmd} {tag}: {stderr}");
            assert!(stderr.contains(needle), "{cmd} {tag}: {stderr}");
        }
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn simulate_emits_trace_and_telemetry_json() {
    use winofuse::telemetry::json::parse;
    use winofuse::telemetry::JsonValue;

    let p = demo_path("trace");
    let trace =
        std::env::temp_dir().join(format!("winofuse_cli_trace_{}.json", std::process::id()));
    let tele = std::env::temp_dir().join(format!("winofuse_cli_tele_{}.json", std::process::id()));
    let out = bin()
        .arg("simulate")
        .arg(&p)
        .args(["--seed", "5", "--trace-out"])
        .arg(&trace)
        .arg("--telemetry-json")
        .arg(&tele)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // The Chrome trace parses and has slices from all three subsystems.
    let doc = parse(&std::fs::read_to_string(&trace).unwrap()).expect("trace is valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .unwrap();
    let cat_of = |e: &JsonValue| e.get("cat").and_then(JsonValue::as_str).map(str::to_string);
    let slices: Vec<_> = events
        .iter()
        .filter(|e| e.get("ph").and_then(JsonValue::as_str) == Some("X"))
        .collect();
    for cat in ["bnb", "dp", "sim"] {
        assert!(
            slices.iter().any(|e| cat_of(e).as_deref() == Some(cat)),
            "no `{cat}` slices in the trace"
        );
    }
    for s in &slices {
        assert!(
            s.get("ts").and_then(JsonValue::as_u64).is_some(),
            "slice missing ts"
        );
        assert!(
            s.get("dur").and_then(JsonValue::as_u64).is_some(),
            "slice missing dur"
        );
    }

    // The telemetry summary reports the headline counters.
    let summary = parse(&std::fs::read_to_string(&tele).unwrap()).expect("summary is valid JSON");
    let counter = |name: &str| {
        summary
            .get("counters")
            .and_then(|c| c.get(name))
            .and_then(JsonValue::as_u64)
    };
    assert!(counter("bnb.nodes_expanded").unwrap() > 0);
    assert!(counter("dp.subproblems").unwrap() > 0);
    assert!(counter("sim.frames").unwrap() >= 1);
    assert!(counter("sim.backpressure_stalls").is_some());
    assert!(counter("sim.dram_bytes_read").unwrap() > 0);

    for f in [&p, &trace, &tele] {
        let _ = std::fs::remove_file(f);
    }
}

#[test]
fn inject_lenient_run_recovers_and_reports() {
    let p = demo_path("inject_lenient");
    // Sabotage every Winograd pool job of conv1; `run` defaults to
    // lenient, so the direct fallback must carry the frame to success.
    let out = bin()
        .arg("run")
        .arg(&p)
        .args(["--inject", "panic@pool.conv1/wino.*#*"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "lenient run must exit 0: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("fault recovery"),
        "recovery counters must be reported:\n{text}"
    );
    let _ = std::fs::remove_file(p);
}

#[test]
fn inject_strict_run_exits_with_kernel_fault_code() {
    let p = demo_path("inject_strict");
    let out = bin()
        .arg("run")
        .arg(&p)
        .args([
            "--inject",
            "panic@pool.conv1/wino.*#*",
            "--fault-mode",
            "strict",
        ])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(7),
        "strict kernel fault is exit code 7: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("caused by:"),
        "error chain must render:\n{err}"
    );
    let _ = std::fs::remove_file(p);
}

#[test]
fn inject_flag_misuse_is_a_usage_error() {
    let p = demo_path("inject_misuse");
    // Malformed spec.
    let out = bin()
        .arg("run")
        .arg(&p)
        .args(["--inject", "frobnicate@@"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("bad --inject spec"));

    // Injection on a command that never executes kernels.
    let out = bin()
        .arg("info")
        .arg(&p)
        .args(["--inject", "panic@pool.conv1/wino.*"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let _ = std::fs::remove_file(p);
}

#[test]
fn device_and_policy_flags_are_honored() {
    let p = demo_path("flags");
    let out = bin()
        .arg("optimize")
        .arg(&p)
        .args(["--budget-mb", "2", "--device", "vx485t", "--policy", "conv"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("conventional"));
    assert!(!text.contains("winograd(m="));
    let _ = std::fs::remove_file(p);
}

#[test]
fn serve_reports_throughput_and_single_search() {
    let p = demo_path("serve");
    let out = bin()
        .arg("serve")
        .arg(&p)
        .args([
            "--requests",
            "16",
            "--concurrency",
            "2",
            "--max-batch",
            "4",
            "--batch-window-ms",
            "1",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("16 request(s) from 2 client(s)"), "{text}");
    assert!(text.contains("plan cache"), "{text}");
    assert!(
        text.contains("strategy search ran exactly once"),
        "the plan-hit guarantee must be verified and reported:\n{text}"
    );
    let _ = std::fs::remove_file(p);
}

#[test]
fn run_batch_replicates_frames_bit_identically() {
    let p = demo_path("run_batch");
    let out = bin()
        .arg("run")
        .arg(&p)
        .args(["--batch", "4"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("replicated frames are bit-identical"),
        "{text}"
    );
    let _ = std::fs::remove_file(p);
}

#[test]
fn serve_flags_are_scoped_to_their_commands() {
    let p = demo_path("serve_misuse");
    // Serve knobs on a one-shot command.
    let out = bin()
        .arg("run")
        .arg(&p)
        .args(["--max-batch", "4"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--max-batch"));

    // --batch outside `run`.
    let out = bin()
        .arg("info")
        .arg(&p)
        .args(["--batch", "2"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));

    // --batch 0 is meaningless.
    let out = bin()
        .arg("run")
        .arg(&p)
        .args(["--batch", "0"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let _ = std::fs::remove_file(p);
}
