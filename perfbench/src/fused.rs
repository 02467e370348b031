//! `fused_alexnet`: one caller streams frames through the plan-faithful
//! `FusedNetworkRunner` on the AlexNet conv body at batch 1, with strict
//! DRAM reconciliation. The timed run calls `FusedNetworkRunner::run`;
//! the traced run times each group by calling `FusedGroupRunner::run`.

use std::time::Instant;

use winofuse_conv::tensor::Tensor;
use winofuse_fusion::runner::{FusedNetworkRunner, FusedRunReport, GroupDramReport};
use winofuse_model::runtime::{ExecAlgo, NetworkExecutor, NetworkWeights};
use winofuse_model::{zoo, Network};
use winofuse_telemetry::Telemetry;

use crate::common::{err, ms, Ctx, Report, Res, BUDGET_BYTES, THREADS};
use crate::layers;
use crate::plan::{stage, PlanStages};
use crate::stats::Samples;
use crate::trace::OP;

/// Simulated latency of the AlexNet conv body's optimal design at 8 MiB
/// on the ZC706. The search result must not change.
pub const ALEXNET_DESIGN_CYCLES: u64 = 727_840;
/// Fusion groups of that design.
const ALEXNET_GROUPS: usize = 5;
/// Measured DRAM bytes of one frame through that design.
const ALEXNET_DRAM_BYTES: u64 = 7_805_302;
/// Distinct input frames; each is checked against the reference.
const INPUTS: usize = 8;

struct Setup {
    net: Network,
    weights: NetworkWeights,
    runner: FusedNetworkRunner,
}

pub fn run(ctx: &Ctx) -> Res<Report> {
    let mut r = Report::default();
    let mut stages = PlanStages::default();
    let (s, setup_s) = ctx.setup(|| {
        let net = zoo::alexnet()
            .conv_body()
            .map_err(err("alexnet conv body"))?;
        let weights = NetworkWeights::random(&net, ctx.seed).map_err(err("weights"))?;
        let fw = ctx.framework(&Telemetry::disabled());
        let design = stage(
            ctx,
            ("core", "Framework::optimize"),
            (0, 0),
            &mut stages.search,
            || fw.optimize(&net, BUDGET_BYTES).map_err(err("optimize")),
        )?;
        let cycles = design.timing.latency;
        r.set("design_cycles", cycles as f64);
        r.check(cycles == ALEXNET_DESIGN_CYCLES, || {
            format!("AlexNet design latency {cycles} cycles, expected {ALEXNET_DESIGN_CYCLES}")
        });
        let runner = stage(
            ctx,
            ("fusion", "Framework::fused_runner"),
            (0, 0),
            &mut stages.lower,
            || {
                fw.fused_runner(&net, &design, &weights)
                    .map(|runner| runner.strict_dram(true))
                    .map_err(err("fused_runner"))
            },
        )?;
        Ok(Setup {
            net,
            weights,
            runner,
        })
    })?;
    r.set("setup_s", setup_s);
    let Setup {
        net,
        weights,
        runner,
    } = s;
    let groups = runner.groups().len();
    r.check(groups == ALEXNET_GROUPS, || {
        format!("AlexNet design has {groups} fusion groups, expected {ALEXNET_GROUPS}")
    });
    let inputs = ctx.inputs(&net, INPUTS);
    let mut outputs = Vec::new();
    let mut dram = DramCheck::default();
    // Warm-up frame, untimed.
    runner.run(&inputs[0]).map_err(err("warm-up frame"))?;
    if ctx.traced {
        let half = ctx.seconds / 2.0;
        let base = frames(&runner, &inputs, half, &mut r, &mut outputs, &mut dram);
        let telemetry = Telemetry::enabled();
        let runner = runner.with_telemetry(telemetry.clone());
        let mut group_ms = vec![Samples::default(); groups];
        let traced = traced_frames(
            ctx,
            &runner,
            &inputs,
            half,
            &mut r,
            &mut group_ms,
            &mut dram,
        );
        r.set("trace.overhead_ms", traced.median() - base.median());
        let slowest = group_ms.iter().map(Samples::median).fold(0.0, f64::max);
        r.set("fused.group_ms.max", slowest);
        r.set("fused.groups", groups as f64);
        r.set("fused.dram_bytes", dram.bytes as f64);
        r.set("fused.dram_delta_max", dram.delta_max as f64);
        r.set("fused.fallbacks", dram.fallbacks as f64);
        stages.report(&mut r);
        layers::pool(&mut r, &telemetry.summary(), traced.len() as f64);
    } else {
        let t0 = Instant::now();
        let lat = frames(
            &runner,
            &inputs,
            ctx.seconds,
            &mut r,
            &mut outputs,
            &mut dram,
        );
        r.set(
            "throughput_rps",
            lat.len() as f64 / t0.elapsed().as_secs_f64(),
        );
        r.latency(&lat);
    }
    check_outputs(&net, &weights, &inputs, &outputs, &mut r)?;
    r.check(dram.fallbacks == 0, || {
        format!("{} groups fell back to unfused execution", dram.fallbacks)
    });
    Ok(r)
}

/// Per-frame DRAM accounting across the run.
#[derive(Default)]
struct DramCheck {
    bytes: u64,
    delta_max: u64,
    fallbacks: usize,
}

impl DramCheck {
    fn frame(&mut self, groups: &[GroupDramReport], fallbacks: usize, r: &mut Report) {
        let bytes: u64 = groups.iter().map(GroupDramReport::measured).sum();
        let delta = groups.iter().map(GroupDramReport::delta).max().unwrap_or(0);
        self.bytes = bytes;
        self.delta_max = self.delta_max.max(delta);
        self.fallbacks += fallbacks;
        r.check(bytes == ALEXNET_DRAM_BYTES && delta == 0, || {
            format!("frame moved {bytes} DRAM bytes (expected {ALEXNET_DRAM_BYTES}), delta {delta}")
        });
    }
}

/// Streams frames through `FusedNetworkRunner::run` for `seconds`
/// (at least one frame); returns per-frame milliseconds. The first
/// output of each input is kept for the reference check.
fn frames(
    runner: &FusedNetworkRunner,
    inputs: &[Tensor<f32>],
    seconds: f64,
    r: &mut Report,
    outputs: &mut Vec<Tensor<f32>>,
    dram: &mut DramCheck,
) -> Samples {
    let mut lat = Samples::default();
    let start = Instant::now();
    for i in 0.. {
        let x = &inputs[i % inputs.len()];
        let t0 = Instant::now();
        let out = runner.run(x);
        let elapsed = t0.elapsed();
        r.attempted += 1;
        match out {
            Ok(FusedRunReport {
                output,
                groups,
                fallbacks,
            }) => {
                lat.push(ms(elapsed));
                dram.frame(&groups, fallbacks.len(), r);
                if outputs.len() < inputs.len() && outputs.len() == i {
                    outputs.push(output);
                }
            }
            Err(e) => {
                r.failed += 1;
                eprintln!("fused frame failed: {e}");
            }
        }
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    lat
}

/// The traced twin of [`frames`]: runs each group by
/// `FusedGroupRunner::run` inside its own span.
fn traced_frames(
    ctx: &Ctx,
    runner: &FusedNetworkRunner,
    inputs: &[Tensor<f32>],
    seconds: f64,
    r: &mut Report,
    group_ms: &mut [Samples],
    dram: &mut DramCheck,
) -> Samples {
    let mut lat = Samples::default();
    let start = Instant::now();
    for op in 1u64.. {
        let mut cur = inputs[op as usize % inputs.len()].clone();
        let t0 = Instant::now();
        let out = ctx.trace.span(OP, "frame", 0, op, |id| {
            let mut reports = Vec::new();
            let mut fallbacks = 0;
            for (g, group) in runner.groups().iter().enumerate() {
                let tg = Instant::now();
                let res = ctx
                    .trace
                    .span("fusion", "FusedGroupRunner::run", id, op, |_| {
                        group.run(&cur)
                    })?;
                group_ms[g].push(ms(tg.elapsed()));
                reports.push(res.dram);
                fallbacks += usize::from(res.fallback.is_some());
                cur = res.output;
            }
            Ok::<_, winofuse_fusion::FusionError>((reports, fallbacks))
        });
        let elapsed = t0.elapsed();
        r.attempted += 1;
        match out {
            Ok((reports, fallbacks)) => {
                lat.push(ms(elapsed));
                dram.frame(&reports, fallbacks, r);
            }
            Err(e) => {
                r.failed += 1;
                eprintln!("fused frame failed: {e}");
            }
        }
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    lat
}

/// Compares each kept output with the unfused direct-conv executor.
fn check_outputs(
    net: &Network,
    weights: &NetworkWeights,
    inputs: &[Tensor<f32>],
    outputs: &[Tensor<f32>],
    r: &mut Report,
) -> Res<()> {
    let reference = NetworkExecutor::with_algo(net, weights, ExecAlgo::Direct)
        .map_err(err("reference executor"))?
        .with_threads(THREADS);
    for (k, got) in outputs.iter().enumerate() {
        let want = reference.run(&inputs[k]).map_err(err("reference run"))?;
        r.check_close(&format!("fused frame {k}"), got, &want);
    }
    eprintln!(
        "checked {} fused outputs against the direct executor: max relative error {:.2e}",
        outputs.len(),
        r.max_rel_err
    );
    Ok(())
}
