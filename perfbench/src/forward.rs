//! `forward_vgg_e`: one caller runs the full VGG-E (FC head included) at
//! batch 1 through `NetworkExecutor::from_prepared` in steady state.
//! The timed run calls `NetworkExecutor::run`; the traced run calls
//! `run_profiled` and turns its per-layer profile into spans.

use std::sync::Arc;
use std::time::{Duration, Instant};

use winofuse_conv::tensor::Tensor;
use winofuse_model::runtime::{
    ExecAlgo, LayerProfile, NetworkExecutor, NetworkWeights, PreparedNetwork,
};
use winofuse_model::{zoo, Network};
use winofuse_telemetry::Telemetry;

use crate::common::{err, ms, Ctx, Report, Res, THREADS};
use crate::layers;
use crate::plan::{stage, PlanStages};
use crate::stats::Samples;
use crate::trace::OP;

/// Distinct input frames; the first output of each is checked.
const INPUTS: usize = 2;

struct Setup {
    net: Network,
    weights: NetworkWeights,
    prepared: Arc<PreparedNetwork>,
}

pub fn run(ctx: &Ctx) -> Res<Report> {
    let mut r = Report::default();
    let mut stages = PlanStages::default();
    let (s, setup_s) = ctx.setup(|| {
        let net = zoo::vgg_e();
        let weights = NetworkWeights::random(&net, ctx.seed).map_err(err("weights"))?;
        let prepared = stage(
            ctx,
            ("model", "PreparedNetwork::new"),
            (0, 0),
            &mut stages.prepare,
            || PreparedNetwork::new(&net, &weights, ExecAlgo::Auto).map_err(err("prepare")),
        )?;
        Ok(Setup {
            net,
            weights,
            prepared: Arc::new(prepared),
        })
    })?;
    r.set("setup_s", setup_s);
    let inputs = ctx.inputs(&s.net, INPUTS);
    let mut outputs = Vec::new();
    {
        let exec = NetworkExecutor::from_prepared(&s.net, Arc::clone(&s.prepared))
            .map_err(err("executor"))?
            .with_threads(THREADS);
        // Warm-up frame, untimed.
        exec.run(&inputs[0]).map_err(err("warm-up frame"))?;
        if ctx.traced {
            let half = ctx.seconds / 2.0;
            let base = frames(&exec, &inputs, half, &mut r, &mut outputs);
            let telemetry = Telemetry::enabled();
            let exec = exec.with_telemetry(telemetry.clone());
            let mut profiles = Vec::new();
            let traced = traced_frames(ctx, &exec, &inputs, half, &mut r, &mut profiles);
            r.set("trace.overhead_ms", traced.median() - base.median());
            stages.report(&mut r);
            layers::profile(&mut r, &profiles, 1);
            layers::pool(&mut r, &telemetry.summary(), traced.len() as f64);
        } else {
            let t0 = Instant::now();
            let lat = frames(&exec, &inputs, ctx.seconds, &mut r, &mut outputs);
            r.set(
                "throughput_rps",
                lat.len() as f64 / t0.elapsed().as_secs_f64(),
            );
            r.latency(&lat);
        }
    }
    // With random weights VGG-E's softmax output is uniform to within
    // rounding, so a wrong logit could still pass; the check therefore
    // also compares every layer's output of the first frame.
    let layers_got = NetworkExecutor::from_prepared(&s.net, Arc::clone(&s.prepared))
        .map_err(err("executor"))?
        .with_threads(THREADS)
        .run_all(&inputs[0])
        .map_err(err("run_all"))?;
    // The reference needs the weights but not the Winograd banks.
    let Setup {
        net,
        weights,
        prepared,
    } = s;
    drop(prepared);
    let reference = NetworkExecutor::with_algo(&net, &weights, ExecAlgo::Direct)
        .map_err(err("reference executor"))?
        .with_threads(THREADS);
    let layers_want = reference
        .run_all(&inputs[0])
        .map_err(err("reference run"))?;
    for ((layer, got), want) in net.layers().iter().zip(&layers_got).zip(&layers_want) {
        r.check_close(&format!("VGG-E layer {}", layer.name), got, want);
    }
    for (k, got) in outputs.iter().enumerate().skip(1) {
        let want = reference.run(&inputs[k]).map_err(err("reference run"))?;
        r.check_close(&format!("VGG-E frame {k}"), got, &want);
    }
    if let (Some(got), Some(want)) = (outputs.first(), layers_want.last()) {
        r.check_close("VGG-E frame 0", got, want);
    }
    eprintln!(
        "checked {} VGG-E outputs and {} layer outputs against the direct executor: \
         max relative error {:.2e}",
        outputs.len(),
        layers_want.len(),
        r.max_rel_err
    );
    Ok(r)
}

/// Runs frames for `seconds` (at least one); returns per-frame
/// milliseconds. The first output of each input is kept for the check.
fn frames(
    exec: &NetworkExecutor<'_>,
    inputs: &[Tensor<f32>],
    seconds: f64,
    r: &mut Report,
    outputs: &mut Vec<Tensor<f32>>,
) -> Samples {
    let mut lat = Samples::default();
    let start = Instant::now();
    for i in 0.. {
        let t0 = Instant::now();
        let out = exec.run(&inputs[i % inputs.len()]);
        let elapsed = t0.elapsed();
        r.attempted += 1;
        match out {
            Ok(y) => {
                lat.push(ms(elapsed));
                if outputs.len() < inputs.len() && outputs.len() == i {
                    outputs.push(y);
                }
            }
            Err(e) => {
                r.failed += 1;
                eprintln!("frame failed: {e}");
            }
        }
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    lat
}

/// The traced twin of [`frames`]: `run_profiled` inside a `model` span,
/// with one child span per layer laid end to end from its wall time.
fn traced_frames(
    ctx: &Ctx,
    exec: &NetworkExecutor<'_>,
    inputs: &[Tensor<f32>],
    seconds: f64,
    r: &mut Report,
    profiles: &mut Vec<Vec<LayerProfile>>,
) -> Samples {
    let mut lat = Samples::default();
    let start = Instant::now();
    for op in 1u64.. {
        let x = &inputs[op as usize % inputs.len()];
        let t0 = Instant::now();
        let out = ctx.trace.span(OP, "frame", 0, op, |frame| {
            ctx.trace
                .span("model", "NetworkExecutor::run_profiled", frame, op, |id| {
                    let t = Instant::now();
                    exec.run_profiled(x).map(|(_, p)| (p, t, id))
                })
        });
        let elapsed = t0.elapsed();
        r.attempted += 1;
        match out {
            Ok((p, mut t, parent)) => {
                lat.push(ms(elapsed));
                for layer in &p {
                    let end = t + Duration::from_nanos(layer.wall_ns);
                    ctx.trace.record("conv", &layer.name, parent, op, t, end);
                    t = end;
                }
                profiles.push(p);
            }
            Err(e) => {
                r.failed += 1;
                eprintln!("frame failed: {e}");
            }
        }
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    lat
}
