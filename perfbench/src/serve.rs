//! `serve_alexnet`: served requests on the AlexNet conv body through a
//! warm `ServeEngine` on the batched executor (`max_batch` 8).
//!
//! Phase 1 is an open loop: one generator thread submits on a seeded
//! schedule at a fixed rate, about 40 % of the saturation throughput of
//! a 2-CPU AVX2 host, and a collector thread waits for the answers. Each
//! request is timed from its due time, so a stall also charges the
//! requests queued behind it. Phase 2 is a closed loop that keeps
//! `QUEUE_DEPTH` requests outstanding; its completion rate is the
//! saturation throughput.

use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use winofuse::{ServeConfig, ServeEngine, Ticket};
use winofuse_conv::tensor::Tensor;
use winofuse_core::cache::PlanCache;
use winofuse_core::CoreError;
use winofuse_model::runtime::{ExecAlgo, NetworkExecutor, NetworkWeights};
use winofuse_model::{zoo, DataType, Network};
use winofuse_telemetry::{RunTelemetry, Telemetry};

use crate::common::{err, ms, Ctx, Report, Res, Rng, BUDGET_BYTES, THREADS};
use crate::fused::ALEXNET_DESIGN_CYCLES;
use crate::layers;
use crate::plan::{traced_plan_entry, PlanStages};
use crate::stats::Samples;
use crate::trace::OP;

/// Open-loop arrival rate: about 40 % of the saturation throughput
/// (13–17 req/s) measured on a 2-CPU AVX2 host. At half (7 req/s) that
/// host's ±25 % speed swings pushed the batch-1 service time past the
/// shortest arrival gap, so the tail measured the host, not the program.
const RATE_RPS: f64 = 6.0;
const MAX_BATCH: usize = 8;
/// Queue capacity, and the outstanding requests of the closed loop.
const QUEUE_DEPTH: usize = 16;
/// Distinct request frames.
const INPUTS: usize = 8;
/// Share of the run given to the open loop; the rest saturates.
const OPEN_SHARE: f64 = 0.7;
/// A run whose generator submits later than this at p90 fell behind its
/// schedule, and its latencies are not valid.
const MAX_LATE_P90_MS: f64 = 5.0;

fn config() -> ServeConfig {
    ServeConfig {
        max_batch: MAX_BATCH,
        queue_depth: QUEUE_DEPTH,
        budget_bytes: BUDGET_BYTES,
        precision: DataType::Fixed16,
        ..ServeConfig::default()
    }
}

fn start_engine(
    ctx: &Ctx,
    net: &Network,
    weights: &NetworkWeights,
    telemetry: &Telemetry,
) -> Res<ServeEngine> {
    let engine = ServeEngine::start(
        ctx.framework(telemetry),
        net.clone(),
        weights.clone(),
        telemetry.clone(),
        config(),
    )
    .map_err(err("engine start"))?;
    engine.warm().map_err(err("engine warm"))?;
    Ok(engine)
}

struct Setup {
    net: Network,
    weights: NetworkWeights,
    engine: ServeEngine,
}

/// Served outputs, by input index, for the reference check.
type Outputs = Vec<(usize, Tensor<f32>)>;

pub fn run(ctx: &Ctx) -> Res<Report> {
    let (s, setup_s) = ctx.setup(|| {
        let net = zoo::alexnet()
            .conv_body()
            .map_err(err("alexnet conv body"))?;
        let weights = NetworkWeights::random(&net, ctx.seed).map_err(err("weights"))?;
        let engine = start_engine(ctx, &net, &weights, &Telemetry::disabled())?;
        Ok(Setup {
            net,
            weights,
            engine,
        })
    })?;
    let mut r = Report::default();
    r.set("setup_s", setup_s);
    let inputs = ctx.inputs(&s.net, INPUTS);
    warm(&s.engine, &inputs)?;
    let mut outputs = Outputs::new();
    let mut rng = Rng::new(ctx.seed);
    let open_s = ctx.seconds * OPEN_SHARE;
    if ctx.traced {
        let base = open_loop(
            ctx,
            &s.engine,
            &inputs,
            open_s / 2.0,
            &mut rng,
            &mut r,
            &mut outputs,
            None,
        );
        s.engine.shutdown().map_err(err("engine shutdown"))?;
        let telemetry = Telemetry::enabled();
        let mut stages = PlanStages::default();
        profile_plan(ctx, &s.net, &s.weights, &inputs, &mut stages, &mut r)?;
        stages.report(&mut r);
        let engine = start_engine(ctx, &s.net, &s.weights, &telemetry)?;
        warm(&engine, &inputs)?;
        let warm_t = telemetry.summary();
        let traced = open_loop(
            ctx,
            &engine,
            &inputs,
            open_s / 2.0,
            &mut rng,
            &mut r,
            &mut outputs,
            Some(0),
        );
        let open_t = telemetry.summary();
        let sat = saturate(
            ctx,
            &engine,
            &inputs,
            ctx.seconds - open_s,
            &mut rng,
            &mut r,
            &mut outputs,
        );
        let all_t = telemetry.summary();
        r.set("trace.overhead_ms", traced.lat.median() - base.lat.median());
        r.set("loadgen.late_ms.p90", traced.late.percentile(90.0));
        r.set("plan.hits", engine.plan_hits() as f64);
        r.set("plan.misses", engine.plan_misses() as f64);
        let lookups = (engine.plan_hits() + engine.plan_misses()) as f64;
        r.set(
            "plan.hit_ratio",
            engine.plan_hits() as f64 / lookups.max(1.0),
        );
        serve_layer(&mut r, &warm_t, &open_t, &all_t);
        let served = (traced.sent + sat.sent) as f64;
        layers::pool(&mut r, &all_t, served);
        engine.shutdown().map_err(err("engine shutdown"))?;
    } else {
        let open = open_loop(
            ctx,
            &s.engine,
            &inputs,
            open_s,
            &mut rng,
            &mut r,
            &mut outputs,
            None,
        );
        let sat = saturate(
            ctx,
            &s.engine,
            &inputs,
            ctx.seconds - open_s,
            &mut rng,
            &mut r,
            &mut outputs,
        );
        r.latency(&open.lat);
        r.set("throughput_rps", sat.throughput);
        if open.late.percentile(90.0) > MAX_LATE_P90_MS {
            r.invalid = Some(format!(
                "the load generator ran {:.2} ms late at p90 (limit {MAX_LATE_P90_MS} ms)",
                open.late.percentile(90.0)
            ));
        }
        s.engine.shutdown().map_err(err("engine shutdown"))?;
    }
    check_outputs(&s.net, &s.weights, &inputs, &outputs, &mut r)?;
    Ok(r)
}

/// One full batch and one single frame, untimed, so the executor is in
/// steady state before the first timed request.
fn warm(engine: &ServeEngine, inputs: &[Tensor<f32>]) -> Res<()> {
    engine
        .run_batch_now(&inputs[..MAX_BATCH.min(inputs.len())])
        .map_err(err("warm-up batch"))?;
    engine
        .run_batch_now(&inputs[..1])
        .map_err(err("warm-up frame"))?;
    Ok(())
}

/// What a load phase measured.
struct Phase {
    sent: usize,
    lat: Samples,
    late: Samples,
    throughput: f64,
}

/// A request in flight from the generator to the collector.
struct InFlight {
    /// Operation id of the request's spans; `None` when not traced.
    op: Option<u64>,
    input: usize,
    due: Instant,
    submit_start: Instant,
    submitted: Instant,
    ticket: Ticket,
}

/// Waits for one request and records it: latency from its due time,
/// the output for the check, and (traced) its spans.
fn complete(ctx: &Ctx, f: InFlight, lat: &mut Samples, outputs: &mut Outputs) -> bool {
    let result = f.ticket.wait();
    let done = Instant::now();
    if let Some(op) = f.op {
        let id = ctx.trace.id();
        ctx.trace
            .record("loadgen", "late", id, op, f.due, f.submit_start);
        ctx.trace.record(
            "serve",
            "ServeEngine::submit",
            id,
            op,
            f.submit_start,
            f.submitted,
        );
        ctx.trace
            .record("serve", "Ticket::wait", id, op, f.submitted, done);
        ctx.trace
            .record_id(id, OP, "request", 0, op, f.due.min(f.submit_start), done);
    }
    match result {
        Ok(y) => {
            lat.push(ms(done.saturating_duration_since(f.due)));
            outputs.push((f.input, y));
            true
        }
        Err(e) => {
            eprintln!("request failed: {e}");
            false
        }
    }
}

/// The open loop: this thread submits on the seeded schedule for
/// `seconds`; a collector thread waits for the answers in order.
/// With `trace_from`, request spans get operation ids after it.
#[allow(clippy::too_many_arguments)]
fn open_loop(
    ctx: &Ctx,
    engine: &ServeEngine,
    inputs: &[Tensor<f32>],
    seconds: f64,
    rng: &mut Rng,
    r: &mut Report,
    outputs: &mut Outputs,
    trace_from: Option<u64>,
) -> Phase {
    // Gaps uniform in [0.9, 1.1] / rate: a fixed mean rate whose
    // shortest gap (150 ms) exceeds the batch-1 service time (60-130 ms
    // on a 2-CPU AVX2 host), so queues form from service stalls, not
    // from the seed. At least one request is sent.
    let mut due_s = Vec::new();
    let mut t = 0.0;
    loop {
        t += (0.9 + 0.2 * rng.unit()) / RATE_RPS;
        if t >= seconds && !due_s.is_empty() {
            break;
        }
        due_s.push(t);
    }
    let picks: Vec<usize> = due_s
        .iter()
        .map(|_| (rng.next_u64() % inputs.len() as u64) as usize)
        .collect();
    let (tx, rx) = mpsc::channel::<InFlight>();
    let mut late = Samples::default();
    let mut rejected = 0;
    let (lat, outs, failed) = std::thread::scope(|scope| {
        let collector = scope.spawn(move || {
            let (mut lat, mut outs, mut failed) = (Samples::default(), Outputs::new(), 0);
            for f in rx {
                if !complete(ctx, f, &mut lat, &mut outs) {
                    failed += 1;
                }
            }
            (lat, outs, failed)
        });
        let t0 = Instant::now();
        for (k, (&at, &input)) in due_s.iter().zip(&picks).enumerate() {
            let x = inputs[input].clone();
            let due = t0 + Duration::from_secs_f64(at);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let submit_start = Instant::now();
            late.push(ms(submit_start.saturating_duration_since(due)));
            match engine.submit(x) {
                Ok(ticket) => {
                    let f = InFlight {
                        op: trace_from.map(|first| first + k as u64 + 1),
                        input,
                        due,
                        submit_start,
                        submitted: Instant::now(),
                        ticket,
                    };
                    tx.send(f).expect("collector outlives the generator");
                }
                Err(e) => {
                    rejected += 1;
                    eprintln!("request rejected: {e}");
                }
            }
        }
        drop(tx);
        collector.join().expect("collector thread panicked")
    });
    let sent = due_s.len();
    eprintln!(
        "open loop: sent {sent}, succeeded {}, failed {failed}, rejected {rejected}; \
         generator late p90 {:.3} ms (n = {})",
        lat.len(),
        late.percentile(90.0),
        late.len()
    );
    r.attempted += sent as u64;
    r.failed += (failed + rejected) as u64;
    outputs.extend(outs);
    Phase {
        sent,
        lat,
        late,
        throughput: 0.0,
    }
}

/// The closed loop: keeps `QUEUE_DEPTH` requests outstanding until
/// `seconds` have passed, then drains. Throughput counts every
/// completion from the phase start to the last completion. Its requests
/// wait behind a full queue by design, so they get no spans.
fn saturate(
    ctx: &Ctx,
    engine: &ServeEngine,
    inputs: &[Tensor<f32>],
    seconds: f64,
    rng: &mut Rng,
    r: &mut Report,
    outputs: &mut Outputs,
) -> Phase {
    let mut window = VecDeque::new();
    let (mut sent, mut rejected, mut failed) = (0usize, 0usize, 0usize);
    let mut lat = Samples::default();
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    let mut last_done = start;
    let mut submit = |window: &mut VecDeque<InFlight>, rng: &mut Rng| {
        let input = (rng.next_u64() % inputs.len() as u64) as usize;
        let x = inputs[input].clone();
        let submit_start = Instant::now();
        sent += 1;
        match engine.submit(x) {
            Ok(ticket) => window.push_back(InFlight {
                op: None,
                input,
                due: submit_start,
                submit_start,
                submitted: Instant::now(),
                ticket,
            }),
            Err(e) => {
                rejected += 1;
                eprintln!("request rejected: {e}");
            }
        }
    };
    while window.len() < QUEUE_DEPTH {
        submit(&mut window, rng);
    }
    while let Some(f) = window.pop_front() {
        if complete(ctx, f, &mut lat, outputs) {
            last_done = Instant::now();
        } else {
            failed += 1;
        }
        if Instant::now() < end {
            submit(&mut window, rng);
        }
    }
    let throughput = lat.len() as f64 / last_done.duration_since(start).as_secs_f64().max(1e-9);
    eprintln!(
        "saturation: sent {sent}, succeeded {}, failed {failed}, rejected {rejected}; \
         throughput {throughput:.3} req/s",
        lat.len()
    );
    r.attempted += sent as u64;
    r.failed += (failed + rejected) as u64;
    Phase {
        sent,
        lat,
        late: Samples::default(),
        throughput,
    }
}

/// The queue and batcher metrics the engine records in its telemetry:
/// queue wait and batch time over the open loop (`open` minus the
/// warm-up in `warm`, read from the histograms), batch fill over the
/// saturation phase (`all` minus `open`).
fn serve_layer(r: &mut Report, warm: &RunTelemetry, open: &RunTelemetry, all: &RunTelemetry) {
    let hist = |t: &RunTelemetry, name: &str| t.histograms.get(name).copied().unwrap_or_default();
    let delta_mean = |a: &RunTelemetry, b: &RunTelemetry, name: &str| {
        let (a, b) = (hist(a, name), hist(b, name));
        let n = b.count.saturating_sub(a.count);
        if n == 0 {
            0.0
        } else {
            b.sum.saturating_sub(a.sum) as f64 / n as f64
        }
    };
    // The warm-up holds two batches; with tens of open-loop batches the
    // histogram percentiles are dominated by the open loop.
    let wait = hist(open, "serve.queue_wait_us");
    r.set("serve.queue_wait_ms.p50", wait.p50() as f64 / 1e3);
    r.set(
        "serve.queue_wait_ms.p90",
        wait.percentile(90.0) as f64 / 1e3,
    );
    r.set(
        "serve.batch_exec_ms.p50",
        hist(open, "serve.batch_exec_us").p50() as f64 / 1e3,
    );
    r.set(
        "serve.batch_size.mean",
        delta_mean(warm, open, "serve.batch_size"),
    );
    r.set(
        "serve.batch_fill",
        delta_mean(open, all, "serve.batch_size") / MAX_BATCH as f64,
    );
    r.set("serve.rejected", all.counter("serve.rejected") as f64);
    r.set("serve.failed", all.counter("serve.failed") as f64);
}

/// Builds the served plan through a `PlanCache` of the benchmark's own,
/// with every stage in a span and the search counters on, and profiles
/// one full batch on its executor: the per-layer split of the serving
/// path's set-up and kernel time.
fn profile_plan(
    ctx: &Ctx,
    net: &Network,
    weights: &NetworkWeights,
    inputs: &[Tensor<f32>],
    stages: &mut PlanStages,
    r: &mut Report,
) -> Res<()> {
    let telemetry = Telemetry::enabled();
    let fw = ctx.framework(&telemetry);
    let (net, weights) = (Arc::new(net.clone()), Arc::new(weights.clone()));
    let key = fw.plan_key(&net, &weights, BUDGET_BYTES, DataType::Fixed16);
    let cache = PlanCache::new(Telemetry::disabled());
    let entry = ctx
        .trace
        .span("core", "PlanCache::get_or_build", 0, 0, |id| {
            cache.get_or_build(&key, || {
                traced_plan_entry(ctx, &fw, &net, &weights, (id, 0), stages)
                    .map_err(CoreError::Substrate)
            })
        });
    let entry = entry.map_err(err("plan build"))?;
    layers::search(r, &telemetry.summary(), 1.0);
    let cycles = entry.design.timing.latency;
    r.set("design_cycles", cycles as f64);
    r.check(cycles == ALEXNET_DESIGN_CYCLES, || {
        format!("AlexNet design latency {cycles} cycles, expected {ALEXNET_DESIGN_CYCLES}")
    });
    let batch =
        Tensor::concat_frames(&inputs[..MAX_BATCH.min(inputs.len())]).map_err(err("batch"))?;
    let exec = entry
        .executor()
        .map_err(err("executor"))?
        .with_threads(THREADS);
    let (_, profile) = exec.run_profiled(&batch).map_err(err("profiled batch"))?;
    layers::profile(r, &[profile], batch.n());
    Ok(())
}

/// Compares every served output with the direct-conv executor's output
/// for the same frame.
fn check_outputs(
    net: &Network,
    weights: &NetworkWeights,
    inputs: &[Tensor<f32>],
    outputs: &Outputs,
    r: &mut Report,
) -> Res<()> {
    let reference = NetworkExecutor::with_algo(net, weights, ExecAlgo::Direct)
        .map_err(err("reference executor"))?
        .with_threads(THREADS);
    let want = inputs
        .iter()
        .map(|x| reference.run(x).map_err(err("reference run")))
        .collect::<Res<Vec<_>>>()?;
    for (k, (input, got)) in outputs.iter().enumerate() {
        r.check_close(&format!("served request {k}"), got, &want[*input]);
    }
    eprintln!(
        "checked {} served outputs against the direct executor: max relative error {:.2e}",
        outputs.len(),
        r.max_rel_err
    );
    Ok(())
}
