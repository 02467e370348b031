//! Plan builds split into the stages `Framework::plan_entry` runs:
//! strategy search, fused-runner lowering and filter preparation.

use std::sync::Arc;
use std::time::Instant;

use winofuse_core::cache::PlanEntry;
use winofuse_core::framework::Framework;
use winofuse_model::runtime::{ExecAlgo, NetworkWeights, PreparedNetwork};
use winofuse_model::{DataType, Network};

use crate::common::{err, ms, Ctx, Report, Res, BUDGET_BYTES};
use crate::stats::Samples;

/// Times of the plan-build stages a workload ran.
#[derive(Default)]
pub struct PlanStages {
    pub search: Samples,
    pub lower: Samples,
    pub prepare: Samples,
}

impl PlanStages {
    /// Reports the median time of each stage that ran.
    pub fn report(&self, r: &mut Report) {
        for (name, s) in [
            ("plan.search_ms", &self.search),
            ("plan.lower_ms", &self.lower),
            ("plan.prepare_ms", &self.prepare),
        ] {
            if s.len() > 0 {
                r.set(name, s.median());
            }
        }
    }
}

/// Runs one plan-build stage in a span and records its time.
pub fn stage<T>(
    ctx: &Ctx,
    (layer, name): (&'static str, &str),
    (parent, op): (u64, u64),
    samples: &mut Samples,
    f: impl FnOnce() -> Res<T>,
) -> Res<T> {
    let t0 = Instant::now();
    let out = ctx.trace.span(layer, name, parent, op, |_| f());
    samples.push(ms(t0.elapsed()));
    out
}

/// Builds a [`PlanEntry`] by the public calls `Framework::plan_entry`
/// makes, each in its own span under `ids`
/// (parent span, operation), and records their times in `stages`.
pub fn traced_plan_entry(
    ctx: &Ctx,
    fw: &Framework,
    net: &Arc<Network>,
    weights: &Arc<NetworkWeights>,
    ids: (u64, u64),
    stages: &mut PlanStages,
) -> Res<PlanEntry> {
    let design = stage(
        ctx,
        ("core", "Framework::optimize"),
        ids,
        &mut stages.search,
        || fw.optimize(net, BUDGET_BYTES).map_err(err("optimize")),
    )?;
    let runner = stage(
        ctx,
        ("fusion", "Framework::fused_runner"),
        ids,
        &mut stages.lower,
        || {
            fw.fused_runner(net, &design, weights)
                .map_err(err("fused_runner"))
        },
    )?;
    let prepared = stage(
        ctx,
        ("model", "PreparedNetwork::new"),
        ids,
        &mut stages.prepare,
        || PreparedNetwork::new(net, weights, ExecAlgo::Auto).map_err(err("PreparedNetwork::new")),
    )?;
    let (parent, op) = ids;
    let key = ctx
        .trace
        .span("core", "Framework::plan_key", parent, op, |_| {
            fw.plan_key(net, weights, BUDGET_BYTES, DataType::Fixed16)
        });
    Ok(PlanEntry {
        key,
        net: Arc::clone(net),
        weights: Arc::clone(weights),
        design,
        prepared: Arc::new(prepared),
        runner,
    })
}
