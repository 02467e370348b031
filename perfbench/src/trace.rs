//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Spans live in memory and are written once, at the end of the traced
//! run, in Chrome trace-event format. Every span carries its parent and
//! the id of the operation (request or frame) it belongs to.
//! The benchmark's own operation spans use the layer `bench`; their self
//! time is the part of the end-to-end latency no layer accounts for.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use winofuse_telemetry::json::esc;

use crate::stats::Samples;

/// The layer of the benchmark's own operation spans.
pub const OP: &str = "bench";

#[derive(Debug, Clone)]
struct SpanRec {
    id: u64,
    parent: u64,
    op: u64,
    layer: &'static str,
    name: String,
    start_us: f64,
    end_us: f64,
}

pub struct Tracer {
    on: bool,
    t0: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRec>>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            t0: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A fresh span id (0 when tracing is off).
    pub fn id(&self) -> u64 {
        if self.on {
            self.next_id.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        }
    }

    /// Records a finished span under a pre-allocated `id`. `parent` 0
    /// means a root span; `op` is the operation id shared by every span
    /// of one request or frame (0 for set-up).
    #[allow(clippy::too_many_arguments)]
    pub fn record_id(
        &self,
        id: u64,
        layer: &'static str,
        name: &str,
        parent: u64,
        op: u64,
        start: Instant,
        end: Instant,
    ) {
        if !self.on {
            return;
        }
        let us = |t: Instant| t.saturating_duration_since(self.t0).as_secs_f64() * 1e6;
        let rec = SpanRec {
            id,
            parent,
            op,
            layer,
            name: name.to_string(),
            start_us: us(start),
            end_us: us(end),
        };
        self.spans
            .lock()
            .expect("span list lock: no span recorder panics while holding it")
            .push(rec);
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &self,
        layer: &'static str,
        name: &str,
        parent: u64,
        op: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.id();
        self.record_id(id, layer, name, parent, op, start, end);
        id
    }

    /// Runs `f` inside a span; `f` receives the span id for its children.
    pub fn span<T>(
        &self,
        layer: &'static str,
        name: &str,
        parent: u64,
        op: u64,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        if !self.on {
            return f(0);
        }
        let id = self.id();
        let start = Instant::now();
        let out = f(id);
        self.record_id(id, layer, name, parent, op, start, Instant::now());
        out
    }

    fn snapshot(&self) -> Vec<SpanRec> {
        self.spans
            .lock()
            .expect("span list lock: no span recorder panics while holding it")
            .clone()
    }

    /// Per-layer self time per operation (`self.<layer>_ms`), the median
    /// time per operation no layer accounts for
    /// (`trace.unattributed_ms`), and the span count.
    pub fn layer_metrics(&self) -> Vec<(String, f64)> {
        let spans = self.snapshot();
        let mut children: HashMap<u64, Vec<(f64, f64)>> = HashMap::new();
        for s in &spans {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_us, s.end_us));
        }
        let mut per_layer: BTreeMap<&str, f64> = BTreeMap::new();
        let mut unattributed = Samples::default();
        // Operation 0 is set-up, which `setup_s` and the `plan.*` stage
        // times cover; self times are per timed operation.
        for s in spans.iter().filter(|s| s.op != 0) {
            let covered = children.get(&s.id).map_or(0.0, |c| covered(c, s));
            let self_us = (s.end_us - s.start_us - covered).max(0.0);
            if s.layer == OP {
                unattributed.push(self_us / 1e3);
            } else {
                *per_layer.entry(s.layer).or_default() += self_us;
            }
        }
        let ops = unattributed.len().max(1) as f64;
        let mut out: Vec<(String, f64)> = per_layer
            .into_iter()
            .map(|(layer, us)| (format!("self.{layer}_ms"), us / 1e3 / ops))
            .collect();
        out.push(("trace.unattributed_ms".into(), unattributed.median()));
        out.push(("trace.spans".into(), spans.len() as f64));
        out
    }

    /// Writes every span to `path` as a Chrome trace-event file.
    pub fn write(&self, path: &str) -> std::io::Result<()> {
        if let Some(dir) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(dir)?;
        }
        let events: Vec<String> = self
            .snapshot()
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                     \"pid\":1,\"tid\":{},\"args\":{{\"id\":{},\"parent\":{},\"op\":{}}}}}",
                    esc(&s.name),
                    s.layer,
                    s.start_us,
                    s.end_us - s.start_us,
                    s.op,
                    s.id,
                    s.parent,
                    s.op
                )
            })
            .collect();
        std::fs::write(
            path,
            format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n")),
        )?;
        Ok(())
    }
}

/// Length of the union of `intervals`, clipped to `span`.
fn covered(intervals: &[(f64, f64)], span: &SpanRec) -> f64 {
    let mut iv: Vec<(f64, f64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(span.start_us), b.min(span.end_us)))
        .filter(|(a, b)| b > a)
        .collect();
    iv.sort_by(|x, y| x.0.total_cmp(&y.0));
    let (mut total, mut cur): (f64, Option<(f64, f64)>) = (0.0, None);
    for (a, b) in iv {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0.0, |(a, b)| b - a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_overlapping_children() {
        let t = Tracer::new(true);
        let base = t.t0;
        let at = |ms: u64| base + Duration::from_millis(ms);
        let op = t.id();
        let child = t.record("model", "run", op, 1, at(1), at(9));
        t.record("conv", "a", child, 1, at(2), at(5));
        t.record("conv", "b", child, 1, at(4), at(7));
        t.record_id(op, OP, "frame", 0, 1, at(0), at(10));
        let m: BTreeMap<String, f64> = t.layer_metrics().into_iter().collect();
        assert!((m["self.conv_ms"] - 6.0).abs() < 1e-6);
        assert!((m["self.model_ms"] - 3.0).abs() < 1e-6);
        assert!((m["trace.unattributed_ms"] - 2.0).abs() < 1e-6);
    }
}
