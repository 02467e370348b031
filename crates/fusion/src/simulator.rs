//! Cycle-approximate behavioral simulation of a fusion group.
//!
//! The simulator executes a fused layer stack the way the hardware does:
//! rows stream from DRAM into the first layer's circular line buffer, each
//! layer produces output rows as soon as its window is resident, rows flow
//! to the next layer through FIFO channels, and only the last layer's rows
//! return to DRAM. Two things come out of a run:
//!
//! 1. **Values** — computed through the real [`LineBuffer`] structure and
//!    validated against the layer-by-layer reference executor, proving the
//!    fusion architecture is functionally transparent.
//! 2. **Cycles** — an event-driven latency estimate: per-row phase costs
//!    come from the analytic engine models, but inter-layer dependencies,
//!    pipeline fill and backpressure emerge from the dataflow itself. The
//!    analytic [`crate::pipeline::group_timing`] is cross-checked against
//!    this simulation in the tests.
//!
//! Backpressure is real: a producer may not push a row that would evict
//! data its consumer still needs, which is exactly why the paper sizes the
//! buffer at `K + S` rows (§4.2).

use std::collections::VecDeque;

use winofuse_conv::ops::LrnParams;
use winofuse_conv::tensor::Tensor;
use winofuse_model::layer::{Layer, LayerKind};
use winofuse_model::network::Network;
use winofuse_model::runtime::{LayerWeights, NetworkWeights};
use winofuse_model::shape::{DataType, FmShape};
use winofuse_telemetry::{Telemetry, PID_SIM};

use crate::line_buffer::LineBuffer;
use crate::pipeline::LayerConfig;
use crate::FusionError;

/// Result of simulating one frame through a fused group.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// The group's output feature maps.
    pub output: Tensor<f32>,
    /// End-to-end cycles for the frame (load of first row to store of
    /// last).
    pub cycles: u64,
    /// Bytes read from DRAM (group input + streamed weights).
    pub dram_bytes_read: u64,
    /// Bytes written to DRAM (group output).
    pub dram_bytes_written: u64,
    /// Number of producer stalls caused by line-buffer backpressure:
    /// rows that arrived at a stage (or at the DRAM feed FIFO) and had
    /// to wait at least one event-loop step before the consumer's line
    /// buffer could take them. Each stalled row counts exactly once,
    /// however long it waits.
    pub backpressure_stalls: u64,
    /// Per-stage busy intervals `[start, end)` in cycles, in forward
    /// layer order — the raw data behind occupancy analysis and the VCD
    /// waveform dump ([`crate::vcd`]).
    pub stage_activity: Vec<Vec<(u64, u64)>>,
    /// Layer names, aligned with `stage_activity`.
    pub stage_names: Vec<String>,
}

impl SimResult {
    /// Fraction of the total span each stage spent busy (occupancy), in
    /// forward layer order. An empty frame (zero-cycle span) has zero
    /// occupancy everywhere.
    pub fn stage_occupancy(&self) -> Vec<f64> {
        if self.cycles == 0 {
            return vec![0.0; self.stage_activity.len()];
        }
        self.stage_activity
            .iter()
            .map(|iv| {
                let busy: u64 = iv.iter().map(|(s, e)| e - s).sum();
                busy as f64 / self.cycles as f64
            })
            .collect()
    }
}

/// Per-layer streaming state.
struct StageState {
    layer: Layer,
    input: FmShape,
    output: FmShape,
    buffer: LineBuffer<f32>,
    kernels: Option<Tensor<f32>>,
    /// Rows of input fed so far.
    in_rows_fed: usize,
    /// Rows of output produced so far.
    out_rows_done: usize,
    /// Compute cycles charged per output row.
    compute_per_row: u64,
    /// Cycle at which this stage's engine frees up.
    busy_until: u64,
    /// Window/stride/pad for dependency math.
    kernel: usize,
    stride: usize,
    pad: usize,
}

impl StageState {
    /// First input row still needed for the *next* unproduced output row.
    fn needed_input_start(&self) -> usize {
        (self.out_rows_done * self.stride).saturating_sub(self.pad)
    }

    /// Highest input row index (exclusive) required to produce output row
    /// `out_rows_done`, clamped to the real input height.
    fn needed_input_end(&self) -> usize {
        let want = self.out_rows_done * self.stride + self.kernel;
        let want = want.saturating_sub(self.pad);
        want.min(self.input.height)
    }

    fn can_accept_row(&self) -> bool {
        if self.in_rows_fed >= self.input.height {
            return false;
        }
        if self.buffer.rows_buffered() < self.buffer.depth() {
            return true;
        }
        // Pushing would evict the oldest row; allowed only if no longer
        // needed (backpressure otherwise).
        self.buffer.oldest_row() < self.needed_input_start()
    }

    fn feed(&mut self, row: &[f32]) -> Result<(), FusionError> {
        self.buffer.push_row(row)?;
        self.in_rows_fed += 1;
        Ok(())
    }

    fn can_produce(&self) -> bool {
        self.out_rows_done < self.output.height && self.in_rows_fed >= self.needed_input_end()
    }

    /// Computes the next output row (channel-major `C·W` values).
    fn produce(&mut self) -> Result<Vec<f32>, FusionError> {
        let i = self.out_rows_done;
        let out_w = self.output.width;
        let out_c = self.output.channels;
        let mut row = vec![0.0f32; out_c * out_w];
        match &self.layer.kind {
            LayerKind::Conv(c) => {
                let kernels = self.kernels.as_ref().ok_or_else(|| {
                    FusionError::Simulation(format!("missing kernels for `{}`", self.layer.name))
                })?;
                let ch_per_group = c.channels_per_group(self.input.channels);
                let out_per_group = out_c / c.groups.max(1);
                for n in 0..out_c {
                    let group_base = (n / out_per_group.max(1)) * ch_per_group;
                    for w in 0..out_w {
                        let mut acc = 0.0f32;
                        for m in 0..ch_per_group {
                            for u in 0..c.kernel {
                                let r = (i * c.stride + u) as isize - c.pad as isize;
                                if r < 0 || r as usize >= self.input.height {
                                    continue;
                                }
                                for v in 0..c.kernel {
                                    let col = (w * c.stride + v) as isize - c.pad as isize;
                                    let d = self.buffer.get_padded_col(
                                        group_base + m,
                                        r as usize,
                                        col,
                                    )?;
                                    acc += d * kernels.get(n, m, u, v);
                                }
                            }
                        }
                        if c.relu && acc < 0.0 {
                            acc = 0.0;
                        }
                        row[n * out_w + w] = acc;
                    }
                }
            }
            LayerKind::Pool(p) => {
                for ch in 0..out_c {
                    for w in 0..out_w {
                        let mut best: Option<f32> = None;
                        let mut sum = 0.0f32;
                        let mut count = 0usize;
                        for u in 0..p.kernel {
                            let r = (i * p.stride + u) as isize - p.pad as isize;
                            if r < 0 || r as usize >= self.input.height {
                                continue;
                            }
                            for v in 0..p.kernel {
                                let col = (w * p.stride + v) as isize - p.pad as isize;
                                if col < 0 || col as usize >= self.input.width {
                                    continue;
                                }
                                let val = self.buffer.get(ch, r as usize, col as usize)?;
                                best = Some(best.map_or(val, |b: f32| b.max(val)));
                                sum += val;
                                count += 1;
                            }
                        }
                        row[ch * out_w + w] = match p.kind {
                            winofuse_conv::ops::PoolKind::Max => best.unwrap_or(0.0),
                            winofuse_conv::ops::PoolKind::Average => {
                                if count == 0 {
                                    0.0
                                } else {
                                    sum / count as f32
                                }
                            }
                        };
                    }
                }
            }
            LayerKind::Lrn(spec) => {
                let params = LrnParams::from(*spec);
                let half = (params.local_size / 2) as isize;
                for ch in 0..out_c {
                    for w in 0..out_w {
                        let mut sum_sq = 0.0f32;
                        for dc in -half..=half {
                            let cc = ch as isize + dc;
                            if cc < 0 || cc as usize >= self.input.channels {
                                continue;
                            }
                            let v = self.buffer.get(cc as usize, i, w)?;
                            sum_sq += v * v;
                        }
                        let denom = (params.k + params.alpha / params.local_size as f32 * sum_sq)
                            .powf(params.beta);
                        row[ch * out_w + w] = self.buffer.get(ch, i, w)? / denom;
                    }
                }
            }
            LayerKind::Relu => {
                for ch in 0..out_c {
                    for w in 0..out_w {
                        row[ch * out_w + w] = self.buffer.get(ch, i, w)?.max(0.0);
                    }
                }
            }
            other => {
                return Err(FusionError::InvalidGroup(format!(
                    "layer kind `{}` cannot be fused",
                    other.tag()
                )))
            }
        }
        self.out_rows_done += 1;
        Ok(row)
    }
}

/// A configured fused-group simulator.
pub struct FusedGroupSim {
    stages: Vec<StageState>,
    load_cycles_per_row: u64,
    store_cycles_per_row: u64,
    weight_bytes: u64,
    input_shape: FmShape,
    output_shape: FmShape,
    /// Observability context; disabled by default (zero-cost).
    telemetry: Telemetry,
    /// First Chrome-trace lane (tid) for this group's stages.
    trace_tid_base: u64,
    /// Virtual-time offset applied to emitted slices, so consecutive
    /// frames (and groups) lay out sequentially on one timeline. Advances
    /// by each frame's span automatically.
    trace_ts_offset: u64,
}

impl FusedGroupSim {
    /// Builds a simulator for the group described by `configs` (resolved
    /// layer configurations for consecutive layers of `net` starting at
    /// `start`), with weights from `weights`.
    ///
    /// # Errors
    ///
    /// Returns [`FusionError::InvalidGroup`] for an empty/unchained group
    /// or layers the fusion architecture cannot host (FC, softmax), and
    /// [`FusionError::Simulation`] for missing weights.
    pub fn new(
        net: &Network,
        start: usize,
        configs: &[LayerConfig],
        weights: &NetworkWeights,
        device: &winofuse_fpga::device::FpgaDevice,
    ) -> Result<Self, FusionError> {
        if configs.is_empty() {
            return Err(FusionError::InvalidGroup("group has no layers".into()));
        }
        let dtype = DataType::Fixed16;
        let bpc = device.bytes_per_cycle();
        let mut stages = Vec::with_capacity(configs.len());
        for (off, cfg) in configs.iter().enumerate() {
            let idx = start + off;
            match net.layers().get(idx) {
                Some(l) if l.name == cfg.layer.name => {}
                _ => {
                    return Err(FusionError::InvalidGroup(format!(
                        "config {off} (`{}`) does not match network layer {idx}",
                        cfg.layer.name
                    )))
                }
            }
            let kernels = match (&cfg.layer.kind, weights.get(idx)) {
                (LayerKind::Conv(_), Some(LayerWeights::Conv(k))) => Some(k.clone()),
                (LayerKind::Conv(_), _) => {
                    return Err(FusionError::Simulation(format!(
                        "missing conv weights for layer {idx} `{}`",
                        cfg.layer.name
                    )))
                }
                _ => None,
            };
            let spec = crate::pyramid::SpatialSpec::of(&cfg.layer.kind);
            let pad = match &cfg.layer.kind {
                LayerKind::Conv(c) => c.pad,
                LayerKind::Pool(p) => p.pad,
                _ => 0,
            };
            let out_rows = cfg.output.height as u64;
            let compute_per_row = cfg.estimate.compute_cycles.div_ceil(out_rows.max(1));
            let depth = cfg.estimate.line_buffer_rows.max(spec.kernel + spec.stride);
            stages.push(StageState {
                layer: cfg.layer.clone(),
                input: cfg.input,
                output: cfg.output,
                buffer: LineBuffer::new(cfg.input.channels, cfg.input.width, depth),
                kernels,
                in_rows_fed: 0,
                out_rows_done: 0,
                compute_per_row,
                busy_until: 0,
                kernel: spec.kernel,
                stride: spec.stride,
                pad,
            });
        }
        let first = &configs[0];
        let last = configs
            .last()
            .expect("invariant: configs checked nonempty above");
        let weight_bytes: u64 = configs.iter().map(|c| c.weight_bytes).sum();
        // Weight streaming shares the load channel: amortize over rows.
        let weight_per_row = weight_bytes / (first.input.height as u64).max(1);
        let load_cycles_per_row =
            ((first.input.row_bytes(dtype) as u64 + weight_per_row) as f64 / bpc).ceil() as u64;
        let store_cycles_per_row = (last.output.row_bytes(dtype) as f64 / bpc).ceil() as u64;
        Ok(FusedGroupSim {
            stages,
            load_cycles_per_row,
            store_cycles_per_row,
            weight_bytes,
            input_shape: first.input,
            output_shape: last.output,
            telemetry: Telemetry::disabled(),
            trace_tid_base: 1,
            trace_ts_offset: 0,
        })
    }

    /// Attaches an observability context. Each stage gets a Chrome-trace
    /// lane starting at `tid_base` (named after its layer); subsequent
    /// [`FusedGroupSim::run`] calls emit one slice per busy interval in
    /// virtual (cycle) time starting at `ts_offset`, plus
    /// `sim.backpressure_stalls` / `sim.dram_bytes_*` counters.
    pub fn set_telemetry(&mut self, telemetry: Telemetry, tid_base: u64, ts_offset: u64) {
        for (i, st) in self.stages.iter().enumerate() {
            telemetry.name_thread(PID_SIM, tid_base + i as u64, &st.layer.name);
        }
        self.telemetry = telemetry;
        self.trace_tid_base = tid_base;
        self.trace_ts_offset = ts_offset;
    }

    /// The virtual-time offset the next frame's slices will start at.
    pub fn trace_ts_offset(&self) -> u64 {
        self.trace_ts_offset
    }

    /// Resets all streaming state (line buffers, counters, timestamps)
    /// so the simulator can run another frame. [`FusedGroupSim::run`]
    /// calls this automatically, so a simulator is reusable across
    /// frames.
    pub fn reset(&mut self) {
        for st in &mut self.stages {
            st.buffer = LineBuffer::new(st.input.channels, st.input.width, st.buffer.depth());
            st.in_rows_fed = 0;
            st.out_rows_done = 0;
            st.busy_until = 0;
        }
    }

    /// Runs one frame through the group (resetting any previous state).
    ///
    /// # Errors
    ///
    /// Returns [`FusionError::Simulation`] when `input` does not match the
    /// group's input shape or an internal invariant is violated.
    pub fn run(&mut self, input: &Tensor<f32>) -> Result<SimResult, FusionError> {
        self.reset();
        let s = self.input_shape;
        if input.c() != s.channels || input.h() != s.height || input.w() != s.width {
            return Err(FusionError::Simulation(format!(
                "input {}x{}x{} does not match group input {s}",
                input.c(),
                input.h(),
                input.w()
            )));
        }
        let dtype = DataType::Fixed16;
        let n_stages = self.stages.len();
        let mut stage_activity: Vec<Vec<(u64, u64)>> = vec![Vec::new(); n_stages];
        let mut dram_rows_loaded = 0usize;
        let mut out = Tensor::zeros(
            1,
            self.output_shape.channels,
            self.output_shape.height,
            self.output_shape.width,
        );
        let mut out_rows_stored = 0usize;
        let mut stalls = 0u64;
        // Per-FIFO flag: the current head row has already been counted as
        // stalled. A blocked row stalls at most once no matter how many
        // event-loop spins pass before the consumer's line buffer frees
        // up (the counter tracks distinct stalled rows, not polls).
        let mut head_stalled = vec![false; n_stages];
        let mut finish: u64 = 0;
        // Rows queued between stage i-1 and stage i (or DRAM for stage 0):
        // (availability time, values). Data moves immediately; timestamps
        // model when the producer made it available.
        let mut pending: Vec<VecDeque<(u64, Vec<f32>)>> = vec![VecDeque::new(); n_stages];

        loop {
            let mut progressed = false;

            // DRAM -> stage 0 feed. A deferred load (FIFO still occupied)
            // surfaces as a blocked head of `pending[0]` below, so no
            // stall accounting happens here.
            if dram_rows_loaded < s.height && pending[0].is_empty() {
                let r = dram_rows_loaded;
                let mut row = vec![0.0f32; s.channels * s.width];
                for c in 0..s.channels {
                    for w in 0..s.width {
                        row[c * s.width + w] = input.get(0, c, r, w);
                    }
                }
                let ready = (r as u64 + 1) * self.load_cycles_per_row;
                pending[0].push_back((ready, row));
                dram_rows_loaded += 1;
                progressed = true;
            }

            // Deliver pending rows into stage buffers (respecting
            // backpressure) and let each stage produce.
            for i in 0..n_stages {
                while !pending[i].is_empty() && self.stages[i].can_accept_row() {
                    let (ready, row) = pending[i].pop_front().expect("checked nonempty");
                    self.stages[i].feed(&row)?;
                    // The stage cannot start a row before its inputs exist.
                    let st = &mut self.stages[i];
                    st.busy_until = st.busy_until.max(ready);
                    head_stalled[i] = false;
                    progressed = true;
                }
                if !pending[i].is_empty() && !head_stalled[i] {
                    // The head row arrived but the consumer's line buffer
                    // cannot take it without evicting data it still needs:
                    // one backpressure stall for this row.
                    stalls += 1;
                    head_stalled[i] = true;
                }
                while self.stages[i].can_produce() {
                    let row = self.stages[i].produce()?;
                    let done = {
                        let st = &mut self.stages[i];
                        let start = st.busy_until;
                        let done = start + st.compute_per_row;
                        st.busy_until = done;
                        // Coalesce back-to-back rows into one interval.
                        match stage_activity[i].last_mut() {
                            Some(last) if last.1 == start => last.1 = done,
                            _ => stage_activity[i].push((start, done)),
                        }
                        done
                    };
                    if i + 1 < n_stages {
                        pending[i + 1].push_back((done, row));
                    } else {
                        // Store to DRAM.
                        let r = out_rows_stored;
                        for c in 0..self.output_shape.channels {
                            for w in 0..self.output_shape.width {
                                out.set(0, c, r, w, row[c * self.output_shape.width + w]);
                            }
                        }
                        out_rows_stored += 1;
                        finish = finish.max(done + self.store_cycles_per_row);
                    }
                    progressed = true;
                }
            }

            if out_rows_stored == self.output_shape.height {
                break;
            }
            if !progressed {
                return Err(FusionError::Simulation(format!(
                    "pipeline deadlock: {} of {} output rows stored",
                    out_rows_stored, self.output_shape.height
                )));
            }
        }

        let result = SimResult {
            output: out,
            cycles: finish,
            dram_bytes_read: self.input_shape.bytes(dtype) as u64 + self.weight_bytes,
            dram_bytes_written: self.output_shape.bytes(dtype) as u64,
            backpressure_stalls: stalls,
            stage_activity,
            stage_names: self.stages.iter().map(|st| st.layer.name.clone()).collect(),
        };
        self.emit_telemetry(&result);
        Ok(result)
    }

    /// Re-emits a frame's busy intervals as Chrome-trace slices (1 cycle
    /// = 1 us in the viewer) and bumps the simulator counters. The next
    /// frame starts where this one ended on the virtual timeline.
    fn emit_telemetry(&mut self, result: &SimResult) {
        if !self.telemetry.is_enabled() {
            return;
        }
        for (i, intervals) in result.stage_activity.iter().enumerate() {
            let tid = self.trace_tid_base + i as u64;
            let name = &result.stage_names[i];
            for &(s, e) in intervals {
                self.telemetry
                    .slice("sim", name, tid, self.trace_ts_offset + s, e - s);
            }
        }
        self.trace_ts_offset += result.cycles;
        self.telemetry.add("sim.frames", 1);
        self.telemetry.add("sim.cycles", result.cycles);
        self.telemetry
            .add("sim.backpressure_stalls", result.backpressure_stalls);
        self.telemetry
            .add("sim.dram_bytes_read", result.dram_bytes_read);
        self.telemetry
            .add("sim.dram_bytes_written", result.dram_bytes_written);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{group_timing, LayerConfig};
    use winofuse_conv::tensor::random_tensor;
    use winofuse_fpga::device::FpgaDevice;
    use winofuse_fpga::engine::{Algorithm, EngineConfig};
    use winofuse_model::runtime::{forward, NetworkWeights};
    use winofuse_model::zoo;

    fn configs_for(net: &Network, range: std::ops::Range<usize>, p: usize) -> Vec<LayerConfig> {
        range
            .map(|i| {
                LayerConfig::build(
                    net,
                    i,
                    EngineConfig {
                        algorithm: Algorithm::Conventional,
                        parallelism: p,
                    },
                )
                .unwrap()
            })
            .collect()
    }

    #[test]
    fn fused_values_match_reference_small_net() {
        let net = zoo::small_test_net();
        let weights = NetworkWeights::random(&net, 1).unwrap();
        let x = random_tensor(1, 3, 32, 32, 2);
        let reference = forward(&net, &weights, &x).unwrap();
        let dev = FpgaDevice::zc706();
        let configs = configs_for(&net, 0..net.len(), 8);
        let mut sim = FusedGroupSim::new(&net, 0, &configs, &weights, &dev).unwrap();
        let result = sim.run(&x).unwrap();
        let gold = reference.last().unwrap();
        assert!(
            result.output.approx_eq(gold, 1e-4),
            "max diff {}",
            result.output.max_abs_diff(gold).unwrap()
        );
        assert!(result.cycles > 0);
    }

    #[test]
    fn fused_values_match_reference_mixed_net() {
        // Exercises average pooling and LRN inside a fused group.
        let net = zoo::mixed_test_net();
        let weights = NetworkWeights::random(&net, 3).unwrap();
        let x = random_tensor(1, 4, 24, 24, 4);
        let reference = forward(&net, &weights, &x).unwrap();
        let dev = FpgaDevice::zc706();
        let configs = configs_for(&net, 0..net.len(), 4);
        let mut sim = FusedGroupSim::new(&net, 0, &configs, &weights, &dev).unwrap();
        let result = sim.run(&x).unwrap();
        let gold = reference.last().unwrap();
        assert!(
            result.output.approx_eq(gold, 1e-4),
            "max diff {}",
            result.output.max_abs_diff(gold).unwrap()
        );
    }

    #[test]
    fn partial_group_matches_reference_prefix() {
        let net = zoo::small_test_net();
        let weights = NetworkWeights::random(&net, 5).unwrap();
        let x = random_tensor(1, 3, 32, 32, 6);
        let reference = forward(&net, &weights, &x).unwrap();
        let dev = FpgaDevice::zc706();
        let configs = configs_for(&net, 0..2, 4);
        let mut sim = FusedGroupSim::new(&net, 0, &configs, &weights, &dev).unwrap();
        let result = sim.run(&x).unwrap();
        assert!(result.output.approx_eq(&reference[1], 1e-4));
    }

    #[test]
    fn dram_accounting_is_first_in_last_out() {
        let net = zoo::small_test_net();
        let weights = NetworkWeights::random(&net, 7).unwrap();
        let x = random_tensor(1, 3, 32, 32, 8);
        let dev = FpgaDevice::zc706();
        let configs = configs_for(&net, 0..net.len(), 4);
        let total_weight: u64 = configs.iter().map(|c| c.weight_bytes).sum();
        let mut sim = FusedGroupSim::new(&net, 0, &configs, &weights, &dev).unwrap();
        let r = sim.run(&x).unwrap();
        assert_eq!(r.dram_bytes_read, (3 * 32 * 32 * 2) as u64 + total_weight);
        assert_eq!(r.dram_bytes_written, (16 * 8 * 8 * 2) as u64);
    }

    #[test]
    fn simulated_cycles_track_analytic_model() {
        let net = zoo::small_test_net();
        let weights = NetworkWeights::random(&net, 9).unwrap();
        let x = random_tensor(1, 3, 32, 32, 10);
        let dev = FpgaDevice::zc706();
        let configs = configs_for(&net, 0..net.len(), 8);
        let analytic = group_timing(&configs, &dev).unwrap();
        let mut sim = FusedGroupSim::new(&net, 0, &configs, &weights, &dev).unwrap();
        let r = sim.run(&x).unwrap();
        // Two independent estimates of the same pipeline: agree within 2x.
        let ratio = r.cycles as f64 / analytic.latency as f64;
        assert!(
            (0.5..2.0).contains(&ratio),
            "sim {} vs analytic {} (ratio {ratio})",
            r.cycles,
            analytic.latency
        );
    }

    #[test]
    fn starved_middle_stage_slows_the_whole_group() {
        let net = zoo::small_test_net();
        let weights = NetworkWeights::random(&net, 11).unwrap();
        let x = random_tensor(1, 3, 32, 32, 12);
        let dev = FpgaDevice::zc706();
        let fast = configs_for(&net, 0..net.len(), 16);
        let mut slow = configs_for(&net, 0..net.len(), 16);
        slow[1] = LayerConfig::build(
            &net,
            1,
            EngineConfig {
                algorithm: Algorithm::Conventional,
                parallelism: 1,
            },
        )
        .unwrap();
        let mut sim_fast = FusedGroupSim::new(&net, 0, &fast, &weights, &dev).unwrap();
        let mut sim_slow = FusedGroupSim::new(&net, 0, &slow, &weights, &dev).unwrap();
        let cf = sim_fast.run(&x).unwrap().cycles;
        let cs = sim_slow.run(&x).unwrap().cycles;
        assert!(cs > 3 * cf, "slow {cs} vs fast {cf}");
    }

    #[test]
    fn backpressure_stalls_count_rows_not_polls() {
        // A deliberately backpressured two-layer group: the producer's
        // pad-2 window unlocks its last three output rows in a single
        // event-loop step once the frame's final input row lands, while
        // the consumer's K+S-deep line buffer can only evict two rows
        // before it must wait for its own compute to advance. Exactly one
        // row waits at the FIFO head — one stall, independent of frame
        // height. (The old counter bumped once per event-loop poll, so
        // its value depended on scheduling, not on the dataflow.)
        use winofuse_model::layer::ConvParams;
        use winofuse_model::shape::FmShape;
        for h in [16usize, 64] {
            let net = Network::builder("bp", FmShape::new(2, h, h))
                .conv("c0", ConvParams::new(4, 5, 1, 2, false))
                .conv("c1", ConvParams::new(4, 3, 1, 1, false))
                .build()
                .unwrap();
            let weights = NetworkWeights::random(&net, 1).unwrap();
            let x = random_tensor(1, 2, h, h, 2);
            let dev = FpgaDevice::zc706();
            let configs = configs_for(&net, 0..2, 4);
            let mut sim = FusedGroupSim::new(&net, 0, &configs, &weights, &dev).unwrap();
            let r = sim.run(&x).unwrap();
            assert_eq!(
                r.backpressure_stalls, 1,
                "height {h}: one row stalls at the inter-stage FIFO"
            );
            // And the values still stream through correctly.
            let gold = forward(&net, &weights, &x).unwrap();
            assert!(r.output.approx_eq(gold.last().unwrap(), 1e-4));
        }
        // A group with no burst never stalls.
        let net = zoo::small_test_net();
        let weights = NetworkWeights::random(&net, 27).unwrap();
        let x = random_tensor(1, 3, 32, 32, 28);
        let dev = FpgaDevice::zc706();
        let configs = configs_for(&net, 0..net.len(), 4);
        let mut sim = FusedGroupSim::new(&net, 0, &configs, &weights, &dev).unwrap();
        assert_eq!(sim.run(&x).unwrap().backpressure_stalls, 0);
    }

    #[test]
    fn rejects_wrong_input_shape() {
        let net = zoo::small_test_net();
        let weights = NetworkWeights::random(&net, 13).unwrap();
        let dev = FpgaDevice::zc706();
        let configs = configs_for(&net, 0..net.len(), 4);
        let mut sim = FusedGroupSim::new(&net, 0, &configs, &weights, &dev).unwrap();
        let bad = random_tensor(1, 3, 16, 16, 14);
        assert!(sim.run(&bad).is_err());
    }

    #[test]
    fn simulator_is_reusable_across_frames() {
        let net = zoo::small_test_net();
        let weights = NetworkWeights::random(&net, 19).unwrap();
        let dev = FpgaDevice::zc706();
        let configs = configs_for(&net, 0..net.len(), 8);
        let mut sim = FusedGroupSim::new(&net, 0, &configs, &weights, &dev).unwrap();
        let x1 = random_tensor(1, 3, 32, 32, 20);
        let x2 = random_tensor(1, 3, 32, 32, 21);
        let r1a = sim.run(&x1).unwrap();
        let r2 = sim.run(&x2).unwrap();
        let r1b = sim.run(&x1).unwrap();
        // Determinism across reuse; different inputs differ.
        assert_eq!(r1a.output, r1b.output);
        assert_eq!(r1a.cycles, r1b.cycles);
        assert_ne!(r1a.output, r2.output);
        // And each matches the reference.
        let gold1 = forward(&net, &weights, &x1).unwrap();
        assert!(r1b.output.approx_eq(gold1.last().unwrap(), 1e-4));
    }

    #[test]
    fn stage_activity_is_recorded_and_well_formed() {
        let net = zoo::small_test_net();
        let weights = NetworkWeights::random(&net, 17).unwrap();
        let x = random_tensor(1, 3, 32, 32, 18);
        let dev = FpgaDevice::zc706();
        let configs = configs_for(&net, 0..net.len(), 8);
        let mut sim = FusedGroupSim::new(&net, 0, &configs, &weights, &dev).unwrap();
        let r = sim.run(&x).unwrap();
        assert_eq!(r.stage_activity.len(), net.len());
        assert_eq!(r.stage_names.len(), net.len());
        for (li, intervals) in r.stage_activity.iter().enumerate() {
            assert!(!intervals.is_empty(), "stage {li} never ran");
            // Intervals are ordered, non-overlapping, and within the span.
            for w in intervals.windows(2) {
                assert!(w[0].1 <= w[1].0, "stage {li} intervals overlap");
            }
            for &(s, e) in intervals {
                assert!(s < e && e <= r.cycles, "stage {li} interval out of span");
            }
        }
        let occ = r.stage_occupancy();
        assert!(occ.iter().all(|&o| (0.0..=1.0).contains(&o)));
        // The slowest stage should dominate the span.
        assert!(occ.iter().cloned().fold(0.0, f64::max) > 0.3);
    }

    #[test]
    fn empty_frame_has_zero_occupancy() {
        // A zero-cycle frame must report 0.0 for every stage rather than
        // dividing by the span.
        let r = SimResult {
            output: Tensor::zeros(1, 1, 1, 1),
            cycles: 0,
            dram_bytes_read: 0,
            dram_bytes_written: 0,
            backpressure_stalls: 0,
            stage_activity: vec![Vec::new(), Vec::new(), Vec::new()],
            stage_names: vec!["a".into(), "b".into(), "c".into()],
        };
        assert_eq!(r.stage_occupancy(), vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn telemetry_slices_match_stage_activity() {
        let net = zoo::small_test_net();
        let weights = NetworkWeights::random(&net, 23).unwrap();
        let x = random_tensor(1, 3, 32, 32, 24);
        let dev = FpgaDevice::zc706();
        let configs = configs_for(&net, 0..net.len(), 8);
        let mut sim = FusedGroupSim::new(&net, 0, &configs, &weights, &dev).unwrap();
        let events = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let tele = Telemetry::with_sink(Box::new(winofuse_telemetry::VecSink(events.clone())));
        sim.set_telemetry(tele.clone(), 10, 0);
        let r = sim.run(&x).unwrap();
        let summary = tele.summary();
        assert_eq!(summary.counter("sim.frames"), 1);
        assert_eq!(
            summary.counter("sim.backpressure_stalls"),
            r.backpressure_stalls
        );
        assert_eq!(summary.counter("sim.dram_bytes_read"), r.dram_bytes_read);
        let evs = events.lock().unwrap();
        let slices = evs.iter().filter(|e| e.phase == 'X').count();
        let intervals: usize = r.stage_activity.iter().map(Vec::len).sum();
        assert_eq!(slices, intervals);
        // One thread-name metadata record per stage.
        assert_eq!(evs.iter().filter(|e| e.phase == 'M').count(), net.len());
        // A second frame lands after the first on the virtual timeline.
        // (Release the sink's mutex first: emitting that frame locks it.)
        drop(evs);
        assert_eq!(sim.trace_ts_offset(), r.cycles);
        sim.run(&x).unwrap();
        assert_eq!(sim.trace_ts_offset(), 2 * r.cycles);
    }

    #[test]
    fn mid_network_group_runs_from_intermediate_input() {
        let net = zoo::small_test_net();
        let weights = NetworkWeights::random(&net, 15).unwrap();
        let x = random_tensor(1, 3, 32, 32, 16);
        let reference = forward(&net, &weights, &x).unwrap();
        let dev = FpgaDevice::zc706();
        let configs = configs_for(&net, 1..4, 4);
        let mut sim = FusedGroupSim::new(&net, 1, &configs, &weights, &dev).unwrap();
        let r = sim.run(&reference[0]).unwrap();
        assert!(r.output.approx_eq(reference.last().unwrap(), 1e-4));
    }
}
