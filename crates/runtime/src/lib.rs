//! # winofuse-runtime — the shared scoped worker pool
//!
//! Both halves of the system need the same minimal parallel substrate: the
//! strategy search fills its plan table from scoped workers, and the
//! execution backend spreads tile and output-channel blocks across cores.
//! This crate is that substrate — plain `std::thread::scope` workers pulling
//! job indices from an atomic counter, with longest-job-first ordering as a
//! scheduling helper. No work-stealing deques, no channels, no `unsafe`:
//! jobs are indices, and mutable state is handed out as pre-split disjoint
//! slices.
//!
//! Determinism contract: a job's *result* may only depend on its index,
//! never on which worker ran it or how many workers exist. Every helper
//! here preserves that property — the worker count changes wall-clock time
//! and nothing else — which is what lets `--threads N` default on without
//! perturbing bit-exact comparisons (see `tests/determinism.rs` and
//! `tests/conv_equiv.rs` at the workspace root).

pub mod faults;
pub mod serve;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use winofuse_telemetry::{Counter, Histogram, Telemetry, PID_WALL};

use faults::{describe_panic, FaultInjector};

/// First Chrome-trace thread id used for worker lanes: worker `w` emits
/// its job slices on `(PID_WALL, WORKER_TID_BASE + w)`. The base keeps
/// worker lanes clear of tid 1, where `Telemetry::span` puts the main
/// thread's wall-clock spans.
pub const WORKER_TID_BASE: u64 = 100;

// ---------------------------------------------------------------------------
// Pool profiler
// ---------------------------------------------------------------------------

/// Observability context for the worker pool: carries a [`Telemetry`]
/// handle plus a label that names the job spans it emits (e.g.
/// `"wino.scatter"` → slices `wino.scatter[0..n]` on the worker lanes).
///
/// A disabled profiler (the default, [`PoolProfiler::disabled`]) skips
/// every lane and metric — the cost of instrumentation when telemetry is
/// off is exactly one branch per pool invocation.
#[derive(Clone)]
pub struct PoolProfiler {
    telemetry: Telemetry,
    label: Arc<str>,
    faults: FaultInjector,
    guard: GuardPolicy,
}

impl Default for PoolProfiler {
    fn default() -> Self {
        PoolProfiler::disabled()
    }
}

impl PoolProfiler {
    /// The no-op profiler: the pool entry points record nothing.
    pub fn disabled() -> Self {
        PoolProfiler {
            telemetry: Telemetry::disabled(),
            label: Arc::from("job"),
            faults: FaultInjector::disabled(),
            guard: GuardPolicy::default(),
        }
    }

    /// A profiler emitting onto `telemetry`, naming job spans `label[i]`.
    pub fn new(telemetry: Telemetry, label: &str) -> Self {
        PoolProfiler {
            telemetry,
            label: Arc::from(label),
            faults: FaultInjector::disabled(),
            guard: GuardPolicy::default(),
        }
    }

    /// A view of this profiler with `label` appended to the span label
    /// (`"conv3_1"` scoped by `"wino.gemm"` → spans `conv3_1/wino.gemm[i]`)
    /// — the cheap way to tag each kernel phase distinctly while sharing
    /// one telemetry registry. The fault injector and guard policy are
    /// always carried through (the joined label doubles as the pool's
    /// fault-injection site name, `pool.<label>`); when both telemetry and
    /// faults are off this allocates nothing.
    pub fn scoped(&self, label: &str) -> PoolProfiler {
        let mut out = self.clone();
        if self.is_enabled() || self.faults.is_enabled() {
            let joined = if self.label.is_empty() {
                label.to_string()
            } else {
                format!("{}/{label}", self.label)
            };
            out.label = Arc::from(joined.as_str());
        }
        out
    }

    /// Attaches a fault injector: the isolated pool entry points check the
    /// site `pool.<label>` before every job attempt.
    pub fn with_faults(mut self, faults: FaultInjector) -> Self {
        self.faults = faults;
        self
    }

    /// Sets the retry/deadline policy applied by the isolated entry points.
    pub fn with_guard(mut self, guard: GuardPolicy) -> Self {
        self.guard = guard;
        self
    }

    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    pub fn faults(&self) -> &FaultInjector {
        &self.faults
    }

    pub fn guard(&self) -> GuardPolicy {
        self.guard
    }

    pub fn is_enabled(&self) -> bool {
        self.telemetry.is_enabled()
    }

    /// Fault-injection hook run inside each isolated job attempt's
    /// `catch_unwind` region: checks (and applies) the `pool.<label>`
    /// site. One branch when no injector is attached.
    #[inline]
    fn trip_job(&self) {
        if self.faults.is_enabled() {
            self.faults.trip(&format!("pool.{}", self.label));
        }
    }
}

// ---------------------------------------------------------------------------
// Panic isolation: guard policy + pool errors
// ---------------------------------------------------------------------------

/// Retry/watchdog policy for the `*_isolated` pool entry points.
///
/// `retries` is the number of *additional* attempts a panicking job gets
/// before its panic is reported (jobs must be idempotent: every attempt
/// rewrites the job's full output region, which all kernels in this
/// workspace satisfy). `deadline` is a soft watchdog per pool invocation:
/// workers stop claiming new jobs once it has elapsed — an already-running
/// job is never interrupted, so the granularity is one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GuardPolicy {
    pub retries: u32,
    pub deadline: Option<Duration>,
}

/// One job's final (post-retry) panic, as collected by the isolated pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobPanic {
    pub index: usize,
    /// Total attempts made (1 = no retry).
    pub attempts: u32,
    pub message: String,
}

/// Failure of an isolated pool invocation. The pool itself never unwinds:
/// per-job panics are caught, retried per [`GuardPolicy`], and collected
/// here with the invocation's completion tally.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PoolError {
    /// One or more jobs panicked on every attempt. `completed` counts the
    /// jobs that did finish — the pool drains all claimable work before
    /// reporting, so a single bad job never poisons its siblings.
    JobsPanicked {
        label: String,
        panics: Vec<JobPanic>,
        completed: usize,
        total: usize,
    },
    /// The watchdog deadline elapsed before all jobs were claimed.
    DeadlineExceeded {
        label: String,
        deadline: Duration,
        completed: usize,
        total: usize,
    },
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::JobsPanicked {
                label,
                panics,
                completed,
                total,
            } => {
                let first = panics.first().expect("invariant: JobsPanicked is nonempty");
                write!(
                    f,
                    "pool `{label}`: {} of {total} jobs panicked ({completed} completed; \
                     first: job {} after {} attempt(s): {})",
                    panics.len(),
                    first.index,
                    first.attempts,
                    first.message
                )
            }
            PoolError::DeadlineExceeded {
                label,
                deadline,
                completed,
                total,
            } => write!(
                f,
                "pool `{label}`: deadline {deadline:?} exceeded with {completed}/{total} jobs completed"
            ),
        }
    }
}

impl std::error::Error for PoolError {}

/// Per-invocation shared state for an instrumented pool run: cached
/// counter/histogram handles plus the pool start time that queue waits are
/// measured from.
struct PoolRun<'a> {
    prof: &'a PoolProfiler,
    start: Instant,
    jobs: Counter,
    runs: Counter,
    idle_ns: Counter,
    worker_busy_ns: Histogram,
    job_wait_us: Histogram,
}

impl<'a> PoolRun<'a> {
    fn start(prof: &'a PoolProfiler) -> Self {
        let t = &prof.telemetry;
        let run = PoolRun {
            prof,
            start: Instant::now(),
            jobs: t.counter("pool.jobs"),
            runs: t.counter("pool.runs"),
            idle_ns: t.counter("pool.idle_ns"),
            worker_busy_ns: t.histogram("pool.worker_busy_ns"),
            job_wait_us: t.histogram("pool.job_wait_us"),
        };
        run.runs.incr();
        run
    }

    fn lane(&self, worker: usize) -> WorkerLane<'_> {
        let tid = WORKER_TID_BASE + worker as u64;
        self.prof
            .telemetry
            .name_thread_once(PID_WALL, tid, &format!("worker {worker}"));
        WorkerLane {
            run: self,
            tid,
            busy_ns: 0,
            jobs: 0,
        }
    }
}

/// One worker's view of an instrumented pool run. Accumulates busy time
/// locally; `finish` folds it into the pool-level imbalance metrics.
struct WorkerLane<'a> {
    run: &'a PoolRun<'a>,
    tid: u64,
    busy_ns: u64,
    jobs: u64,
}

impl WorkerLane<'_> {
    /// Runs one job, emitting its complete slice on this worker's lane.
    /// The queue wait (pool start → claim) lands in `pool.job_wait_us`;
    /// the slice name carries the job index.
    fn run_job(&mut self, index: usize, f: impl FnOnce()) {
        let wait_us = self.run.start.elapsed().as_micros() as u64;
        let ts = self.run.prof.telemetry.now_us();
        let t0 = Instant::now();
        f();
        let elapsed = t0.elapsed();
        self.busy_ns += elapsed.as_nanos() as u64;
        self.jobs += 1;
        self.run.job_wait_us.record(wait_us);
        self.run.prof.telemetry.slice_at(
            "pool",
            &format!("{}[{index}]", self.run.prof.label),
            PID_WALL,
            self.tid,
            ts,
            elapsed.as_micros() as u64,
        );
    }

    /// Called when the worker's claim loop ends: records this worker's
    /// busy time (the min/max spread of `pool.worker_busy_ns` within one
    /// run is the imbalance) and charges the unproductive remainder of
    /// its lifetime to `pool.idle_ns`.
    fn finish(self) {
        let lifetime_ns = self.run.start.elapsed().as_nanos() as u64;
        self.run.jobs.add(self.jobs);
        self.run.worker_busy_ns.record(self.busy_ns);
        self.run
            .idle_ns
            .add(lifetime_ns.saturating_sub(self.busy_ns));
    }
}

/// Worker threads to use when the caller asks for "auto" (`threads == 0`):
/// the machine's available parallelism, or 1 when that cannot be
/// determined.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Resolves a user-facing thread request: `0` means auto-detect.
pub fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        default_threads()
    } else {
        threads
    }
}

/// Runs `jobs` independent jobs (`f(index)` for `index` in `0..jobs`) on up
/// to `threads` scoped workers, returning the worker count actually used.
///
/// Workers pull indices in ascending order from a shared atomic counter, so
/// earlier jobs start no later than later ones — pair with
/// [`longest_first_order`] for longest-job-first scheduling. With one
/// worker (or one job) everything runs inline on the caller's thread.
pub fn run_jobs<F>(threads: usize, jobs: usize, f: F) -> usize
where
    F: Fn(usize) + Sync,
{
    let workers = threads.min(jobs).max(1);
    if workers <= 1 {
        for i in 0..jobs {
            f(i);
        }
        return workers;
    }
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= jobs {
                    break;
                }
                f(i);
            });
        }
    });
    workers
}

// ---------------------------------------------------------------------------
// Panic-isolated pool entry points
// ---------------------------------------------------------------------------

/// Shared bookkeeping for one isolated pool invocation.
struct IsolatedRun {
    start: Instant,
    completed: AtomicUsize,
    deadline_hit: AtomicBool,
    panics: Mutex<Vec<JobPanic>>,
}

impl IsolatedRun {
    fn new() -> Self {
        IsolatedRun {
            start: Instant::now(),
            completed: AtomicUsize::new(0),
            deadline_hit: AtomicBool::new(false),
            panics: Mutex::new(Vec::new()),
        }
    }

    /// Watchdog check before a claim: true = stop claiming.
    fn past_deadline(&self, guard: GuardPolicy) -> bool {
        match guard.deadline {
            Some(d) if self.start.elapsed() > d => {
                self.deadline_hit.store(true, Ordering::Relaxed);
                true
            }
            _ => false,
        }
    }

    /// Runs one job attempt loop: `catch_unwind` around every attempt,
    /// bounded retry per `guard`, telemetry on the rare path only.
    fn attempt_job(
        &self,
        prof: &PoolProfiler,
        index: usize,
        guard: GuardPolicy,
        mut run: impl FnMut(),
    ) {
        let mut attempt: u32 = 0;
        loop {
            attempt += 1;
            match catch_unwind(AssertUnwindSafe(|| {
                prof.trip_job();
                run();
            })) {
                Ok(()) => {
                    self.completed.fetch_add(1, Ordering::Relaxed);
                    return;
                }
                Err(payload) => {
                    prof.telemetry.counter("pool.job_panics").incr();
                    if attempt <= guard.retries {
                        prof.telemetry.counter("pool.job_retries").incr();
                        continue;
                    }
                    self.panics
                        .lock()
                        .expect("invariant: job panic list lock never poisoned")
                        .push(JobPanic {
                            index,
                            attempts: attempt,
                            message: describe_panic(payload.as_ref()),
                        });
                    return;
                }
            }
        }
    }

    /// Folds the invocation into a result, emitting the deadline counter
    /// when the watchdog fired.
    fn finish(self, prof: &PoolProfiler, workers: usize, total: usize) -> Result<usize, PoolError> {
        let mut panics = self
            .panics
            .into_inner()
            .expect("invariant: job panic list lock never poisoned");
        let completed = self.completed.into_inner();
        if !panics.is_empty() {
            panics.sort_by_key(|p| p.index);
            return Err(PoolError::JobsPanicked {
                label: prof.label.to_string(),
                panics,
                completed,
                total,
            });
        }
        if self.deadline_hit.into_inner() && completed < total {
            prof.telemetry.counter("pool.deadline_exceeded").incr();
            return Err(PoolError::DeadlineExceeded {
                label: prof.label.to_string(),
                deadline: prof
                    .guard
                    .deadline
                    .expect("invariant: deadline_hit implies deadline set"),
                completed,
                total,
            });
        }
        Ok(workers)
    }
}

/// [`run_jobs`] with worker-lane tracing and per-job panic isolation.
///
/// Tracing: when `prof` is enabled, each worker emits one Chrome-trace
/// complete slice per job on its own stable tid
/// ([`WORKER_TID_BASE`]` + worker`), and the pool-level counters
/// (`pool.jobs`, `pool.runs`, `pool.idle_ns`) and histograms
/// (`pool.worker_busy_ns`, `pool.job_wait_us`) accumulate. When `prof` is
/// disabled this costs one branch per invocation.
///
/// Isolation: every job attempt runs inside `catch_unwind`, panicking jobs
/// are retried per the profiler's [`GuardPolicy`] and finally *collected*
/// instead of unwinding through the pool — one bad job never poisons its
/// siblings, and the caller gets a typed [`PoolError`] naming every failed
/// index. An optional watchdog deadline stops workers from claiming new
/// jobs once elapsed. The rare paths count `pool.job_panics` /
/// `pool.job_retries` / `pool.deadline_exceeded`. Fault injection (see
/// [`faults`]) checks site `pool.<label>` before each attempt.
///
/// # Errors
///
/// [`PoolError::JobsPanicked`] when any job panicked on all attempts;
/// [`PoolError::DeadlineExceeded`] when the watchdog cut the run short.
pub fn run_jobs_isolated<F>(
    threads: usize,
    jobs: usize,
    prof: &PoolProfiler,
    f: F,
) -> Result<usize, PoolError>
where
    F: Fn(usize) + Sync,
{
    let workers = threads.min(jobs).max(1);
    if jobs == 0 {
        return Ok(workers);
    }
    let guard = prof.guard;
    let run = prof.is_enabled().then(|| PoolRun::start(prof));
    let iso = IsolatedRun::new();
    let next = AtomicUsize::new(0);
    let worker = |w: usize| {
        let mut lane = run.as_ref().map(|r| r.lane(w));
        loop {
            if iso.past_deadline(guard) {
                break;
            }
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= jobs {
                break;
            }
            iso.attempt_job(prof, i, guard, || match lane.as_mut() {
                Some(l) => l.run_job(i, || f(i)),
                None => f(i),
            });
        }
        if let Some(l) = lane {
            l.finish();
        }
    };
    if workers <= 1 {
        worker(0);
    } else {
        std::thread::scope(|scope| {
            for w in 0..workers {
                let worker = &worker;
                scope.spawn(move || worker(w));
            }
        });
    }
    iso.finish(prof, workers, jobs)
}

/// [`run_jobs_isolated`] where each job receives exclusive ownership of
/// its pre-split `&mut` slice — the safe way to let workers write
/// disjoint regions of one output buffer in parallel (job `i` gets
/// `slices[i]`) — and per-worker scratch state: `init()` runs once on
/// each worker and the state is threaded through every job that worker
/// executes. Tracing, panic isolation, retry and watchdog semantics match
/// [`run_jobs_isolated`]; a retried job gets its slice back (reborrowed),
/// so retries rewrite the same disjoint region.
///
/// # Errors
///
/// Same conditions as [`run_jobs_isolated`].
pub fn run_sliced_jobs_isolated<T, S, I, F>(
    threads: usize,
    slices: Vec<&mut [T]>,
    prof: &PoolProfiler,
    init: I,
    f: F,
) -> Result<usize, PoolError>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &mut [T]) + Sync,
{
    let jobs = slices.len();
    let workers = threads.min(jobs).max(1);
    if jobs == 0 {
        return Ok(workers);
    }
    let guard = prof.guard;
    let run = prof.is_enabled().then(|| PoolRun::start(prof));
    let iso = IsolatedRun::new();
    let cells: Vec<Mutex<Option<&mut [T]>>> =
        slices.into_iter().map(|s| Mutex::new(Some(s))).collect();
    let next = AtomicUsize::new(0);
    let worker = |w: usize| {
        let mut state = init();
        let mut lane = run.as_ref().map(|r| r.lane(w));
        loop {
            if iso.past_deadline(guard) {
                break;
            }
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(cell) = cells.get(i) else { break };
            let slice = cell
                .lock()
                .expect("invariant: slice cell lock never poisoned")
                .take()
                .expect("invariant: each slice cell is claimed exactly once");
            iso.attempt_job(prof, i, guard, || {
                let s: &mut [T] = slice;
                match lane.as_mut() {
                    Some(l) => l.run_job(i, || f(&mut state, i, s)),
                    None => f(&mut state, i, s),
                }
            });
        }
        if let Some(l) = lane {
            l.finish();
        }
    };
    if workers <= 1 {
        worker(0);
    } else {
        std::thread::scope(|scope| {
            for w in 0..workers {
                let worker = &worker;
                scope.spawn(move || worker(w));
            }
        });
    }
    iso.finish(prof, workers, jobs)
}

/// [`run_sliced_jobs_isolated`] for jobs that own a *group* of disjoint
/// output fragments instead of one contiguous slice — the shape a
/// tile-block Winograd job has, owning the same output rows across every
/// channel plane of an NCHW tensor. Build the groups with [`split_spans`].
///
/// Panic isolation, retry, and watchdog semantics match
/// [`run_jobs_isolated`]; a retried job gets its whole fragment group back
/// (reborrowed), so retries rewrite the same disjoint regions.
///
/// # Errors
///
/// Same conditions as [`run_jobs_isolated`].
pub fn run_grouped_jobs_isolated<T, S, I, F>(
    threads: usize,
    groups: Vec<Vec<&mut [T]>>,
    prof: &PoolProfiler,
    init: I,
    f: F,
) -> Result<usize, PoolError>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &mut [&mut [T]]) + Sync,
{
    let jobs = groups.len();
    let workers = threads.min(jobs).max(1);
    if jobs == 0 {
        return Ok(workers);
    }
    let guard = prof.guard;
    let run = prof.is_enabled().then(|| PoolRun::start(prof));
    let iso = IsolatedRun::new();
    let cells: Vec<Mutex<Option<Vec<&mut [T]>>>> =
        groups.into_iter().map(|g| Mutex::new(Some(g))).collect();
    let next = AtomicUsize::new(0);
    let worker = |w: usize| {
        let mut state = init();
        let mut lane = run.as_ref().map(|r| r.lane(w));
        loop {
            if iso.past_deadline(guard) {
                break;
            }
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(cell) = cells.get(i) else { break };
            let mut group = cell
                .lock()
                .expect("invariant: group cell lock never poisoned")
                .take()
                .expect("invariant: each group cell is claimed exactly once");
            iso.attempt_job(prof, i, guard, || {
                let g: &mut [&mut [T]] = &mut group;
                match lane.as_mut() {
                    Some(l) => l.run_job(i, || f(&mut state, i, g)),
                    None => f(&mut state, i, g),
                }
            });
        }
        if let Some(l) = lane {
            l.finish();
        }
    };
    if workers <= 1 {
        worker(0);
    } else {
        std::thread::scope(|scope| {
            for w in 0..workers {
                let worker = &worker;
                scope.spawn(move || worker(w));
            }
        });
    }
    iso.finish(prof, workers, jobs)
}

/// Carves `data` into per-owner fragment groups for
/// [`run_grouped_jobs_isolated`]: `spans` lists `(owner, len)` pairs in
/// memory order covering all of `data`, and the returned `Vec` holds, for
/// each owner `0..owners`, its fragments in memory order. Owners may
/// interleave arbitrarily in the span list — that is the point: a job can
/// own non-contiguous regions (e.g. the same rows of every channel plane)
/// with no `unsafe` and no copying.
///
/// # Panics
///
/// Panics when the span lengths do not sum to `data.len()` or an owner
/// index is out of range.
pub fn split_spans<'a, T>(
    mut data: &'a mut [T],
    spans: &[(usize, usize)],
    owners: usize,
) -> Vec<Vec<&'a mut [T]>> {
    let mut groups: Vec<Vec<&'a mut [T]>> = (0..owners).map(|_| Vec::new()).collect();
    for &(owner, len) in spans {
        let (head, tail) = data.split_at_mut(len);
        groups[owner].push(head);
        data = tail;
    }
    assert!(data.is_empty(), "split_spans: spans do not cover data");
    groups
}

/// Splits `data` into consecutive slices of the given lengths. The lengths
/// must sum to exactly `data.len()` — this is how a flat output buffer is
/// carved into the disjoint per-job regions [`run_sliced_jobs_isolated`]
/// hands out.
///
/// # Panics
///
/// Panics when the lengths do not sum to `data.len()`.
pub fn split_lengths<'a, T>(mut data: &'a mut [T], lengths: &[usize]) -> Vec<&'a mut [T]> {
    let mut out = Vec::with_capacity(lengths.len());
    for &len in lengths {
        let (head, tail) = data.split_at_mut(len);
        out.push(head);
        data = tail;
    }
    assert!(data.is_empty(), "split_lengths: lengths do not cover data");
    out
}

/// Splits `data` into `⌈len/chunk⌉` consecutive slices of `chunk` elements
/// (the last possibly shorter). Convenience wrapper over `chunks_mut` that
/// collects into the `Vec` shape [`run_sliced_jobs_isolated`] expects.
///
/// # Panics
///
/// Panics when `chunk == 0`.
pub fn split_chunks<T>(data: &mut [T], chunk: usize) -> Vec<&mut [T]> {
    assert!(chunk > 0, "split_chunks: chunk must be positive");
    data.chunks_mut(chunk).collect()
}

/// Job order that schedules the heaviest jobs first: indices of `weights`
/// sorted by descending weight, ties broken by ascending index. Feeding
/// jobs to [`run_jobs`] in this order avoids tail stragglers when job costs
/// are skewed (the plan-table fill is the canonical case: range search cost
/// grows exponentially with range depth).
pub fn longest_first_order(weights: &[u64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(weights[i]), i));
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
        assert_eq!(resolve_threads(0), default_threads());
        assert_eq!(resolve_threads(3), 3);
    }

    #[test]
    fn split_spans_groups_interleaved_owners() {
        let mut data: Vec<u32> = (0..10).collect();
        // Owner 0 gets [0..2) and [5..8); owner 1 gets [2..5) and [8..10).
        let groups = split_spans(&mut data, &[(0, 2), (1, 3), (0, 3), (1, 2)], 2);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0], vec![&[0, 1][..], &[5, 6, 7][..]]);
        assert_eq!(groups[1], vec![&[2, 3, 4][..], &[8, 9][..]]);
    }

    #[test]
    #[should_panic(expected = "spans do not cover data")]
    fn split_spans_rejects_short_cover() {
        let mut data = [0u8; 4];
        let _ = split_spans(&mut data, &[(0, 2)], 1);
    }

    #[test]
    fn grouped_jobs_write_all_fragments_at_any_thread_count() {
        for threads in [1usize, 2, 4, 8] {
            let mut data = vec![0usize; 24];
            // Each of 4 owners holds two fragments of 3, interleaved.
            let spans: Vec<(usize, usize)> = (0..8).map(|i| (i % 4, 3)).collect();
            let groups = split_spans(&mut data, &spans, 4);
            let prof = PoolProfiler::disabled();
            let workers = run_grouped_jobs_isolated(
                threads,
                groups,
                &prof,
                || (),
                |(), job, frags| {
                    for frag in frags.iter_mut() {
                        for v in frag.iter_mut() {
                            *v = job + 1;
                        }
                    }
                },
            )
            .unwrap();
            assert!(workers >= 1);
            let expect: Vec<usize> = (0..8).flat_map(|i| [i % 4 + 1; 3]).collect();
            assert_eq!(data, expect, "threads={threads}");
        }
    }

    #[test]
    fn grouped_jobs_isolate_panics() {
        let mut data = vec![0u8; 6];
        let groups = split_spans(&mut data, &[(0, 2), (1, 2), (2, 2)], 3);
        let prof = PoolProfiler::disabled();
        let err = run_grouped_jobs_isolated(
            2,
            groups,
            &prof,
            || (),
            |(), job, frags| {
                if job == 1 {
                    panic!("boom");
                }
                frags[0].fill(7);
            },
        )
        .unwrap_err();
        match err {
            PoolError::JobsPanicked {
                panics, completed, ..
            } => {
                assert_eq!(panics.len(), 1);
                assert_eq!(panics[0].index, 1);
                assert_eq!(completed, 2);
            }
            other => panic!("unexpected error {other:?}"),
        }
        // Healthy siblings still ran.
        assert_eq!(data, vec![7, 7, 0, 0, 7, 7]);
    }

    #[test]
    fn run_jobs_covers_every_index_exactly_once() {
        for threads in [1usize, 2, 4, 8] {
            let hits: Vec<AtomicU64> = (0..37).map(|_| AtomicU64::new(0)).collect();
            let used = run_jobs(threads, hits.len(), |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(used >= 1 && used <= threads.max(1));
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        }
    }

    #[test]
    fn run_jobs_with_zero_jobs_is_a_noop() {
        assert_eq!(run_jobs(4, 0, |_| panic!("no jobs to run")), 1);
    }

    #[test]
    fn sliced_jobs_write_disjoint_regions() {
        for threads in [1usize, 3, 8] {
            let mut data = vec![0u64; 100];
            let slices = split_chunks(&mut data, 7);
            run_sliced_jobs_isolated(
                threads,
                slices,
                &PoolProfiler::disabled(),
                || (),
                |(), i, s| {
                    for v in s.iter_mut() {
                        *v = i as u64 + 1;
                    }
                },
            )
            .unwrap();
            for (idx, v) in data.iter().enumerate() {
                assert_eq!(*v, (idx / 7) as u64 + 1);
            }
        }
    }

    #[test]
    fn sliced_jobs_state_is_per_worker() {
        // Worker-local state must never be shared: each job stamps its
        // slice with the state's running job count, so any cross-worker
        // sharing would produce counts exceeding the per-worker total.
        let total = AtomicU64::new(0);
        let mut data = vec![0u64; 64];
        let slices = split_chunks(&mut data, 1);
        run_sliced_jobs_isolated(
            4,
            slices,
            &PoolProfiler::disabled(),
            || 0u64,
            |state, _, s| {
                *state += 1;
                s[0] = *state;
                total.fetch_add(1, Ordering::Relaxed);
            },
        )
        .unwrap();
        assert_eq!(total.load(Ordering::Relaxed), 64);
        // No worker can have run more jobs than exist.
        assert!(data.iter().all(|&v| (1..=64).contains(&v)));
    }

    #[test]
    fn traced_pool_counts_jobs_and_emits_worker_lanes() {
        use winofuse_telemetry::VecSink;
        for threads in [1usize, 3] {
            let sink = VecSink::default();
            let events = sink.0.clone();
            let tele = Telemetry::with_sink(Box::new(sink));
            let prof = PoolProfiler::new(tele.clone(), "test.job");
            let jobs = 17;
            let used = run_jobs_isolated(threads, jobs, &prof, |_| {
                std::hint::black_box(0u64);
            })
            .unwrap();

            let s = tele.summary();
            assert_eq!(s.counter("pool.jobs"), jobs as u64);
            assert_eq!(s.counter("pool.runs"), 1);
            assert_eq!(s.histograms["pool.worker_busy_ns"].count, used as u64);
            assert_eq!(s.histograms["pool.job_wait_us"].count, jobs as u64);

            let events = events.lock().unwrap();
            let slices: Vec<_> = events.iter().filter(|e| e.phase == 'X').collect();
            assert_eq!(slices.len(), jobs);
            let mut seen: Vec<usize> = slices
                .iter()
                .map(|e| {
                    assert_eq!(e.pid, PID_WALL);
                    assert!(e.tid >= WORKER_TID_BASE);
                    assert!(e.tid < WORKER_TID_BASE + used as u64);
                    assert!(e.dur.is_some());
                    let open = e.name.find('[').expect("indexed name");
                    e.name[open + 1..e.name.len() - 1].parse().unwrap()
                })
                .collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..jobs).collect::<Vec<_>>());
            // One thread_name metadata record per distinct worker lane.
            let lanes = events.iter().filter(|e| e.phase == 'M').count();
            assert_eq!(lanes, used);
        }
    }

    #[test]
    fn traced_sliced_pool_matches_untraced_results() {
        let tele = Telemetry::enabled();
        let prof = PoolProfiler::new(tele.clone(), "sliced");
        let mut data = vec![0u64; 100];
        let slices = split_chunks(&mut data, 7);
        run_sliced_jobs_isolated(
            3,
            slices,
            &prof,
            || (),
            |(), i, s| {
                for v in s.iter_mut() {
                    *v = i as u64 + 1;
                }
            },
        )
        .unwrap();
        for (idx, v) in data.iter().enumerate() {
            assert_eq!(*v, (idx / 7) as u64 + 1);
        }
        let s = tele.summary();
        assert_eq!(s.counter("pool.jobs"), 15);
    }

    #[test]
    fn disabled_profiler_registers_nothing() {
        let prof = PoolProfiler::disabled();
        assert!(!prof.is_enabled());
        let hits = AtomicU64::new(0);
        run_jobs_isolated(4, 8, &prof, |_| {
            hits.fetch_add(1, Ordering::Relaxed);
        })
        .unwrap();
        assert_eq!(hits.load(Ordering::Relaxed), 8);
        assert_eq!(prof.telemetry().summary().counters.len(), 0);
        // A scoped view of a disabled profiler stays disabled.
        assert!(!prof.scoped("phase").is_enabled());
    }

    #[test]
    fn split_lengths_covers_buffer() {
        let mut data = vec![0u32; 10];
        let parts = split_lengths(&mut data, &[3, 0, 4, 3]);
        assert_eq!(
            parts.iter().map(|p| p.len()).collect::<Vec<_>>(),
            vec![3, 0, 4, 3]
        );
    }

    #[test]
    #[should_panic(expected = "do not cover")]
    fn split_lengths_rejects_short_cover() {
        let mut data = vec![0u32; 10];
        let _ = split_lengths(&mut data, &[3, 3]);
    }

    #[test]
    fn longest_first_order_sorts_descending_with_stable_ties() {
        assert_eq!(longest_first_order(&[1, 9, 4, 9, 2]), vec![1, 3, 2, 4, 0]);
        assert_eq!(longest_first_order(&[]), Vec::<usize>::new());
    }
}
