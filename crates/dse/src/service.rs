//! The service core of the evaluation API: a long-lived [`EvalService`]
//! that owns one worker pool and one shared [`EvalCache`], accepts
//! [`EvalRequest`]s and batches through non-blocking submission, and hands
//! back [`JobHandle`]s/[`BatchHandle`]s that support polling, blocking
//! waits, cancellation and streamed progress events.
//!
//! This is the **one pipeline** behind every evaluation surface. Work
//! enters through one enqueue path, [`EvalService::submit_batch`], which
//! takes a [`Submission`] (jobs, tenant, priority, journal);
//! [`submit`](EvalService::submit) is a batch of one request and
//! [`submit_sweep`](EvalService::submit_sweep) a batch of one expanded
//! grid. In-process sweeps, the adaptive explorer, the `cimflow-dse`
//! CLI and the `cimflow-dse serve` wire front end (plus the
//! `cimflow-serve` client crate that re-exports it) all submit here.
//!
//! # Admission control
//!
//! Every submission passes one admission check. A bounded queue
//! ([`ServiceConfig::with_queue_capacity`]) rejects submissions with
//! [`Rejected::QueueFull`] backpressure when the backlog is full, and
//! per-tenant quotas ([`ServiceConfig::with_tenant_quota`]) cap how many
//! points one tenant may have in flight so a single heavy tenant cannot
//! starve the others. A batch is admitted or rejected whole. A service
//! configured with neither bound rejects only while shutting down.
//!
//! A point the submission's journal records, or (in a batch of two or
//! more live points) a point the cache already holds, is answered at
//! admission: it is born terminal and takes no queue slot, quota or
//! worker (see [`EvalService::submit_batch`]).
//!
//! # Coalescing
//!
//! All workers share one [`EvalCache`], whose in-flight deduplication
//! means two tenants asking for the same design point share a single
//! compile → simulate run: the second request blocks inside the cache
//! until the first finishes and then takes the result as a hit.
//!
//! # Trace groups
//!
//! The points of a batch that share a [`TraceKey`] — timing-only
//! variants of one compiled design, including the offered rates of a
//! serving ladder — form a trace group. The worker that claims one
//! member drains the rest of the group and answers the whole claim with
//! one cache lookup per member, one get-or-record of the trace in the
//! shared [`TraceStore`] and one lockstep replay for every member that
//! did not record. Under load, every other co-located model is resolved
//! once per claim the same way, so the rungs of a rate ladder share one
//! report per model. Each point counts one cache lookup; a grouped result
//! is published first-writer-wins, so a member another worker finished
//! first reads `cached: true`.
//!
//! # Example
//!
//! ```
//! use cimflow_dse::{EvalRequest, EvalService, Priority, ServiceConfig};
//! use cimflow_compiler::Strategy;
//!
//! let service = EvalService::new(ServiceConfig::new().with_workers(2));
//! let handle = service
//!     .submit(
//!         EvalRequest::new("mobilenetv2", 32, Strategy::GenericMapping)
//!             .with_tenant("docs")
//!             .with_priority(Priority::High),
//!     )
//!     .expect("an unconfigured service admits everything");
//! let outcome = handle.wait();
//! assert!(outcome.result.is_ok());
//! ```

use std::collections::{BinaryHeap, HashMap};
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use cimflow_arch::ArchConfig;
use cimflow_compiler::{SearchMode, Strategy};
use cimflow_nn::models;
use cimflow_obs::{
    thread_track, Counter, Gauge, Histogram, MetricsRegistry, MetricsSnapshot, Tracer,
};
use serde::{Deserialize, Serialize};

use crate::journal::SweepJournal;
use crate::trace_store::{TraceKey, TraceStore};
use crate::{
    CacheKey, DseError, DseOutcome, EvalCache, Evaluation, Job, ModelSpec, PointSpec, Progress,
    SweepSpec,
};

/// Tenant name used when a request does not set one.
pub const DEFAULT_TENANT: &str = "anonymous";

/// Scheduling priority of a submitted job. Workers always claim the
/// highest-priority queued job, FIFO within one priority class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Background work: claimed only when nothing else is queued.
    Low,
    /// The default class.
    #[default]
    Normal,
    /// Latency-sensitive work: claimed before everything else.
    High,
}

impl Priority {
    /// Wire name of the priority.
    pub fn name(self) -> &'static str {
        match self {
            Priority::Low => "low",
            Priority::Normal => "normal",
            Priority::High => "high",
        }
    }

    /// Parses a wire name (accepts capitalized variants too).
    pub fn from_name(text: &str) -> Option<Self> {
        match text {
            "low" | "Low" => Some(Priority::Low),
            "normal" | "Normal" => Some(Priority::Normal),
            "high" | "High" => Some(Priority::High),
            _ => None,
        }
    }
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl serde::Serialize for Priority {
    fn serialize(&self) -> serde::Content {
        serde::Content::Str(self.name().to_owned())
    }
}

impl serde::Deserialize for Priority {
    fn deserialize(content: &serde::Content) -> Result<Self, serde::Error> {
        let text =
            content.as_str().ok_or_else(|| serde::Error::new("expected priority name string"))?;
        Priority::from_name(text)
            .ok_or_else(|| serde::Error::new(format!("unknown priority `{text}`")))
    }
}

/// One evaluation request: which design point to evaluate, on behalf of
/// which tenant, at which priority.
///
/// Every architecture field left `None` pins the corresponding parameter
/// to the base architecture (the paper's Table I default unless
/// [`base`](Self::base) overrides it) — the same semantics as an empty
/// [`SweepSpec`] axis. Unknown model names are *accepted* and surface as
/// a per-job [`DseError::UnknownModel`] outcome, like a sweep point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvalRequest {
    /// The model to evaluate.
    pub model: ModelSpec,
    /// The compilation strategy.
    pub strategy: Strategy,
    /// System-level search-mode override; `None` means
    /// [`SearchMode::Sequential`].
    pub search: Option<SearchMode>,
    /// Base architecture override; `None` means the paper default.
    pub base: Option<ArchConfig>,
    /// Chip-count override (the scale-out axis).
    pub chip_count: Option<u32>,
    /// Per-chip core-count override.
    pub core_count: Option<u32>,
    /// Per-core local-memory override in KiB.
    pub local_memory_kib: Option<u64>,
    /// NoC flit-size override in bytes.
    pub flit_bytes: Option<u32>,
    /// Macro-group-size override.
    pub mg_size: Option<u32>,
    /// Submitting tenant; `None` means [`DEFAULT_TENANT`].
    pub tenant: Option<String>,
    /// Scheduling priority; `None` means [`Priority::Normal`].
    pub priority: Option<Priority>,
    /// Serving workload; `None` keeps the classic single-inference
    /// evaluation. (Absent on old wire clients, which parses as `None`.)
    pub traffic: Option<TrafficRequest>,
}

/// The serving-workload attachment of an [`EvalRequest`]: one offered
/// rate plus an optional workload preset (single-model — the wire
/// surface has no model axis to co-locate).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrafficRequest {
    /// Offered request rate in requests/second (must be positive).
    pub offered_qps: u64,
    /// Workload preset; `None` means the default Poisson preset.
    pub workload: Option<cimflow_traffic::WorkloadSpec>,
}

impl EvalRequest {
    /// Creates a request for a model at the paper-default architecture.
    pub fn new(model: impl Into<String>, resolution: u32, strategy: Strategy) -> Self {
        EvalRequest {
            model: ModelSpec::new(model, resolution),
            strategy,
            search: None,
            base: None,
            chip_count: None,
            core_count: None,
            local_memory_kib: None,
            flit_bytes: None,
            mg_size: None,
            tenant: None,
            priority: None,
            traffic: None,
        }
    }

    /// Sets the base architecture.
    #[must_use]
    pub fn with_base(mut self, base: ArchConfig) -> Self {
        self.base = Some(base);
        self
    }

    /// Sets the system-level search mode.
    #[must_use]
    pub fn with_search(mut self, search: SearchMode) -> Self {
        self.search = Some(search);
        self
    }

    /// Sets the chip count.
    #[must_use]
    pub fn with_chip_count(mut self, chips: u32) -> Self {
        self.chip_count = Some(chips);
        self
    }

    /// Sets the per-chip core count.
    #[must_use]
    pub fn with_core_count(mut self, cores: u32) -> Self {
        self.core_count = Some(cores);
        self
    }

    /// Sets the per-core local memory in KiB.
    #[must_use]
    pub fn with_local_memory_kib(mut self, kib: u64) -> Self {
        self.local_memory_kib = Some(kib);
        self
    }

    /// Sets the NoC flit size in bytes.
    #[must_use]
    pub fn with_flit_bytes(mut self, bytes: u32) -> Self {
        self.flit_bytes = Some(bytes);
        self
    }

    /// Sets the macro-group size.
    #[must_use]
    pub fn with_mg_size(mut self, mg: u32) -> Self {
        self.mg_size = Some(mg);
        self
    }

    /// Sets the tenant.
    #[must_use]
    pub fn with_tenant(mut self, tenant: impl Into<String>) -> Self {
        self.tenant = Some(tenant.into());
        self
    }

    /// Attaches a serving workload at `offered_qps` requests/second
    /// (default Poisson preset; set `traffic.workload` for others).
    #[must_use]
    pub fn with_offered_qps(mut self, offered_qps: u64) -> Self {
        self.traffic = Some(TrafficRequest { offered_qps, workload: None });
        self
    }

    /// Sets the priority.
    #[must_use]
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = Some(priority);
        self
    }

    /// The effective tenant name.
    pub fn tenant(&self) -> &str {
        self.tenant.as_deref().unwrap_or(DEFAULT_TENANT)
    }

    /// The effective priority.
    pub fn priority(&self) -> Priority {
        self.priority.unwrap_or_default()
    }

    /// The effective base architecture.
    pub fn base_arch(&self) -> ArchConfig {
        self.base.unwrap_or_else(ArchConfig::paper_default)
    }

    /// The fully resolved design point of this request.
    pub fn point(&self) -> PointSpec {
        let base = self.base_arch();
        PointSpec {
            model: self.model.clone(),
            strategy: self.strategy,
            search: self.search.unwrap_or_default(),
            chip_count: self.chip_count.map_or_else(|| u64::from(base.chip_count()), u64::from),
            core_count: self
                .core_count
                .map_or_else(|| u64::from(base.chip().core_count), u64::from),
            local_memory_kib: self
                .local_memory_kib
                .unwrap_or(base.core.local_memory.size_bytes / 1024),
            flit_bytes: self
                .flit_bytes
                .map_or_else(|| u64::from(base.chip().noc_flit_bytes), u64::from),
            mg_size: self
                .mg_size
                .map_or_else(|| u64::from(base.core.cim_unit.macros_per_group), u64::from),
            frequency_mhz: u64::from(base.chip().frequency_mhz),
            memory_port: u64::from(base.chip().memory_port),
            offered_qps: self.traffic.as_ref().map_or(0, |t| t.offered_qps),
        }
    }

    /// Resolves the request into a schedulable job (model resolution
    /// failures stay inside the job, like [`expand_jobs`](crate::expand_jobs)).
    pub(crate) fn to_job(&self) -> Job {
        let base = self.base_arch();
        let spec = self.point();
        let arch = spec.arch(&base);
        let model = models::by_name(&spec.model.name, spec.model.resolution)
            .map(Arc::new)
            .map_err(DseError::from);
        let traffic = match (&self.traffic, &model) {
            (Some(traffic), Ok(resolved)) => Some(Arc::new(crate::eval::TrafficJob::new(
                traffic.workload.clone().unwrap_or_default(),
                vec![(
                    crate::eval::served_model_name(&spec.model.name, spec.model.resolution),
                    Arc::clone(resolved),
                )],
            ))),
            _ => None,
        };
        Job { spec, arch, model, traffic }
    }
}

/// Static configuration of an [`EvalService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads of the pool.
    pub workers: usize,
    /// Maximum queued (not yet running) points; `None` is unbounded.
    pub queue_capacity: Option<usize>,
    /// Maximum in-flight (queued + running) points per tenant; `None`
    /// disables quotas.
    pub tenant_quota: Option<usize>,
    /// Metrics registry the service records into; `None` makes the
    /// service create a private one (always readable back through
    /// [`EvalService::metrics`]). Pass a shared registry to aggregate
    /// several services — or a service and its driving CLI — into one
    /// exposition.
    pub metrics: Option<MetricsRegistry>,
    /// Span tracer for queue/eval timelines; `None` disables tracing
    /// entirely (no ring buffer, no per-job span overhead).
    pub tracer: Option<Tracer>,
}

impl ServiceConfig {
    /// A config sized to the machine: one worker per available core, no
    /// queue bound, no quotas.
    pub fn new() -> Self {
        let workers = std::thread::available_parallelism().map(usize::from).unwrap_or(1);
        ServiceConfig {
            workers,
            queue_capacity: None,
            tenant_quota: None,
            metrics: None,
            tracer: None,
        }
    }

    /// Sets the worker count (`1` = sequential).
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Bounds the queue: admitted submissions beyond `capacity` queued
    /// points are rejected with [`Rejected::QueueFull`].
    #[must_use]
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = Some(capacity);
        self
    }

    /// Caps every tenant at `quota` in-flight points; excess submissions
    /// are rejected with [`Rejected::QuotaExceeded`].
    #[must_use]
    pub fn with_tenant_quota(mut self, quota: usize) -> Self {
        self.tenant_quota = Some(quota);
        self
    }

    /// Records service metrics into `metrics` instead of a private
    /// registry.
    #[must_use]
    pub fn with_metrics(mut self, metrics: MetricsRegistry) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Records queue/eval spans into `tracer` (off by default).
    #[must_use]
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = Some(tracer);
        self
    }
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// Why a submission was not admitted.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Rejected {
    /// The bounded queue is full: back off and retry later.
    QueueFull {
        /// The configured queue capacity.
        capacity: usize,
    },
    /// The tenant has too many points in flight.
    QuotaExceeded {
        /// The over-quota tenant.
        tenant: String,
        /// The configured per-tenant quota.
        quota: usize,
    },
    /// The service is shutting down and admits nothing.
    ShuttingDown,
    /// The sweep specification could not be expanded.
    InvalidSpec {
        /// Human-readable reason.
        reason: String,
    },
}

impl Rejected {
    /// Machine-readable kind tag (used on the wire).
    pub fn kind(&self) -> &'static str {
        match self {
            Rejected::QueueFull { .. } => "queue_full",
            Rejected::QuotaExceeded { .. } => "quota_exceeded",
            Rejected::ShuttingDown => "shutting_down",
            Rejected::InvalidSpec { .. } => "invalid_spec",
        }
    }
}

impl fmt::Display for Rejected {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rejected::QueueFull { capacity } => {
                write!(f, "queue full ({capacity} queued points); retry later")
            }
            Rejected::QuotaExceeded { tenant, quota } => {
                write!(f, "tenant `{tenant}` exceeds its quota of {quota} in-flight point(s)")
            }
            Rejected::ShuttingDown => write!(f, "service is shutting down"),
            Rejected::InvalidSpec { reason } => write!(f, "invalid sweep specification: {reason}"),
        }
    }
}

impl std::error::Error for Rejected {}

/// A rejected submission as a sweep error: an unexpandable grid is a
/// [`DseError::Spec`], backpressure and shutdown are [`DseError::Io`].
impl From<Rejected> for DseError {
    fn from(rejected: Rejected) -> Self {
        match rejected {
            Rejected::InvalidSpec { reason } => DseError::Spec { reason },
            other => DseError::io(other.to_string()),
        }
    }
}

/// Lifecycle state of a submitted job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Admitted, waiting for a worker.
    Queued,
    /// A worker is evaluating it.
    Running,
    /// Finished (successfully or with a per-point error).
    Done,
    /// Cancelled before a worker claimed it.
    Cancelled,
}

impl JobStatus {
    /// Whether the job has reached a terminal state.
    pub fn is_terminal(self) -> bool {
        matches!(self, JobStatus::Done | JobStatus::Cancelled)
    }

    /// Wire name of the status.
    pub fn name(self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done => "done",
            JobStatus::Cancelled => "cancelled",
        }
    }
}

impl fmt::Display for JobStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One batch submission: the points plus who submits them, at which
/// priority, against which journal. [`EvalService::submit_batch`] is the
/// one way work enters a service.
#[derive(Debug, Clone, Default)]
pub struct Submission {
    /// The points, in the order the [`BatchHandle`] reports them.
    pub jobs: Vec<Job>,
    /// Tenant charged for the points; `None` means [`DEFAULT_TENANT`].
    pub tenant: Option<String>,
    /// Scheduling priority of every point.
    pub priority: Priority,
    /// Journal to resume from and append to: a point it already records
    /// is born terminal (its result seeded into the cache, no admission
    /// consumed). Every other point is appended once answered: an
    /// admission hit before [`EvalService::submit_batch`] returns, a
    /// queued point when its worker finishes it.
    pub journal: Option<Arc<SweepJournal>>,
}

/// Monotonic service counters plus a queue snapshot.
///
/// # Consistency
///
/// Every value is read under the one service state lock — the same
/// critical section the workers mutate them in — so a snapshot is never
/// torn: `submitted == completed + cancelled + queued + running` holds
/// for **every** snapshot, however loaded the service is (rejected
/// submissions are counted separately and never become `submitted`).
/// The `service_stats_snapshots_never_tear` test hammers this from four
/// reader threads against a live worker pool.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServiceStats {
    /// Jobs admitted over the service lifetime.
    pub submitted: u64,
    /// Jobs finished (successfully or with a per-point error).
    pub completed: u64,
    /// Jobs cancelled before running.
    pub cancelled: u64,
    /// Submissions rejected by admission control.
    pub rejected: u64,
    /// Currently queued jobs.
    pub queued: usize,
    /// Currently running jobs.
    pub running: usize,
}

// ---------------------------------------------------------------------------
// Internal state
// ---------------------------------------------------------------------------

/// Per-batch bookkeeping shared by the handle and the entries.
#[derive(Debug)]
struct BatchState {
    total: usize,
    completed: AtomicUsize,
    progress: mpsc::Sender<Progress>,
}

impl BatchState {
    /// Counts the point at grid `index` finished and streams its
    /// progress event.
    fn finish(&self, index: usize, job: &Job, outcome: &DseOutcome) {
        let completed = self.completed.fetch_add(1, Ordering::SeqCst) + 1;
        let _ = self.progress.send(Progress {
            completed,
            total: self.total,
            index,
            label: job.spec.label(),
            ok: outcome.result.is_ok(),
            cached: outcome.cached,
        });
    }
}

/// How one point of a submission enters the service, decided on the
/// submitting thread before the state lock is taken.
#[derive(Debug)]
enum Admission {
    /// Queued for a worker, with the trace key to group it by when the
    /// batch hashed one.
    Queued(Option<TraceKey>),
    /// Born terminal: the submission's journal already records it.
    Resumed(DseOutcome),
    /// Born terminal: the cache answered it at admission. The key is
    /// kept for the journal append.
    Hit(DseOutcome, CacheKey),
}

/// Most queued entries one claim drains into a single group run. Bounds
/// worst-case latency skew (a drained member waits on the whole group)
/// and keeps huge sweeps spread across the worker pool.
const GROUP_CLAIM_MAX: usize = 32;

#[derive(Debug)]
struct Entry {
    job: Job,
    tenant: String,
    priority: Priority,
    /// The trace group this entry belongs to, set only for points whose
    /// group has at least two live members. Grouped points evaluate
    /// through the shared [`TraceStore`]; singletons never pay the
    /// recording overhead.
    group: Option<TraceKey>,
    /// Admission time, the basis of the queue-wait histogram.
    submitted_at: Instant,
    status: JobStatus,
    outcome: Option<DseOutcome>,
    batch: Arc<BatchState>,
    /// Grid index of the entry within its batch.
    index: usize,
    journal: Option<Arc<SweepJournal>>,
    /// The handle was dropped: remove the entry once terminal.
    detached: bool,
}

/// Heap reference used for priority-aware claiming: highest priority
/// first, FIFO (lowest sequence number) within a priority class.
#[derive(Debug, PartialEq, Eq)]
struct ClaimRef {
    priority: Priority,
    seq: u64,
    id: u64,
}

impl Ord for ClaimRef {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.priority.cmp(&other.priority).then(other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for ClaimRef {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

#[derive(Debug, Default)]
struct State {
    entries: HashMap<u64, Entry>,
    queue: BinaryHeap<ClaimRef>,
    queued: usize,
    running: usize,
    /// Queued + running points per tenant (quota accounting).
    in_flight: HashMap<String, usize>,
    next_id: u64,
    shutting_down: bool,
    submitted: u64,
    completed: u64,
    cancelled: u64,
    rejected: u64,
}

impl State {
    fn allocate_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }
}

/// Pre-resolved observability instruments of one service (resolving an
/// instrument takes the registry lock, so the fixed-name ones are looked
/// up once at service start; per-tenant/per-priority histograms are
/// resolved per job, which is once per compile → simulate run).
#[derive(Debug)]
struct ServiceObs {
    metrics: MetricsRegistry,
    tracer: Option<Tracer>,
    evals_completed: Counter,
    evals_failed: Counter,
    jobs_cancelled: Counter,
    workers_busy: Gauge,
    queue_depth: Gauge,
    /// Points answered by replaying a recorded trace (timing-only reuse).
    replay_points: Counter,
    /// A claim's fresh-replay rate (freshly replayed points over the
    /// claim's wall time), sampled once per freshly replayed point.
    replay_rate: Histogram,
    /// Lockstep replay walks executed by grouped claims (one walk
    /// re-times every cycle-distinct lane of a chunk in a single pass).
    lockstep_batches: Counter,
    /// Cycle-distinct lanes those walks carried.
    lockstep_lanes: Counter,
    /// Lanes peeled off to scalar continuation on a schedule divergence
    /// (the bit-exact fallback, never an approximation).
    lockstep_fallbacks: Counter,
}

impl ServiceObs {
    fn new(metrics: MetricsRegistry, tracer: Option<Tracer>) -> Self {
        ServiceObs {
            evals_completed: metrics.counter("service.evals_completed"),
            evals_failed: metrics.counter("service.evals_failed"),
            jobs_cancelled: metrics.counter("service.jobs_cancelled"),
            workers_busy: metrics.gauge("service.workers_busy"),
            queue_depth: metrics.gauge("service.queue_depth"),
            replay_points: metrics.counter("sim.replay_points"),
            replay_rate: metrics.histogram("sim.replay_points_per_s"),
            lockstep_batches: metrics.counter("sim.lockstep_batches"),
            lockstep_lanes: metrics.counter("sim.lockstep_lanes"),
            lockstep_fallbacks: metrics.counter("sim.lockstep_fallbacks"),
            metrics,
            tracer,
        }
    }

    fn reject(&self, rejection: &Rejected, count: u64) {
        self.metrics
            .counter_with("service.admission_rejected", &[("cause", rejection.kind())])
            .add(count);
    }
}

#[derive(Debug)]
struct Shared {
    state: Mutex<State>,
    /// Signaled when a job is enqueued or shutdown begins.
    work: Condvar,
    /// Signaled when any job reaches a terminal state.
    done: Condvar,
    cache: EvalCache,
    traces: TraceStore,
    obs: ServiceObs,
}

const STATE_POISONED: &str = "service state poisoned";

/// Runs one job that belongs to no trace group through the shared
/// pipeline: a cache lookup, or the full compile → simulate run of
/// [`evaluate_point`](crate::eval::evaluate_point) on a miss. Panics
/// inside the evaluator are converted into per-point errors so a bad
/// point cannot kill a long-lived worker.
pub(crate) fn run_point(job: &Job, cache: &EvalCache) -> DseOutcome {
    let (result, cached) = match &job.model {
        Err(e) => (Err(e.clone()), false),
        Ok(model) => {
            let key = job.cache_key().expect("a resolved model always has a cache key");
            let evaluated = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                cache.get_or_insert_with(key, || crate::eval::evaluate_point(job, model))
            }));
            match evaluated {
                Ok(Ok((evaluation, was_hit))) => (Ok(evaluation), was_hit),
                Ok(Err(e)) => (Err(e), false),
                Err(panic) => (Err(panicked(panic.as_ref())), false),
            }
        }
    };
    DseOutcome { point: job.spec.clone(), result, cached }
}

/// The per-point error of an evaluation that panicked.
fn panicked(payload: &(dyn std::any::Any + Send)) -> DseError {
    let text = payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_owned());
    DseError::io(format!("evaluation panicked: {text}"))
}

/// Marks `id` terminal, updates quota/stat accounting, streams batch
/// progress, and wakes waiters. Caller holds the state lock and has
/// already adjusted the `queued`/`running` counters.
fn finish_entry(st: &mut State, shared: &Shared, id: u64, outcome: DseOutcome, status: JobStatus) {
    let entry = st.entries.get_mut(&id).expect("finished job has an entry");
    entry.status = status;
    if let Some(count) = st.in_flight.get_mut(&entry.tenant) {
        *count -= 1;
        if *count == 0 {
            st.in_flight.remove(&entry.tenant);
        }
    }
    match status {
        JobStatus::Done => {
            st.completed += 1;
            shared.obs.evals_completed.inc();
            if outcome.result.is_err() {
                shared.obs.evals_failed.inc();
            }
        }
        JobStatus::Cancelled => {
            st.cancelled += 1;
            shared.obs.jobs_cancelled.inc();
        }
        JobStatus::Queued | JobStatus::Running => unreachable!("finish with non-terminal status"),
    }
    entry.batch.finish(entry.index, &entry.job, &outcome);
    entry.outcome = Some(outcome);
    if entry.detached {
        st.entries.remove(&id);
    }
    shared.done.notify_all();
}

/// Cancels a queued entry; running/terminal entries are left alone.
fn cancel_locked(st: &mut State, shared: &Shared, id: u64) -> bool {
    match st.entries.get(&id) {
        Some(entry) if entry.status == JobStatus::Queued => {
            st.queued -= 1;
            shared.obs.queue_depth.set(st.queued as i64);
            let outcome = DseOutcome {
                point: entry.job.spec.clone(),
                result: Err(DseError::Cancelled),
                cached: false,
            };
            finish_entry(st, shared, id, outcome, JobStatus::Cancelled);
            true
        }
        _ => false,
    }
}

/// Drops a handle's claim on its entries: terminal entries are removed
/// immediately, live ones are marked for removal on completion.
fn release(shared: &Shared, ids: &[u64]) {
    let Ok(mut st) = shared.state.lock() else { return };
    for id in ids {
        match st.entries.get_mut(id) {
            Some(entry) if entry.status.is_terminal() => {
                st.entries.remove(id);
            }
            Some(entry) => entry.detached = true,
            None => {}
        }
    }
}

/// One queued entry claimed by a worker, with everything the processing
/// path needs outside the state lock.
struct ClaimedMember {
    id: u64,
    job: Job,
    journal: Option<Arc<SweepJournal>>,
    queue_wait: Duration,
}

/// One worker's claim: the claimed entry plus any drained members of its
/// trace group; solo claims carry one member and no group.
struct Claim {
    members: Vec<ClaimedMember>,
    tenant: String,
    priority: Priority,
    group: Option<TraceKey>,
}

/// Marks a queued entry Running and extracts the processing payload.
/// Caller holds the state lock and adjusts the queued/running counters.
fn claim_entry(st: &mut State, id: u64) -> ClaimedMember {
    let entry = st.entries.get_mut(&id).expect("claimed entry exists");
    entry.status = JobStatus::Running;
    ClaimedMember {
        id,
        job: entry.job.clone(),
        journal: entry.journal.clone(),
        queue_wait: entry.submitted_at.elapsed(),
    }
}

/// Answers a claim that carries a trace key, of any size: one cache
/// lookup per member, then one
/// [`evaluate_group`](crate::eval::evaluate_group) call for the members
/// the cache missed (arch check per member, one get-or-record of the
/// trace, one lockstep replay for every member that did not record).
/// A panic inside the evaluation fails every evaluated member. Results
/// are published without counting a lookup, first writer wins: a member
/// that another worker published first reads `cached: true`.
fn run_trace_group(shared: &Shared, members: &[ClaimedMember], key: TraceKey) -> Vec<DseOutcome> {
    let keys: Vec<CacheKey> = members
        .iter()
        .map(|member| member.job.cache_key().expect("grouped jobs have resolved models"))
        .collect();
    let mut results: Vec<Option<(Result<Evaluation, DseError>, bool)>> =
        keys.iter().map(|key| shared.cache.get(key).map(|hit| (Ok(hit), true))).collect();
    let pending: Vec<usize> = (0..members.len()).filter(|&i| results[i].is_none()).collect();
    if !pending.is_empty() {
        let jobs: Vec<&Job> = pending.iter().map(|&i| &members[i].job).collect();
        let evaluated = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            crate::eval::evaluate_group(&jobs, key, &shared.traces)
        }));
        let evaluations = match evaluated {
            Ok((evaluations, stats)) => {
                shared.obs.lockstep_batches.add(stats.batches);
                shared.obs.lockstep_lanes.add(stats.lanes);
                shared.obs.lockstep_fallbacks.add(stats.fallback_lanes);
                evaluations
            }
            Err(panic) => vec![Err(panicked(panic.as_ref())); pending.len()],
        };
        for (&i, evaluation) in pending.iter().zip(evaluations) {
            results[i] = Some(match evaluation {
                Ok(evaluation) => {
                    let (evaluation, cached) = shared.cache.publish(keys[i], evaluation);
                    (Ok(evaluation), cached)
                }
                Err(e) => (Err(e), false),
            });
        }
    }
    members
        .iter()
        .zip(results)
        .map(|(member, result)| {
            let (result, cached) = result.expect("every member is answered");
            DseOutcome { point: member.job.spec.clone(), result, cached }
        })
        .collect()
}

fn worker_loop(shared: Arc<Shared>, index: usize) {
    // Workers publish their tracer as the thread's ambient tracer, so
    // layers below the service boundary — notably the compiler's joint
    // search, whose options cannot carry a tracer — record onto the same
    // per-worker track as the enclosing eval span.
    if let Some(tracer) = &shared.obs.tracer {
        tracer.set_track_name(thread_track(), &format!("worker-{index}"));
        Tracer::set_ambient(Some(tracer.clone()));
    }
    loop {
        let claimed = {
            let mut st = shared.state.lock().expect(STATE_POISONED);
            loop {
                // Pop past stale refs (cancelled, released, or drained
                // into an earlier group claim).
                let next = loop {
                    match st.queue.pop() {
                        Some(claim) => match st.entries.get(&claim.id) {
                            Some(e) if e.status == JobStatus::Queued => break Some(claim.id),
                            _ => {}
                        },
                        None => break None,
                    }
                };
                match next {
                    Some(id) => {
                        let entry = st.entries.get(&id).expect("claimed entry exists");
                        let tenant = entry.tenant.clone();
                        let priority = entry.priority;
                        let group = entry.group;
                        let mut members = vec![claim_entry(&mut st, id)];
                        // Drain the rest of a trace group: every
                        // still-queued member with the same key is
                        // answered together by one batched engine call.
                        // (Their stale heap refs are skipped lazily by
                        // the claim scan above.)
                        if let Some(key) = &group {
                            let mut more: Vec<u64> = st
                                .entries
                                .iter()
                                .filter(|(other, e)| {
                                    **other != id
                                        && e.status == JobStatus::Queued
                                        && e.group.as_ref() == Some(key)
                                        && e.priority == priority
                                        && e.tenant == tenant
                                })
                                .map(|(other, _)| *other)
                                .collect();
                            // Submission order, bounded: the map iterates
                            // in arbitrary order.
                            more.sort_unstable();
                            more.truncate(GROUP_CLAIM_MAX - 1);
                            for other in more {
                                members.push(claim_entry(&mut st, other));
                            }
                        }
                        st.queued -= members.len();
                        st.running += members.len();
                        shared.obs.queue_depth.set(st.queued as i64);
                        break Some(Claim { members, tenant, priority, group });
                    }
                    None if st.shutting_down => break None,
                    None => st = shared.work.wait(st).expect(STATE_POISONED),
                }
            }
        };
        let Some(claim) = claimed else {
            return;
        };
        shared.obs.workers_busy.add(1);
        let queue_wait_hist = shared.obs.metrics.histogram_with(
            "service.queue_wait_us",
            &[("tenant", &claim.tenant), ("priority", claim.priority.name())],
        );
        for member in &claim.members {
            queue_wait_hist.record_duration(member.queue_wait);
        }
        let eval_started = Instant::now();
        // A one-member claim runs under an `eval` span carrying its queue
        // wait; a drained trace group under one `replay` span over all its
        // points.
        let solo = match claim.members.as_slice() {
            [member] => Some(member),
            _ => None,
        };
        let span = shared.obs.tracer.as_ref().map(|tracer| {
            let mut span =
                tracer.thread_span(if solo.is_some() { "eval" } else { "replay" }, "service");
            if solo.is_none() {
                span.attr("points", claim.members.len() as u64);
            }
            span.attr("label", claim.members[0].job.spec.label())
                .attr("tenant", claim.tenant.as_str())
                .attr("priority", claim.priority.name());
            if let Some(member) = solo {
                let wait = u64::try_from(member.queue_wait.as_micros()).unwrap_or(u64::MAX);
                span.attr("queue_wait_us", wait);
            }
            span
        });
        let outcomes: Vec<DseOutcome> = match claim.group {
            Some(key) => run_trace_group(&shared, &claim.members, key),
            None => vec![run_point(&claim.members[0].job, &shared.cache)],
        };
        // End the span before the members are published, so a waiter
        // that reads the tracer after `wait` sees it.
        if let Some(mut span) = span {
            span.attr("ok", outcomes.iter().all(|o| o.result.is_ok()));
            if solo.is_some() {
                span.attr("cached", outcomes[0].cached);
            }
        }
        let eval_elapsed = eval_started.elapsed();
        // Per-member accounting (a solo claim is the one-member case):
        // latency amortizes the claim across its members; the replay rate
        // is the claim's points-per-second throughput, sampled once per
        // freshly replayed point.
        let latency_hist = shared
            .obs
            .metrics
            .histogram_with("service.eval_latency_us", &[("tenant", &claim.tenant)]);
        let per_member = eval_elapsed.div_f64(claim.members.len().max(1) as f64);
        let fresh_replays = outcomes
            .iter()
            .filter(|o| !o.cached && matches!(&o.result, Ok(e) if e.eval_path.is_replayed()))
            .count();
        let secs = eval_elapsed.as_secs_f64();
        for outcome in &outcomes {
            latency_hist.record_duration(per_member);
            if let Ok(evaluation) = &outcome.result {
                if evaluation.eval_path.is_replayed() && !outcome.cached {
                    shared.obs.replay_points.inc();
                    if secs > 0.0 {
                        shared.obs.replay_rate.record((fresh_replays as f64 / secs) as u64);
                    }
                }
            }
        }
        shared.obs.workers_busy.sub(1);
        for (member, outcome) in claim.members.iter().zip(&outcomes) {
            if let Some(journal) = &member.journal {
                // Best effort: journaling must never fail the sweep.
                let _ = journal.record(member.job.cache_key(), outcome);
            }
        }
        let mut st = shared.state.lock().expect(STATE_POISONED);
        for (member, outcome) in claim.members.iter().zip(outcomes) {
            st.running -= 1;
            finish_entry(&mut st, &shared, member.id, outcome, JobStatus::Done);
        }
    }
}

// ---------------------------------------------------------------------------
// Handles
// ---------------------------------------------------------------------------

/// A handle to one submitted job: a one-point view of the batch that
/// [`EvalService::submit`] enqueued.
///
/// The handle is the only reference to the job's result slot: dropping it
/// releases the slot (the job itself still runs to completion).
///
/// # Example
///
/// ```
/// use cimflow_dse::{EvalRequest, EvalService, JobStatus, ServiceConfig};
/// use cimflow_compiler::Strategy;
///
/// let service = EvalService::new(ServiceConfig::new().with_workers(1));
/// let handle = service
///     .submit(EvalRequest::new("resnet18", 32, Strategy::DpOptimized))
///     .expect("admitted");
/// // Non-blocking: `status`/`poll` observe the job...
/// assert!(handle.poll().is_none() || handle.status().is_terminal());
/// // ...and `wait` blocks until the outcome lands.
/// assert!(handle.wait().result.is_ok());
/// ```
#[derive(Debug)]
pub struct JobHandle(BatchHandle);

impl JobHandle {
    /// Service-wide id of the job (stable over the service lifetime; used
    /// as the wire id by the serve front end).
    pub fn id(&self) -> u64 {
        self.0.ids[0]
    }

    /// Current lifecycle state (non-blocking).
    pub fn status(&self) -> JobStatus {
        let st = self.0.shared.state.lock().expect(STATE_POISONED);
        st.entries.get(&self.id()).map_or(JobStatus::Done, |e| e.status)
    }

    /// The outcome if the job is already terminal (non-blocking).
    pub fn poll(&self) -> Option<DseOutcome> {
        let st = self.0.shared.state.lock().expect(STATE_POISONED);
        st.entries.get(&self.id()).and_then(|e| e.outcome.clone())
    }

    /// Blocks until the job is terminal and returns its outcome. A
    /// cancelled job yields [`DseError::Cancelled`] in the outcome.
    pub fn wait(&self) -> DseOutcome {
        only(self.0.wait())
    }

    /// [`Self::wait`] bounded by a deadline: returns the outcome if the
    /// job turns terminal within `timeout`, `None` on expiry (the job
    /// keeps running and the handle stays usable — poll, wait again, or
    /// cancel). The wire protocol's `wait` + `timeout_ms` runs on this,
    /// so one slow job cannot wedge a whole serve connection forever.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<DseOutcome> {
        self.0.wait_timeout(timeout).map(only)
    }

    /// Cancels the job if it is still queued. Returns whether it was
    /// cancelled; a running job finishes normally (`false`).
    pub fn cancel(&self) -> bool {
        self.0.cancel() == 1
    }
}

/// The outcome of a one-point batch.
fn only(mut outcomes: Vec<DseOutcome>) -> DseOutcome {
    outcomes.pop().expect("a job handle views exactly one point")
}

/// A handle to a submitted batch (sweep): per-point slots in grid order
/// plus a streamed [`Progress`] channel.
#[derive(Debug)]
pub struct BatchHandle {
    shared: Arc<Shared>,
    ids: Vec<u64>,
    batch: Arc<BatchState>,
    progress: mpsc::Receiver<Progress>,
    resumed: usize,
}

impl BatchHandle {
    /// Number of points in the batch.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Points that were born terminal at submission because a journal
    /// already recorded them. Unlike [`Self::completed`], this is a
    /// property of the submission, not of scheduling progress: neither a
    /// point the cache answered at admission nor one a fast worker
    /// finished right after it counts.
    pub fn resumed(&self) -> usize {
        self.resumed
    }

    /// Whether the batch has no points.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Service-wide job ids of the points, in grid order.
    pub fn ids(&self) -> &[u64] {
        &self.ids
    }

    /// Points finished so far (non-blocking).
    pub fn completed(&self) -> usize {
        self.batch.completed.load(Ordering::SeqCst)
    }

    /// Whether every point is terminal (non-blocking).
    pub fn is_done(&self) -> bool {
        self.completed() >= self.ids.len()
    }

    /// Blocks until every point is terminal; outcomes are in grid order.
    pub fn wait(&self) -> Vec<DseOutcome> {
        self.wait_with(|_| {})
    }

    /// [`Self::wait`], invoking `progress` (on the calling thread) for
    /// each point as it finishes.
    pub fn wait_with(&self, mut progress: impl FnMut(&Progress)) -> Vec<DseOutcome> {
        let mut delivered = 0;
        while delivered < self.ids.len() {
            match self.progress.recv_timeout(Duration::from_millis(25)) {
                Ok(event) => {
                    delivered += 1;
                    progress(&event);
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    if self.is_done() {
                        // The counter can lead the event by a hair: a
                        // finishing worker bumps it and queues the event
                        // under one state-lock critical section, and this
                        // unlocked read may land in between. Taking the
                        // lock synchronizes with that worker, after which
                        // the channel holds every outstanding event —
                        // drain it so the callback still fires exactly
                        // once per point.
                        drop(self.shared.state.lock().expect(STATE_POISONED));
                        while let Ok(event) = self.progress.try_recv() {
                            progress(&event);
                        }
                        break;
                    }
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            }
        }
        let mut st = self.shared.state.lock().expect(STATE_POISONED);
        while self.pending(&st) {
            st = self.shared.done.wait(st).expect(STATE_POISONED);
        }
        self.outcomes(&st)
    }

    /// [`Self::wait`] bounded by a deadline: returns the grid-ordered
    /// outcomes if every point turns terminal within `timeout`, `None`
    /// on expiry (the batch keeps running; the handle stays usable and
    /// the streamed [`Progress`] events are left undrained for a later
    /// [`Self::wait_with`]).
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Vec<DseOutcome>> {
        let deadline = Instant::now() + timeout;
        let mut st = self.shared.state.lock().expect(STATE_POISONED);
        while self.pending(&st) {
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            st = self.shared.done.wait_timeout(st, deadline - now).expect(STATE_POISONED).0;
        }
        Some(self.outcomes(&st))
    }

    /// Whether any point is still live (caller holds the state lock).
    fn pending(&self, st: &State) -> bool {
        self.ids.iter().any(|id| st.entries.get(id).is_some_and(|e| !e.status.is_terminal()))
    }

    /// The grid-ordered outcomes of a terminal batch (caller holds the
    /// state lock).
    fn outcomes(&self, st: &State) -> Vec<DseOutcome> {
        self.ids
            .iter()
            .map(|id| {
                st.entries
                    .get(id)
                    .expect("batch entry lives while its handle does")
                    .outcome
                    .clone()
                    .expect("terminal job has an outcome")
            })
            .collect()
    }

    /// Cancels every still-queued point; running points finish normally.
    /// Returns how many points were cancelled.
    pub fn cancel(&self) -> usize {
        let mut st = self.shared.state.lock().expect(STATE_POISONED);
        self.ids.iter().filter(|id| cancel_locked(&mut st, &self.shared, **id)).count()
    }
}

impl Drop for BatchHandle {
    fn drop(&mut self) {
        release(&self.shared, &self.ids);
    }
}

// ---------------------------------------------------------------------------
// The service
// ---------------------------------------------------------------------------

/// A long-lived evaluation service: one worker pool, one shared cache,
/// non-blocking request/batch submission with admission control.
///
/// Dropping the service shuts it down: queued jobs are cancelled, running
/// jobs finish, workers are joined.
#[derive(Debug)]
pub struct EvalService {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
    config: ServiceConfig,
}

impl EvalService {
    /// Starts a service with a fresh cache.
    pub fn new(config: ServiceConfig) -> Self {
        Self::with_cache(config, EvalCache::new())
    }

    /// Starts a service over an existing (possibly shared or persisted)
    /// cache.
    pub fn with_cache(config: ServiceConfig, cache: EvalCache) -> Self {
        let metrics = config.metrics.clone().unwrap_or_default();
        let shared = Arc::new(Shared {
            state: Mutex::default(),
            work: Condvar::new(),
            done: Condvar::new(),
            cache,
            traces: TraceStore::new(),
            obs: ServiceObs::new(metrics, config.tracer.clone()),
        });
        let workers = (0..config.workers)
            .map(|index| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("cimflow-serve-{index}"))
                    .spawn(move || worker_loop(shared, index))
                    .expect("spawn service worker")
            })
            .collect();
        EvalService { shared, workers, config }
    }

    /// The service configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// The shared evaluation cache.
    pub fn cache(&self) -> &EvalCache {
        &self.shared.cache
    }

    /// The shared store of recorded simulation traces (batch points in a
    /// timing-only trace group compile + record once and replay the
    /// rest).
    pub fn trace_store(&self) -> &TraceStore {
        &self.shared.traces
    }

    /// The worker-pool size.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Submits one request as a batch of one point, charged to the
    /// request's tenant at its priority. Returns immediately with a
    /// [`JobHandle`], or a [`Rejected`] backpressure signal.
    ///
    /// # Errors
    ///
    /// See [`Self::submit_batch`]; never a model/architecture error —
    /// those surface in the job's outcome.
    pub fn submit(&self, request: EvalRequest) -> Result<JobHandle, Rejected> {
        let submission = Submission {
            jobs: vec![request.to_job()],
            tenant: Some(request.tenant().to_owned()),
            priority: request.priority(),
            journal: None,
        };
        self.submit_batch(submission).map(JobHandle)
    }

    /// Expands `spec` and submits its grid as one default-tenant,
    /// normal-priority batch.
    ///
    /// # Errors
    ///
    /// [`Rejected::InvalidSpec`] for a grid that does not expand, else
    /// see [`Self::submit_batch`].
    pub fn submit_sweep(&self, spec: &SweepSpec) -> Result<BatchHandle, Rejected> {
        self.submit_spec(spec, None, Priority::default())
    }

    /// Expands `spec` and submits its grid as one batch of `tenant` at
    /// `priority`; [`Self::submit_sweep`] and the wire's `sweep` request
    /// both come through here. A grid that does not expand is refused
    /// before admission: it counts one
    /// `service.admission_rejected{cause="invalid_spec"}` (there are no
    /// points to count) and leaves [`ServiceStats::rejected`] alone.
    pub(crate) fn submit_spec(
        &self,
        spec: &SweepSpec,
        tenant: Option<String>,
        priority: Priority,
    ) -> Result<BatchHandle, Rejected> {
        // The bare reason, so callers can rebuild the original
        // `DseError::Spec` without stacking display prefixes.
        let jobs = crate::expand_jobs(spec).map_err(|e| {
            let reason = match e {
                DseError::Spec { reason } => reason,
                other => other.to_string(),
            };
            let rejection = Rejected::InvalidSpec { reason };
            self.shared.obs.reject(&rejection, 1);
            rejection
        })?;
        self.submit_batch(Submission { jobs, tenant, priority, journal: None })
    }

    /// Submits a batch — the one way work enters the service — and
    /// returns immediately with a [`BatchHandle`] whose slots follow the
    /// submission's job order.
    ///
    /// Two kinds of point are born terminal, with `cached: true`, and
    /// take no queue slot, quota, trace group or worker:
    /// - a point the submission's journal already records (its result
    ///   seeded into the cache; [`BatchHandle::resumed`] counts these);
    /// - in a batch with two or more live points, a point the cache
    ///   already holds. Such a batch hashes each live point's model once
    ///   on this thread for its trace key, and looks the point up by the
    ///   cache key built from that hash. A hit counts one cache hit, is
    ///   appended to the journal, and takes its job id after the queued
    ///   points.
    ///
    /// The remaining points pass one admission check as a whole and are
    /// queued with timing-only groups interleaved, so each group records
    /// one trace early and replays the rest. Their workers look them up
    /// again (a miss counts there), and their outcomes are appended to
    /// the journal as they finish. A one-point submission is never
    /// looked up here: its worker hashes its model once, for its cache
    /// key. With a tracer, the submission records one `admit` span.
    ///
    /// # Errors
    ///
    /// [`Rejected::QueueFull`], [`Rejected::QuotaExceeded`] or
    /// [`Rejected::ShuttingDown`]; per-point failures surface in the
    /// outcomes.
    pub fn submit_batch(&self, submission: Submission) -> Result<BatchHandle, Rejected> {
        let Submission { jobs, tenant, priority, journal } = submission;
        let tenant = tenant.unwrap_or_else(|| DEFAULT_TENANT.to_owned());
        let mut span =
            self.shared.obs.tracer.as_ref().map(|tracer| tracer.thread_span("admit", "service"));
        // Resolved before taking the state lock: cache access must not
        // nest the cache mutex inside it.
        let admissions = self.admissions(&jobs, journal.as_deref());
        let resumed = admissions.iter().filter(|a| matches!(a, Admission::Resumed(_))).count();
        let hits = admissions.iter().filter(|a| matches!(a, Admission::Hit(..))).count();
        if let Some(span) = &mut span {
            span.attr("points", jobs.len() as u64)
                .attr("hits", hits as u64)
                .attr("resumed", resumed as u64);
        }
        // The hits a journaled batch appends once it is admitted.
        let journaled: Vec<(CacheKey, DseOutcome)> = match &journal {
            Some(_) => admissions
                .iter()
                .filter_map(|admission| match admission {
                    Admission::Hit(outcome, key) => Some((*key, outcome.clone())),
                    _ => None,
                })
                .collect(),
            None => Vec::new(),
        };
        let queued = jobs.len() - resumed - hits;
        let (order, groups) = Self::trace_plan(&admissions);

        let (tx, rx) = mpsc::channel();
        let batch = Arc::new(BatchState {
            total: jobs.len(),
            completed: AtomicUsize::new(0),
            progress: tx,
        });
        let mut st = self.shared.state.lock().expect(STATE_POISONED);
        self.admit(&mut st, &tenant, queued, jobs.len())?;
        self.shared.cache.count_hits(hits as u64);
        if queued > 0 {
            *st.in_flight.entry(tenant.clone()).or_insert(0) += queued;
        }
        // Queue in the interleaved order, but keep `ids` in grid order so
        // the handle's per-point slots line up with the submitted grid.
        let total = jobs.len();
        let mut slots: Vec<Option<(Job, Admission)>> =
            jobs.into_iter().zip(admissions).map(Some).collect();
        let mut ids = vec![0u64; total];
        for index in order {
            let (job, admission) = slots[index].take().expect("each slot is queued exactly once");
            let id = st.allocate_id();
            ids[index] = id;
            st.submitted += 1;
            let outcome = match admission {
                Admission::Queued(_) => None,
                Admission::Resumed(outcome) | Admission::Hit(outcome, _) => Some(outcome),
            };
            let status = match &outcome {
                Some(outcome) => {
                    batch.finish(index, &job, outcome);
                    st.completed += 1;
                    self.shared.obs.evals_completed.inc();
                    JobStatus::Done
                }
                None => {
                    st.queue.push(ClaimRef { priority, seq: id, id });
                    st.queued += 1;
                    JobStatus::Queued
                }
            };
            st.entries.insert(
                id,
                Entry {
                    job,
                    tenant: tenant.clone(),
                    priority,
                    group: groups[index],
                    submitted_at: Instant::now(),
                    status,
                    outcome,
                    batch: Arc::clone(&batch),
                    index,
                    journal: journal.clone(),
                    detached: false,
                },
            );
        }
        self.shared.obs.queue_depth.set(st.queued as i64);
        drop(st);
        self.shared.work.notify_all();
        if let Some(journal) = &journal {
            for (key, outcome) in &journaled {
                // Best effort, like a worker's append.
                let _ = journal.record(Some(*key), outcome);
            }
        }
        Ok(BatchHandle { shared: Arc::clone(&self.shared), ids, batch, progress: rx, resumed })
    }

    /// Decides how each point of a batch enters the service. A point's
    /// cache key is hashed here, on the submitting thread, at most once,
    /// and only when the batch needs it: for its journal, or because two
    /// or more points are live. A point the journal records is resumed.
    /// With two or more live points, a live point the cache holds is a
    /// hit (counted by the caller once admitted), and every other live
    /// point carries the trace key built from its cache key's model hash.
    /// An in-flight key is not waited for: its point queues and coalesces
    /// in its worker's lookup.
    fn admissions(&self, jobs: &[Job], journal: Option<&SweepJournal>) -> Vec<Admission> {
        let keyed = journal.is_some() || jobs.len() >= 2;
        let keys: Vec<Option<CacheKey>> =
            jobs.iter().map(|job| if keyed { job.cache_key() } else { None }).collect();
        let mut admissions: Vec<Admission> = jobs
            .iter()
            .zip(&keys)
            .map(|(job, key)| {
                let resumed = journal.zip(*key).and_then(|(journal, key)| {
                    let evaluation = journal.lookup(&key)?;
                    self.shared.cache.insert(key, evaluation.clone());
                    Some(evaluation)
                });
                match resumed {
                    Some(evaluation) => Admission::Resumed(DseOutcome {
                        point: job.spec.clone(),
                        result: Ok(evaluation),
                        cached: true,
                    }),
                    None => Admission::Queued(None),
                }
            })
            .collect();
        // A trace group needs two live points. With fewer, the worker's
        // lookup stays the only one.
        if admissions.iter().filter(|a| matches!(a, Admission::Queued(_))).count() < 2 {
            return admissions;
        }
        for ((admission, job), key) in admissions.iter_mut().zip(jobs).zip(keys) {
            let (Admission::Queued(trace), Some(key)) = (&mut *admission, key) else { continue };
            match self.shared.cache.peek(&key) {
                Some(evaluation) => {
                    let point = job.spec.clone();
                    let outcome = DseOutcome { point, result: Ok(evaluation), cached: true };
                    *admission = Admission::Hit(outcome, key);
                }
                None => *trace = Some(TraceKey::of_point(&job.arch, &key)),
            }
        }
        admissions
    }

    /// The one admission check, run under the state lock for a whole
    /// submission of `points` points, `queued` of them to be queued: a
    /// service shutting down admits nothing, a bounded queue admits only
    /// within its capacity, and a quota caps `tenant`'s in-flight points.
    /// A service with neither bound rejects only at shutdown. Every point
    /// of a rejected submission counts as rejected.
    fn admit(
        &self,
        st: &mut State,
        tenant: &str,
        queued: usize,
        points: usize,
    ) -> Result<(), Rejected> {
        let in_flight = st.in_flight.get(tenant).copied().unwrap_or(0);
        let rejection = match (self.config.queue_capacity, self.config.tenant_quota) {
            _ if st.shutting_down => Rejected::ShuttingDown,
            (Some(capacity), _) if st.queued + queued > capacity => {
                Rejected::QueueFull { capacity }
            }
            (_, Some(quota)) if in_flight + queued > quota => {
                Rejected::QuotaExceeded { tenant: tenant.to_owned(), quota }
            }
            _ => return Ok(()),
        };
        st.rejected += points as u64;
        self.shared.obs.reject(&rejection, points as u64);
        Err(rejection)
    }

    /// Plans the queue-insertion order, and so the job-id order, and the
    /// trace groups of a batch. Queued points are grouped by the
    /// [`TraceKey`] (compile fingerprint + model + strategy + search)
    /// that [`Self::admissions`] gave them, whether or not they carry a
    /// serving workload: the rungs of one rate ladder share a key like
    /// any other timing-only variants. Groups of at least two points
    /// carry their key: they share one compile → record run and replay
    /// the rest, and the worker claiming one member drains the whole
    /// group into a single lockstep replay instead of per-point jobs. A
    /// point whose key siblings were all admission hits is left alone,
    /// an untraced singleton with the same report. The order interleaves
    /// the groups round-robin so every group's recording starts early
    /// instead of the recordings serializing group after group;
    /// journal-resumed points keep their place in it, and admission hits
    /// follow it, in grid order. Singleton groups stay untraced and pay
    /// zero recording overhead. Outcome slots keep grid order regardless
    /// (the handle's ids are indexed by grid position).
    fn trace_plan(admissions: &[Admission]) -> (Vec<usize>, Vec<Option<TraceKey>>) {
        let mut groups: Vec<(Option<TraceKey>, Vec<usize>)> = Vec::new();
        let mut by_key: HashMap<TraceKey, usize> = HashMap::new();
        let mut hits = Vec::new();
        for (index, admission) in admissions.iter().enumerate() {
            match admission {
                Admission::Queued(Some(key)) => {
                    let slot = *by_key.entry(*key).or_insert_with(|| {
                        groups.push((Some(*key), Vec::new()));
                        groups.len() - 1
                    });
                    groups[slot].1.push(index);
                }
                Admission::Hit(..) => hits.push(index),
                // Unhashed, unknown-model and journal-resumed points are
                // untraced singletons.
                Admission::Queued(None) | Admission::Resumed(_) => {
                    groups.push((None, vec![index]));
                }
            }
        }
        let mut group_keys: Vec<Option<TraceKey>> = vec![None; admissions.len()];
        for (key, members) in groups.iter().filter(|(_, members)| members.len() >= 2) {
            for &index in members {
                group_keys[index] = *key;
            }
        }
        let mut order = Vec::with_capacity(admissions.len());
        let mut round = 0;
        while order.len() + hits.len() < admissions.len() {
            for (_, members) in &groups {
                if let Some(&index) = members.get(round) {
                    order.push(index);
                }
            }
            round += 1;
        }
        order.extend(hits);
        (order, group_keys)
    }

    /// A snapshot of the service counters.
    pub fn stats(&self) -> ServiceStats {
        let st = self.shared.state.lock().expect(STATE_POISONED);
        ServiceStats {
            submitted: st.submitted,
            completed: st.completed,
            cancelled: st.cancelled,
            rejected: st.rejected,
            queued: st.queued,
            running: st.running,
        }
    }

    /// In-flight (queued + running) point counts per tenant, sorted by
    /// tenant name. Tenants with nothing in flight are absent.
    pub fn tenants_in_flight(&self) -> Vec<(String, usize)> {
        let st = self.shared.state.lock().expect(STATE_POISONED);
        let mut tenants: Vec<(String, usize)> =
            st.in_flight.iter().map(|(tenant, count)| (tenant.clone(), *count)).collect();
        tenants.sort();
        tenants
    }

    /// The registry this service records into (a shallow clone; see
    /// [`ServiceConfig::with_metrics`]).
    pub fn metrics(&self) -> MetricsRegistry {
        self.shared.obs.metrics.clone()
    }

    /// The tracer this service records spans into, if tracing is on.
    pub fn tracer(&self) -> Option<Tracer> {
        self.shared.obs.tracer.clone()
    }

    /// A metrics snapshot with the shared cache's hit/miss/coalesced
    /// counters folded in (as `cache.*` gauges — the cache keeps its own
    /// atomics, so they are mirrored at read time rather than
    /// double-counted on every lookup).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.sync_cache_metrics();
        self.shared.obs.metrics.snapshot()
    }

    /// Prometheus text exposition of [`Self::metrics_snapshot`].
    pub fn render_metrics(&self) -> String {
        self.sync_cache_metrics();
        self.shared.obs.metrics.render_prometheus()
    }

    fn sync_cache_metrics(&self) {
        let stats = self.shared.cache.stats();
        let metrics = &self.shared.obs.metrics;
        metrics.gauge("cache.hits").set(stats.hits as i64);
        metrics.gauge("cache.misses").set(stats.misses as i64);
        metrics.gauge("cache.coalesced").set(stats.coalesced as i64);
        metrics.gauge("cache.entries").set(self.shared.cache.len() as i64);
        let traces = self.shared.traces.stats();
        metrics.gauge("trace.recorded").set(traces.recorded as i64);
        metrics.gauge("trace.reused").set(traces.reused as i64);
        metrics.gauge("trace.evicted").set(traces.evicted as i64);
        metrics.gauge("trace.entries").set(self.shared.traces.len() as i64);
    }

    /// Begins shutdown: queued jobs are cancelled (their waiters observe
    /// [`DseError::Cancelled`]), running jobs finish, and every further
    /// submission is rejected. Idempotent; [`Drop`] calls it and then
    /// joins the workers.
    pub fn shutdown(&self) {
        {
            let mut st = self.shared.state.lock().expect(STATE_POISONED);
            st.shutting_down = true;
            let queued: Vec<u64> = st
                .entries
                .iter()
                .filter(|(_, e)| e.status == JobStatus::Queued)
                .map(|(id, _)| *id)
                .collect();
            for id in queued {
                cancel_locked(&mut st, &self.shared, id);
            }
        }
        self.shared.work.notify_all();
        self.shared.done.notify_all();
    }
}

impl Drop for EvalService {
    fn drop(&mut self) {
        self.shutdown();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{evaluate_with_search, CacheKey};
    use cimflow_nn::Model;

    fn request(model: &str, strategy: Strategy) -> EvalRequest {
        EvalRequest::new(model, 32, strategy)
    }

    /// Holds the cache's in-flight marker for `(paper_default, model,
    /// strategy)` until `release` fires, so a service worker claiming the
    /// same point blocks deterministically inside the cache. The marker
    /// is guaranteed held before this returns (the closure signals from
    /// inside the cache): submitting the point afterwards cannot race
    /// the blocker, so a loaded test machine cannot see the worker win
    /// the key and finish the job instantly.
    fn block_point(
        cache: &EvalCache,
        model: Model,
        strategy: Strategy,
        release: mpsc::Receiver<()>,
    ) -> std::thread::JoinHandle<()> {
        let cache = cache.clone();
        let (entered_tx, entered_rx) = mpsc::channel();
        let handle = std::thread::spawn(move || {
            let arch = ArchConfig::paper_default();
            let key = CacheKey::of(&arch, &model, strategy, SearchMode::Sequential);
            cache
                .get_or_insert_with(key, || {
                    entered_tx.send(()).expect("entered signal");
                    release.recv().expect("release signal");
                    evaluate_with_search(&arch, &model, strategy, SearchMode::Sequential)
                })
                .expect("blocked evaluation succeeds");
        });
        entered_rx.recv().expect("blocker holds the in-flight marker");
        handle
    }

    fn wait_until(what: &str, predicate: impl Fn() -> bool) {
        for _ in 0..1000 {
            if predicate() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        panic!("timed out waiting until {what}");
    }

    #[test]
    fn submit_wait_round_trip() {
        let service = EvalService::new(ServiceConfig::new().with_workers(2));
        let handle = service
            .submit(request("mobilenetv2", Strategy::GenericMapping).with_tenant("t0"))
            .expect("admitted");
        let outcome = handle.wait();
        assert!(outcome.result.is_ok());
        assert!(!outcome.cached);
        assert_eq!(handle.status(), JobStatus::Done);
        assert_eq!(handle.poll().expect("terminal").point, outcome.point);
        let stats = service.stats();
        assert_eq!((stats.submitted, stats.completed), (1, 1));
        assert_eq!((stats.queued, stats.running), (0, 0));
    }

    #[test]
    fn timing_only_sweeps_record_once_and_replay_bit_exactly() {
        let spec = SweepSpec::new()
            .with_model("mobilenetv2", 32)
            .with_strategies(&[Strategy::GenericMapping])
            .with_frequencies_mhz(&[500, 1000])
            .with_memory_ports(&[0, 27]);
        let service = EvalService::new(ServiceConfig::new().with_workers(2));
        let outcomes = service.submit_sweep(&spec).expect("admitted").wait();
        assert_eq!(outcomes.len(), 4);
        // One trace group of four points: one recording, three replays.
        let replayed = outcomes
            .iter()
            .filter(|o| o.result.as_ref().is_ok_and(|e| e.eval_path.is_replayed()))
            .count();
        assert_eq!(replayed, 3);
        assert_eq!(service.trace_store().len(), 1);
        assert_eq!(service.trace_store().stats().recorded, 1);
        // Every replayed point is bit-exact against a fresh compile +
        // simulation of the same retimed architecture.
        let base = spec.base_arch();
        for outcome in &outcomes {
            let evaluation = outcome.result.as_ref().expect("sweep point succeeds");
            let fresh = crate::evaluate_with_search(
                &outcome.point.arch(&base),
                &models::mobilenet_v2(32),
                Strategy::GenericMapping,
                SearchMode::Sequential,
            )
            .expect("fresh evaluation succeeds");
            assert_eq!(evaluation.simulation, fresh.simulation);
            assert_eq!(evaluation.compilation, fresh.compilation);
        }
        // The replay counters landed on the wire surface.
        let prom = service.render_metrics();
        assert!(prom.contains("sim_replay_points 3"), "missing replay counter in:\n{prom}");
        assert!(prom.contains("trace_entries 1"), "missing trace gauge in:\n{prom}");
        // A sweep without timing-only groups (every point its own trace
        // key) stays on the plain path: no recording overhead.
        let plain = SweepSpec::new()
            .with_model("resnet18", 32)
            .with_strategies(&[Strategy::GenericMapping, Strategy::DpOptimized]);
        let outcomes = service.submit_sweep(&plain).expect("admitted").wait();
        assert!(outcomes
            .iter()
            .all(|o| o.result.as_ref().is_ok_and(|e| e.eval_path == crate::EvalPath::Interpreted)));
        assert_eq!(service.trace_store().len(), 1, "singleton groups never record");
    }

    #[test]
    fn grouped_claims_replay_through_one_lockstep_batch() {
        let spec = SweepSpec::new()
            .with_model("mobilenetv2", 32)
            .with_strategies(&[Strategy::GenericMapping])
            .with_frequencies_mhz(&[250, 500, 1000])
            .with_memory_ports(&[0, 27]);
        let service = EvalService::new(ServiceConfig::new().with_workers(1));
        let outcomes = service.submit_sweep(&spec).expect("admitted").wait();
        assert_eq!(outcomes.len(), 6);
        assert!(outcomes.iter().all(|o| o.result.is_ok()));
        // The single worker drains the whole trace group in one claim:
        // the first member records, the other five re-time through one
        // lockstep batch whose frequency-sharing lanes collapse onto the
        // two distinct memory-port configurations.
        let replayed = outcomes
            .iter()
            .filter(|o| o.result.as_ref().is_ok_and(|e| e.eval_path.is_replayed()))
            .count();
        assert_eq!(replayed, 5);
        let prom = service.render_metrics();
        assert!(prom.contains("sim_lockstep_batches 1"), "missing batch counter in:\n{prom}");
        assert!(prom.contains("sim_lockstep_lanes 2"), "missing lane counter in:\n{prom}");
        assert!(prom.contains("sim_lockstep_fallbacks 0"), "missing fallback counter in:\n{prom}");
        assert!(prom.contains("sim_replay_points 5"), "missing replay counter in:\n{prom}");
    }

    #[test]
    fn one_member_claims_run_under_an_eval_span_with_their_queue_wait() {
        // One more timing-only point than a claim takes: the single
        // worker claims the trace group as 32 points, then 1.
        let frequencies: Vec<u32> = (0..=GROUP_CLAIM_MAX as u32).map(|i| 100 + 25 * i).collect();
        let spec = SweepSpec::new()
            .with_model("mobilenetv2", 32)
            .with_strategies(&[Strategy::GenericMapping])
            .with_frequencies_mhz(&frequencies);
        let tracer = Tracer::new(4096);
        let service =
            EvalService::new(ServiceConfig::new().with_workers(1).with_tracer(tracer.clone()));
        let outcomes = service.submit_sweep(&spec).expect("admitted").wait();
        assert!(outcomes.iter().all(|o| o.result.is_ok()));
        // The claims' spans (the submission's `admit` span is not a claim).
        let spans: Vec<_> = tracer
            .events()
            .into_iter()
            .filter(|e| e.category == "service" && e.name != "admit")
            .collect();
        let names: Vec<&str> = spans.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["replay", "eval"]);
        let has =
            |span: &cimflow_obs::TraceEvent, key: &str| span.attrs.iter().any(|(k, _)| k == key);
        assert!(has(&spans[0], "points") && !has(&spans[0], "queue_wait_us"));
        assert!(has(&spans[1], "queue_wait_us") && has(&spans[1], "cached"));
    }

    #[test]
    fn a_fresh_timing_only_sweep_counts_one_miss_per_point() {
        let spec = SweepSpec::new()
            .with_model("mobilenetv2", 32)
            .with_strategies(&[Strategy::GenericMapping])
            .with_frequencies_mhz(&[500, 1000])
            .with_memory_ports(&[0, 27]);
        let service = EvalService::new(ServiceConfig::new().with_workers(1));
        let outcomes = service.submit_sweep(&spec).expect("admitted").wait();
        assert!(outcomes.iter().all(|o| o.result.is_ok() && !o.cached));
        let stats = service.cache().stats();
        assert_eq!((stats.misses, stats.hits), (4, 0), "one lookup per point");
    }

    #[test]
    fn invalid_group_members_fail_alone_with_the_solo_error() {
        let spec = SweepSpec::new()
            .with_model("mobilenetv2", 32)
            .with_strategies(&[Strategy::GenericMapping])
            .with_frequencies_mhz(&[0, 500, 1000])
            .with_memory_ports(&[0, 64]);
        let service = EvalService::new(ServiceConfig::new().with_workers(1));
        let outcomes = service.submit_sweep(&spec).expect("admitted").wait();
        assert_eq!(outcomes.len(), 6);
        let solo = EvalService::new(ServiceConfig::new().with_workers(1));
        let mut paths = Vec::new();
        for outcome in &outcomes {
            match &outcome.result {
                Ok(evaluation) => paths.push(evaluation.eval_path),
                Err(error) => {
                    let base = ArchConfig::paper_default()
                        .with_frequency_mhz(outcome.point.frequency_mhz as u32)
                        .with_memory_port(outcome.point.memory_port as u32);
                    let alone = solo
                        .submit(request("mobilenetv2", Strategy::GenericMapping).with_base(base))
                        .expect("admitted")
                        .wait();
                    let alone = alone.result.expect_err("the point is invalid on its own too");
                    assert!(error.to_string().starts_with("architecture error"), "{error}");
                    assert_eq!(error.to_string(), alone.to_string());
                }
            }
        }
        assert_eq!(paths, [crate::EvalPath::Interpreted, crate::EvalPath::Replayed]);
        assert_eq!(service.trace_store().stats().recorded, 1);
        assert_eq!(service.cache().stats().misses, 6, "one lookup per point");
    }

    #[test]
    fn a_group_whose_first_member_is_cached_records_once() {
        let service = EvalService::new(ServiceConfig::new().with_workers(1));
        let warm = service.submit(request("mobilenetv2", Strategy::GenericMapping)).unwrap().wait();
        assert!(warm.result.is_ok());
        let spec = SweepSpec::new()
            .with_model("mobilenetv2", 32)
            .with_strategies(&[Strategy::GenericMapping])
            .with_frequencies_mhz(&[1000, 500, 250]);
        let outcomes = service.submit_sweep(&spec).expect("admitted").wait();
        assert_eq!(outcomes.iter().map(|o| o.cached).collect::<Vec<_>>(), [true, false, false]);
        let paths: Vec<_> = outcomes[1..]
            .iter()
            .map(|o| o.result.as_ref().expect("timing-only point succeeds").eval_path)
            .collect();
        assert_eq!(paths, [crate::EvalPath::Interpreted, crate::EvalPath::Replayed]);
        assert_eq!(service.trace_store().stats().recorded, 1);
        let stats = service.cache().stats();
        assert_eq!((stats.misses, stats.hits), (3, 1));
    }

    #[test]
    fn rate_ladder_rungs_form_one_trace_group() {
        let rates = [200, 400, 800];
        let spec = SweepSpec::new()
            .with_model("mobilenetv2", 32)
            .with_strategies(&[Strategy::GenericMapping])
            .with_traffic(crate::TrafficSpec::new(&rates));
        let service = EvalService::new(ServiceConfig::new().with_workers(1));
        let outcomes = service.submit_sweep(&spec).expect("admitted").wait();
        assert_eq!(outcomes.len(), rates.len());
        // The rungs share one trace: the first records, the rest replay,
        // and every rung carries a serving summary for its own rate.
        let paths: Vec<_> =
            outcomes.iter().map(|o| o.result.as_ref().expect("rung succeeds").eval_path).collect();
        assert_eq!(paths[0], crate::EvalPath::Interpreted);
        assert!(paths[1..].iter().all(|p| p.is_replayed()));
        assert_eq!(service.trace_store().stats().recorded, 1);
        for outcome in &outcomes {
            let evaluation = outcome.result.as_ref().expect("rung succeeds");
            let serving = evaluation.serving.as_ref().expect("rung has serving summary");
            assert_eq!(serving.offered_qps, outcome.point.offered_qps);
        }
        // Grouped serving matches per-point solo serving exactly.
        let solo = EvalService::new(ServiceConfig::new().with_workers(1));
        for outcome in &outcomes {
            let rung = solo
                .submit(
                    request("mobilenetv2", Strategy::GenericMapping)
                        .with_offered_qps(outcome.point.offered_qps),
                )
                .expect("admitted")
                .wait();
            let lhs = outcome.result.as_ref().expect("ladder rung");
            let rhs = rung.result.as_ref().expect("solo rung");
            assert_eq!(lhs.serving, rhs.serving);
            assert_eq!(lhs.simulation, rhs.simulation);
        }
    }

    #[test]
    fn unknown_models_fail_per_job_not_at_admission() {
        let service = EvalService::new(ServiceConfig::new().with_workers(1));
        let handle =
            service.submit(request("not-a-model", Strategy::DpOptimized)).expect("admitted");
        assert!(matches!(handle.wait().result, Err(DseError::UnknownModel { .. })));
    }

    #[test]
    fn workers_claim_by_priority_then_fifo() {
        let cache = EvalCache::new();
        let service = EvalService::with_cache(ServiceConfig::new().with_workers(1), cache.clone());
        // Occupy the single worker on a point whose evaluation is held
        // open through the cache's in-flight marker.
        let (go, release) = mpsc::channel();
        let blocker =
            block_point(&cache, models::mobilenet_v2(32), Strategy::GenericMapping, release);
        let running = service.submit(request("mobilenetv2", Strategy::GenericMapping)).unwrap();
        wait_until("the worker claims the blocked job", || running.status() == JobStatus::Running);
        // Also hold the low-priority point's key hostage, so a wrong
        // claim order would park the worker instead of racing the test.
        let (go_low, release_low) = mpsc::channel();
        let blocker_low =
            block_point(&cache, models::resnet18(32), Strategy::GenericMapping, release_low);
        let low = service
            .submit(request("resnet18", Strategy::GenericMapping).with_priority(Priority::Low))
            .unwrap();
        let high = service
            .submit(
                request("efficientnetb0", Strategy::GenericMapping).with_priority(Priority::High),
            )
            .unwrap();
        go.send(()).unwrap();
        // The high-priority job must finish even though the low one was
        // submitted first.
        high.wait_timeout(Duration::from_secs(30))
            .expect("high-priority job finishes while the low one is blocked");
        assert!(!low.status().is_terminal(), "low priority must not overtake high");
        go_low.send(()).unwrap();
        assert!(low.wait().result.is_ok());
        assert!(running.wait().result.is_ok());
        blocker.join().unwrap();
        blocker_low.join().unwrap();
    }

    #[test]
    fn bounded_queue_rejects_with_backpressure() {
        let cache = EvalCache::new();
        let service = EvalService::with_cache(
            ServiceConfig::new().with_workers(1).with_queue_capacity(1),
            cache.clone(),
        );
        let (go, release) = mpsc::channel();
        let blocker =
            block_point(&cache, models::mobilenet_v2(32), Strategy::GenericMapping, release);
        let running = service.submit(request("mobilenetv2", Strategy::GenericMapping)).unwrap();
        wait_until("the worker claims the blocked job", || running.status() == JobStatus::Running);
        let queued = service.submit(request("resnet18", Strategy::GenericMapping)).unwrap();
        assert_eq!(
            service.submit(request("resnet18", Strategy::DpOptimized)).unwrap_err(),
            Rejected::QueueFull { capacity: 1 }
        );
        assert_eq!(service.stats().rejected, 1);
        go.send(()).unwrap();
        assert!(running.wait().result.is_ok());
        assert!(queued.wait().result.is_ok());
        // Capacity freed: the same submission is admitted now.
        assert!(service.submit(request("resnet18", Strategy::DpOptimized)).is_ok());
        blocker.join().unwrap();
    }

    #[test]
    fn quota_limits_one_tenant_while_others_flow() {
        let cache = EvalCache::new();
        let service = EvalService::with_cache(
            ServiceConfig::new().with_workers(1).with_tenant_quota(2),
            cache.clone(),
        );
        let (go, release) = mpsc::channel();
        let blocker =
            block_point(&cache, models::mobilenet_v2(32), Strategy::GenericMapping, release);
        let a1 = service
            .submit(request("mobilenetv2", Strategy::GenericMapping).with_tenant("a"))
            .unwrap();
        wait_until("the worker claims tenant a's job", || a1.status() == JobStatus::Running);
        let a2 =
            service.submit(request("resnet18", Strategy::GenericMapping).with_tenant("a")).unwrap();
        // Tenant `a` is at its quota (1 running + 1 queued): backpressure.
        assert_eq!(
            service
                .submit(request("resnet18", Strategy::DpOptimized).with_tenant("a"))
                .unwrap_err(),
            Rejected::QuotaExceeded { tenant: "a".to_owned(), quota: 2 }
        );
        // ...while tenant `b` keeps flowing.
        let b1 = service
            .submit(request("efficientnetb0", Strategy::GenericMapping).with_tenant("b"))
            .unwrap();
        go.send(()).unwrap();
        assert!(a1.wait().result.is_ok());
        assert!(a2.wait().result.is_ok());
        assert!(b1.wait().result.is_ok());
        // Quota released on completion: tenant `a` is admitted again.
        assert!(service
            .submit(request("resnet18", Strategy::DpOptimized).with_tenant("a"))
            .is_ok());
        blocker.join().unwrap();
    }

    #[test]
    fn wait_timeout_expires_on_live_jobs_and_resolves_on_terminal_ones() {
        let cache = EvalCache::new();
        let service = EvalService::with_cache(ServiceConfig::new().with_workers(1), cache.clone());
        let (go, release) = mpsc::channel();
        let blocker =
            block_point(&cache, models::mobilenet_v2(32), Strategy::GenericMapping, release);
        let running = service.submit(request("mobilenetv2", Strategy::GenericMapping)).unwrap();
        // A batch over the same (blocked) design point wedges with it.
        let batch = service
            .submit_sweep(
                &SweepSpec::new()
                    .with_model("mobilenetv2", 32)
                    .with_strategies(&[Strategy::GenericMapping]),
            )
            .unwrap();
        wait_until("the worker claims the blocked job", || running.status() == JobStatus::Running);

        let started = std::time::Instant::now();
        assert!(running.wait_timeout(Duration::from_millis(60)).is_none());
        assert!(batch.wait_timeout(Duration::from_millis(60)).is_none());
        let waited = started.elapsed();
        assert!(waited >= Duration::from_millis(120), "both deadlines elapsed: {waited:?}");
        assert_eq!(running.status(), JobStatus::Running, "expiry does not consume the job");

        go.send(()).unwrap();
        let outcome = running.wait_timeout(Duration::from_secs(60)).expect("released job lands");
        assert!(outcome.result.is_ok());
        // The batch resolves too, and its progress stream is intact for
        // the regular wait path.
        assert!(batch.wait_timeout(Duration::from_secs(60)).is_some());
        let mut events = 0;
        let outcomes = batch.wait_with(|_| events += 1);
        assert_eq!(outcomes.len(), 1);
        assert_eq!(events, 1, "expired waits leave progress events undrained");
        blocker.join().unwrap();
    }

    #[test]
    fn cancellation_does_not_poison_result_slots() {
        let cache = EvalCache::new();
        let service = EvalService::with_cache(ServiceConfig::new().with_workers(1), cache.clone());
        let (go, release) = mpsc::channel();
        let blocker =
            block_point(&cache, models::mobilenet_v2(32), Strategy::GenericMapping, release);
        let running = service.submit(request("mobilenetv2", Strategy::GenericMapping)).unwrap();
        wait_until("the worker claims the blocked job", || running.status() == JobStatus::Running);
        let doomed = service.submit(request("resnet18", Strategy::GenericMapping)).unwrap();
        assert!(doomed.cancel(), "a queued job is cancellable");
        assert!(!doomed.cancel(), "cancellation is idempotent");
        assert_eq!(doomed.status(), JobStatus::Cancelled);
        assert!(matches!(doomed.wait().result, Err(DseError::Cancelled)));
        assert!(!running.cancel(), "a running job is not cancellable");
        go.send(()).unwrap();
        assert!(running.wait().result.is_ok());
        // The service keeps serving after a cancellation.
        let next = service.submit(request("resnet18", Strategy::GenericMapping)).unwrap();
        assert!(next.wait().result.is_ok());
        assert_eq!(service.stats().cancelled, 1);
        blocker.join().unwrap();
    }

    #[test]
    fn batches_keep_grid_order_and_share_the_cache() {
        let spec = SweepSpec::new()
            .with_model("mobilenetv2", 32)
            .with_strategies(&[Strategy::GenericMapping])
            .with_mg_sizes(&[4, 8]);
        let service = EvalService::new(ServiceConfig::new().with_workers(4));
        let first = service.submit_sweep(&spec).expect("valid spec");
        let second = service.submit_sweep(&spec).expect("valid spec");
        let (a, b) = (first.wait(), second.wait());
        assert_eq!(a.len(), 2);
        assert_eq!(a.iter().map(|o| o.point.mg_size).collect::<Vec<_>>(), vec![4, 8]);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.point, y.point);
        }
        // Duplicate in-flight/warm points coalesce onto one evaluation.
        let stats = service.cache().stats();
        assert_eq!(stats.misses, 2, "two unique points evaluate once each");
        assert_eq!(stats.hits, 2, "the duplicate sweep is served by the cache");
        assert_eq!(service.submit_sweep(&SweepSpec::new()).unwrap_err().kind(), "invalid_spec");
    }

    #[test]
    fn shutdown_cancels_queued_work_and_rejects_new_submissions() {
        let cache = EvalCache::new();
        let service = EvalService::with_cache(ServiceConfig::new().with_workers(1), cache.clone());
        let (go, release) = mpsc::channel();
        let blocker =
            block_point(&cache, models::mobilenet_v2(32), Strategy::GenericMapping, release);
        let running = service.submit(request("mobilenetv2", Strategy::GenericMapping)).unwrap();
        wait_until("the worker claims the blocked job", || running.status() == JobStatus::Running);
        let queued = service.submit(request("resnet18", Strategy::GenericMapping)).unwrap();
        service.shutdown();
        assert!(matches!(queued.wait().result, Err(DseError::Cancelled)));
        assert_eq!(
            service.submit(request("resnet18", Strategy::GenericMapping)).unwrap_err(),
            Rejected::ShuttingDown
        );
        go.send(()).unwrap();
        assert!(running.wait().result.is_ok(), "running jobs finish through shutdown");
        blocker.join().unwrap();
        drop(service);
    }

    #[test]
    fn journaled_batches_resume_from_and_append_to_the_journal() {
        let dir = std::env::temp_dir().join("cimflow-dse-service-journal-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("submit.jsonl");
        std::fs::remove_file(&path).ok();
        let journaled = |journal: &Arc<SweepJournal>, strategy: Strategy| Submission {
            jobs: vec![request("mobilenetv2", strategy).to_job()],
            journal: Some(Arc::clone(journal)),
            ..Submission::default()
        };

        let journal = Arc::new(SweepJournal::open(&path).unwrap());
        let service = EvalService::new(ServiceConfig::new().with_workers(1));
        let cold =
            service.submit_batch(journaled(&journal, Strategy::GenericMapping)).expect("admitted");
        let outcome = cold.wait().pop().unwrap();
        assert!(outcome.result.is_ok());
        assert!(!outcome.cached, "first run evaluates");
        assert_eq!(journal.len(), 1, "the worker journaled the point");
        drop(service);

        // A fresh service with a cold cache resumes the point from the
        // journal: born terminal, zero evaluations, cache seeded.
        let journal = Arc::new(SweepJournal::open(&path).unwrap());
        let service = EvalService::new(ServiceConfig::new().with_workers(1));
        let warm =
            service.submit_batch(journaled(&journal, Strategy::GenericMapping)).expect("admitted");
        assert_eq!(warm.resumed(), 1, "journaled points are born terminal");
        assert!(warm.is_done());
        assert!(warm.wait().pop().unwrap().cached);
        assert_eq!(service.cache().len(), 1, "resumption seeds the shared cache");
        assert_eq!(service.cache().stats().misses, 0);
        // A different point still runs (and is journaled in turn).
        let fresh =
            service.submit_batch(journaled(&journal, Strategy::DpOptimized)).expect("admitted");
        assert!(fresh.wait().pop().unwrap().result.is_ok());
        assert_eq!(journal.len(), 2);
        std::fs::remove_file(&path).ok();
    }

    fn mg_sweep() -> SweepSpec {
        SweepSpec::new()
            .with_model("mobilenetv2", 32)
            .with_strategies(&[Strategy::GenericMapping])
            .with_mg_sizes(&[4, 8])
    }

    #[test]
    fn a_finished_sweep_resubmitted_behind_a_held_worker_completes_at_admission() {
        let cache = EvalCache::new();
        let service = EvalService::with_cache(ServiceConfig::new().with_workers(1), cache.clone());
        let cold = service.submit_sweep(&mg_sweep()).expect("admitted").wait();
        assert!(cold.iter().all(|o| o.result.is_ok() && !o.cached));
        // Hold the only worker on another point.
        let (go, release) = mpsc::channel();
        let blocker = block_point(&cache, models::resnet18(32), Strategy::GenericMapping, release);
        let running = service.submit(request("resnet18", Strategy::GenericMapping)).unwrap();
        wait_until("the worker claims the blocked job", || running.status() == JobStatus::Running);

        let warm = service.submit_sweep(&mg_sweep()).expect("admitted");
        assert_eq!(service.stats().queued, 0, "no point reached the queue");
        assert_eq!(warm.resumed(), 0, "no journal resumed them");
        let outcomes = warm.wait_timeout(Duration::ZERO).expect("terminal at admission");
        assert!(outcomes.iter().all(|o| o.cached && o.result.is_ok()));
        for (warm, cold) in outcomes.iter().zip(&cold) {
            let (warm, cold) = (warm.evaluation().unwrap(), cold.evaluation().unwrap());
            assert_eq!(warm.simulation, cold.simulation);
        }
        go.send(()).unwrap();
        assert!(running.wait().result.is_ok());
        blocker.join().unwrap();
    }

    #[test]
    fn a_batch_of_cached_and_new_points_queues_only_the_new_ones() {
        let cache = EvalCache::new();
        let service = EvalService::with_cache(ServiceConfig::new().with_workers(1), cache.clone());
        assert!(service.submit_sweep(&mg_sweep()).unwrap().wait().iter().all(|o| !o.cached));
        let (go, release) = mpsc::channel();
        let blocker = block_point(&cache, models::resnet18(32), Strategy::GenericMapping, release);
        let running = service.submit(request("resnet18", Strategy::GenericMapping)).unwrap();
        wait_until("the worker claims the blocked job", || running.status() == JobStatus::Running);

        // Flit 8 is the base: points 0 and 1 are cached, 2 and 3 new.
        let before = cache.stats();
        let mixed = service.submit_sweep(&mg_sweep().with_flit_sizes(&[8, 16])).unwrap();
        assert_eq!(service.stats().queued, 2, "only the new points queue");
        let admitted = cache.stats();
        assert_eq!((admitted.hits - before.hits, admitted.misses - before.misses), (2, 0));
        // The queued points take their ids first, the hits after them.
        let ids = mixed.ids();
        assert!(ids[2] < ids[3] && ids[3] < ids[0] && ids[0] < ids[1], "{ids:?}");

        go.send(()).unwrap();
        let outcomes = mixed.wait();
        assert_eq!(
            outcomes.iter().map(|o| o.cached).collect::<Vec<_>>(),
            [true, true, false, false]
        );
        assert!(running.wait().result.is_ok());
        blocker.join().unwrap();
        // One lookup a point: the two new points missed in their workers.
        // (The blocked job's own lookup coalesced onto the blocker.)
        let after = cache.stats();
        assert_eq!(after.misses - before.misses, 2);
        assert_eq!((after.hits - before.hits) - (after.coalesced - before.coalesced), 2);
    }

    #[test]
    fn journaled_batches_append_their_admission_hits() {
        let dir = std::env::temp_dir().join("cimflow-dse-service-admission-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("hits.jsonl");
        std::fs::remove_file(&path).ok();
        let journaled = |journal: &Arc<SweepJournal>, spec: &SweepSpec| Submission {
            jobs: crate::expand_jobs(spec).unwrap(),
            journal: Some(Arc::clone(journal)),
            ..Submission::default()
        };

        // Two points the cache holds and the journal does not.
        let service = EvalService::new(ServiceConfig::new().with_workers(1));
        service.submit_sweep(&mg_sweep()).unwrap().wait();
        let journal = Arc::new(SweepJournal::open(&path).unwrap());
        let hits = service.submit_batch(journaled(&journal, &mg_sweep())).unwrap();
        assert_eq!(hits.resumed(), 0, "admission hits are not journal-born");
        assert!(hits.wait().iter().all(|o| o.cached));
        assert_eq!(journal.len(), 2, "both hits were appended");
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().skip(1).collect();
        assert_eq!(lines.len(), 2);
        assert!(lines.iter().all(|line| line.contains("\"cached\":true")), "{text}");
        drop(service);

        // A fresh cache holding two other points, and the reopened
        // journal: two points resume, two are admission hits.
        let journal = Arc::new(SweepJournal::open(&path).unwrap());
        let service = EvalService::new(ServiceConfig::new().with_workers(1));
        service.submit_sweep(&mg_sweep().with_flit_sizes(&[16])).unwrap().wait();
        let before = service.cache().stats();
        let both = journaled(&journal, &mg_sweep().with_flit_sizes(&[8, 16]));
        let batch = service.submit_batch(both).unwrap();
        assert_eq!(batch.resumed(), 2, "only journal-born points count as resumed");
        assert!(batch.is_done());
        assert!(batch.wait().iter().all(|o| o.cached));
        let after = service.cache().stats();
        assert_eq!((after.hits - before.hits, after.misses - before.misses), (2, 0));
        assert_eq!(journal.len(), 4, "the new hits were appended too");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn traffic_jobs_fingerprint_every_rate_like_traffic_fingerprint() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../sweeps/traffic.json");
        let spec = SweepSpec::from_json(&std::fs::read_to_string(path).unwrap()).unwrap();
        let rates = &spec.traffic.as_ref().expect("a traffic sweep").offered_qps;
        let jobs = crate::expand_jobs(&spec).unwrap();
        assert!(!jobs.is_empty());
        for job in &jobs {
            let traffic = job.traffic.as_ref().expect("every point serves");
            for &rate in rates {
                let reference =
                    crate::traffic_fingerprint(rate, &traffic.workload, &traffic.colocated);
                assert_eq!(traffic.fingerprint(rate), reference, "{}", job.spec.label());
            }
            let key = job.cache_key().expect("resolved model");
            assert_eq!(key.traffic, traffic.fingerprint(job.spec.offered_qps));
        }
    }

    #[test]
    fn each_submission_records_one_admit_span() {
        use cimflow_obs::AttrValue;

        let tracer = Tracer::new(1024);
        let service =
            EvalService::new(ServiceConfig::new().with_workers(1).with_tracer(tracer.clone()));
        service.submit_sweep(&mg_sweep()).unwrap().wait();
        service.submit_sweep(&mg_sweep()).unwrap().wait();
        let events = tracer.events();
        let admits: Vec<_> = events.iter().filter(|e| e.name == "admit").collect();
        assert_eq!(admits.len(), 2, "one span per submission");
        for (span, hits) in admits.iter().zip([0, 2]) {
            let attr = |key: &str| span.attrs.iter().find(|(k, _)| k == key).map(|(_, v)| v);
            assert_eq!(span.category, "service");
            assert_eq!(span.track, thread_track(), "recorded on the submitting thread");
            assert_eq!(attr("points"), Some(&AttrValue::U64(2)));
            assert_eq!(attr("hits"), Some(&AttrValue::U64(hits)));
            assert_eq!(attr("resumed"), Some(&AttrValue::U64(0)));
        }
        // The warm sweep reached no worker: the cold one's two claims
        // are the only `eval` spans.
        assert_eq!(events.iter().filter(|e| e.name == "eval").count(), 2);
    }

    #[test]
    fn eval_request_resolves_like_a_sweep_point() {
        let request = request("mobilenetv2", Strategy::DpOptimized)
            .with_chip_count(2)
            .with_mg_size(4)
            .with_flit_bytes(16);
        let point = request.point();
        assert_eq!((point.chip_count, point.mg_size, point.flit_bytes), (2, 4, 16));
        assert_eq!(point.core_count, 64, "unset axes pin to the base architecture");
        let arch = point.arch(&request.base_arch());
        assert_eq!(arch.chip_count(), 2);
        assert_eq!(arch.core.cim_unit.macros_per_group, 4);
        // Round-trips through the wire format, including the defaults.
        let back: EvalRequest =
            serde_json::from_str(&serde_json::to_string(&request).unwrap()).unwrap();
        assert_eq!(back, request);
        let partial: EvalRequest = serde_json::from_str(
            "{\"model\": {\"name\": \"resnet18\", \"resolution\": 32}, \"strategy\": \"dp\", \
             \"priority\": \"high\", \"tenant\": \"t\"}",
        )
        .unwrap();
        assert_eq!(partial.priority(), Priority::High);
        assert_eq!(partial.tenant(), "t");
        assert_eq!(partial.point().mg_size, 8);
        assert_eq!(partial.point().search, SearchMode::Sequential, "the wire default");
        let joint: EvalRequest = serde_json::from_str(
            "{\"model\": {\"name\": \"resnet18\", \"resolution\": 32}, \"strategy\": \"dp\", \
             \"search\": \"joint\"}",
        )
        .unwrap();
        assert_eq!(joint.point().search, SearchMode::Joint);
    }

    #[test]
    fn service_stats_snapshots_never_tear() {
        use std::sync::atomic::AtomicBool;

        // Four reader threads hammer `stats()` while a worker pool churns
        // through submissions and cancellations; every snapshot must
        // satisfy the documented conservation invariant.
        let service = Arc::new(EvalService::new(ServiceConfig::new().with_workers(2)));
        let stop = Arc::new(AtomicBool::new(false));
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let service = Arc::clone(&service);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut snapshots = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let s = service.stats();
                        assert_eq!(
                            s.submitted,
                            s.completed + s.cancelled + s.queued as u64 + s.running as u64,
                            "torn snapshot: {s:?}"
                        );
                        snapshots += 1;
                    }
                    snapshots
                })
            })
            .collect();
        let mut handles = Vec::new();
        for round in 0..20 {
            let model = if round % 2 == 0 { "mobilenetv2" } else { "resnet18" };
            let handle = service.submit(request(model, Strategy::GenericMapping)).unwrap();
            if round % 3 == 0 {
                handle.cancel();
            }
            handles.push(handle);
        }
        for handle in &handles {
            let _ = handle.wait();
        }
        stop.store(true, Ordering::Relaxed);
        for reader in readers {
            assert!(reader.join().unwrap() > 0, "readers actually observed snapshots");
        }
        let s = service.stats();
        assert_eq!(s.submitted, 20);
        assert_eq!(s.completed + s.cancelled, 20);
        assert_eq!((s.queued, s.running), (0, 0));
    }

    #[test]
    fn service_metrics_cover_the_job_lifecycle() {
        use cimflow_obs::MetricValue;

        let registry = MetricsRegistry::new();
        let tracer = Tracer::new(1024);
        let cache = EvalCache::new();
        let service = EvalService::with_cache(
            ServiceConfig::new()
                .with_workers(1)
                .with_queue_capacity(1)
                .with_metrics(registry.clone())
                .with_tracer(tracer.clone()),
            cache.clone(),
        );

        // One evaluated job, one cache-served repeat, one admission
        // rejection while the queue is full.
        let (go, release) = mpsc::channel();
        let blocker =
            block_point(&cache, models::mobilenet_v2(32), Strategy::GenericMapping, release);
        let running = service
            .submit(request("mobilenetv2", Strategy::GenericMapping).with_tenant("t0"))
            .unwrap();
        wait_until("the worker claims the blocked job", || running.status() == JobStatus::Running);
        let queued = service
            .submit(request("mobilenetv2", Strategy::GenericMapping).with_tenant("t0"))
            .unwrap();
        assert_eq!(service.tenants_in_flight(), vec![("t0".to_owned(), 2)]);
        assert_eq!(
            service
                .submit(request("resnet18", Strategy::GenericMapping).with_tenant("t1"))
                .unwrap_err()
                .kind(),
            "queue_full"
        );
        go.send(()).unwrap();
        assert!(running.wait().result.is_ok());
        assert!(queued.wait().result.is_ok());
        blocker.join().unwrap();

        let snapshot = service.metrics_snapshot();
        assert_eq!(snapshot.get("service.evals_completed", &[]), Some(&MetricValue::Counter(2)));
        assert_eq!(
            snapshot.get("service.admission_rejected", &[("cause", "queue_full")]),
            Some(&MetricValue::Counter(1))
        );
        match snapshot.get("service.eval_latency_us", &[("tenant", "t0")]) {
            Some(MetricValue::Histogram(h)) => assert_eq!(h.count, 2),
            other => panic!("eval latency histogram missing: {other:?}"),
        }
        match snapshot.get("service.queue_wait_us", &[("tenant", "t0"), ("priority", "normal")]) {
            Some(MetricValue::Histogram(h)) => {
                assert_eq!(h.count, 2);
                assert!(h.p99() >= h.p50());
            }
            other => panic!("queue wait histogram missing: {other:?}"),
        }
        // The cache counters are mirrored into the same snapshot: the
        // blocker's own lookup is the one miss, the blocked first job
        // coalesces onto it (a hit) and the repeat is a plain hit.
        assert_eq!(snapshot.get("cache.hits", &[]), Some(&MetricValue::Gauge(2)));
        assert_eq!(snapshot.get("cache.misses", &[]), Some(&MetricValue::Gauge(1)));
        assert_eq!(snapshot.get("cache.coalesced", &[]), Some(&MetricValue::Gauge(1)));
        // The exposition carries per-tenant quantiles for the wire smoke.
        let text = service.render_metrics();
        assert!(text.contains("service_evals_completed 2"));
        assert!(text.contains(
            "service_queue_wait_us{tenant=\"t0\",priority=\"normal\",quantile=\"0.99\"}"
        ));

        // The tracer holds one eval span per worker-run job, on the
        // worker's named track.
        let spans: Vec<_> = tracer.events().into_iter().filter(|e| e.name == "eval").collect();
        assert_eq!(spans.len(), 2);
        for span in &spans {
            assert_eq!(span.category, "service");
            assert!(span.attrs.iter().any(|(k, _)| k == "tenant"));
        }
        assert!(tracer.to_chrome_json().contains("worker-0"));
        drop(service);
    }

    #[test]
    fn unexpandable_sweeps_count_one_invalid_spec_refusal_each() {
        use cimflow_obs::MetricValue;

        let service = EvalService::new(ServiceConfig::new().with_workers(1));
        let no_models = SweepSpec::new().with_strategies(&[Strategy::DpOptimized]);
        // Four 100-value axes: 10^8 points, above the expansion cap.
        let axis: Vec<u32> = (1..=100).collect();
        let oversized = SweepSpec::new()
            .with_model("resnet18", 32)
            .with_strategies(&[Strategy::DpOptimized])
            .with_chip_counts(&axis)
            .with_core_counts(&axis)
            .with_flit_sizes(&axis)
            .with_frequencies_mhz(&axis);
        for (spec, refusals) in [(&no_models, 1), (&oversized, 2)] {
            assert_eq!(service.submit_sweep(spec).unwrap_err().kind(), "invalid_spec");
            assert_eq!(
                service
                    .metrics_snapshot()
                    .get("service.admission_rejected", &[("cause", "invalid_spec")]),
                Some(&MetricValue::Counter(refusals)),
                "one per refused sweep, not per point"
            );
        }
        // Neither grid reached admission.
        let stats = service.stats();
        assert_eq!((stats.submitted, stats.rejected), (0, 0));
    }

    #[test]
    fn unconfigured_services_still_count_into_a_private_registry() {
        let service = EvalService::new(ServiceConfig::new().with_workers(1));
        assert!(service.tracer().is_none(), "tracing is strictly opt-in");
        let handle = service.submit(request("mobilenetv2", Strategy::GenericMapping)).unwrap();
        assert!(handle.wait().result.is_ok());
        let text = service.render_metrics();
        assert!(text.contains("service_evals_completed 1"));
    }
}
