//! The traced run (`--trace 1`): the per-layer ledger of one workload.
//!
//! Three parts share the seed and therefore the inputs:
//!
//! 1. an untraced wire phase, the baseline for `ledger.overhead_ratio`;
//! 2. a traced wire phase — a `request` span per request on each client's
//!    track plus the service's own tracer (`ServiceConfig::with_tracer`) —
//!    whose process CPU per point is the total the layer shares divide;
//! 3. a decomposition pass that calls each layer's public functions itself,
//!    request by request in plan order and in the order the service uses
//!    them, with one span per call carrying the request id.
//!
//! Every layer call is tagged with the phase it belongs to on this
//! workload: `measured` (on the measured path — only these get a share and
//! count against `ledger.other_share`), `setup` (retime_ladder's
//! recording, warm_wire's cache load), or `off_path` (a layer the workload
//! never reaches, timed on the workload's own inputs: the work its path
//! avoids). A layer's `_us` metric is its time per point in the first of
//! those phases it ran in. Each layer function is called once per point,
//! so work the service repeats (it hashes a point's model more than once)
//! shows up in `ledger.other_share`, not in the layer's share. All spans
//! go to one in-memory tracer, written out as Chrome-trace JSON at the
//! end of the run.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use cimflow_arch::ArchConfig;
use cimflow_compiler::cost::CostModel;
use cimflow_compiler::{
    compile_with_options, partition, partition_chips, CompileOptions, CompileReport,
    CompiledProgram, CondensedGraph, SearchMode, Strategy,
};
use cimflow_dse::serve::{Connection, Request, Response, Target, WireMetric, WireOutcome};
use cimflow_dse::{CacheKey, DseOutcome, EvalCache, EvalPath, Evaluation, PointSpec, TraceKey};
use cimflow_nn::{models, Model};
use cimflow_obs::{AttrValue, Tracer};
use cimflow_sim::{LockstepStats, ReplayEngine, SimOptions, SimReport, SimTrace, Simulator};

use crate::gen::{self, Ask, Plan, Workload, CLIENTS, DESIGNS, LADDER_RESOLUTION, SETUP_FREQS};
use crate::golden::{self, Goldens};
use crate::setup::{self, Fixture};
use crate::{check, guards, wire, Metric, Report, RunDir};

/// Span ring capacity: far above what a traced run records, so the
/// `Tracer::dropped() == 0` guard only trips on a real overflow.
const TRACE_CAPACITY: usize = 1 << 20;

/// Where a layer call sits relative to the workload's measured path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Phase {
    Measured,
    Setup,
    OffPath,
}

impl Phase {
    fn name(self) -> &'static str {
        match self {
            Phase::Measured => "measured",
            Phase::Setup => "setup",
            Phase::OffPath => "off_path",
        }
    }
}

/// The timed layers, each a disjoint slice of a point's work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Layer {
    WireParse,
    WireRespond,
    NnBuild,
    CacheHash,
    CacheLookup,
    Condense,
    Closures,
    Partition,
    Lower,
    SimRun,
    SimRecord,
    Replay,
}

impl Layer {
    const ALL: [Layer; 12] = [
        Layer::WireParse,
        Layer::WireRespond,
        Layer::NnBuild,
        Layer::CacheHash,
        Layer::CacheLookup,
        Layer::Condense,
        Layer::Closures,
        Layer::Partition,
        Layer::Lower,
        Layer::SimRun,
        Layer::SimRecord,
        Layer::Replay,
    ];

    /// The layer's `_us` metric and its `_share` metric.
    fn names(self) -> (&'static str, &'static str) {
        match self {
            Layer::WireParse => ("wire.parse_us", "wire.parse_share"),
            Layer::WireRespond => ("wire.respond_us", "wire.respond_share"),
            Layer::NnBuild => ("nn.build_us", "nn.build_share"),
            Layer::CacheHash => ("cache.hash_us", "cache.hash_share"),
            Layer::CacheLookup => ("cache.lookup_us", "cache.lookup_share"),
            Layer::Condense => ("compiler.condense_us", "compiler.condense_share"),
            Layer::Closures => ("compiler.closures_us", "compiler.closures_share"),
            Layer::Partition => ("compiler.partition_us", "compiler.partition_share"),
            Layer::Lower => ("compiler.lower_us", "compiler.lower_share"),
            Layer::SimRun => ("sim.run_us", "sim.run_share"),
            Layer::SimRecord => ("sim.record_us", "sim.record_share"),
            Layer::Replay => ("replay.us_per_point", "replay.share"),
        }
    }

    /// The module the layer lives in (the span category).
    fn module(self) -> &'static str {
        match self {
            Layer::WireParse | Layer::WireRespond => "dse::serve",
            Layer::NnBuild => "nn::models",
            Layer::CacheHash | Layer::CacheLookup => "dse::cache",
            Layer::Condense | Layer::Closures | Layer::Partition | Layer::Lower => "compiler",
            Layer::SimRun | Layer::SimRecord => "sim::engine",
            Layer::Replay => "sim::replay",
        }
    }
}

/// Every per-layer metric a traced run reports, in report order, with its
/// unit.
fn metric_names() -> Vec<(&'static str, &'static str)> {
    let mut names: Vec<(&str, &str)> = Layer::ALL.iter().map(|l| (l.names().0, "us")).collect();
    names.extend([
        ("service.queue_wait_us_p50", "us"),
        ("service.eval_us_p50", "us"),
        ("cache.hit_ratio", "ratio"),
        ("cache.load_mb_per_s", "MB/s"),
        ("compiler.closures", "count"),
        ("compiler.instructions", "count"),
        ("sim.minst_per_s", "Minst/s"),
        ("replay.lanes_per_walk", "count"),
        ("replay.fallback_ratio", "ratio"),
        ("trace.reuse_ratio", "ratio"),
    ]);
    names.extend(Layer::ALL.iter().map(|l| (l.names().1, "share")));
    names.extend([
        ("service.queue_wait_share", "share"),
        ("service.eval_share", "share"),
        ("ledger.other_share", "share"),
        ("ledger.overhead_ratio", "ratio"),
    ]);
    names
}

/// One recorded design, as the decomposition replays it.
struct Recorded {
    model: Model,
    trace: SimTrace,
    report: CompileReport,
    stages: usize,
    mean_duplication: f64,
}

/// Time and points per (layer, phase), plus the layers' counts.
struct Ledger {
    tracer: Tracer,
    track: u64,
    /// Id the next spans carry (`r<i>` for request `i`).
    request: String,
    time: BTreeMap<(Layer, Phase), (Duration, usize)>,
    /// Points the measured path decomposed.
    measured_points: usize,
    /// DP compiles and the dependency closures they enumerated.
    closures: (u64, u64),
    /// Compiles and the instructions they emitted.
    instructions: (u64, u64),
    /// Simulated dynamic instructions of the timed `Simulator::run` calls.
    simulated: u64,
    lockstep: LockstepStats,
    /// Fixture bytes and the `EvalCache::load` time (warm_wire).
    load: Option<(u64, Duration)>,
    /// Decomposed outcomes that missed their golden.
    failed: usize,
}

impl Ledger {
    fn new(tracer: &Tracer) -> Self {
        let track = cimflow_obs::new_track();
        tracer.set_track_name(track, "decomposition");
        Ledger {
            tracer: tracer.clone(),
            track,
            request: String::new(),
            time: BTreeMap::new(),
            measured_points: 0,
            closures: (0, 0),
            instructions: (0, 0),
            simulated: 0,
            lockstep: LockstepStats::default(),
            load: None,
            failed: 0,
        }
    }

    /// Records a span on the decomposition track.
    fn span(&self, name: &str, category: &str, start: u64, elapsed: Duration, phase: Phase) {
        self.tracer.complete(
            name,
            category,
            self.track,
            start,
            u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX),
            vec![
                ("request".to_owned(), AttrValue::Str(self.request.clone())),
                ("phase".to_owned(), AttrValue::Str(phase.name().to_owned())),
            ],
        );
    }

    /// Books `elapsed` (which began at trace time `start`) as `points`
    /// points' worth of `layer` in `phase`.
    fn add(&mut self, layer: Layer, phase: Phase, points: usize, start: u64, elapsed: Duration) {
        let slot = self.time.entry((layer, phase)).or_default();
        slot.0 += elapsed;
        slot.1 += points;
        self.span(layer.names().0, layer.module(), start, elapsed, phase);
    }

    /// Times `call` as `points` points' worth of `layer` in `phase`.
    fn time<T>(
        &mut self,
        layer: Layer,
        phase: Phase,
        points: usize,
        call: impl FnOnce() -> T,
    ) -> T {
        let (out, start, elapsed) = self.clock(call);
        self.add(layer, phase, points, start, elapsed);
        out
    }

    /// Runs `call`, returning its output, trace start time and duration.
    fn clock<T>(&self, call: impl FnOnce() -> T) -> (T, u64, Duration) {
        let start = self.tracer.now_us();
        let began = Instant::now();
        let out = std::hint::black_box(call());
        (out, start, began.elapsed())
    }

    /// Microseconds per point of `layer` in the first phase it ran in
    /// (per measured point on the measured path).
    fn us_per_point(&self, layer: Layer) -> f64 {
        if self.time.contains_key(&(layer, Phase::Measured)) {
            return self.measured_us_per_point(layer);
        }
        [Phase::Setup, Phase::OffPath]
            .iter()
            .find_map(|&phase| self.time.get(&(layer, phase)))
            .map_or(0.0, |(time, points)| time.as_secs_f64() * 1e6 / (*points).max(1) as f64)
    }

    /// Microseconds of `layer` on the measured path, per measured point.
    fn measured_us_per_point(&self, layer: Layer) -> f64 {
        self.time
            .get(&(layer, Phase::Measured))
            .map_or(0.0, |(time, _)| time.as_secs_f64() * 1e6 / self.measured_points.max(1) as f64)
    }

    /// Compiles one design point layer by layer: condense, dependency
    /// closures (DP only, per chip), partition (the strategy partition of
    /// the condensed graph, or on multi-chip points the chip split plus
    /// each chip's strategy partition, closures excluded), and the rest of
    /// `compile_with_options` as lowering.
    fn compile(
        &mut self,
        model: &Model,
        arch: &ArchConfig,
        strategy: Strategy,
        phase: Phase,
    ) -> CompiledProgram {
        // The capacity bound compile_with_options condenses with.
        let limit =
            u64::from(arch.chip().core_count) * arch.core.cim_unit.weight_capacity_bytes() * 3 / 4;
        let (condensed, start, condense) = self.clock(|| {
            CondensedGraph::from_graph_with_capacity(&model.graph, limit)
                .expect("benchmark models condense")
        });
        self.add(Layer::Condense, phase, 1, start, condense);

        // As in compile_with_options, only multi-chip points split the
        // condensed graph into per-chip subgraphs.
        let split = arch.chip_count() > 1;
        let (chips, start, partition_total) = self.clock(|| {
            let cost_model = CostModel::new(arch);
            let chips: Vec<CondensedGraph> = if split {
                let system = partition_chips(&condensed, &cost_model);
                (0..system.chip_count)
                    .map(|chip| condensed.chip_subgraph(&system.assignment, chip).0)
                    .filter(|subgraph| !subgraph.is_empty())
                    .collect()
            } else {
                Vec::new()
            };
            let graphs = if split { chips.iter().collect() } else { vec![&condensed] };
            for graph in graphs {
                std::hint::black_box(
                    partition::partition_with_strategy(graph, &cost_model, strategy)
                        .expect("benchmark points partition"),
                );
            }
            chips
        });
        let graphs: Vec<&CondensedGraph> =
            if split { chips.iter().collect() } else { vec![&condensed] };
        let mut closures = Duration::ZERO;
        if strategy == Strategy::DpOptimized {
            for chip in graphs {
                let (count, start, elapsed) =
                    self.clock(|| partition::dependency_closures(chip).len());
                self.closures.1 += count as u64;
                closures += elapsed;
                self.add(Layer::Closures, phase, 0, start, elapsed);
            }
            self.closures.0 += 1;
            self.time.entry((Layer::Closures, phase)).or_default().1 += 1;
        }
        // dp_partition enumerates the closures itself: partition's own
        // time leaves them out so the layers stay disjoint.
        self.add(Layer::Partition, phase, 1, start, partition_total.saturating_sub(closures));

        let (compiled, start, total) = self.clock(|| {
            compile_with_options(
                model,
                arch,
                CompileOptions {
                    strategy,
                    search: SearchMode::Sequential,
                    ..CompileOptions::default()
                },
            )
            .expect("benchmark points compile")
        });
        self.add(Layer::Lower, phase, 1, start, total.saturating_sub(condense + partition_total));
        self.instructions.0 += 1;
        self.instructions.1 += compiled.report.total_instructions as u64;
        compiled
    }

    /// Times `Simulator::run`, counting its simulated instructions.
    fn run(&mut self, compiled: &CompiledProgram, phase: Phase) -> SimReport {
        let report = self
            .time(Layer::SimRun, phase, 1, || Simulator::new(compiled).run())
            .expect("benchmark points simulate");
        self.simulated += report.total_dynamic_instructions();
        report
    }

    /// Times `ReplayEngine::new` plus one `replay_batch_stats` call.
    fn replay(&mut self, trace: &SimTrace, arches: &[ArchConfig], phase: Phase) -> Vec<SimReport> {
        let points: Vec<(ArchConfig, SimOptions)> =
            arches.iter().map(|arch| (*arch, SimOptions::default())).collect();
        let (reports, stats) = self.time(Layer::Replay, phase, arches.len(), || {
            ReplayEngine::new(trace).replay_batch_stats(&points)
        });
        self.lockstep.batches += stats.batches;
        self.lockstep.lanes += stats.lanes;
        self.lockstep.fallback_lanes += stats.fallback_lanes;
        reports.into_iter().map(|r| r.expect("benchmark points replay")).collect()
    }

    /// Parses a request line as the connection does.
    fn parse(&mut self, line: &str, points: usize) -> Request {
        self.time(Layer::WireParse, Phase::Measured, points, || {
            serde_json::from_str::<Request>(line).expect("generated lines parse")
        })
    }

    /// Serializes a request's two responses (acceptance, then result) as
    /// the connection does, and returns the result line.
    fn respond(&mut self, accepted: &Response, result: &Response, points: usize) -> String {
        self.time(Layer::WireRespond, Phase::Measured, points, || {
            std::hint::black_box(serde_json::to_string(accepted).expect("responses serialize"));
            serde_json::to_string(result).expect("responses serialize")
        })
    }

    /// Checks a decomposed result line against the goldens.
    fn verify(&mut self, goldens: &Goldens, ask: &Ask, line: &str) {
        let verdict = golden::verify(goldens, ask, line);
        if verdict.failed > 0 {
            eprintln!("wirebench: decomposed outcome off golden: {:?}", verdict.problem);
        }
        self.failed += verdict.failed;
    }

    /// Off the measured path: everything a cache miss would have cost on
    /// `point` (compile, run, record, replay).
    fn probe_cold(&mut self, point: &PointSpec) {
        let model = models::by_name(&point.model.name, point.model.resolution)
            .expect("benchmark models exist");
        let arch = point.arch(&ArchConfig::paper_default());
        let compiled = self.compile(&model, &arch, point.strategy, Phase::OffPath);
        self.run(&compiled, Phase::OffPath);
        self.record_replay(&compiled, &arch, Phase::OffPath);
    }

    /// Off the measured path: record `compiled` and replay it once.
    fn record_replay(&mut self, compiled: &CompiledProgram, arch: &ArchConfig, phase: Phase) {
        let (trace, _) = self
            .time(Layer::SimRecord, phase, 1, || Simulator::record(compiled))
            .expect("benchmark points record");
        self.replay(&trace, &[*arch], phase);
    }
}

fn evaluation(
    model: &Model,
    spec: &PointSpec,
    arch: &ArchConfig,
    compile: (&CompileReport, usize, f64),
    simulation: SimReport,
    eval_path: EvalPath,
) -> Evaluation {
    Evaluation {
        model: model.name.clone(),
        strategy: spec.strategy,
        search: spec.search,
        arch: *arch,
        compilation: compile.0.clone(),
        stages: compile.1,
        mean_duplication: compile.2,
        simulation,
        eval_path,
        serving: None,
    }
}

/// The plan's global requests in order, until `budget` has passed (at
/// least one).
fn requests(plan: &Plan, budget: Duration) -> impl Iterator<Item = (usize, gen::Generated)> + '_ {
    let began = Instant::now();
    (0..)
        .map_while(move |i| plan.request(i % CLIENTS, i / CLIENTS).map(|g| (i, g)))
        .take_while(move |(i, _)| *i == 0 || began.elapsed() < budget)
}

fn decompose_cold(ledger: &mut Ledger, plan: &Plan, budget: Duration, goldens: &Goldens) {
    let cache = EvalCache::new();
    for (i, generated) in requests(plan, budget) {
        ledger.request = format!("r{i}");
        let job = i as u64 + 1;
        let Request::Submit(request) = ledger.parse(&generated.line, 1) else {
            unreachable!("cold_points submits points")
        };
        let model = ledger
            .time(Layer::NnBuild, Phase::Measured, 1, || {
                models::by_name(&request.model.name, request.model.resolution)
            })
            .expect("benchmark models exist");
        let spec = request.point();
        let arch = spec.arch(&request.base_arch());
        let key = ledger.time(Layer::CacheHash, Phase::Measured, 1, || {
            CacheKey::of(&arch, &model, spec.strategy, spec.search)
        });
        let hit = ledger.time(Layer::CacheLookup, Phase::Measured, 1, || cache.get(&key));
        assert!(hit.is_none(), "cold points never repeat");
        let compiled = ledger.compile(&model, &arch, spec.strategy, Phase::Measured);
        let report = ledger.run(&compiled, Phase::Measured);
        ledger.record_replay(&compiled, &arch, Phase::OffPath);
        ledger.parse(&gen::wait_line(Target::Job(job)), 0);
        let compile =
            (&compiled.report, compiled.plan.stages.len(), compiled.plan.mean_duplication());
        let outcome = DseOutcome {
            result: Ok(evaluation(&model, &spec, &arch, compile, report, EvalPath::Interpreted)),
            point: spec,
            cached: false,
        };
        let line = ledger.respond(
            &Response::Accepted { job },
            &Response::Result(WireOutcome::of(job, &outcome)),
            1,
        );
        ledger.measured_points += 1;
        ledger.verify(goldens, &generated.ask, &line);
    }
}

fn decompose_ladder(ledger: &mut Ledger, plan: &Plan, budget: Duration, goldens: &Goldens) {
    let base = ArchConfig::paper_default();
    let mut recorded = Vec::with_capacity(DESIGNS.len());
    for (d, design) in DESIGNS.iter().enumerate() {
        ledger.request = format!("setup-{d}");
        let model = ledger
            .time(Layer::NnBuild, Phase::Setup, 1, || {
                models::by_name(design.model, LADDER_RESOLUTION)
            })
            .expect("benchmark models exist");
        let point = design.sweep(&[0], &SETUP_FREQS[..1]).expand().expect("ladder sweeps expand");
        let arch = point[0].arch(&base);
        let compiled = ledger.compile(&model, &arch, design.strategy, Phase::Setup);
        let (trace, _) = ledger
            .time(Layer::SimRecord, Phase::Setup, 1, || Simulator::record(&compiled))
            .expect("designs record");
        ledger.run(&compiled, Phase::OffPath);
        recorded.push(Recorded {
            model,
            trace,
            stages: compiled.plan.stages.len(),
            mean_duplication: compiled.plan.mean_duplication(),
            report: compiled.report,
        });
    }
    let cache = EvalCache::new();
    for (i, generated) in requests(plan, budget) {
        ledger.request = format!("r{i}");
        let Ask::Ladder { design, .. } = &generated.ask else {
            unreachable!("retime_ladder sweeps designs")
        };
        let design = &recorded[*design];
        let job = i as u64 + 1;
        let (spec, points, model, _) = sweep_points(ledger, &generated, &cache, false);
        assert_eq!(model.name, design.model.name);
        let arches: Vec<ArchConfig> = points.iter().map(|p| p.arch(&base)).collect();
        let reports = ledger.replay(&design.trace, &arches, Phase::Measured);
        ledger.parse(&gen::wait_line(Target::Batch(job)), 0);
        let compile = (&design.report, design.stages, design.mean_duplication);
        let outcomes: Vec<WireOutcome> = points
            .iter()
            .zip(&arches)
            .zip(reports)
            .map(|((point, arch), report)| {
                let outcome = DseOutcome {
                    point: point.clone(),
                    result: Ok(evaluation(
                        &design.model,
                        point,
                        arch,
                        compile,
                        report,
                        EvalPath::Replayed,
                    )),
                    cached: false,
                };
                WireOutcome::of(job, &outcome)
            })
            .collect();
        respond_batch(ledger, job, spec.point_count(), outcomes, goldens, &generated.ask);
    }
}

fn decompose_warm(
    ledger: &mut Ledger,
    plan: &Plan,
    budget: Duration,
    goldens: &Goldens,
    fixture: &Fixture,
) {
    ledger.request = "setup".to_owned();
    let (cache, start, elapsed) =
        ledger.clock(|| EvalCache::load(&fixture.path).expect("the fixture loads"));
    ledger.span("cache.load", "dse::cache", start, elapsed, Phase::Setup);
    ledger.load = Some((fixture.bytes, elapsed));
    for (i, generated) in requests(plan, budget) {
        ledger.request = format!("r{i}");
        let job = i as u64 + 1;
        let (spec, points, _, hits) = sweep_points(ledger, &generated, &cache, true);
        ledger.parse(&gen::wait_line(Target::Batch(job)), 0);
        let outcomes: Vec<WireOutcome> = points
            .into_iter()
            .zip(hits)
            .map(|(point, hit)| {
                let result = Ok(hit.expect("fixture points are cached"));
                WireOutcome::of(job, &DseOutcome { point, result, cached: true })
            })
            .collect();
        respond_batch(ledger, job, spec.point_count(), outcomes, goldens, &generated.ask);
    }
    for (j, point) in gen::warm_points().iter().enumerate() {
        ledger.request = format!("probe-{j}");
        ledger.probe_cold(point);
    }
}

/// The shared front of a sweep request: parse, build the model once, then
/// hash and look up every point (`expect_hits` says which the lookups
/// must be). Returns the sweep, its points, the model and the lookups.
fn sweep_points(
    ledger: &mut Ledger,
    generated: &gen::Generated,
    cache: &EvalCache,
    expect_hits: bool,
) -> (cimflow_dse::SweepSpec, Vec<PointSpec>, Model, Vec<Option<Evaluation>>) {
    let Request::Sweep { spec, .. } = ledger.parse(&generated.line, generated.points) else {
        unreachable!("sweep workloads send sweeps")
    };
    let model = ledger
        .time(Layer::NnBuild, Phase::Measured, generated.points, || {
            models::by_name(&spec.models[0].name, spec.models[0].resolution)
        })
        .expect("benchmark models exist");
    let points = spec.expand().expect("generated sweeps expand");
    let base = spec.base_arch();
    let mut hits = Vec::with_capacity(points.len());
    for point in &points {
        let arch = point.arch(&base);
        // A sweep point is hashed for its trace group and for the cache.
        let key = ledger.time(Layer::CacheHash, Phase::Measured, 1, || {
            std::hint::black_box(TraceKey::of(&arch, &model, point.strategy, point.search));
            CacheKey::of(&arch, &model, point.strategy, point.search)
        });
        let hit = ledger.time(Layer::CacheLookup, Phase::Measured, 1, || cache.get(&key));
        assert_eq!(hit.is_some(), expect_hits, "{}", point.label());
        hits.push(hit);
    }
    (*spec, points, model, hits)
}

fn respond_batch(
    ledger: &mut Ledger,
    job: u64,
    points: usize,
    outcomes: Vec<WireOutcome>,
    goldens: &Goldens,
    ask: &Ask,
) {
    let jobs: Vec<u64> = (0..points as u64).map(|j| job * 1000 + j).collect();
    let line = ledger.respond(
        &Response::AcceptedBatch { batch: job, jobs, points, resumed: 0 },
        &Response::BatchResult { batch: job, outcomes },
        points,
    );
    ledger.measured_points += points;
    ledger.verify(goldens, ask, &line);
}

/// Sends `request` on a control connection and returns the response.
fn control(connection: &mut Connection<'_>, request: &Request) -> Response {
    wire::send(connection, &serde_json::to_string(request).expect("requests serialize")).0
}

fn cache_counts(connection: &mut Connection<'_>) -> (u64, u64) {
    match control(connection, &Request::Stats) {
        Response::Stats { cache, .. } => (cache.hits, cache.misses),
        other => panic!("unexpected stats response {other:?}"),
    }
}

fn wire_metrics(connection: &mut Connection<'_>) -> Vec<WireMetric> {
    match control(connection, &Request::Metrics) {
        Response::Metrics { metrics, .. } => metrics,
        other => panic!("unexpected metrics response {other:?}"),
    }
}

fn gauge(metrics: &[WireMetric], name: &str) -> f64 {
    metrics.iter().find(|m| m.name == name).and_then(|m| m.value).unwrap_or(0.0)
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// Median of `samples` (0 when there are none).
fn middle(mut samples: Vec<f64>) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    samples[(samples.len() - 1) / 2]
}

/// Runs the traced ledger of `workload`.
pub fn run(workload: Workload, seed: u64, seconds: f64) -> Result<Report, String> {
    let dir = RunDir::create()?;
    let goldens = Goldens::of(workload);
    let fixture = setup::fixture(workload, dir.path())?;
    let plan = Plan::new(workload, seed);
    let part = seconds / 3.0;
    let mut problems = Vec::new();

    // 1. The untraced baseline.
    let ready = setup::setup(workload, fixture.as_ref(), 1, None, &goldens)?;
    let hits0 = ready.service.cache().stats().hits;
    let untraced = wire::run(&ready.service, &plan, part, 0, None);
    let hits = ready.service.cache().stats().hits - hits0;
    let untraced_checked = check(&goldens, &untraced);
    problems.extend(guards(workload, &untraced, &untraced_checked, &ready.service, hits));
    drop(ready);

    // 2. The traced wire phase: bench spans plus the service's tracer.
    let tracer = Tracer::new(TRACE_CAPACITY);
    let ready = setup::setup(workload, fixture.as_ref(), 1, Some(&tracer), &goldens)?;
    let mut connection = Connection::new(&ready.service);
    let counts0 = cache_counts(&mut connection);
    let gauges0 = wire_metrics(&mut connection);
    let window_start = tracer.now_us();
    let traced = wire::run(&ready.service, &plan, part, 0, Some(&tracer));
    let window_end = tracer.now_us();
    let counts1 = cache_counts(&mut connection);
    let hits = counts1.0 - counts0.0;
    let gauges1 = wire_metrics(&mut connection);
    drop(connection);
    let traced_checked = check(&goldens, &traced);
    problems.extend(guards(workload, &traced, &traced_checked, &ready.service, hits));
    drop(ready);

    // The service's own per-point eval and queue-wait times over the
    // traced window, exact from its spans: a solo claim's `eval` span
    // carries its queue wait; a grouped claim's `replay` span covers all
    // its points (the service amortizes it the same way in
    // `service.eval_latency_us`). Grouped claims record no per-point queue
    // wait in spans, so retime_ladder falls back to the histogram p50 the
    // wire `metrics` request reports.
    let (mut eval_us, mut wait_us) = (Vec::new(), Vec::new());
    for event in tracer.events() {
        if event.category != "service" || event.start < window_start || event.start > window_end {
            continue;
        }
        let attr = |key: &str| event.attrs.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone());
        match event.name.as_str() {
            "eval" => {
                eval_us.push(event.duration as f64);
                if let Some(AttrValue::U64(wait)) = attr("queue_wait_us") {
                    wait_us.push(wait as f64);
                }
            }
            "replay" => {
                let points = match attr("points") {
                    Some(AttrValue::U64(points)) => points.max(1),
                    _ => 1,
                };
                let per_point = event.duration as f64 / points as f64;
                eval_us.extend(std::iter::repeat_n(per_point, points as usize));
            }
            _ => {}
        }
    }
    let queue_wait_p50 = if wait_us.is_empty() {
        gauges1
            .iter()
            .filter(|m| m.name == "service.queue_wait_us")
            .max_by_key(|m| m.count.unwrap_or(0))
            .and_then(|m| m.p50)
            .unwrap_or(0) as f64
    } else {
        middle(wait_us)
    };
    let eval_p50 = middle(eval_us);

    // 3. The decomposition pass.
    let mut ledger = Ledger::new(&tracer);
    let budget = Duration::from_secs_f64(part);
    match workload {
        Workload::ColdPoints => decompose_cold(&mut ledger, &plan, budget, &goldens),
        Workload::RetimeLadder => decompose_ladder(&mut ledger, &plan, budget, &goldens),
        Workload::WarmWire => decompose_warm(
            &mut ledger,
            &plan,
            budget,
            &goldens,
            fixture.as_ref().expect("warm_wire has a fixture"),
        ),
    }
    if tracer.dropped() > 0 {
        problems.push(format!("the tracer dropped {} spans", tracer.dropped()));
    }

    let traced_points = traced.points().max(1) as f64;
    let total_us = traced.cpu_s * 1e6 / traced_points;
    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    let mut attributed = 0.0;
    for layer in Layer::ALL {
        let (us, share) = layer.names();
        values.insert(us, ledger.us_per_point(layer));
        let layer_share = ledger.measured_us_per_point(layer) / total_us;
        attributed += layer_share;
        values.insert(share, layer_share);
    }
    let delta = |name: &str| gauge(&gauges1, name) - gauge(&gauges0, name);
    let (reused, recorded) = (delta("trace.reused"), delta("trace.recorded"));
    let run_seconds = [Phase::Measured, Phase::OffPath]
        .iter()
        .find_map(|&phase| ledger.time.get(&(Layer::SimRun, phase)))
        .map_or(0.0, |(time, _)| time.as_secs_f64());
    values.extend([
        ("service.queue_wait_us_p50", queue_wait_p50),
        ("service.eval_us_p50", eval_p50),
        (
            "cache.hit_ratio",
            ratio(
                (counts1.0 - counts0.0) as f64,
                (counts1.0 + counts1.1 - counts0.0 - counts0.1) as f64,
            ),
        ),
        (
            "cache.load_mb_per_s",
            ledger.load.map_or(0.0, |(bytes, time)| bytes as f64 / 1e6 / time.as_secs_f64()),
        ),
        ("compiler.closures", ratio(ledger.closures.1 as f64, ledger.closures.0 as f64)),
        (
            "compiler.instructions",
            ratio(ledger.instructions.1 as f64, ledger.instructions.0 as f64),
        ),
        ("sim.minst_per_s", ratio(ledger.simulated as f64 / 1e6, run_seconds)),
        (
            "replay.lanes_per_walk",
            ratio(ledger.lockstep.lanes as f64, ledger.lockstep.batches as f64),
        ),
        (
            "replay.fallback_ratio",
            ratio(ledger.lockstep.fallback_lanes as f64, ledger.lockstep.lanes as f64),
        ),
        ("trace.reuse_ratio", ratio(reused, reused + recorded)),
        ("service.queue_wait_share", queue_wait_p50 / total_us),
        ("service.eval_share", eval_p50 / total_us),
        ("ledger.other_share", 1.0 - attributed),
        (
            "ledger.overhead_ratio",
            ratio(
                untraced.points() as f64 / untraced.wall_s,
                traced.points() as f64 / traced.wall_s,
            ),
        ),
    ]);
    let metrics: Vec<Metric> = metric_names()
        .into_iter()
        .map(|(name, unit)| Metric { name, unit, value: values[name] })
        .collect();

    let path = trace_path(workload, seed)?;
    std::fs::write(&path, tracer.to_chrome_json())
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!(
        "wirebench {} seed={} seconds={} traced: untraced {} points, traced {} points ({:.1} CPU-us each), decomposed {} points; trace {}",
        workload.name(),
        seed,
        seconds,
        untraced_checked.points,
        traced_checked.points,
        total_us,
        ledger.measured_points,
        path.display()
    );
    for metric in &metrics {
        println!("  {:<28} {:>14.4} {}", metric.name, metric.value, metric.unit);
    }
    for problem in &problems {
        eprintln!("wirebench: guard failed: {problem}");
    }
    let failed = untraced_checked.failed + traced_checked.failed + ledger.failed;
    Ok(Report {
        correct: failed == 0 && problems.is_empty(),
        attempted: untraced_checked.points + traced_checked.points + ledger.measured_points,
        failed,
        metrics,
    })
}

/// Where the Chrome trace of a traced run goes: beside the binary, in
/// the build directory.
fn trace_path(workload: Workload, seed: u64) -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this binary: {e}"))?;
    let dir = exe.parent().ok_or("the binary has no parent directory")?.join("wirebench-traces");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir.join(format!("{}-seed{seed}.json", workload.name())))
}
