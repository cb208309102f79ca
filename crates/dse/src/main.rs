//! The `cimflow-dse` CLI: batch sweeps and the evaluation service.
//!
//! **Sweep mode** runs a JSON sweep specification end-to-end through the
//! engine and reports/exports the results:
//!
//! ```text
//! cargo run --release -p cimflow-dse -- sweep.json \
//!     [--workers N] [--sequential] [--search sequential|joint] \
//!     [--csv out.csv] [--json out.json] \
//!     [--cache cache.json] [--journal sweep.jsonl] [--quiet] \
//!     [--trace-out trace.json] [--metrics-out metrics.prom]
//! ```
//!
//! `--journal` appends each finished point to a JSONL journal and resumes
//! from it, so an interrupted sweep picks up where it stopped, and
//! `--search` overrides the spec's system-level search-mode axis.
//!
//! **Explore mode** runs the adaptive Pareto-guided exploration engine
//! over an `ExploreSpec` JSON file (a sweep *space* plus a budget, an
//! algorithm and a seed) instead of exhaustively expanding the grid:
//!
//! ```text
//! cargo run --release -p cimflow-dse -- explore space.json \
//!     [--budget N] [--algorithm successive_halving|evolutionary] [--seed N] \
//!     [--workers N] [--journal explore.jsonl] [--csv out.csv] [--json out.json] [--quiet]
//! ```
//!
//! The flags override the spec's `budget`/`algorithm`/`seed`; `--journal`
//! makes the exploration resumable (the same spec and seed replay their
//! trajectory with journaled points served for free).
//!
//! **Journal maintenance**: `cimflow-dse journal compact <path>` drops
//! superseded/duplicate entries and failure log lines from a sweep
//! journal, shrinking files that accumulated across resumed runs.
//!
//! **Serve mode** starts a long-lived [`EvalService`] speaking
//! newline-delimited JSON (see `cimflow_dse::serve`) on stdin/stdout, or
//! on a TCP loopback listener with `--tcp`:
//!
//! ```text
//! cargo run --release -p cimflow-dse -- serve \
//!     [--workers N] [--queue N] [--quota N] [--cache cache.json] [--tcp PORT]
//! ```
//!
//! `--queue` bounds the admission queue (excess submissions are rejected
//! with backpressure) and `--quota` caps each tenant's in-flight points.
//!
//! **Observability**: sweep, explore and serve all take
//! `--trace-out PATH` (write a Chrome `trace_event` JSON timeline of the
//! run, loadable in Perfetto or `chrome://tracing`) and
//! `--metrics-out PATH` (write the final metrics in Prometheus text
//! exposition format). A long-lived server additionally answers the
//! `metrics` wire request with a live snapshot at any point.
//!
//! Exit codes: 0 when at least one point evaluated successfully (sweep
//! mode) or the service shut down cleanly (serve mode), 1 for a
//! usage/spec error, 2 when every point failed.

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use cimflow_compiler::SearchMode;
use cimflow_dse::analysis::Objective;
use cimflow_dse::serve::{serve_stdio, TcpServer};
use cimflow_dse::{
    analysis, expand_jobs, explore, export, DseError, DseOutcome, EvalCache, EvalService,
    ExploreAlgorithm, ExploreSpec, FeasibilityCaps, Fidelity, FidelityLadder, Progress,
    ServiceConfig, Submission, SweepJournal, SweepSpec,
};
use cimflow_obs::{
    HistogramSnapshot, MetricValue, MetricsRegistry, MetricsSnapshot, Tracer,
    DEFAULT_TRACE_CAPACITY,
};

struct SweepArgs {
    spec_path: PathBuf,
    workers: Option<usize>,
    search: Option<SearchMode>,
    objective: Option<Objective>,
    csv: Option<PathBuf>,
    json: Option<PathBuf>,
    cache: Option<PathBuf>,
    journal: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    metrics_out: Option<PathBuf>,
    quiet: bool,
}

struct ServeArgs {
    workers: Option<usize>,
    queue: Option<usize>,
    quota: Option<usize>,
    cache: Option<PathBuf>,
    tcp: Option<u16>,
    trace_out: Option<PathBuf>,
    metrics_out: Option<PathBuf>,
    quiet: bool,
}

struct ExploreArgs {
    spec_path: PathBuf,
    workers: Option<usize>,
    budget: Option<u64>,
    algorithm: Option<ExploreAlgorithm>,
    seed: Option<u64>,
    objective: Option<Objective>,
    ladder: Option<FidelityLadder>,
    scout_share: Option<f64>,
    stall: Option<u32>,
    max_area: Option<f64>,
    max_power: Option<f64>,
    journal: Option<PathBuf>,
    csv: Option<PathBuf>,
    json: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    metrics_out: Option<PathBuf>,
    quiet: bool,
}

enum Args {
    Sweep(SweepArgs),
    Serve(ServeArgs),
    Explore(ExploreArgs),
    JournalCompact { path: PathBuf },
}

const USAGE: &str = "usage: cimflow-dse <sweep.json> [--workers N] [--sequential] \
[--search sequential|joint] [--objective cycles|p99|area] [--csv PATH] [--json PATH] \
[--cache PATH] [--journal PATH] [--trace-out PATH] [--metrics-out PATH] [--quiet]
       cimflow-dse explore <space.json> [--budget N] [--algorithm successive_halving|evolutionary] \
[--seed N] [--objective cycles|p99|area] [--rungs R1,R2,...] [--scout-share X] [--stall N] \
[--max-area MM2] [--max-power W] [--workers N] [--journal PATH] [--csv PATH] [--json PATH] \
[--trace-out PATH] [--metrics-out PATH] [--quiet]
       cimflow-dse serve [--workers N] [--queue N] [--quota N] [--cache PATH] [--tcp PORT] \
[--trace-out PATH] [--metrics-out PATH] [--quiet]
       cimflow-dse journal compact <PATH>";

fn parse_number<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value.parse::<T>().map_err(|_| format!("{flag} expects a number, got `{value}`"))
}

/// `Ok(None)` means `--help` was requested: print usage to stdout, exit 0.
fn parse_args(mut argv: std::env::Args) -> Result<Option<Args>, String> {
    argv.next(); // program name
    let take_value = |argv: &mut std::env::Args, flag: &str| {
        argv.next().ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
    };

    let mut positionals: Vec<String> = Vec::new();
    let mut serve = false;
    let mut journal_cmd = false;
    let mut explore_cmd = false;
    let mut search = None;
    let mut workers = None;
    let mut csv = None;
    let mut json = None;
    let mut cache = None;
    let mut journal = None;
    let mut queue = None;
    let mut quota = None;
    let mut tcp = None;
    let mut budget = None;
    let mut algorithm = None;
    let mut seed = None;
    let mut objective = None;
    let mut ladder = None;
    let mut scout_share = None;
    let mut stall = None;
    let mut max_area = None;
    let mut max_power = None;
    let mut trace_out = None;
    let mut metrics_out = None;
    let mut quiet = false;
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--workers" => {
                let value = take_value(&mut argv, "--workers")?;
                workers = Some(parse_number::<usize>("--workers", &value)?);
            }
            "--sequential" => workers = Some(1),
            "--search" => {
                let value = take_value(&mut argv, "--search")?;
                search = Some(SearchMode::from_name(&value).ok_or_else(|| {
                    format!("--search expects `sequential` or `joint`, got `{value}`")
                })?);
            }
            "--csv" => csv = Some(PathBuf::from(take_value(&mut argv, "--csv")?)),
            "--json" => json = Some(PathBuf::from(take_value(&mut argv, "--json")?)),
            "--cache" => cache = Some(PathBuf::from(take_value(&mut argv, "--cache")?)),
            "--journal" => journal = Some(PathBuf::from(take_value(&mut argv, "--journal")?)),
            "--queue" => {
                let value = take_value(&mut argv, "--queue")?;
                queue = Some(parse_number::<usize>("--queue", &value)?);
            }
            "--quota" => {
                let value = take_value(&mut argv, "--quota")?;
                quota = Some(parse_number::<usize>("--quota", &value)?);
            }
            "--tcp" => {
                let value = take_value(&mut argv, "--tcp")?;
                tcp = Some(parse_number::<u16>("--tcp", &value)?);
            }
            "--budget" => {
                let value = take_value(&mut argv, "--budget")?;
                budget = Some(parse_number::<u64>("--budget", &value)?);
            }
            "--algorithm" => {
                let value = take_value(&mut argv, "--algorithm")?;
                algorithm = Some(ExploreAlgorithm::from_name(&value).ok_or_else(|| {
                    format!(
                        "--algorithm expects `successive_halving` or `evolutionary`, got `{value}`"
                    )
                })?);
            }
            "--seed" => {
                let value = take_value(&mut argv, "--seed")?;
                seed = Some(parse_number::<u64>("--seed", &value)?);
            }
            "--objective" => {
                let value = take_value(&mut argv, "--objective")?;
                objective = Some(value.parse::<Objective>()?);
            }
            "--rungs" => {
                let value = take_value(&mut argv, "--rungs")?;
                let rungs = value
                    .split(',')
                    .map(str::trim)
                    .filter(|name| !name.is_empty())
                    .map(|name| Fidelity::from_name(name).map_err(|e| format!("--rungs: {e}")))
                    .collect::<Result<Vec<_>, _>>()?;
                ladder = Some(FidelityLadder::new(rungs).map_err(|e| e.to_string())?);
            }
            "--scout-share" => {
                let value = take_value(&mut argv, "--scout-share")?;
                scout_share = Some(parse_number::<f64>("--scout-share", &value)?);
            }
            "--stall" => {
                let value = take_value(&mut argv, "--stall")?;
                stall = Some(parse_number::<u32>("--stall", &value)?);
            }
            "--max-area" => {
                let value = take_value(&mut argv, "--max-area")?;
                max_area = Some(parse_number::<f64>("--max-area", &value)?);
            }
            "--max-power" => {
                let value = take_value(&mut argv, "--max-power")?;
                max_power = Some(parse_number::<f64>("--max-power", &value)?);
            }
            "--trace-out" => {
                trace_out = Some(PathBuf::from(take_value(&mut argv, "--trace-out")?));
            }
            "--metrics-out" => {
                metrics_out = Some(PathBuf::from(take_value(&mut argv, "--metrics-out")?));
            }
            "--quiet" => quiet = true,
            "--help" | "-h" => return Ok(None),
            other if other.starts_with('-') => {
                return Err(format!("unknown flag `{other}`\n{USAGE}"));
            }
            mode @ ("serve" | "journal" | "explore")
                if positionals.is_empty() && !serve && !journal_cmd && !explore_cmd =>
            {
                match mode {
                    "serve" => serve = true,
                    "journal" => journal_cmd = true,
                    _ => explore_cmd = true,
                }
            }
            other if !serve => positionals.push(other.to_owned()),
            other => return Err(format!("unexpected argument `{other}`\n{USAGE}")),
        }
    }
    if journal_cmd {
        for (set, flag) in [
            (workers.is_some(), "--workers/--sequential"),
            (search.is_some(), "--search"),
            (csv.is_some(), "--csv"),
            (json.is_some(), "--json"),
            (cache.is_some(), "--cache"),
            (journal.is_some(), "--journal"),
            (queue.is_some(), "--queue"),
            (quota.is_some(), "--quota"),
            (tcp.is_some(), "--tcp"),
            (budget.is_some(), "--budget"),
            (algorithm.is_some(), "--algorithm"),
            (seed.is_some(), "--seed"),
            (objective.is_some(), "--objective"),
            (ladder.is_some(), "--rungs"),
            (scout_share.is_some(), "--scout-share"),
            (stall.is_some(), "--stall"),
            (max_area.is_some(), "--max-area"),
            (max_power.is_some(), "--max-power"),
            (trace_out.is_some(), "--trace-out"),
            (metrics_out.is_some(), "--metrics-out"),
            (quiet, "--quiet"),
        ] {
            if set {
                return Err(format!("{flag} does not apply to journal mode\n{USAGE}"));
            }
        }
        match positionals.as_slice() {
            [action, path] if action == "compact" => {
                return Ok(Some(Args::JournalCompact { path: PathBuf::from(path) }));
            }
            _ => return Err(format!("usage: cimflow-dse journal compact <PATH>\n{USAGE}")),
        }
    }
    if explore_cmd {
        for (set, flag) in [
            (search.is_some(), "--search"),
            (cache.is_some(), "--cache"),
            (queue.is_some(), "--queue"),
            (quota.is_some(), "--quota"),
            (tcp.is_some(), "--tcp"),
        ] {
            if set {
                return Err(format!("{flag} does not apply to explore mode\n{USAGE}"));
            }
        }
        if positionals.len() > 1 {
            return Err(format!("unexpected argument `{}`\n{USAGE}", positionals[1]));
        }
        let spec_path = positionals.pop().map(PathBuf::from).ok_or_else(|| USAGE.to_owned())?;
        return Ok(Some(Args::Explore(ExploreArgs {
            spec_path,
            workers,
            budget,
            algorithm,
            seed,
            objective,
            ladder,
            scout_share,
            stall,
            max_area,
            max_power,
            journal,
            csv,
            json,
            trace_out,
            metrics_out,
            quiet,
        })));
    }
    if serve {
        for (set, flag) in [
            (csv.is_some(), "--csv"),
            (json.is_some(), "--json"),
            (journal.is_some(), "--journal"),
            (search.is_some(), "--search"),
            (budget.is_some(), "--budget"),
            (algorithm.is_some(), "--algorithm"),
            (seed.is_some(), "--seed"),
            (objective.is_some(), "--objective"),
            (ladder.is_some(), "--rungs"),
            (scout_share.is_some(), "--scout-share"),
            (stall.is_some(), "--stall"),
            (max_area.is_some(), "--max-area"),
            (max_power.is_some(), "--max-power"),
        ] {
            if set {
                return Err(format!("{flag} does not apply to serve mode\n{USAGE}"));
            }
        }
        return Ok(Some(Args::Serve(ServeArgs {
            workers,
            queue,
            quota,
            cache,
            tcp,
            trace_out,
            metrics_out,
            quiet,
        })));
    }
    for (set, flag) in [
        (queue.is_some(), "--queue"),
        (quota.is_some(), "--quota"),
        (tcp.is_some(), "--tcp"),
        (budget.is_some(), "--budget"),
        (algorithm.is_some(), "--algorithm"),
        (seed.is_some(), "--seed"),
        (ladder.is_some(), "--rungs"),
        (scout_share.is_some(), "--scout-share"),
        (stall.is_some(), "--stall"),
        (max_area.is_some(), "--max-area"),
        (max_power.is_some(), "--max-power"),
    ] {
        if set {
            return Err(format!("{flag} does not apply to sweep mode\n{USAGE}"));
        }
    }
    if positionals.len() > 1 {
        return Err(format!("unexpected argument `{}`\n{USAGE}", positionals[1]));
    }
    let spec_path = positionals.pop().map(PathBuf::from).ok_or_else(|| USAGE.to_owned())?;
    Ok(Some(Args::Sweep(SweepArgs {
        spec_path,
        workers,
        search,
        objective,
        csv,
        json,
        cache,
        journal,
        trace_out,
        metrics_out,
        quiet,
    })))
}

/// Console reporting with a single `--quiet` policy across subcommands:
/// `note` lines (banners, per-point progress, trajectories, frontier
/// tables) are silenced by `--quiet`, while `machine` lines (one-line
/// summaries, failure lists, export paths) always print so scripts and
/// CI can grep them. Serve mode reports on stderr, keeping stdout clean
/// for the wire protocol.
struct Reporter {
    quiet: bool,
    to_stderr: bool,
}

impl Reporter {
    fn stdout(quiet: bool) -> Self {
        Reporter { quiet, to_stderr: false }
    }

    fn stderr(quiet: bool) -> Self {
        Reporter { quiet, to_stderr: true }
    }

    /// Always printed: summaries and paths that scripts grep for.
    fn machine(&self, line: &str) {
        if self.to_stderr {
            eprintln!("{line}");
        } else {
            println!("{line}");
        }
    }

    /// Human narration; silenced by `--quiet`.
    fn note(&self, line: &str) {
        if !self.quiet {
            self.machine(line);
        }
    }

    /// One line per finished sweep point.
    fn point(&self, p: &Progress) {
        if self.quiet {
            return;
        }
        let status = match (p.ok, p.cached) {
            (true, true) => "hit ",
            (true, false) => "ok  ",
            (false, _) => "FAIL",
        };
        self.machine(&format!("[{:>4}/{}] {status} {}", p.completed, p.total, p.label));
    }

    /// End-of-run latency digest from the metrics registry, merged
    /// across tenant/priority label sets.
    fn latency_summary(&self, snapshot: &MetricsSnapshot) {
        if self.quiet {
            return;
        }
        let mut queue: Option<HistogramSnapshot> = None;
        let mut latency: Option<HistogramSnapshot> = None;
        for entry in &snapshot.entries {
            if let MetricValue::Histogram(h) = &entry.value {
                let acc = match entry.name.as_str() {
                    "service.queue_wait_us" => &mut queue,
                    "service.eval_latency_us" => &mut latency,
                    _ => continue,
                };
                match acc {
                    Some(acc) => acc.merge(h),
                    None => *acc = Some(h.clone()),
                }
            }
        }
        if let Some(latency) = latency.filter(|h| h.count > 0) {
            let queue_text = queue.filter(|h| h.count > 0).map_or_else(String::new, |q| {
                format!("; queue wait p50 {}us p99 {}us", q.quantile(0.5), q.quantile(0.99))
            });
            self.machine(&format!(
                "eval latency p50 {}us p90 {}us p99 {}us{queue_text}",
                latency.quantile(0.5),
                latency.quantile(0.9),
                latency.quantile(0.99)
            ));
        }
    }
}

/// Observability wiring shared by the subcommands: a metrics registry
/// (always attached — the instruments are cheap atomics and feed the
/// end-of-run summary) plus a tracer allocated only when `--trace-out`
/// asks for a timeline.
struct ObsSink {
    registry: MetricsRegistry,
    tracer: Option<Tracer>,
    trace_out: Option<PathBuf>,
    metrics_out: Option<PathBuf>,
}

impl ObsSink {
    fn new(trace_out: &Option<PathBuf>, metrics_out: &Option<PathBuf>) -> Self {
        ObsSink {
            registry: MetricsRegistry::new(),
            tracer: trace_out.as_ref().map(|_| Tracer::new(DEFAULT_TRACE_CAPACITY)),
            trace_out: trace_out.clone(),
            metrics_out: metrics_out.clone(),
        }
    }

    /// Writes the Chrome trace and Prometheus exposition files, if
    /// requested. `exposition` is passed in so serve/explore can use the
    /// service's own rendering (which mirrors cache gauges) instead of
    /// the raw registry's.
    fn write(&self, reporter: &Reporter, exposition: &str) -> Result<(), DseError> {
        if let (Some(path), Some(tracer)) = (&self.trace_out, &self.tracer) {
            std::fs::write(path, tracer.to_chrome_json())
                .map_err(|e| DseError::io(format!("cannot write {}: {e}", path.display())))?;
            reporter.machine(&format!("wrote trace -> {}", path.display()));
        }
        if let Some(path) = &self.metrics_out {
            std::fs::write(path, exposition)
                .map_err(|e| DseError::io(format!("cannot write {}: {e}", path.display())))?;
            reporter.machine(&format!("wrote metrics -> {}", path.display()));
        }
        Ok(())
    }
}

fn run_journal_compact(path: &std::path::Path) -> Result<ExitCode, DseError> {
    let stats = SweepJournal::compact(path)?;
    println!(
        "compacted {}: kept {} resumable point(s), dropped {} superseded and {} failure line(s)",
        path.display(),
        stats.kept,
        stats.superseded,
        stats.failures
    );
    Ok(ExitCode::SUCCESS)
}

fn run_sweep(args: &SweepArgs) -> Result<ExitCode, DseError> {
    let text = std::fs::read_to_string(&args.spec_path)
        .map_err(|e| DseError::io(format!("cannot read {}: {e}", args.spec_path.display())))?;
    let mut spec = SweepSpec::from_json(&text)?;
    if let Some(search) = args.search {
        spec.search_modes = vec![search];
    }
    let name = spec.name.clone().unwrap_or_else(|| args.spec_path.display().to_string());

    let cache = match &args.cache {
        Some(path) => EvalCache::load(path)?,
        None => EvalCache::new(),
    };
    let obs = ObsSink::new(&args.trace_out, &args.metrics_out);
    let mut config = ServiceConfig::new().with_metrics(obs.registry.clone());
    if let Some(workers) = args.workers.or(spec.workers) {
        config = config.with_workers(workers);
    }
    if let Some(tracer) = &obs.tracer {
        config = config.with_tracer(tracer.clone());
    }
    let service = EvalService::with_cache(config, cache.clone());

    let reporter = Reporter::stdout(args.quiet);
    reporter.note(&format!(
        "sweep `{name}`: {} points on {} worker(s), {} cached evaluation(s) loaded",
        spec.point_count(),
        service.workers(),
        cache.len()
    ));

    let started = Instant::now();
    let journal = match &args.journal {
        Some(path) => Some(Arc::new(SweepJournal::open(path)?)),
        None => None,
    };
    let submission = Submission { jobs: expand_jobs(&spec)?, journal, ..Submission::default() };
    let outcomes = service.submit_batch(submission)?.wait_with(|p| reporter.point(p));
    let elapsed = started.elapsed();

    let succeeded = outcomes.iter().filter(|o| o.result.is_ok()).count();
    let failed = outcomes.len() - succeeded;
    let replayed = outcomes
        .iter()
        .filter(|o| o.result.as_ref().is_ok_and(|e| e.eval_path.is_replayed()))
        .count();
    let stats = cache.stats();
    reporter.machine(&format!(
        "\n{} points in {:.2?}: {succeeded} ok, {failed} failed, {replayed} replayed; cache {} hits / {} misses ({:.0}% hit)",
        outcomes.len(),
        elapsed,
        stats.hits,
        stats.misses,
        stats.hit_ratio() * 100.0
    ));
    reporter.latency_summary(&obs.registry.snapshot());
    if let Some(path) = &args.journal {
        reporter.machine(&format!("journal -> {}", path.display()));
    }

    if failed > 0 {
        reporter.machine("\nfailed points:");
        for outcome in outcomes.iter().filter(|o| o.result.is_err()) {
            if let Err(e) = &outcome.result {
                reporter.machine(&format!("  {} -> {e}", outcome.point.label()));
            }
        }
    }

    report_outcomes(&outcomes, &reporter, args.objective.unwrap_or_default());

    if let Some(path) = &args.csv {
        std::fs::write(path, export::to_csv(&outcomes))
            .map_err(|e| DseError::io(format!("cannot write {}: {e}", path.display())))?;
        reporter.machine(&format!("\nwrote CSV -> {}", path.display()));
    }
    if let Some(path) = &args.json {
        std::fs::write(path, export::to_json(&outcomes))
            .map_err(|e| DseError::io(format!("cannot write {}: {e}", path.display())))?;
        reporter.machine(&format!("wrote JSON -> {}", path.display()));
    }
    if let Some(path) = &args.cache {
        cache.save(path)?;
        reporter.machine(&format!("saved cache ({} entries) -> {}", cache.len(), path.display()));
    }

    obs.write(&reporter, &service.render_metrics())?;

    Ok(if succeeded > 0 { ExitCode::SUCCESS } else { ExitCode::from(2) })
}

fn report_outcomes(outcomes: &[DseOutcome], reporter: &Reporter, objective: Objective) {
    let frontiers = analysis::pareto_frontier_by_model_with(outcomes, objective);
    let frontier_points: usize = frontiers.values().map(Vec::len).sum();
    let axes = match objective {
        Objective::Cycles => "(cycles, energy)",
        Objective::P99Latency => "(p99 latency, serving energy)",
        Objective::Area => "(cycles, area)",
    };
    reporter.note(&format!("\nPareto frontier over {axes}, per model: {frontier_points} point(s)"));
    for (model, frontier) in &frontiers {
        reporter.note(&format!("  {model}:"));
        for &index in frontier {
            let outcome = &outcomes[index];
            let Some(evaluation) = outcome.evaluation() else { continue };
            match (objective, &evaluation.serving) {
                (Objective::P99Latency, Some(serving)) => reporter.note(&format!(
                    "    {:<52} p99 {:>10.1} us {:>10.3} mJ {:>8.1} goodput qps",
                    outcome.point.label(),
                    serving.p99_latency_us,
                    serving.energy_mj,
                    serving.goodput_qps
                )),
                (Objective::Area, _) => reporter.note(&format!(
                    "    {:<52} {:>12} cycles {:>10.1} mm2 {:>8.3} TOPS",
                    outcome.point.label(),
                    evaluation.simulation.total_cycles,
                    analysis::area_mm2(&evaluation.arch),
                    evaluation.simulation.throughput_tops()
                )),
                _ => reporter.note(&format!(
                    "    {:<52} {:>12} cycles {:>10.3} mJ {:>8.3} TOPS",
                    outcome.point.label(),
                    evaluation.simulation.total_cycles,
                    evaluation.simulation.energy_mj(),
                    evaluation.simulation.throughput_tops()
                )),
            }
        }
    }

    let best = analysis::best_per_model(outcomes);
    if !best.is_empty() {
        reporter.note("\nfastest configuration per model:");
        for (model, index) in &best {
            let outcome = &outcomes[*index];
            if let Some(evaluation) = outcome.evaluation() {
                reporter.note(&format!(
                    "  {model:<16} {} ({} cycles)",
                    outcome.point.label(),
                    evaluation.simulation.total_cycles
                ));
            }
        }
    }
}

fn run_explore(args: &ExploreArgs) -> Result<ExitCode, DseError> {
    let text = std::fs::read_to_string(&args.spec_path)
        .map_err(|e| DseError::io(format!("cannot read {}: {e}", args.spec_path.display())))?;
    let mut spec = ExploreSpec::from_json(&text)?;
    if let Some(budget) = args.budget {
        spec = spec.with_budget(budget);
    }
    if let Some(algorithm) = args.algorithm {
        spec = spec.with_algorithm(algorithm);
    }
    if let Some(seed) = args.seed {
        spec = spec.with_seed(seed);
    }
    if let Some(objective) = args.objective {
        spec = spec.with_objective(objective);
    }
    if let Some(ladder) = &args.ladder {
        spec = spec.with_ladder(ladder.clone());
    }
    if args.scout_share.is_some() {
        spec = spec.with_scout_share(args.scout_share);
    }
    if args.stall.is_some() {
        spec = spec.with_stall_generations(args.stall);
    }
    if args.max_area.is_some() || args.max_power.is_some() {
        let caps = FeasibilityCaps {
            max_area_mm2: args.max_area.or(spec.caps.max_area_mm2),
            max_power_w: args.max_power.or(spec.caps.max_power_w),
        };
        spec = spec.with_caps(caps);
    }
    let name = spec.space.name.clone().unwrap_or_else(|| args.spec_path.display().to_string());

    let workers = args
        .workers
        .or(spec.space.workers)
        .unwrap_or_else(|| std::thread::available_parallelism().map(usize::from).unwrap_or(1));
    let obs = ObsSink::new(&args.trace_out, &args.metrics_out);
    let mut config = ServiceConfig::new().with_workers(workers).with_metrics(obs.registry.clone());
    if let Some(tracer) = &obs.tracer {
        config = config.with_tracer(tracer.clone());
    }
    let service = EvalService::new(config);
    let reporter = Reporter::stdout(args.quiet);
    reporter.note(&format!(
        "explore `{name}`: {} algorithm, budget {} of a {}-point space, seed {}, {} worker(s)",
        spec.algorithm,
        spec.budget,
        spec.space.point_count(),
        spec.seed,
        service.workers()
    ));

    let started = Instant::now();
    let journal = match &args.journal {
        Some(path) => Some(Arc::new(SweepJournal::open(path)?)),
        None => None,
    };
    let report = explore(&spec, &service, journal.as_ref())?;
    let elapsed = started.elapsed();

    let succeeded = report.outcomes.iter().filter(|o| o.result.is_ok()).count();
    let resumed = report.outcomes.iter().filter(|o| o.cached).count();
    let replayed = report
        .outcomes
        .iter()
        .filter(|o| o.result.as_ref().is_ok_and(|e| e.eval_path.is_replayed()))
        .count();
    reporter.machine(&format!(
        "\nused {} of {} budget in {elapsed:.2?}: {} full-fidelity point(s) ({succeeded} ok, \
         {resumed} cached/resumed, {replayed} replayed / {interpreted} interpreted), {} coarse, \
         {:.1}% of the exhaustive grid evaluated",
        report.budget_used,
        report.budget,
        report.evaluated,
        report.coarse_evaluated,
        100.0 * report.budget_used as f64 / report.space_points.max(1) as f64,
        interpreted = succeeded - replayed,
    ));
    let split: Vec<String> =
        report.rung_evaluated.iter().map(|(rung, count)| format!("{rung}={count}")).collect();
    reporter.machine(&format!(
        "rung split: {} | scout share {:.2}",
        if split.is_empty() { "none".to_owned() } else { split.join(" ") },
        report.scout_share,
    ));
    if !report.rank_fidelity.is_empty() {
        let taus: Vec<String> =
            report.rank_fidelity.iter().map(|(key, tau)| format!("{key}={tau:.3}")).collect();
        reporter.machine(&format!("rank fidelity: {}", taus.join(" ")));
    }
    if report.stalled {
        reporter.machine("stopped early: hypervolume stalled");
    }
    reporter.latency_summary(&service.metrics_snapshot());
    reporter.note("\ngeneration trajectory:");
    for generation in &report.generations {
        reporter.note(&format!(
            "  [{:>3}] {:<10} +{:<3} point(s) ({} coarse) -> frontier {}",
            generation.index,
            generation.phase,
            generation.submitted,
            generation.coarse,
            generation.frontier_points
        ));
    }
    if let Some(path) = &args.journal {
        reporter.machine(&format!("journal -> {}", path.display()));
    }

    report_outcomes(&report.outcomes, &reporter, spec.objective);

    if let Some(path) = &args.csv {
        std::fs::write(path, export::to_csv(&report.outcomes))
            .map_err(|e| DseError::io(format!("cannot write {}: {e}", path.display())))?;
        reporter.machine(&format!("\nwrote CSV -> {}", path.display()));
    }
    if let Some(path) = &args.json {
        std::fs::write(path, export::to_json(&report.outcomes))
            .map_err(|e| DseError::io(format!("cannot write {}: {e}", path.display())))?;
        reporter.machine(&format!("wrote JSON -> {}", path.display()));
    }

    obs.write(&reporter, &service.render_metrics())?;

    Ok(if succeeded > 0 { ExitCode::SUCCESS } else { ExitCode::from(2) })
}

fn run_serve(args: &ServeArgs) -> Result<ExitCode, DseError> {
    let cache = match &args.cache {
        Some(path) => EvalCache::load(path)?,
        None => EvalCache::new(),
    };
    let obs = ObsSink::new(&args.trace_out, &args.metrics_out);
    let mut config = ServiceConfig::new().with_metrics(obs.registry.clone());
    if let Some(tracer) = &obs.tracer {
        config = config.with_tracer(tracer.clone());
    }
    if let Some(workers) = args.workers {
        config = config.with_workers(workers);
    }
    if let Some(queue) = args.queue {
        config = config.with_queue_capacity(queue);
    }
    if let Some(quota) = args.quota {
        config = config.with_tenant_quota(quota);
    }
    let service = Arc::new(EvalService::with_cache(config, cache.clone()));
    // stdout carries the wire protocol, so the reporter goes to stderr.
    let reporter = Reporter::stderr(args.quiet);
    reporter.note(&format!(
        "cimflow-dse serve: {} worker(s), queue {}, per-tenant quota {}, {} cached evaluation(s)",
        service.workers(),
        args.queue.map_or_else(|| "unbounded".to_owned(), |q| q.to_string()),
        args.quota.map_or_else(|| "off".to_owned(), |q| q.to_string()),
        cache.len()
    ));

    match args.tcp {
        Some(port) => {
            let server = TcpServer::spawn(Arc::clone(&service), port)
                .map_err(|e| DseError::io(format!("cannot bind 127.0.0.1:{port}: {e}")))?;
            // Machine-readable so scripts/tests can discover an
            // ephemeral port (--tcp 0).
            println!("listening {}", server.addr());
            server.wait_for_shutdown();
        }
        None => {
            serve_stdio(&service)
                .map_err(|e| DseError::io(format!("stdio transport failed: {e}")))?;
        }
    }

    let stats = service.stats();
    reporter.machine(&format!(
        "cimflow-dse serve: {} submitted, {} completed, {} cancelled, {} rejected; cache {} hits / {} misses",
        stats.submitted,
        stats.completed,
        stats.cancelled,
        stats.rejected,
        cache.stats().hits,
        cache.stats().misses
    ));
    reporter.latency_summary(&service.metrics_snapshot());
    if let Some(path) = &args.cache {
        cache.save(path)?;
        reporter.machine(&format!("saved cache ({} entries) -> {}", cache.len(), path.display()));
    }
    obs.write(&reporter, &service.render_metrics())?;
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args()) {
        Ok(Some(args)) => args,
        Ok(None) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    let outcome = match &args {
        Args::Sweep(sweep) => run_sweep(sweep),
        Args::Serve(serve) => run_serve(serve),
        Args::Explore(explore) => run_explore(explore),
        Args::JournalCompact { path } => run_journal_compact(path),
    };
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("cimflow-dse: {e}");
            ExitCode::FAILURE
        }
    }
}
