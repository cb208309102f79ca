//! The `cimflow-dse` CLI: batch sweeps, adaptive exploration, the
//! evaluation service and journal maintenance.
//!
//! `cimflow-dse --help` prints one line per mode with every flag that
//! mode takes. It is generated from `FLAGS`, the table the parser reads,
//! so it always matches what the parser accepts. The modes:
//!
//! - **sweep** (`cimflow-dse <sweep.json>`) evaluates every point of a
//!   `SweepSpec` grid and reports the per-model Pareto frontiers.
//!   `--journal` appends each finished point to a journal and resumes
//!   from it; `--search` overrides the spec's search-mode axis.
//! - **explore** (`cimflow-dse explore <space.json>`) runs the adaptive
//!   explorer over an `ExploreSpec` (a sweep space plus a budget, an
//!   algorithm and a seed) instead of the whole grid. Its flags override
//!   the spec's fields; `--journal` makes the run resumable.
//! - **serve** (`cimflow-dse serve`) starts a long-lived [`EvalService`]
//!   speaking newline-delimited JSON (see `cimflow_dse::serve`) on
//!   stdin/stdout, or on a TCP loopback listener with `--tcp`. `--queue`
//!   bounds the admission queue and `--quota` each tenant's in-flight
//!   points.
//! - **journal** (`cimflow-dse journal compact <PATH>`) drops superseded
//!   entries and failure lines from a sweep journal or a cache file.
//!
//! `--cache` (sweep, serve) opens an evaluation-cache log: it loads the
//! results the log holds and appends each new one as it lands, so even a
//! killed server keeps every point it answered. Cache files and journals
//! share one format (see `cimflow_dse::SweepJournal`).
//!
//! `--trace-out` writes a Chrome `trace_event` timeline of the run
//! (loadable in Perfetto or `chrome://tracing`) and `--metrics-out` its
//! final metrics in Prometheus text format; a server also answers the
//! `metrics` wire request at any time.
//!
//! Exit codes: 0 when at least one point evaluated successfully (sweep,
//! explore) or the service shut down cleanly (serve), 1 for a usage,
//! spec or I/O error, 2 when every point failed.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use cimflow_compiler::SearchMode;
use cimflow_dse::analysis::Objective;
use cimflow_dse::serve::{serve_stdio, TcpServer};
use cimflow_dse::{
    analysis, expand_jobs, explore, export, DseError, DseOutcome, EvalCache, EvalService,
    ExploreAlgorithm, ExploreSpec, Fidelity, FidelityLadder, Progress, ServiceConfig, Submission,
    SweepJournal, SweepSpec,
};
use cimflow_obs::{
    HistogramSnapshot, MetricValue, MetricsSnapshot, Tracer, DEFAULT_TRACE_CAPACITY,
};

/// The CLI's modes. The first positional argument picks `explore`,
/// `serve` or `journal`; any other command line runs a sweep.
#[derive(Clone, Copy)]
enum Mode {
    Sweep,
    Explore,
    Serve,
    Journal,
}

impl Mode {
    const ALL: [Mode; 4] = [Mode::Sweep, Mode::Explore, Mode::Serve, Mode::Journal];

    fn name(self) -> &'static str {
        match self {
            Mode::Sweep => "sweep",
            Mode::Explore => "explore",
            Mode::Serve => "serve",
            Mode::Journal => "journal",
        }
    }

    /// The mode's word and positional arguments.
    fn synopsis(self) -> &'static str {
        match self {
            Mode::Sweep => "<sweep.json>",
            Mode::Explore => "explore <space.json>",
            Mode::Serve => "serve",
            Mode::Journal => "journal compact <PATH>",
        }
    }

    /// The mode's bit in [`Flag::modes`].
    const fn bit(self) -> u8 {
        1 << self as u8
    }

    /// The mode's `--help` line: its synopsis and every flag it takes.
    fn usage(self) -> String {
        let flags =
            FLAGS.iter().filter(|flag| flag.applies_to(self)).map(|flag| match flag.value {
                "" => format!(" [{}]", flag.name),
                value => format!(" [{} {value}]", flag.name),
            });
        format!("cimflow-dse {}{}", self.synopsis(), flags.collect::<String>())
    }
}

const SWEEP: u8 = Mode::Sweep.bit();
const EXPLORE: u8 = Mode::Explore.bit();
const SERVE: u8 = Mode::Serve.bit();

/// One command-line flag.
struct Flag {
    name: &'static str,
    /// The value placeholder `--help` shows; empty for a switch.
    value: &'static str,
    /// The [`Mode::bit`]s of the modes that take the flag.
    modes: u8,
}

impl Flag {
    fn applies_to(&self, mode: Mode) -> bool {
        self.modes & mode.bit() != 0
    }
}

/// Every flag, in `--help` order. Parsing, the per-mode checks and
/// `--help` all read this table; [`Options::set`] parses each value.
const FLAGS: &[Flag] = &[
    Flag { name: "--workers", value: "N", modes: SWEEP | EXPLORE | SERVE },
    Flag { name: "--sequential", value: "", modes: SWEEP | EXPLORE | SERVE },
    Flag { name: "--search", value: "sequential|joint", modes: SWEEP },
    Flag { name: "--objective", value: "cycles|p99|area", modes: SWEEP | EXPLORE },
    Flag { name: "--budget", value: "N", modes: EXPLORE },
    Flag { name: "--algorithm", value: "successive_halving|evolutionary", modes: EXPLORE },
    Flag { name: "--seed", value: "N", modes: EXPLORE },
    Flag { name: "--rungs", value: "R1,R2,...", modes: EXPLORE },
    Flag { name: "--scout-share", value: "X", modes: EXPLORE },
    Flag { name: "--stall", value: "N", modes: EXPLORE },
    Flag { name: "--max-area", value: "MM2", modes: EXPLORE },
    Flag { name: "--max-power", value: "W", modes: EXPLORE },
    Flag { name: "--queue", value: "N", modes: SERVE },
    Flag { name: "--quota", value: "N", modes: SERVE },
    Flag { name: "--tcp", value: "PORT", modes: SERVE },
    Flag { name: "--csv", value: "PATH", modes: SWEEP | EXPLORE },
    Flag { name: "--json", value: "PATH", modes: SWEEP | EXPLORE },
    Flag { name: "--cache", value: "PATH", modes: SWEEP | SERVE },
    Flag { name: "--journal", value: "PATH", modes: SWEEP | EXPLORE },
    Flag { name: "--trace-out", value: "PATH", modes: SWEEP | EXPLORE | SERVE },
    Flag { name: "--metrics-out", value: "PATH", modes: SWEEP | EXPLORE | SERVE },
    Flag { name: "--quiet", value: "", modes: SWEEP | EXPLORE | SERVE },
];

/// The usage text: one line per mode.
fn usage() -> String {
    let lines: Vec<String> = Mode::ALL.iter().map(|mode| mode.usage()).collect();
    format!("usage: {}", lines.join("\n       "))
}

/// The typed value of every flag; a flag left off the command line
/// stays `None` (or `false`).
#[derive(Default)]
struct Options {
    workers: Option<usize>,
    search: Option<SearchMode>,
    objective: Option<Objective>,
    budget: Option<u64>,
    algorithm: Option<ExploreAlgorithm>,
    seed: Option<u64>,
    ladder: Option<FidelityLadder>,
    scout_share: Option<f64>,
    stall: Option<u32>,
    max_area: Option<f64>,
    max_power: Option<f64>,
    queue: Option<usize>,
    quota: Option<usize>,
    tcp: Option<u16>,
    csv: Option<PathBuf>,
    json: Option<PathBuf>,
    cache: Option<PathBuf>,
    journal: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    metrics_out: Option<PathBuf>,
    quiet: bool,
}

fn parse_number<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value.parse::<T>().map_err(|_| format!("{flag} expects a number, got `{value}`"))
}

impl Options {
    /// Parses `value` into the field of `flag`, a [`FLAGS`] row (a
    /// switch gets an empty value).
    fn set(&mut self, flag: &str, value: &str) -> Result<(), String> {
        match flag {
            "--workers" => self.workers = Some(parse_number(flag, value)?),
            "--sequential" => self.workers = Some(1),
            "--search" => {
                self.search = Some(SearchMode::from_name(value).ok_or_else(|| {
                    format!("{flag} expects `sequential` or `joint`, got `{value}`")
                })?);
            }
            "--objective" => self.objective = Some(value.parse()?),
            "--budget" => self.budget = Some(parse_number(flag, value)?),
            "--algorithm" => {
                self.algorithm = Some(ExploreAlgorithm::from_name(value).ok_or_else(|| {
                    format!("{flag} expects `successive_halving` or `evolutionary`, got `{value}`")
                })?);
            }
            "--seed" => self.seed = Some(parse_number(flag, value)?),
            "--rungs" => {
                let rungs = value
                    .split(',')
                    .map(str::trim)
                    .filter(|name| !name.is_empty())
                    .map(|name| Fidelity::from_name(name).map_err(|e| format!("{flag}: {e}")))
                    .collect::<Result<Vec<_>, _>>()?;
                self.ladder = Some(FidelityLadder::new(rungs).map_err(|e| e.to_string())?);
            }
            "--scout-share" => self.scout_share = Some(parse_number(flag, value)?),
            "--stall" => self.stall = Some(parse_number(flag, value)?),
            "--max-area" => self.max_area = Some(parse_number(flag, value)?),
            "--max-power" => self.max_power = Some(parse_number(flag, value)?),
            "--queue" => self.queue = Some(parse_number(flag, value)?),
            "--quota" => self.quota = Some(parse_number(flag, value)?),
            "--tcp" => self.tcp = Some(parse_number(flag, value)?),
            "--csv" => self.csv = Some(value.into()),
            "--json" => self.json = Some(value.into()),
            "--cache" => self.cache = Some(value.into()),
            "--journal" => self.journal = Some(value.into()),
            "--trace-out" => self.trace_out = Some(value.into()),
            "--metrics-out" => self.metrics_out = Some(value.into()),
            "--quiet" => self.quiet = true,
            _ => unreachable!("{flag} is a FLAGS row without a value arm"),
        }
        Ok(())
    }
}

/// A parsed command line.
struct Cli {
    mode: Mode,
    /// The spec file (sweep, explore) or the log (journal compact);
    /// empty for serve.
    path: PathBuf,
    options: Options,
}

/// Parses the arguments after the program name. `Ok(None)` means
/// `--help` was asked for.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Option<Cli>, String> {
    let mut args = args.into_iter();
    let mut mode = None;
    let mut positionals = Vec::new();
    let mut given: Vec<&Flag> = Vec::new();
    let mut options = Options::default();
    while let Some(arg) = args.next() {
        if arg == "--help" || arg == "-h" {
            return Ok(None);
        }
        if arg.starts_with('-') {
            let flag = FLAGS
                .iter()
                .find(|flag| flag.name == arg)
                .ok_or_else(|| format!("unknown flag `{arg}`"))?;
            let value = match flag.value {
                "" => String::new(),
                _ => args.next().ok_or_else(|| format!("{arg} needs a value"))?,
            };
            options.set(flag.name, &value)?;
            given.push(flag);
            continue;
        }
        let word =
            [Mode::Explore, Mode::Serve, Mode::Journal].into_iter().find(|m| m.name() == arg);
        match word {
            Some(word) if mode.is_none() && positionals.is_empty() => mode = Some(word),
            _ => positionals.push(arg),
        }
    }
    let mode = mode.unwrap_or(Mode::Sweep);
    if let Some(flag) = given.iter().find(|flag| !flag.applies_to(mode)) {
        return Err(format!("{} does not apply to {} mode", flag.name, mode.name()));
    }
    let path = match (mode, positionals.as_slice()) {
        (Mode::Serve, []) => PathBuf::new(),
        (Mode::Sweep | Mode::Explore, [path]) => PathBuf::from(path),
        (Mode::Journal, [action, path]) if action == "compact" => PathBuf::from(path),
        (Mode::Serve, [extra, ..]) | (Mode::Sweep | Mode::Explore, [_, extra, ..]) => {
            return Err(format!("unexpected argument `{extra}`"));
        }
        _ => return Err(format!("usage: {}", mode.usage())),
    };
    Ok(Some(Cli { mode, path, options }))
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

/// Starts the service a mode evaluates on: its cache the `--cache` log
/// (each new result is appended as it lands), its pool sized by
/// `--workers` (else `spec_workers`, else one worker per core), admission
/// bounded by `--queue`/`--quota`, and a tracer when `--trace-out` asks
/// for a timeline.
fn start_service(options: &Options, spec_workers: Option<usize>) -> Result<EvalService, DseError> {
    let cache = match &options.cache {
        Some(path) => EvalCache::load(path)?,
        None => EvalCache::new(),
    };
    let mut config = ServiceConfig::new();
    if let Some(workers) = options.workers.or(spec_workers) {
        config = config.with_workers(workers);
    }
    if options.trace_out.is_some() {
        config = config.with_tracer(Tracer::new(DEFAULT_TRACE_CAPACITY));
    }
    if let Some(queue) = options.queue {
        config = config.with_queue_capacity(queue);
    }
    if let Some(quota) = options.quota {
        config = config.with_tenant_quota(quota);
    }
    Ok(EvalService::with_cache(config, cache))
}

fn write_file(path: &Path, contents: &str) -> Result<(), DseError> {
    std::fs::write(path, contents)
        .map_err(|e| DseError::io(format!("cannot write {}: {e}", path.display())))
}

/// Writes a run's files: the `--csv`/`--json` exports of `outcomes`,
/// the `--trace-out` timeline and the `--metrics-out` exposition.
fn write_outputs(
    service: &EvalService,
    options: &Options,
    reporter: &Reporter,
    outcomes: &[DseOutcome],
) -> Result<(), DseError> {
    if let Some(path) = &options.csv {
        write_file(path, &export::to_csv(outcomes))?;
        reporter.machine(&format!("\nwrote CSV -> {}", path.display()));
    }
    if let Some(path) = &options.json {
        write_file(path, &export::to_json(outcomes))?;
        reporter.machine(&format!("wrote JSON -> {}", path.display()));
    }
    if let (Some(path), Some(tracer)) = (&options.trace_out, service.tracer()) {
        write_file(path, &tracer.to_chrome_json())?;
        reporter.machine(&format!("wrote trace -> {}", path.display()));
    }
    if let Some(path) = &options.metrics_out {
        write_file(path, &service.render_metrics())?;
        reporter.machine(&format!("wrote metrics -> {}", path.display()));
    }
    Ok(())
}

fn read_spec(path: &Path) -> Result<String, DseError> {
    std::fs::read_to_string(path)
        .map_err(|e| DseError::io(format!("cannot read {}: {e}", path.display())))
}

/// The successful and the replayed outcomes.
fn tally(outcomes: &[DseOutcome]) -> (usize, usize) {
    let succeeded = outcomes.iter().filter(|o| o.result.is_ok()).count();
    let replayed = outcomes
        .iter()
        .filter(|o| o.result.as_ref().is_ok_and(|e| e.eval_path.is_replayed()))
        .count();
    (succeeded, replayed)
}

fn run_journal_compact(path: &Path) -> Result<ExitCode, DseError> {
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

fn run_sweep(spec_path: &Path, options: &Options) -> Result<ExitCode, DseError> {
    let mut spec = SweepSpec::from_json(&read_spec(spec_path)?)?;
    if let Some(search) = options.search {
        spec.search_modes = vec![search];
    }
    let name = spec.name.clone().unwrap_or_else(|| spec_path.display().to_string());
    let service = start_service(options, spec.workers)?;
    let reporter = Reporter::stdout(options.quiet);
    reporter.note(&format!(
        "sweep `{name}`: {} points on {} worker(s), {} cached evaluation(s) loaded",
        spec.point_count(),
        service.workers(),
        service.cache().len()
    ));

    let started = Instant::now();
    let journal = options.journal.as_deref().map(SweepJournal::open).transpose()?.map(Arc::new);
    let submission = Submission { jobs: expand_jobs(&spec)?, journal, ..Submission::default() };
    let outcomes = service.submit_batch(submission)?.wait_with(|p| reporter.point(p));
    let elapsed = started.elapsed();

    let (succeeded, replayed) = tally(&outcomes);
    let failed = outcomes.len() - succeeded;
    let stats = service.cache().stats();
    reporter.machine(&format!(
        "\n{} points in {:.2?}: {succeeded} ok, {failed} failed, {replayed} replayed; cache {} hits / {} misses ({:.0}% hit)",
        outcomes.len(),
        elapsed,
        stats.hits,
        stats.misses,
        stats.hit_ratio() * 100.0
    ));
    reporter.latency_summary(&service.metrics_snapshot());
    if let Some(path) = &options.journal {
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

    report_outcomes(&outcomes, &reporter, options.objective.unwrap_or_default());
    write_outputs(&service, options, &reporter, &outcomes)?;
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

fn run_explore(spec_path: &Path, options: &Options) -> Result<ExitCode, DseError> {
    let mut spec = ExploreSpec::from_json(&read_spec(spec_path)?)?;
    spec.budget = options.budget.unwrap_or(spec.budget);
    spec.algorithm = options.algorithm.unwrap_or(spec.algorithm);
    spec.seed = options.seed.unwrap_or(spec.seed);
    spec.objective = options.objective.unwrap_or(spec.objective);
    if let Some(ladder) = &options.ladder {
        spec.ladder = ladder.clone();
    }
    spec.scout_share = options.scout_share.or(spec.scout_share);
    spec.stall_generations = options.stall.or(spec.stall_generations);
    spec.caps.max_area_mm2 = options.max_area.or(spec.caps.max_area_mm2);
    spec.caps.max_power_w = options.max_power.or(spec.caps.max_power_w);
    let name = spec.space.name.clone().unwrap_or_else(|| spec_path.display().to_string());

    let service = start_service(options, spec.space.workers)?;
    let reporter = Reporter::stdout(options.quiet);
    reporter.note(&format!(
        "explore `{name}`: {} algorithm, budget {} of a {}-point space, seed {}, {} worker(s)",
        spec.algorithm,
        spec.budget,
        spec.space.point_count(),
        spec.seed,
        service.workers()
    ));

    let started = Instant::now();
    let journal = options.journal.as_deref().map(SweepJournal::open).transpose()?.map(Arc::new);
    let report = explore(&spec, &service, journal.as_ref())?;
    let elapsed = started.elapsed();

    let (succeeded, replayed) = tally(&report.outcomes);
    let resumed = report.outcomes.iter().filter(|o| o.cached).count();
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
    if let Some(path) = &options.journal {
        reporter.machine(&format!("journal -> {}", path.display()));
    }

    report_outcomes(&report.outcomes, &reporter, spec.objective);
    write_outputs(&service, options, &reporter, &report.outcomes)?;
    Ok(if succeeded > 0 { ExitCode::SUCCESS } else { ExitCode::from(2) })
}

fn run_serve(options: &Options) -> Result<ExitCode, DseError> {
    let service = Arc::new(start_service(options, None)?);
    // stdout carries the wire protocol, so the reporter goes to stderr.
    let reporter = Reporter::stderr(options.quiet);
    reporter.note(&format!(
        "cimflow-dse serve: {} worker(s), queue {}, per-tenant quota {}, {} cached evaluation(s)",
        service.workers(),
        options.queue.map_or_else(|| "unbounded".to_owned(), |q| q.to_string()),
        options.quota.map_or_else(|| "off".to_owned(), |q| q.to_string()),
        service.cache().len()
    ));

    match options.tcp {
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
    let cache = service.cache().stats();
    reporter.machine(&format!(
        "cimflow-dse serve: {} submitted, {} completed, {} cancelled, {} rejected; cache {} hits / {} misses",
        stats.submitted, stats.completed, stats.cancelled, stats.rejected, cache.hits, cache.misses
    ));
    reporter.latency_summary(&service.metrics_snapshot());
    write_outputs(&service, options, &reporter, &[])?;
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let cli = match parse_args(std::env::args().skip(1)) {
        Ok(Some(cli)) => cli,
        Ok(None) => {
            println!("{}", usage());
            return ExitCode::SUCCESS;
        }
        Err(message) => {
            eprintln!("{message}\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    let outcome = match cli.mode {
        Mode::Sweep => run_sweep(&cli.path, &cli.options),
        Mode::Explore => run_explore(&cli.path, &cli.options),
        Mode::Serve => run_serve(&cli.options),
        Mode::Journal => run_journal_compact(&cli.path),
    };
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("cimflow-dse: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_help_line_lists_exactly_the_flags_of_its_mode() {
        let help = usage();
        let lines: Vec<&str> = help.lines().collect();
        assert_eq!(lines.len(), Mode::ALL.len());
        for (mode, line) in Mode::ALL.into_iter().zip(lines) {
            assert!(line.contains(&format!("cimflow-dse {}", mode.synopsis())), "{line}");
            let listed: Vec<&str> = line
                .split('[')
                .skip(1)
                .map(|flag| flag.split([' ', ']']).next().unwrap_or_default())
                .collect();
            let table: Vec<&str> =
                FLAGS.iter().filter(|flag| flag.applies_to(mode)).map(|flag| flag.name).collect();
            assert_eq!(listed, table, "{} mode", mode.name());
        }
    }

    #[test]
    fn every_flag_has_a_value_arm() {
        for flag in FLAGS {
            // Any value: a parse error is fine, a missing arm panics.
            let _ = Options::default().set(flag.name, "1");
        }
    }
}
