//! `wirebench`: the wire-level benchmark of the CIMFlow evaluation service.
//!
//! ```text
//! wirebench --workload <cold_points|retime_ladder|warm_wire> --seed <n> --seconds <s> --trace <0|1>
//! wirebench goldens <dir>      regenerate the golden tables with the interpreter
//! wirebench fixture <file>     (internal) write warm_wire's fixture cache file
//! ```
//!
//! A run drives one seeded workload through the NDJSON wire protocol of an
//! in-process `EvalService` for `--seconds`, checks every outcome against
//! the committed goldens, and prints the end-to-end metrics (`--trace 0`)
//! or the traced per-layer ledger (`--trace 1`). The last stdout line is
//! the machine-readable result; see `README.md`.

mod gen;
mod golden;
mod ledger;
mod setup;
mod stats;
mod wire;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use gen::{Plan, Workload};
use golden::Goldens;

/// Parsed command line of a measuring run.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = gen::DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        let value = rest.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed `{value}`"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| format!("bad --seconds `{value}`"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds {value} outside (0, 600]"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                };
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args { workload: workload.ok_or("--workload is required")?, seed, seconds, trace })
}

/// A per-run scratch directory inside the build directory (and so inside
/// the checkout), removed when the run ends.
pub struct RunDir(PathBuf);

impl RunDir {
    fn create() -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| format!("cannot locate this binary: {e}"))?;
        let dir = exe
            .parent()
            .ok_or("the binary has no parent directory")?
            .join("wirebench-runs")
            .join(format!("run-{}", std::process::id()));
        // A directory left by a killed run with the same pid holds nothing
        // this run may reuse.
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(RunDir(dir))
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One reported metric.
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// What a run reports.
pub struct Report {
    /// Whether every outcome matched its golden and every guard held.
    pub correct: bool,
    /// Design points attempted.
    pub attempted: usize,
    /// Design points failed.
    pub failed: usize,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// The machine-readable result line.
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                assert!(m.value.is_finite(), "{} is not finite", m.name);
                format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit)
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Verification totals of one measured phase.
pub struct Checked {
    /// Requests sent.
    pub requests: usize,
    /// Requests with at least one failed point.
    pub failed_requests: usize,
    /// Points attempted.
    pub points: usize,
    /// Points failed.
    pub failed: usize,
    /// Points answered from the result cache.
    pub cached: usize,
}

/// Checks every exchange of a phase against the goldens.
pub fn check(goldens: &Goldens, phase: &wire::Phase) -> Checked {
    let mut checked = Checked { requests: 0, failed_requests: 0, points: 0, failed: 0, cached: 0 };
    let mut reported = 0;
    for exchange in &phase.exchanges {
        let verdict = golden::verify(goldens, &exchange.ask, &exchange.response);
        checked.requests += 1;
        checked.points += exchange.points;
        checked.failed += verdict.failed;
        checked.cached += verdict.cached;
        if verdict.failed > 0 {
            checked.failed_requests += 1;
            if reported < 5 {
                reported += 1;
                eprintln!("wirebench: failed request: {}", verdict.problem.unwrap_or_default());
            }
        }
    }
    checked
}

/// The guards that keep a workload the workload it claims to be.
pub fn guards(
    workload: Workload,
    phase: &wire::Phase,
    checked: &Checked,
    service: &cimflow_dse::EvalService,
    hits: u64,
) -> Vec<String> {
    let mut problems = Vec::new();
    if phase.spent {
        problems.push("the plan ran out before the run ended".to_owned());
    }
    if workload == Workload::WarmWire {
        if checked.cached != checked.points {
            problems.push(format!("{} of {} points cached", checked.cached, checked.points));
        }
    } else if checked.cached > 0 || hits > 0 {
        problems.push(format!("{} cached outcomes, {hits} cache hits", checked.cached));
    }
    if workload == Workload::RetimeLadder {
        let traces = service.trace_store().stats();
        if traces.recorded != gen::DESIGNS.len() as u64 || traces.evicted != 0 {
            problems.push(format!(
                "trace store recorded {} and evicted {} (expected {} and 0)",
                traces.recorded,
                traces.evicted,
                gen::DESIGNS.len()
            ));
        }
    }
    problems
}

/// An end-to-end run: untraced, one set-up, one measured phase.
fn end_to_end(args: &Args) -> Result<Report, String> {
    let dir = RunDir::create()?;
    let goldens = Goldens::of(args.workload);
    let fixture = setup::fixture(args.workload, dir.path())?;
    let ready = setup::setup(
        args.workload,
        fixture.as_ref(),
        setup::repetitions(args.workload),
        None,
        &goldens,
    )?;
    let plan = Plan::new(args.workload, args.seed);
    let hits0 = ready.service.cache().stats().hits;
    let phase = wire::run(
        &ready.service,
        &plan,
        args.seconds,
        setup::memory_mark(args.workload, args.seconds),
        None,
    );
    let hits = ready.service.cache().stats().hits - hits0;
    let checked = check(&goldens, &phase);
    let problems = guards(args.workload, &phase, &checked, &ready.service, hits);
    drop(ready.service);
    for problem in &problems {
        eprintln!("wirebench: guard failed: {problem}");
    }
    let Some(peak_rss_mib) = phase.peak_rss_mib else {
        return Err(format!(
            "the plan ran out at {} points, short of the {}-point memory mark",
            checked.points,
            setup::memory_mark(args.workload, args.seconds)
        ));
    };

    let latencies = phase.latencies_ms(true);
    let p50 = stats::percentile(&latencies, 50.0);
    let p90 = stats::percentile(&latencies, 90.0);
    let (Some(p50), Some(p90)) = (p50, p90) else {
        return Err(format!("{} requests are too few for a p90", latencies.len()));
    };
    let windows = phase.windows();
    if windows.len() != wire::WINDOWS {
        return Err(format!("{} of {} measurement windows closed", windows.len(), wire::WINDOWS));
    }
    let throughput: Vec<f64> = windows.iter().map(wire::Window::points_per_s).collect();
    let cpu: Vec<f64> = windows.iter().map(wire::Window::cpu_ms_per_point).collect();
    let metrics = vec![
        Metric { name: "points_per_s", unit: "1/s", value: stats::median(&throughput) },
        Metric { name: "cpu_ms_per_point", unit: "ms", value: stats::median(&cpu) },
        Metric { name: "request_p50_ms", unit: "ms", value: p50 },
        Metric { name: "request_p90_ms", unit: "ms", value: p90 },
        Metric { name: "setup_s", unit: "s", value: ready.setup_s },
        Metric { name: "peak_rss_mb", unit: "MiB", value: peak_rss_mib },
    ];
    println!(
        "wirebench {} seed={} seconds={}: requests {} (failed {}), points {} (failed {}), cached {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        checked.requests,
        checked.failed_requests,
        checked.points,
        checked.failed,
        checked.cached
    );
    for metric in &metrics {
        println!("  {:<18} {:>14.4} {}", metric.name, metric.value, metric.unit);
    }
    let raw = phase.latencies_ms(false);
    let windows: Vec<String> = windows
        .iter()
        .map(|w| format!("[{}, {}, {}]", w.points_per_s(), w.cpu_ms_per_point(), w.available()))
        .collect();
    println!(
        "{{\"diagnostics\": {{\"workload\": \"{}\", \"seed\": {}, \"requests\": {}, \"points\": {}, \"timed_points\": {}, \"wall_s\": {}, \"cpu_s\": {}, \"steal_s\": {}, \"stolen_per_cpu_s\": {}, \"nproc\": {}, \"raw_points_per_s\": {}, \"raw_p50_ms\": {}, \"raw_p90_ms\": {}, \"fixture_bytes\": {}, \"windows\": [{}]}}}}",
        args.workload.name(),
        args.seed,
        checked.requests,
        checked.points,
        phase.points(),
        phase.wall_s,
        phase.cpu_s,
        phase.steal_s,
        phase.stolen_s,
        stats::nproc(),
        phase.points() as f64 / phase.wall_s,
        stats::percentile(&raw, 50.0).unwrap_or(0.0),
        stats::percentile(&raw, 90.0).unwrap_or(0.0),
        fixture.as_ref().map_or(0, |f| f.bytes),
        windows.join(", ")
    );
    Ok(Report {
        correct: checked.failed == 0 && problems.is_empty(),
        attempted: checked.points,
        failed: checked.failed,
        metrics,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("goldens") => {
            let dir = args.get(1).map_or_else(|| PathBuf::from("wirebench/goldens"), PathBuf::from);
            golden::generate(&dir);
            return ExitCode::SUCCESS;
        }
        Some("fixture") => {
            let Some(path) = args.get(1) else {
                eprintln!("wirebench: fixture needs a file");
                return ExitCode::FAILURE;
            };
            return match setup::write_fixture(Path::new(path)) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("wirebench: fixture: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        _ => parse_args(&args).and_then(|args| {
            if args.trace {
                ledger::run(args.workload, args.seed, args.seconds)
            } else {
                end_to_end(&args)
            }
        }),
    };
    match result {
        Ok(report) => {
            println!("{}", report.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("wirebench: {e}");
            ExitCode::FAILURE
        }
    }
}
