//! Each workload's untimed fixture and its timed set-up (`setup_s`).
//!
//! Set-up is repeated in fresh services and reported as the median, and
//! it times only fixed, deterministic work: starting the service and
//! answering a fixed set of warm-up points (cold_points), starting it and
//! recording the ladder designs through the wire (retime_ladder), or
//! loading the fixture cache file into it (warm_wire).

use std::path::{Path, PathBuf};
use std::time::Instant;

use cimflow_compiler::Strategy;
use cimflow_dse::serve::{Connection, Request, Response};
use cimflow_dse::{EvalCache, EvalRequest, EvalService, ServiceConfig};
use cimflow_obs::Tracer;

use crate::gen::{self, Ask, Workload, DESIGNS, SETUP_FREQS};
use crate::golden::{self, Goldens};
use crate::stats;
use crate::wire;

/// Service workers: one per CPU of the 2-CPU reference machine.
pub const WORKERS: usize = 2;

/// Set-up repetitions per run (odd, for a plain median).
pub fn repetitions(workload: Workload) -> usize {
    match workload {
        Workload::ColdPoints => 9,
        Workload::RetimeLadder => 11,
        Workload::WarmWire => 7,
    }
}

/// Answered points at which a run of `seconds` reads its peak RSS: a fixed
/// amount of work per second of run, about 40% of what the reference
/// machine answers, so memory that grows with the points answered (the
/// result cache keeps every one) is compared at equal work however fast
/// the run goes.
pub fn memory_mark(workload: Workload, seconds: f64) -> usize {
    let per_second = match workload {
        Workload::ColdPoints => 70.0,
        Workload::RetimeLadder => 512.0,
        Workload::WarmWire => 800.0,
    };
    (per_second * seconds) as usize
}

/// The service configuration every phase uses.
pub fn config(tracer: Option<&Tracer>) -> ServiceConfig {
    let config = ServiceConfig::new().with_workers(WORKERS);
    match tracer {
        Some(tracer) => config.with_tracer(tracer.clone()),
        None => config,
    }
}

/// The warm_wire fixture: a cache file written by a fresh process.
pub struct Fixture {
    /// The cache file.
    pub path: PathBuf,
    /// Its size in bytes.
    pub bytes: u64,
    /// Entries it must load as.
    pub entries: usize,
}

/// A service ready for the measured phase.
pub struct Ready {
    /// The service.
    pub service: EvalService,
    /// Median set-up seconds over the repetitions.
    pub setup_s: f64,
}

/// Builds the untimed fixture of `workload` inside `dir` (warm_wire only):
/// a child process of this binary evaluates the fixture sweeps cold and
/// saves the cache file, so the measuring process's peak memory never
/// holds that work.
pub fn fixture(workload: Workload, dir: &Path) -> Result<Option<Fixture>, String> {
    if workload != Workload::WarmWire {
        return Ok(None);
    }
    let path = dir.join("fixture-cache.json");
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this binary: {e}"))?;
    let status = std::process::Command::new(exe)
        .arg("fixture")
        .arg(&path)
        .status()
        .map_err(|e| format!("cannot start the fixture process: {e}"))?;
    if !status.success() {
        return Err(format!("the fixture process failed: {status}"));
    }
    let bytes = std::fs::metadata(&path).map_err(|e| format!("fixture cache: {e}"))?.len();
    Ok(Some(Fixture { path, bytes, entries: gen::warm_points().len() }))
}

/// Evaluates the warm fixture sweeps cold and saves the cache (the body
/// of the `fixture` child process).
pub fn write_fixture(path: &Path) -> Result<(), String> {
    let service = EvalService::new(config(None));
    let batches: Vec<_> = gen::warm_sweeps()
        .iter()
        .map(|spec| service.submit_sweep(spec).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    for batch in batches {
        for outcome in batch.wait() {
            if let Err(e) = outcome.result {
                return Err(format!("{}: {e}", outcome.point.label()));
            }
        }
    }
    service.cache().save(path).map_err(|e| e.to_string())
}

/// Starts the service `repetitions` times, timing each set-up, and keeps
/// the last one.
pub fn setup(
    workload: Workload,
    fixture: Option<&Fixture>,
    repetitions: usize,
    tracer: Option<&Tracer>,
    goldens: &Goldens,
) -> Result<Ready, String> {
    let mut times = Vec::with_capacity(repetitions);
    let mut ready = None;
    let mut recorded = Vec::new();
    let mut warmed = Vec::new();
    for _ in 0..repetitions {
        drop(ready.take());
        let stolen = stats::host_steal_seconds().1;
        let began = Instant::now();
        let service = match workload {
            Workload::ColdPoints => {
                let service = EvalService::new(config(tracer));
                warmed = warm_up(&service);
                service
            }
            Workload::RetimeLadder => {
                let service = EvalService::new(config(tracer));
                recorded = record_designs(&service);
                service
            }
            Workload::WarmWire => {
                let fixture = fixture.expect("warm_wire has a fixture");
                let cache = EvalCache::load(&fixture.path).map_err(|e| e.to_string())?;
                EvalService::with_cache(config(tracer), cache)
            }
        };
        // Wall time less the host's steal, as for the measured phase.
        let wall = began.elapsed().as_secs_f64();
        times.push((wall - (stats::host_steal_seconds().1 - stolen)).max(wall * 0.05));
        for line in warmed.drain(..) {
            match serde_json::from_str::<Response>(&line) {
                Ok(Response::Result(outcome)) if outcome.ok && !outcome.cached => {}
                _ => return Err(format!("a warm-up point failed: {line}")),
            }
        }
        for (design, line) in recorded.drain(..).enumerate() {
            let ask = Ask::Ladder { design, ports: vec![0], freqs: SETUP_FREQS.to_vec() };
            let verdict = golden::verify(goldens, &ask, &line);
            if verdict.failed > 0 {
                return Err(format!(
                    "set-up recording failed: {}",
                    verdict.problem.unwrap_or_default()
                ));
            }
        }
        if let Some(fixture) = fixture {
            // EvalCache::load silently starts cold on a format or engine
            // mismatch, which would turn warm_wire into a cold workload.
            let loaded = service.cache().len();
            if loaded != fixture.entries {
                return Err(format!(
                    "the fixture cache loaded {loaded} entries, expected {}",
                    fixture.entries
                ));
            }
        }
        ready = Some(service);
    }
    Ok(Ready { service: ready.expect("at least one repetition"), setup_s: stats::median(&times) })
}

/// cold_points' warm-up points: every model and strategy and both chip
/// counts, with the DP-partitioned ones setting the pace, about 0.2 s of
/// work in all, so that a set-up is long enough to time steadily. All lie
/// outside the cold space (no cold point has 10 macros per group), so
/// none turns a measured point into a hit.
const WARM_UP: [(&str, u32, Strategy, u32); 8] = [
    ("mobilenetv2", 32, Strategy::DpOptimized, 1),
    ("efficientnetb0", 32, Strategy::DpOptimized, 2),
    ("mobilenetv2", 48, Strategy::DpOptimized, 2),
    ("efficientnetb0", 48, Strategy::DpOptimized, 1),
    ("resnet18", 48, Strategy::GenericMapping, 1),
    ("vgg19", 48, Strategy::OperatorDuplication, 2),
    ("resnet18", 64, Strategy::DpOptimized, 2),
    ("vgg19", 64, Strategy::GenericMapping, 1),
];

/// Answers the warm-up points through the wire one after another (so the
/// set-up is the same work in the same order every time, not a race of
/// the two workers for the next point) and returns their result lines.
fn warm_up(service: &EvalService) -> Vec<String> {
    let mut connection = Connection::new(service);
    WARM_UP
        .iter()
        .map(|&(model, resolution, strategy, chips)| {
            let request = EvalRequest::new(model, resolution, strategy)
                .with_chip_count(chips)
                .with_mg_size(10);
            let line = serde_json::to_string(&Request::Submit(Box::new(request)))
                .expect("requests serialize");
            wire::exchange(&mut connection, &line)
        })
        .collect()
}

/// Records every ladder design through the wire, one after another as
/// for the warm-up points: one 2-point sweep per design (a traced group:
/// the first point records, the second replays). Returns each design's
/// result line.
fn record_designs(service: &EvalService) -> Vec<String> {
    let mut connection = Connection::new(service);
    DESIGNS
        .iter()
        .map(|design| {
            wire::exchange(&mut connection, &gen::sweep_line(design.sweep(&[0], &SETUP_FREQS)))
        })
        .collect()
}
