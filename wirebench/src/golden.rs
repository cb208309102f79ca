//! Golden outcomes and the check every measured response goes through.
//!
//! The tables under `goldens/` hold each point's `total_cycles` and
//! `energy_mj` as the interpreter (`evaluate_with_search`: compile, then
//! `Simulator::run`) computes them. The interpreter shares nothing with
//! the cache, trace-store, replay and wire paths the workloads drive, so a
//! change that only makes those paths faster must leave every value
//! bit-identical. The tables cover each workload's whole space, not just
//! the points one seed draws, so any seed is checked in full.

use std::collections::HashMap;
use std::path::Path;

use cimflow_arch::ArchConfig;
use cimflow_dse::serve::{Response, WireOutcome};
use cimflow_dse::{evaluate_with_search, PointSpec};

use crate::gen::{self, Ask, Workload, DESIGNS, MESH_NODES, SETUP_FREQS};

/// A second clock the generator re-evaluates every ladder point at, to
/// show that frequency moves neither statistic.
const CHECK_MHZ: u32 = 500;

/// One workload's golden table: key → (total cycles, energy in mJ).
pub struct Goldens(HashMap<String, (u64, f64)>);

impl Goldens {
    /// The committed table of `workload`.
    pub fn of(workload: Workload) -> Self {
        let text = match workload {
            Workload::ColdPoints => include_str!("../goldens/cold_points.tsv"),
            Workload::RetimeLadder => include_str!("../goldens/retime_ladder.tsv"),
            Workload::WarmWire => include_str!("../goldens/warm_wire.tsv"),
        };
        let rows = text
            .lines()
            .filter(|line| !line.is_empty() && !line.starts_with('#'))
            .map(|line| {
                let mut fields = line.split('\t');
                let (Some(key), Some(cycles), Some(energy), None) =
                    (fields.next(), fields.next(), fields.next(), fields.next())
                else {
                    panic!("malformed golden row `{line}`");
                };
                let cycles = cycles.parse().expect("golden cycles are integers");
                let energy = energy.parse().expect("golden energy is a float");
                (key.to_owned(), (cycles, energy))
            })
            .collect();
        Goldens(rows)
    }

    /// Number of rows.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Compares one wire outcome with the golden row `key`.
    fn check(&self, key: &str, outcome: &WireOutcome) -> Result<(), String> {
        let &(cycles, energy) =
            self.0.get(key).ok_or_else(|| format!("no golden row for `{key}`"))?;
        if !outcome.ok {
            return Err(format!("{}: not ok: {:?}", outcome.label, outcome.error));
        }
        let got = (outcome.total_cycles, outcome.energy_mj.map(f64::to_bits));
        if got != (Some(cycles), Some(energy.to_bits())) {
            return Err(format!(
                "{}: cycles/energy {:?}/{:?}, golden {cycles}/{energy}",
                outcome.label, outcome.total_cycles, outcome.energy_mj
            ));
        }
        Ok(())
    }
}

/// The verdict on one measured request.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Points whose outcome was missing, failed, rejected or off-golden.
    pub failed: usize,
    /// Points answered from the result cache.
    pub cached: usize,
    /// The first problem found, for the report.
    pub problem: Option<String>,
}

/// The points `ask` covers, in the order the wire returns them.
pub fn expected_points(ask: &Ask) -> Vec<PointSpec> {
    match ask {
        Ask::Point(point) => vec![point.request().point()],
        Ask::Ladder { design, ports, freqs } => {
            DESIGNS[*design].sweep(ports, freqs).expand().expect("ladder sweeps expand")
        }
        Ask::Sweep(index) => gen::warm_sweeps()[*index].expand().expect("fixture sweeps expand"),
    }
}

fn golden_key(ask: &Ask, point: &PointSpec) -> String {
    match ask {
        Ask::Point(cold) => cold.key(),
        Ask::Ladder { design, .. } => DESIGNS[*design].key(point.memory_port as u32),
        Ask::Sweep(_) => point.label(),
    }
}

/// Checks the final response line of one request against the goldens.
pub fn verify(goldens: &Goldens, ask: &Ask, response: &str) -> Verdict {
    let expected = expected_points(ask);
    let mut verdict = Verdict::default();
    let outcomes = match serde_json::from_str::<Response>(response) {
        Ok(Response::Result(outcome)) => vec![outcome],
        Ok(Response::BatchResult { outcomes, .. }) => outcomes,
        Ok(other) => {
            verdict.failed = expected.len();
            verdict.problem = Some(format!("unexpected response {other:?}"));
            return verdict;
        }
        Err(e) => {
            verdict.failed = expected.len();
            verdict.problem = Some(format!("unparseable response: {e}"));
            return verdict;
        }
    };
    if outcomes.len() != expected.len() {
        verdict.failed = expected.len();
        verdict.problem =
            Some(format!("{} outcomes for {} points", outcomes.len(), expected.len()));
        return verdict;
    }
    for (outcome, point) in outcomes.iter().zip(&expected) {
        verdict.cached += usize::from(outcome.cached);
        let result = if outcome.label == point.label() {
            goldens.check(&golden_key(ask, point), outcome)
        } else {
            Err(format!("label `{}`, expected `{}`", outcome.label, point.label()))
        };
        if let Err(problem) = result {
            verdict.failed += 1;
            verdict.problem.get_or_insert(problem);
        }
    }
    verdict
}

// ---------------------------------------------------------------------------
// Generation
// ---------------------------------------------------------------------------

/// Evaluates `jobs` on two threads with the interpreter, keeping order.
fn evaluate_all(jobs: &[(String, PointSpec)]) -> Vec<(String, u64, f64)> {
    let evaluate = |(key, point): &(String, PointSpec)| {
        let model = cimflow_nn::models::by_name(&point.model.name, point.model.resolution)
            .expect("benchmark models exist");
        let arch = point.arch(&ArchConfig::paper_default());
        let evaluation = evaluate_with_search(&arch, &model, point.strategy, point.search)
            .unwrap_or_else(|e| panic!("{key}: the interpreter failed: {e}"));
        (key.clone(), evaluation.simulation.total_cycles, evaluation.simulation.energy_mj())
    };
    let mut rows: Vec<Option<(String, u64, f64)>> = vec![None; jobs.len()];
    std::thread::scope(|scope| {
        let halves: Vec<_> = (0..2)
            .map(|half| {
                scope.spawn(move || {
                    jobs.iter()
                        .enumerate()
                        .skip(half)
                        .step_by(2)
                        .map(|(i, job)| (i, evaluate(job)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for half in halves {
            for (i, row) in half.join().expect("golden worker panicked") {
                rows[i] = Some(row);
            }
        }
    });
    rows.into_iter().map(|row| row.expect("every job evaluated")).collect()
}

fn write_table(dir: &Path, workload: Workload, header: &str, rows: &[(String, u64, f64)]) {
    let mut text = format!(
        "# {} goldens: key<TAB>total_cycles<TAB>energy_mj, from evaluate_with_search.\n# {header}\n",
        workload.name()
    );
    for (key, cycles, energy) in rows {
        text.push_str(&format!("{key}\t{cycles}\t{energy}\n"));
    }
    let path = dir.join(format!("{}.tsv", workload.name()));
    std::fs::write(&path, text).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    eprintln!("wrote {} rows to {}", rows.len(), path.display());
}

/// Regenerates every golden table into `dir`.
pub fn generate(dir: &Path) {
    let cold: Vec<(String, PointSpec)> =
        gen::cold_space().iter().map(|p| (p.key(), p.request().point())).collect();
    write_table(
        dir,
        Workload::ColdPoints,
        "key: model resolution strategy chips mg flit",
        &evaluate_all(&cold),
    );

    // Every ladder point at its set-up clock and at CHECK_MHZ: the two
    // must agree, which is what lets the table drop the frequency.
    let mut ladder = Vec::new();
    for design in DESIGNS {
        for port in 0..MESH_NODES {
            for mhz in [SETUP_FREQS[0], CHECK_MHZ] {
                let spec = design.sweep(&[port], &[mhz]);
                let point = spec.expand().expect("ladder sweeps expand").remove(0);
                ladder.push((design.key(port), point));
            }
        }
    }
    let rows = evaluate_all(&ladder);
    let mut unique = Vec::new();
    for pair in rows.chunks(2) {
        assert_eq!(
            (pair[0].1, pair[0].2.to_bits()),
            (pair[1].1, pair[1].2.to_bits()),
            "{}: frequency changed cycles or energy",
            pair[0].0
        );
        unique.push(pair[0].clone());
    }
    write_table(
        dir,
        Workload::RetimeLadder,
        &format!(
            "key: model resolution strategy chips port (at {} MHz; equal at {CHECK_MHZ} MHz)",
            SETUP_FREQS[0]
        ),
        &unique,
    );

    let warm: Vec<(String, PointSpec)> =
        gen::warm_points().into_iter().map(|p| (p.label(), p)).collect();
    write_table(dir, Workload::WarmWire, "key: point label", &evaluate_all(&warm));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn goldens_cover_every_point_of_every_space() {
        let cold = Goldens::of(Workload::ColdPoints);
        assert_eq!(cold.len(), gen::cold_space().len());
        for point in gen::cold_space() {
            assert!(cold.0.contains_key(&point.key()), "{}", point.key());
        }
        let ladder = Goldens::of(Workload::RetimeLadder);
        assert_eq!(ladder.len(), DESIGNS.len() * MESH_NODES as usize);
        let warm = Goldens::of(Workload::WarmWire);
        for point in gen::warm_points() {
            assert!(warm.0.contains_key(&point.label()), "{}", point.label());
        }
    }

    #[test]
    fn the_default_and_held_out_seeds_draw_only_golden_points() {
        use crate::gen::{Plan, CLIENTS, DEFAULT_SEED, HELD_OUT_SEED};
        for workload in Workload::ALL {
            let goldens = Goldens::of(workload);
            for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
                let plan = Plan::new(workload, seed);
                // Every request the plan holds; warm_wire's plan repeats
                // its 12 sweeps forever, so four rounds of them.
                let requests = if workload == Workload::WarmWire { 48 } else { plan.capacity() };
                for i in 0..requests {
                    let generated =
                        plan.request(i % CLIENTS, i / CLIENTS).expect("within capacity");
                    for point in expected_points(&generated.ask) {
                        let key = golden_key(&generated.ask, &point);
                        assert!(goldens.0.contains_key(&key), "{}: {key}", workload.name());
                    }
                }
            }
        }
    }

    #[test]
    fn a_changed_statistic_fails_the_check() {
        let goldens = Goldens::of(Workload::WarmWire);
        let point = &gen::warm_points()[0];
        let &(cycles, energy) = goldens.0.get(&point.label()).unwrap();
        let mut outcome = WireOutcome {
            job: Some(1),
            label: point.label(),
            ok: true,
            cached: true,
            error: None,
            total_cycles: Some(cycles),
            energy_mj: Some(energy),
            throughput_tops: None,
            serving: None,
        };
        assert!(goldens.check(&point.label(), &outcome).is_ok());
        outcome.energy_mj = Some(f64::from_bits(energy.to_bits() + 1));
        assert!(goldens.check(&point.label(), &outcome).is_err());
        outcome.energy_mj = Some(energy);
        outcome.total_cycles = Some(cycles + 1);
        assert!(goldens.check(&point.label(), &outcome).is_err());
    }
}
