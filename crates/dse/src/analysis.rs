//! Sweep analysis: Pareto-frontier extraction over (cycles, energy),
//! best-configuration selection per model, and the frontier-quality
//! helpers (non-dominated ranks, crowding distances, hypervolume) the
//! adaptive exploration engine selects by.
//!
//! # The non-finite-objective contract
//!
//! Every function in this module minimizes the pair `(cycles, energy)`
//! and treats a **non-finite energy (NaN or ±∞) as "not a valid
//! objective"**: such points are never on a frontier, never dominate
//! anything, receive the worst possible rank and a zero crowding
//! distance, and contribute nothing to a hypervolume. A NaN energy would
//! otherwise poison every `<` comparison silently (it compares false
//! both ways, so a NaN point could shadow a real duplicate or slip
//! through a domination test); filtering explicitly keeps the frontier
//! semantics total.

use std::collections::BTreeMap;

use serde::Content;

use crate::{DseOutcome, Evaluation};

/// Which scalar pair a Pareto comparison minimizes.
///
/// Every frontier in this module is 2-D: an integer "speed" axis and a
/// floating-point energy axis. The objective selects what those axes
/// *mean* for a given sweep:
///
/// - [`Objective::Cycles`] — classic offline sweeps: single-inference
///   latency in cycles against single-inference energy.
/// - [`Objective::P99Latency`] — serving sweeps: the p99 request latency
///   (in integer nanoseconds) under the point's offered load, against
///   the energy of the whole serving run. Points evaluated without a
///   traffic workload have no serving metrics and are excluded from
///   p99 frontiers entirely (mirroring the non-finite-energy contract).
/// - [`Objective::Area`] — hardware-cost sweeps: single-inference
///   latency in cycles against the system's silicon area in mm² (the
///   arch-derived [`AreaModel`](cimflow_energy::AreaModel)), trading
///   speed against die cost instead of against energy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Objective {
    /// Minimize single-inference latency in cycles (the default).
    #[default]
    Cycles,
    /// Minimize serving p99 request latency in nanoseconds.
    P99Latency,
    /// Minimize single-inference latency against silicon area in mm².
    Area,
}

impl serde::Serialize for Objective {
    fn serialize(&self) -> Content {
        Content::Str(self.to_string())
    }
}

impl serde::Deserialize for Objective {
    fn deserialize(content: &Content) -> Result<Self, serde::Error> {
        let text =
            content.as_str().ok_or_else(|| serde::Error::new("expected objective name string"))?;
        text.parse().map_err(serde::Error::new)
    }
}

impl Objective {
    /// The `(integer latency, energy_mj)` objective pair of one
    /// evaluation, or `None` when the evaluation lacks the required
    /// data (p99 requested on a point evaluated without traffic).
    pub fn of(self, evaluation: &Evaluation) -> Option<(u64, f64)> {
        match self {
            Objective::Cycles => {
                Some((evaluation.simulation.total_cycles, evaluation.simulation.energy_mj()))
            }
            Objective::P99Latency => {
                evaluation.serving.as_ref().map(|s| (s.p99_latency_ns(), s.energy_mj))
            }
            Objective::Area => {
                Some((evaluation.simulation.total_cycles, area_mm2(&evaluation.arch)))
            }
        }
    }
}

/// Total silicon area of an architecture in mm² under the default
/// 28 nm-calibrated [`AreaModel`](cimflow_energy::AreaModel): the float
/// axis of [`Objective::Area`] frontiers and the quantity the explorer's
/// `--max-area` feasibility cap bounds.
pub fn area_mm2(arch: &cimflow_arch::ArchConfig) -> f64 {
    cimflow_energy::AreaModel::default().system_mm2(arch)
}

impl std::str::FromStr for Objective {
    type Err = String;

    fn from_str(text: &str) -> Result<Self, Self::Err> {
        match text {
            "cycles" => Ok(Objective::Cycles),
            "p99" | "p99-latency" | "p99_latency" => Ok(Objective::P99Latency),
            "area" => Ok(Objective::Area),
            other => {
                Err(format!("unknown objective `{other}` (expected `cycles`, `p99` or `area`)"))
            }
        }
    }
}

impl std::fmt::Display for Objective {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Objective::Cycles => write!(f, "cycles"),
            Objective::P99Latency => write!(f, "p99"),
            Objective::Area => write!(f, "area"),
        }
    }
}

/// Whether point `a` dominates point `b` under minimization of both
/// objectives: no worse in both, strictly better in at least one.
///
/// A point with a non-finite energy neither dominates nor is dominated
/// in a useful sense: if either energy is NaN or infinite this returns
/// `false` (see the module-level contract).
pub fn dominates(a: (u64, f64), b: (u64, f64)) -> bool {
    if !a.1.is_finite() || !b.1.is_finite() {
        return false;
    }
    (a.0 <= b.0 && a.1 <= b.1) && (a.0 < b.0 || a.1 < b.1)
}

/// Indices of the non-dominated points of a `(cycles, energy)` set,
/// sorted by ascending cycles (ties broken by ascending energy, then by
/// index, so the result is deterministic).
///
/// Duplicated objective vectors are all kept — they dominate each other
/// in neither direction. Points with a non-finite energy are rejected
/// up front and can never appear in the result (nor shadow a duplicate
/// of a kept finite point); a set of only non-finite points has an
/// empty frontier.
pub fn pareto_indices(points: &[(u64, f64)]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..points.len()).filter(|&i| points[i].1.is_finite()).collect();
    order.sort_by(|&a, &b| {
        points[a].0.cmp(&points[b].0).then(points[a].1.total_cmp(&points[b].1)).then(a.cmp(&b))
    });
    let mut frontier = Vec::new();
    let mut best_energy = f64::INFINITY;
    for index in order {
        let (_, energy) = points[index];
        // Scanning by ascending cycles: a point is non-dominated iff its
        // energy beats every faster-or-equal point seen so far. Equal
        // objective vectors are kept (mutually non-dominating).
        let duplicate_of_kept =
            frontier.last().map(|&last: &usize| points[last] == points[index]).unwrap_or(false);
        if energy < best_energy || duplicate_of_kept {
            frontier.push(index);
            best_energy = best_energy.min(energy);
        }
    }
    frontier
}

/// Non-dominated sorting: the Pareto rank of every point (0 = on the
/// frontier, 1 = on the frontier once rank-0 points are removed, and so
/// on). Points with a non-finite energy get `usize::MAX` — they sort
/// behind every ranked point (module-level contract).
pub fn pareto_ranks(points: &[(u64, f64)]) -> Vec<usize> {
    let mut ranks = vec![usize::MAX; points.len()];
    let mut remaining: Vec<usize> =
        (0..points.len()).filter(|&i| points[i].1.is_finite()).collect();
    let mut rank = 0;
    while !remaining.is_empty() {
        let objectives: Vec<(u64, f64)> = remaining.iter().map(|&i| points[i]).collect();
        let front = pareto_indices(&objectives);
        for &local in &front {
            ranks[remaining[local]] = rank;
        }
        let on_front: std::collections::HashSet<usize> = front.into_iter().collect();
        remaining = remaining
            .into_iter()
            .enumerate()
            .filter(|(local, _)| !on_front.contains(local))
            .map(|(_, index)| index)
            .collect();
        rank += 1;
    }
    ranks
}

/// NSGA-II crowding distances computed within each rank class of
/// `ranks` (as produced by [`pareto_ranks`] over the same points):
/// boundary points of a front get `f64::INFINITY`, interior points the
/// normalized neighbor gap summed over both objectives. Non-finite
/// points (rank `usize::MAX`) get `0.0`.
pub fn crowding_distances(points: &[(u64, f64)], ranks: &[usize]) -> Vec<f64> {
    assert_eq!(points.len(), ranks.len(), "one rank per point");
    let mut distance = vec![0.0_f64; points.len()];
    let mut fronts: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (index, &rank) in ranks.iter().enumerate() {
        if rank != usize::MAX {
            fronts.entry(rank).or_default().push(index);
        }
    }
    for front in fronts.values() {
        if front.len() <= 2 {
            for &index in front {
                distance[index] = f64::INFINITY;
            }
            continue;
        }
        let mut by_cycles = front.clone();
        by_cycles.sort_by(|&a, &b| {
            points[a].0.cmp(&points[b].0).then(points[a].1.total_cmp(&points[b].1)).then(a.cmp(&b))
        });
        let first = points[*by_cycles.first().expect("non-empty front")];
        let last = points[*by_cycles.last().expect("non-empty front")];
        let cycle_range = (last.0.saturating_sub(first.0)).max(1) as f64;
        let energy_range = {
            let (mut low, mut high) = (f64::INFINITY, f64::NEG_INFINITY);
            for &index in front {
                low = low.min(points[index].1);
                high = high.max(points[index].1);
            }
            (high - low).max(f64::MIN_POSITIVE)
        };
        distance[by_cycles[0]] = f64::INFINITY;
        distance[*by_cycles.last().expect("non-empty front")] = f64::INFINITY;
        for window in by_cycles.windows(3) {
            let (previous, middle, next) = (points[window[0]], window[1], points[window[2]]);
            if distance[middle].is_infinite() {
                continue;
            }
            distance[middle] += (next.0 - previous.0) as f64 / cycle_range
                + (next.1 - previous.1).abs() / energy_range;
        }
    }
    distance
}

/// The 2-D hypervolume (dominated area) of the Pareto frontier of
/// `points` against a reference point `(ref_cycles, ref_energy)`: the
/// area of the region dominated by at least one frontier point and
/// bounded by the reference. A larger value is a better frontier;
/// the reference must be weakly worse than every point of interest
/// (points at or beyond it contribute nothing). Non-finite energies are
/// excluded per the module contract.
pub fn hypervolume(points: &[(u64, f64)], reference: (u64, f64)) -> f64 {
    let frontier = pareto_indices(points);
    let mut volume = 0.0;
    for (position, &index) in frontier.iter().enumerate() {
        let (cycles, energy) = points[index];
        if cycles >= reference.0 {
            break;
        }
        let next_cycles =
            frontier.get(position + 1).map_or(reference.0, |&n| points[n].0.min(reference.0));
        let height = (reference.1 - energy).max(0.0);
        volume += (next_cycles - cycles) as f64 * height;
    }
    volume
}

/// Indices (into `outcomes`) of the successful points on the
/// (cycles, energy) Pareto frontier, sorted by ascending cycles.
pub fn pareto_frontier(outcomes: &[DseOutcome]) -> Vec<usize> {
    pareto_frontier_with(outcomes, Objective::Cycles)
}

/// Indices (into `outcomes`) of the successful points on the Pareto
/// frontier of the chosen [`Objective`], sorted by ascending latency.
///
/// Points whose evaluation cannot express the objective (no serving
/// metrics under [`Objective::P99Latency`]) are excluded — a mixed
/// sweep where only some points ran traffic yields a frontier over the
/// served points only.
pub fn pareto_frontier_with(outcomes: &[DseOutcome], objective: Objective) -> Vec<usize> {
    let mut eligible = Vec::new();
    let mut objectives = Vec::new();
    for (index, outcome) in outcomes.iter().enumerate() {
        if let Some(pair) = outcome.evaluation().and_then(|e| objective.of(e)) {
            eligible.push(index);
            objectives.push(pair);
        }
    }
    pareto_indices(&objectives).into_iter().map(|local| eligible[local]).collect()
}

/// Per-model Pareto frontiers: maps each model name to the indices (into
/// `outcomes`) of its non-dominated successful points, sorted by
/// ascending cycles.
///
/// Comparing cycles/energy *across* workloads is meaningless (a compact
/// model dominates a large one on both axes by construction), so
/// reporting surfaces should use this per-model grouping;
/// [`pareto_frontier`] remains for single-model outcome sets and global
/// "is anything optimal at all" checks.
pub fn pareto_frontier_by_model(outcomes: &[DseOutcome]) -> BTreeMap<String, Vec<usize>> {
    pareto_frontier_by_model_with(outcomes, Objective::Cycles)
}

/// Per-model Pareto frontiers under the chosen [`Objective`] (see
/// [`pareto_frontier_by_model`] for why frontiers are always grouped by
/// model). Points that cannot express the objective are excluded per
/// [`pareto_frontier_with`]; a model whose points all lack serving
/// metrics simply does not appear in a p99 map.
pub fn pareto_frontier_by_model_with(
    outcomes: &[DseOutcome],
    objective: Objective,
) -> BTreeMap<String, Vec<usize>> {
    type Grouped = BTreeMap<String, Vec<(usize, (u64, f64))>>;
    let mut by_model: Grouped = BTreeMap::new();
    for (index, outcome) in outcomes.iter().enumerate() {
        if let Some(pair) = outcome.evaluation().and_then(|e| objective.of(e)) {
            by_model.entry(outcome.point.model.name.clone()).or_default().push((index, pair));
        }
    }
    by_model
        .into_iter()
        .map(|(model, entries)| {
            let objectives: Vec<(u64, f64)> = entries.iter().map(|&(_, pair)| pair).collect();
            let frontier =
                pareto_indices(&objectives).into_iter().map(|local| entries[local].0).collect();
            (model, frontier)
        })
        .collect()
}

/// The `(cycles, energy_mj)` objectives of every successful outcome,
/// grouped by model name (the extraction behind every per-model
/// comparison — frontier membership, hypervolume ratios, selection).
/// Non-finite energies are excluded per the module contract.
pub fn objectives_by_model(outcomes: &[DseOutcome]) -> BTreeMap<String, Vec<(u64, f64)>> {
    let mut by_model: BTreeMap<String, Vec<(u64, f64)>> = BTreeMap::new();
    for outcome in outcomes {
        if let Some(evaluation) = outcome.evaluation() {
            let objectives =
                (evaluation.simulation.total_cycles, evaluation.simulation.energy_mj());
            if objectives.1.is_finite() {
                by_model.entry(outcome.point.model.name.clone()).or_default().push(objectives);
            }
        }
    }
    by_model
}

/// Per-model reference points for hypervolume comparisons, weakly worse
/// than every successful outcome: `(max cycles + 1, max energy ×
/// energy_margin)`. Pass the same reference map to
/// [`hypervolume_by_model`] for every outcome set being compared — the
/// ratio between two frontiers is only meaningful against a shared
/// reference.
pub fn reference_points(
    outcomes: &[DseOutcome],
    energy_margin: f64,
) -> BTreeMap<String, (u64, f64)> {
    objectives_by_model(outcomes)
        .into_iter()
        .map(|(model, points)| {
            let cycles = points.iter().map(|p| p.0).max().unwrap_or(0) + 1;
            let energy = points.iter().map(|p| p.1).fold(0.0, f64::max) * energy_margin;
            (model, (cycles, energy))
        })
        .collect()
}

/// The per-model frontier [`hypervolume`] of `outcomes` against shared
/// per-model reference points (see [`reference_points`]); models absent
/// from `outcomes` score `0.0`.
pub fn hypervolume_by_model(
    outcomes: &[DseOutcome],
    references: &BTreeMap<String, (u64, f64)>,
) -> BTreeMap<String, f64> {
    let by_model = objectives_by_model(outcomes);
    references
        .iter()
        .map(|(model, &reference)| {
            let points = by_model.get(model).cloned().unwrap_or_default();
            (model.clone(), hypervolume(&points, reference))
        })
        .collect()
}

/// The fastest (minimum-cycles) successful point per model name; maps the
/// model name to an index into `outcomes`.
///
/// Cycle ties are broken by lower energy, then by lower index, so the
/// reported best point is never Pareto-dominated by another point with
/// equal cycles (keeping the first-seen point regardless of energy was
/// a long-standing bug). Points with a non-finite energy are skipped
/// entirely (module-level contract), even when they would win on
/// cycles.
pub fn best_per_model(outcomes: &[DseOutcome]) -> BTreeMap<String, usize> {
    let mut best: BTreeMap<String, usize> = BTreeMap::new();
    for (index, outcome) in outcomes.iter().enumerate() {
        let Some(evaluation) = outcome.evaluation() else { continue };
        if !evaluation.simulation.energy_mj().is_finite() {
            continue;
        }
        let objectives =
            (evaluation.simulation.total_cycles, evaluation.simulation.energy_mj(), index);
        let better = match best.get(&outcome.point.model.name) {
            Some(&current) => {
                let held = outcomes[current].evaluation().expect("best points are successes");
                let held = (held.simulation.total_cycles, held.simulation.energy_mj(), current);
                objectives.0 < held.0
                    || (objectives.0 == held.0 && objectives.1.total_cmp(&held.1).is_lt())
            }
            None => true,
        };
        if better {
            best.insert(outcome.point.model.name.clone(), index);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn domination_is_strict_somewhere() {
        assert!(dominates((10, 1.0), (20, 2.0)));
        assert!(dominates((10, 1.0), (10, 2.0)));
        assert!(dominates((10, 1.0), (20, 1.0)));
        assert!(!dominates((10, 1.0), (10, 1.0)), "equal points do not dominate");
        assert!(!dominates((10, 2.0), (20, 1.0)), "trade-off points do not dominate");
        assert!(!dominates((20, 2.0), (10, 1.0)));
    }

    #[test]
    fn frontier_of_hand_built_set_is_exact() {
        // Hand-built set. The frontier is (10,9), (20,4), (40,1):
        //   (30,5) is dominated by (20,4); (40,2) by (40,1);
        //   (50,8) by everything cheap; (10,9) survives as the fastest.
        let points = vec![(30u64, 5.0), (10, 9.0), (40, 1.0), (20, 4.0), (50, 8.0), (40, 2.0)];
        let frontier = pareto_indices(&points);
        let values: Vec<(u64, f64)> = frontier.iter().map(|&i| points[i]).collect();
        assert_eq!(values, vec![(10, 9.0), (20, 4.0), (40, 1.0)]);
        // Every excluded point is dominated by some frontier point.
        for (i, &p) in points.iter().enumerate() {
            if !frontier.contains(&i) {
                assert!(
                    frontier.iter().any(|&f| dominates(points[f], p)),
                    "point {p:?} excluded but not dominated"
                );
            }
        }
    }

    #[test]
    fn frontier_keeps_duplicates_and_single_points() {
        assert_eq!(pareto_indices(&[]), Vec::<usize>::new());
        assert_eq!(pareto_indices(&[(5, 5.0)]), vec![0]);
        // Duplicated optimal point: both copies are non-dominated.
        let frontier = pareto_indices(&[(5, 5.0), (5, 5.0), (9, 9.0)]);
        assert_eq!(frontier, vec![0, 1]);
    }

    #[test]
    fn non_finite_energies_are_rejected_everywhere() {
        // NaN never dominates and is never dominated.
        assert!(!dominates((10, f64::NAN), (20, 2.0)));
        assert!(!dominates((10, 1.0), (20, f64::NAN)));
        assert!(!dominates((10, f64::INFINITY), (20, f64::INFINITY)));

        // A NaN point can never reach the frontier, even as the fastest
        // point of the set, and it must not shadow a finite duplicate:
        // (5, 5.0) at index 3 duplicates the kept index 0 and stays.
        let poisoned = [(5u64, 5.0), (4, f64::NAN), (9, 2.0), (5, 5.0), (7, f64::NEG_INFINITY)];
        assert_eq!(pareto_indices(&poisoned), vec![0, 3, 2]);

        // An all-non-finite set has an empty frontier instead of a
        // silently arbitrary one.
        assert_eq!(pareto_indices(&[(1, f64::NAN), (2, f64::INFINITY)]), Vec::<usize>::new());

        // An infinite-energy point is excluded even when it is the only
        // point (the historical scan would also have dropped it, but by
        // accident of the `< INFINITY` comparison).
        assert_eq!(pareto_indices(&[(10, f64::INFINITY)]), Vec::<usize>::new());

        // Ranks and crowding follow the same contract.
        let ranks = pareto_ranks(&poisoned);
        assert_eq!(ranks, vec![0, usize::MAX, 0, 0, usize::MAX]);
        let crowding = crowding_distances(&poisoned, &ranks);
        assert_eq!(crowding[1], 0.0);
        assert_eq!(crowding[4], 0.0);

        // And the hypervolume counts only the finite frontier.
        let volume = hypervolume(&poisoned, (20, 10.0));
        let finite_only = hypervolume(&[(5, 5.0), (9, 2.0)], (20, 10.0));
        assert!((volume - finite_only).abs() < 1e-12);
    }

    #[test]
    fn ranks_peel_fronts_in_order() {
        // Front 0: (10, 1.0), (5, 2.0); front 1: (10, 2.0); front 2: (11, 3.0).
        let points = [(10u64, 1.0), (5, 2.0), (10, 2.0), (11, 3.0)];
        assert_eq!(pareto_ranks(&points), vec![0, 0, 1, 2]);
        assert_eq!(pareto_ranks(&[]), Vec::<usize>::new());
    }

    #[test]
    fn crowding_rewards_isolated_points() {
        // One front: boundary points are infinitely crowded-distant; the
        // interior point near its neighbor scores below the isolated one.
        let points = [(10u64, 9.0), (20, 7.0), (22, 6.5), (40, 1.0)];
        let ranks = pareto_ranks(&points);
        assert!(ranks.iter().all(|&r| r == 0));
        let crowding = crowding_distances(&points, &ranks);
        assert!(crowding[0].is_infinite() && crowding[3].is_infinite());
        assert!(crowding[1].is_finite() && crowding[2].is_finite());
        // Index 2's neighbors span a wider box than index 1's (its far
        // side is the isolated (40, 1.0) point), so it is less crowded.
        assert!(crowding[2] > crowding[1], "{crowding:?}");
    }

    #[test]
    fn hypervolume_is_monotone_in_frontier_quality() {
        let reference = (100u64, 10.0);
        let single = hypervolume(&[(50, 5.0)], reference);
        assert!((single - (50.0 * 5.0)).abs() < 1e-9);
        // Adding a trade-off point grows the dominated area; adding a
        // dominated point changes nothing.
        let pair = hypervolume(&[(50, 5.0), (20, 8.0)], reference);
        assert!((pair - (30.0 * 2.0 + 50.0 * 5.0)).abs() < 1e-9);
        let with_dominated = hypervolume(&[(50, 5.0), (20, 8.0), (60, 9.0)], reference);
        assert!((with_dominated - pair).abs() < 1e-12);
        // Points at or beyond the reference contribute nothing.
        assert_eq!(hypervolume(&[(100, 5.0), (40, 12.0)], reference), 0.0);
        assert_eq!(hypervolume(&[], reference), 0.0);
    }

    #[test]
    fn frontier_of_a_monotone_chain_is_everything() {
        let chain = vec![(10u64, 9.0), (20, 7.0), (30, 5.0), (40, 3.0)];
        assert_eq!(pareto_indices(&chain), vec![0, 1, 2, 3]);
    }

    #[test]
    fn frontier_of_a_dominated_chain_is_one_point() {
        let chain = vec![(40u64, 9.0), (30, 7.0), (20, 5.0), (10, 3.0)];
        assert_eq!(pareto_indices(&chain), vec![3]);
    }

    /// Synthetic outcomes with pinned objectives: one real evaluation is
    /// cloned and its simulation report rewritten, so the selection logic
    /// is exercised on exact, controlled (cycles, energy) values.
    fn synthetic_outcomes(objectives: &[(u64, f64)]) -> Vec<DseOutcome> {
        use crate::{evaluate_with_search, SweepSpec};
        use cimflow_arch::ArchConfig;
        use cimflow_compiler::{SearchMode, Strategy};
        use cimflow_nn::models;

        let template = evaluate_with_search(
            &ArchConfig::paper_default(),
            &models::mobilenet_v2(32),
            Strategy::GenericMapping,
            SearchMode::Sequential,
        )
        .expect("template evaluation succeeds");
        let point = SweepSpec::new()
            .with_model("mobilenetv2", 32)
            .with_strategies(&[Strategy::GenericMapping])
            .expand()
            .unwrap()[0]
            .clone();
        objectives
            .iter()
            .map(|&(cycles, energy_mj)| {
                let mut evaluation = template.clone();
                evaluation.simulation.total_cycles = cycles;
                evaluation.simulation.energy = Default::default();
                // total_mj = total_pj * 1e-9.
                evaluation.simulation.energy.compute_pj = energy_mj * 1.0e9;
                DseOutcome { point: point.clone(), result: Ok(evaluation), cached: false }
            })
            .collect()
    }

    #[test]
    fn objectives_by_model_groups_and_filters_non_finite() {
        let outcomes = synthetic_outcomes(&[(10, 1.0), (20, f64::NAN), (30, f64::INFINITY)]);
        let grouped = objectives_by_model(&outcomes);
        assert_eq!(grouped.len(), 1);
        assert_eq!(grouped["mobilenetv2"], vec![(10, 1.0)]);
    }

    #[test]
    fn reference_points_bound_outcomes_and_hypervolume_by_model_scores_them() {
        let outcomes = synthetic_outcomes(&[(10, 3.0), (30, 1.0)]);
        let references = reference_points(&outcomes, 2.0);
        let (cycles, energy) = references["mobilenetv2"];
        assert_eq!(cycles, 31);
        assert!((energy - 6.0).abs() < 1e-9);
        let volumes = hypervolume_by_model(&outcomes, &references);
        // Frontier (10,3), (30,1): (30-10)*(6-3) + (31-30)*(6-1) = 65.
        assert!((volumes["mobilenetv2"] - 65.0).abs() < 1e-6, "{volumes:?}");
        // A model missing from the compared set scores zero.
        let empty = hypervolume_by_model(&[], &references);
        assert_eq!(empty["mobilenetv2"], 0.0);
    }

    #[test]
    fn best_per_model_breaks_cycle_ties_by_energy_then_index() {
        // Three points tie on cycles; the middle one has the lowest
        // energy and must win (the first-seen point is Pareto-dominated
        // by it). A fourth, slower point never competes.
        let outcomes = synthetic_outcomes(&[(100, 5.0), (100, 2.0), (100, 2.0), (90, 9.0)]);
        let best = best_per_model(&outcomes);
        assert_eq!(best.len(), 1);
        // (90, 9.0) is strictly faster: minimum cycles still dominates
        // the tie-break.
        assert_eq!(best["mobilenetv2"], 3);

        // Without the faster point, the tie resolves to the lowest
        // energy, and among equal (cycles, energy) pairs to the lowest
        // index.
        let tied = synthetic_outcomes(&[(100, 5.0), (100, 2.0), (100, 2.0)]);
        assert_eq!(best_per_model(&tied)["mobilenetv2"], 1);

        // A poisoned (non-finite energy) point never wins, even with
        // strictly minimum cycles — the module contract holds here too.
        let poisoned = synthetic_outcomes(&[(50, f64::NAN), (100, 2.0), (80, f64::INFINITY)]);
        assert_eq!(best_per_model(&poisoned)["mobilenetv2"], 1);
        let all_poisoned = synthetic_outcomes(&[(50, f64::NAN)]);
        assert!(best_per_model(&all_poisoned).is_empty());

        // The selected point is never Pareto-dominated by an equal-cycles
        // sibling.
        let objectives: Vec<(u64, f64)> = tied
            .iter()
            .map(|o| {
                let e = o.evaluation().unwrap();
                (e.simulation.total_cycles, e.simulation.energy_mj())
            })
            .collect();
        let chosen = objectives[best_per_model(&tied)["mobilenetv2"]];
        assert!(objectives.iter().all(|&other| !dominates(other, chosen)));
    }

    #[test]
    fn p99_objective_covers_served_points_and_skips_unserved_ones() {
        use crate::ServingSummary;

        fn summary(p99_us: f64, energy_mj: f64) -> ServingSummary {
            ServingSummary {
                offered_qps: 1000,
                goodput_qps: 900.0,
                saturation_qps: 1200.0,
                p50_latency_us: p99_us / 2.0,
                p99_latency_us: p99_us,
                max_latency_us: p99_us * 1.5,
                requests: 256,
                mean_batch: 2.0,
                peak_queue_depth: 4,
                colocated: 1,
                energy_mj,
            }
        }

        // Four points; the first never ran traffic. Under p99 the
        // serving objectives are (200µs, 5mJ), (100µs, 8mJ), (300µs, 9mJ):
        // the last is dominated, the first two trade off.
        let mut outcomes = synthetic_outcomes(&[(10, 1.0), (40, 4.0), (20, 2.0), (30, 3.0)]);
        outcomes[1].result.as_mut().unwrap().serving = Some(summary(200.0, 5.0));
        outcomes[2].result.as_mut().unwrap().serving = Some(summary(100.0, 8.0));
        outcomes[3].result.as_mut().unwrap().serving = Some(summary(300.0, 9.0));

        // Cycles frontier still sees every successful point.
        assert_eq!(pareto_frontier_with(&outcomes, Objective::Cycles), vec![0]);
        assert_eq!(pareto_frontier(&outcomes), vec![0]);

        let p99 = pareto_frontier_with(&outcomes, Objective::P99Latency);
        assert_eq!(p99, vec![2, 1], "sorted by ascending p99, unserved point excluded");

        let by_model = pareto_frontier_by_model_with(&outcomes, Objective::P99Latency);
        assert_eq!(by_model["mobilenetv2"], vec![2, 1]);

        // Objective extraction: integer nanoseconds, serving energy.
        let pair = Objective::P99Latency.of(outcomes[1].evaluation().unwrap()).unwrap();
        assert_eq!(pair, (200_000, 5.0));
        assert_eq!(Objective::P99Latency.of(outcomes[0].evaluation().unwrap()), None);

        // Parsing and display round-trip for the CLI flag.
        assert_eq!("p99".parse::<Objective>().unwrap(), Objective::P99Latency);
        assert_eq!("cycles".parse::<Objective>().unwrap(), Objective::Cycles);
        assert!("latency".parse::<Objective>().is_err());
        assert_eq!(Objective::P99Latency.to_string(), "p99");
    }

    #[test]
    fn per_model_frontiers_do_not_compare_across_workloads() {
        use crate::{EvalService, ServiceConfig, SweepSpec};
        use cimflow_compiler::Strategy;

        // Two workloads of very different size: globally, every resnet18
        // point is "dominated" by the compact model, which is meaningless.
        let spec = SweepSpec::new()
            .with_model("mobilenetv2", 32)
            .with_model("resnet18", 32)
            .with_strategies(&[Strategy::GenericMapping])
            .with_mg_sizes(&[4, 8]);
        let service = EvalService::new(ServiceConfig::new().with_workers(1));
        let outcomes = service.submit_sweep(&spec).unwrap().wait();
        let by_model = pareto_frontier_by_model(&outcomes);
        assert_eq!(by_model.len(), 2);
        for (model, frontier) in &by_model {
            assert!(!frontier.is_empty(), "{model} has a non-empty frontier");
            for &index in frontier {
                assert_eq!(&outcomes[index].point.model.name, model);
            }
        }
    }
}
