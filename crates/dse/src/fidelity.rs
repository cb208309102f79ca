//! The calibrated multi-fidelity evaluation ladder.
//!
//! A [`Fidelity`] is one *proxy* rung: the compiler's analytical
//! interval estimate, or cycle-level simulation at a coarsened
//! resolution. A [`FidelityLadder`] orders the proxy rungs
//! cheapest-first; full simulation at the point's own resolution is the
//! implicit top of every ladder and is never listed. The explorer
//! schedules points up the ladder instead of toggling a boolean
//! coarse/full flag. Re-timing is not a rung: the evaluation service
//! replays the timing-only siblings of any batch on its own, whatever
//! the rung.
//!
//! Proxies are only useful when they *rank* like the real thing, so the
//! ladder is **calibrated online**: every time a scouted point graduates
//! to full fidelity, the `(proxy, full)` primary-objective pair is fed
//! to a [`RankFidelity`] tracker, which maintains a Kendall rank
//! correlation per `(model, rung)`. [`scout_share_for`] maps the
//! measured tau to the budget share the explorer may spend on scouting:
//! an uncalibrated rung gets the historical fixed half, a faithful rung
//! earns more scouting, a misleading rung is starved down to a floor.
//!
//! [`FeasibilityCaps`] carry the constraint side of the search: area and
//! power ceilings the explorer uses to cut infeasible candidates before
//! spending budget on them (with dominated-but-feasible fallbacks so a
//! fully infeasible model still reports its best effort).

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::Arc;

use cimflow_arch::ArchConfig;
use cimflow_compiler::cost::CostModel;
use cimflow_compiler::{estimate_sequential_interval, CondensedGraph, SearchMode};
use cimflow_energy::EnergyModel;
use cimflow_nn::models;
use serde::{Content, Deserialize, Serialize};

use crate::analysis;
use crate::eval::Evaluation;
use crate::spec::{PointSpec, SweepAxes};
use crate::{DseError, DseOutcome};

/// Pairs a `(model, rung)` must graduate before its Kendall tau is
/// trusted; below this the scheduler keeps the uncalibrated default.
pub const MIN_CALIBRATION_SAMPLES: usize = 3;

/// The scouting budget share before any calibration evidence exists:
/// half the budget, the historical fixed split of successive halving.
pub const DEFAULT_SCOUT_SHARE: f64 = 0.5;

/// One proxy rung of the evaluation-fidelity ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fidelity {
    /// The compiler's sequential interval estimate
    /// ([`estimate_sequential_interval`]): no simulation at all, so the
    /// explorer treats it as *free* (it never charges budget).
    Analytical,
    /// Cycle-level simulation with the model resolution floored to the
    /// carried value (px) and the system search pinned to
    /// [`SearchMode::Sequential`] — the generalization of the
    /// historical fixed 32 px scouting rung.
    CoarseSim(u32),
}

impl Fidelity {
    /// Wire name of the rung (`analytical` or `coarse<px>`).
    pub fn name(&self) -> String {
        match self {
            Fidelity::Analytical => "analytical".to_owned(),
            Fidelity::CoarseSim(resolution) => format!("coarse{resolution}"),
        }
    }

    /// Parses a wire name back into a rung.
    ///
    /// # Errors
    ///
    /// Names the accepted rungs when `text` is neither `analytical` nor
    /// `coarse<px>` with a nonzero resolution.
    pub fn from_name(text: &str) -> Result<Self, String> {
        let rung = match text {
            "analytical" => Some(Fidelity::Analytical),
            other => other
                .strip_prefix("coarse")
                .and_then(|digits| digits.parse().ok())
                .filter(|&resolution| resolution > 0)
                .map(Fidelity::CoarseSim),
        };
        rung.ok_or_else(|| {
            format!(
                "unknown fidelity rung `{text}`: expected `analytical` or `coarse<px>` \
                 (e.g. `coarse32`)"
            )
        })
    }

    /// The projection a point is evaluated at on this rung. Only
    /// [`Fidelity::CoarseSim`] rewrites the point (resolution floored,
    /// search pinned sequential); the analytical rung prices the point
    /// as-is. A coarse rung at or above the point's own resolution
    /// projects to the point itself — evaluating it *is* full fidelity.
    pub fn project(&self, point: &PointSpec) -> PointSpec {
        match self {
            Fidelity::CoarseSim(resolution) => {
                let mut coarse = point.clone();
                coarse.model.resolution = coarse.model.resolution.min(*resolution);
                coarse.search = SearchMode::Sequential;
                coarse
            }
            Fidelity::Analytical => point.clone(),
        }
    }
}

impl fmt::Display for Fidelity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name())
    }
}

impl Serialize for Fidelity {
    fn serialize(&self) -> Content {
        Content::Str(self.name())
    }
}

impl Deserialize for Fidelity {
    fn deserialize(content: &Content) -> Result<Self, serde::Error> {
        let text =
            content.as_str().ok_or_else(|| serde::Error::new("expected fidelity rung name"))?;
        Fidelity::from_name(text).map_err(serde::Error::new)
    }
}

/// An ordered ladder of *proxy* rungs, cheapest first. Full simulation
/// is always the implicit top rung and is never listed. The default
/// ladder is the single historical 32 px coarse rung, so existing specs
/// behave identically.
#[derive(Debug, Clone, PartialEq)]
pub struct FidelityLadder {
    rungs: Vec<Fidelity>,
}

impl FidelityLadder {
    /// The historical ladder: one 32 px coarse-simulation rung.
    pub fn standard() -> Self {
        FidelityLadder { rungs: vec![Fidelity::CoarseSim(crate::explore::COARSE_RESOLUTION)] }
    }

    /// Builds a ladder, validating its shape:
    ///
    /// * `analytical` may only be the first rung;
    /// * coarse resolutions must be strictly ascending (the ladder runs
    ///   cheap → faithful).
    ///
    /// An empty ladder is valid: the explorer then samples at full
    /// fidelity directly (pure budgeted random search + ranking).
    ///
    /// # Errors
    ///
    /// Returns [`DseError::Spec`] for a malformed ladder.
    pub fn new(rungs: Vec<Fidelity>) -> Result<Self, DseError> {
        let mut last_coarse: Option<u32> = None;
        for (at, rung) in rungs.iter().enumerate() {
            match rung {
                Fidelity::Analytical if at != 0 => {
                    return Err(DseError::spec(
                        "ladder rung `analytical` must be the first (cheapest) rung",
                    ));
                }
                Fidelity::Analytical => {}
                Fidelity::CoarseSim(resolution) => {
                    if last_coarse.is_some_and(|previous| previous >= *resolution) {
                        return Err(DseError::spec(format!(
                            "ladder coarse rungs must strictly ascend in resolution \
                             (coarse{resolution} follows coarse{})",
                            last_coarse.unwrap_or(0)
                        )));
                    }
                    last_coarse = Some(*resolution);
                }
            }
        }
        Ok(FidelityLadder { rungs })
    }

    /// The proxy rungs, cheapest first.
    pub fn rungs(&self) -> &[Fidelity] {
        &self.rungs
    }

    /// Whether the ladder starts with the free analytical rung.
    pub fn has_analytical(&self) -> bool {
        matches!(self.rungs.first(), Some(Fidelity::Analytical))
    }

    /// Wire names of the coarse-simulation rungs, ascending resolution.
    pub fn coarse_rung_names(&self) -> Vec<String> {
        self.rungs
            .iter()
            .filter(|rung| matches!(rung, Fidelity::CoarseSim(_)))
            .map(Fidelity::name)
            .collect()
    }

    /// Validates the ladder against a concrete space: a coarse rung
    /// whose resolution is strictly above *every* model's own
    /// resolution coarsens nothing and is rejected as a spec mistake.
    /// (A rung at or above *some* points' resolutions is fine — those
    /// points are their own projection and evaluate at full fidelity
    /// directly.)
    ///
    /// # Errors
    ///
    /// Returns [`DseError::Spec`] for a rung no point can be coarsened
    /// by.
    pub fn validate_for(&self, axes: &SweepAxes) -> Result<(), DseError> {
        let finest = axes.models.iter().map(|model| model.resolution).max().unwrap_or(u32::MAX);
        for rung in &self.rungs {
            if let Fidelity::CoarseSim(resolution) = rung {
                if *resolution > finest {
                    return Err(DseError::spec(format!(
                        "ladder rung coarse{resolution} is above every model \
                         resolution in the space (finest is {finest} px): it coarsens \
                         nothing — drop the rung or lower it to at most {finest}",
                    )));
                }
            }
        }
        Ok(())
    }
}

impl Default for FidelityLadder {
    fn default() -> Self {
        FidelityLadder::standard()
    }
}

impl Serialize for FidelityLadder {
    fn serialize(&self) -> Content {
        self.rungs.serialize()
    }
}

impl Deserialize for FidelityLadder {
    fn deserialize(content: &Content) -> Result<Self, serde::Error> {
        let rungs = Vec::<Fidelity>::deserialize(content)?;
        FidelityLadder::new(rungs).map_err(|e| serde::Error::new(e.to_string()))
    }
}

/// Reusable analytical pricer: caches the condensed graph per
/// `(model, resolution)` so pricing a whole generation pays one
/// frontend pass per model, then one DP partition per point.
pub struct AnalyticalPricer {
    base: ArchConfig,
    condensed: HashMap<(String, u32), Option<Arc<CondensedGraph>>>,
}

impl AnalyticalPricer {
    /// Creates a pricer over a base architecture.
    pub fn new(base: ArchConfig) -> Self {
        AnalyticalPricer { base, condensed: HashMap::new() }
    }

    /// `(estimated interval cycles, static energy mJ)` of a point under
    /// the compiler's sequential estimate, or `None` when the model is
    /// unknown or the estimate fails. The energy axis is the leakage
    /// energy over the estimated interval — an area×time proxy that
    /// lets analytical scores participate in two-objective ranking.
    pub fn objectives(&mut self, point: &PointSpec) -> Option<(u64, f64)> {
        let key = (point.model.name.clone(), point.model.resolution);
        let condensed = self
            .condensed
            .entry(key)
            .or_insert_with(|| {
                models::by_name(&point.model.name, point.model.resolution)
                    .ok()
                    .and_then(|model| CondensedGraph::from_graph(&model.graph).ok())
                    .map(Arc::new)
            })
            .clone()?;
        let arch = point.arch(&self.base);
        let cost = CostModel::new(&arch);
        let cycles = estimate_sequential_interval(&condensed, &cost, point.strategy).ok()?;
        let energy = EnergyModel::calibrated_28nm().static_energy(&arch, cycles).total_mj();
        energy.is_finite().then_some((cycles, energy))
    }
}

/// Kendall rank correlation of `(proxy, full)` primary-objective pairs:
/// `(concordant − discordant) / comparable`, ties skipped. `None` below
/// two pairs or when every pair ties.
pub fn kendall_tau(pairs: &[(f64, f64)]) -> Option<f64> {
    if pairs.len() < 2 {
        return None;
    }
    let mut concordant = 0i64;
    let mut discordant = 0i64;
    for i in 0..pairs.len() {
        for j in i + 1..pairs.len() {
            let proxy = pairs[i].0 - pairs[j].0;
            let full = pairs[i].1 - pairs[j].1;
            if proxy == 0.0 || full == 0.0 {
                continue;
            }
            if (proxy > 0.0) == (full > 0.0) {
                concordant += 1;
            } else {
                discordant += 1;
            }
        }
    }
    let comparable = concordant + discordant;
    (comparable > 0).then(|| (concordant - discordant) as f64 / comparable as f64)
}

/// Maps a measured rank fidelity to the budget share scouting may
/// spend. Uncalibrated rungs get [`DEFAULT_SCOUT_SHARE`] (the historical
/// fixed half); a perfectly faithful rung (tau 1) earns 0.65, a useless
/// or inverted rung (tau ≤ 0) is starved to the 0.15 floor — the
/// scouting never drops to zero (evidence is how calibration recovers)
/// and never eats the promotion budget entirely.
pub fn scout_share_for(tau: Option<f64>) -> f64 {
    match tau {
        None => DEFAULT_SCOUT_SHARE,
        Some(tau) => (0.15 + 0.5 * tau.max(0.0)).clamp(0.15, 0.65),
    }
}

/// Online per-`(model, rung)` rank-fidelity tracker: graduated
/// `(proxy, full)` pairs in, Kendall tau out.
#[derive(Debug, Default)]
pub struct RankFidelity {
    samples: BTreeMap<(String, String), Vec<(f64, f64)>>,
}

impl RankFidelity {
    /// An empty tracker.
    pub fn new() -> Self {
        RankFidelity::default()
    }

    /// Records one graduation: the primary objective a rung predicted
    /// for a point against what full fidelity measured.
    pub fn record(&mut self, model: &str, rung: &str, proxy: f64, full: f64) {
        self.samples.entry((model.to_owned(), rung.to_owned())).or_default().push((proxy, full));
    }

    /// Graduated pairs recorded for `(model, rung)`.
    pub fn sample_count(&self, model: &str, rung: &str) -> usize {
        self.samples.get(&(model.to_owned(), rung.to_owned())).map(Vec::len).unwrap_or(0)
    }

    /// The measured Kendall tau for `(model, rung)`, or `None` below
    /// [`MIN_CALIBRATION_SAMPLES`] pairs (or when every pair ties).
    pub fn tau(&self, model: &str, rung: &str) -> Option<f64> {
        let pairs = self.samples.get(&(model.to_owned(), rung.to_owned()))?;
        if pairs.len() < MIN_CALIBRATION_SAMPLES {
            return None;
        }
        kendall_tau(pairs)
    }

    /// Every measured tau, keyed `model/rung` (unmeasured pairs are
    /// absent).
    pub fn snapshot(&self) -> BTreeMap<String, f64> {
        self.samples
            .keys()
            .filter_map(|(model, rung)| {
                self.tau(model, rung).map(|tau| (format!("{model}/{rung}"), tau))
            })
            .collect()
    }
}

/// Feasibility ceilings for constraint-aware exploration. Inactive caps
/// admit everything, so the default is behavior-neutral.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct FeasibilityCaps {
    /// Maximum system silicon area in mm² (arch-derived, so it cuts
    /// candidates *before* any simulation is paid for).
    pub max_area_mm2: Option<f64>,
    /// Maximum mean power in W over the simulated inference (needs the
    /// measured energy, so it only cuts at full fidelity).
    pub max_power_w: Option<f64>,
}

impl FeasibilityCaps {
    /// Caps that admit everything.
    pub fn none() -> Self {
        FeasibilityCaps::default()
    }

    /// Whether any cap is set.
    pub fn is_active(&self) -> bool {
        self.max_area_mm2.is_some() || self.max_power_w.is_some()
    }

    /// The area-only cut: computable from the architecture alone, before
    /// any simulation.
    pub fn admits_arch(&self, arch: &ArchConfig) -> bool {
        self.max_area_mm2.is_none_or(|cap| analysis::area_mm2(arch) <= cap)
    }

    /// The full cut: area plus mean power over the simulated inference.
    pub fn admits(&self, evaluation: &Evaluation) -> bool {
        if !self.admits_arch(&evaluation.arch) {
            return false;
        }
        match self.max_power_w {
            None => true,
            Some(cap) => mean_power_w(evaluation).map(|power| power <= cap).unwrap_or(false),
        }
    }

    /// Whether an outcome's evaluation passes the full cut (failed
    /// points are infeasible).
    pub fn admits_outcome(&self, outcome: &DseOutcome) -> bool {
        outcome.evaluation().map(|evaluation| self.admits(evaluation)).unwrap_or(false)
    }
}

/// Mean power in W of a simulated inference: measured energy over the
/// simulated wall time at the chip clock. `None` when the evaluation
/// simulated zero cycles.
pub fn mean_power_w(evaluation: &Evaluation) -> Option<f64> {
    let cycles = evaluation.simulation.total_cycles;
    if cycles == 0 {
        return None;
    }
    let hertz = f64::from(evaluation.arch.chip().frequency_mhz.max(1)) * 1.0e6;
    let seconds = cycles as f64 / hertz;
    let watts = evaluation.simulation.energy_mj() * 1.0e-3 / seconds;
    watts.is_finite().then_some(watts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SweepSpec;
    use cimflow_compiler::Strategy;

    /// Asserts that an error message names both accepted rung forms.
    fn names_the_accepted_rungs(message: &str) {
        assert!(
            message.contains("`analytical`") && message.contains("`coarse<px>`"),
            "the error must name the accepted rungs: {message}"
        );
    }

    #[test]
    fn rung_names_round_trip() {
        for rung in [Fidelity::Analytical, Fidelity::CoarseSim(32), Fidelity::CoarseSim(48)] {
            assert_eq!(Fidelity::from_name(&rung.name()), Ok(rung), "{rung}");
        }
        // A 0 px rung is nonsense; `replay` and `full` are not rungs:
        // full simulation is the implicit top of every ladder, and the
        // service replays timing-only siblings by itself.
        for name in ["coarse0", "coarsely", "exact", "replay", "full", "full_sim"] {
            let error = Fidelity::from_name(name).unwrap_err();
            assert!(error.contains(&format!("`{name}`")), "{error}");
            names_the_accepted_rungs(&error);
        }
    }

    #[test]
    fn ladder_validates_its_shape() {
        assert_eq!(
            FidelityLadder::default().rungs(),
            &[Fidelity::CoarseSim(32)],
            "the default ladder is the historical 32 px rung"
        );
        assert!(FidelityLadder::new(vec![]).is_ok(), "an empty ladder is plain random search");
        assert!(FidelityLadder::new(vec![
            Fidelity::Analytical,
            Fidelity::CoarseSim(16),
            Fidelity::CoarseSim(32),
        ])
        .is_ok());
        assert!(
            FidelityLadder::new(vec![Fidelity::CoarseSim(32), Fidelity::Analytical]).is_err(),
            "analytical must come first"
        );
        assert!(
            FidelityLadder::new(vec![Fidelity::CoarseSim(32), Fidelity::CoarseSim(32)]).is_err(),
            "coarse rungs must strictly ascend"
        );
        assert!(
            FidelityLadder::new(vec![Fidelity::CoarseSim(48), Fidelity::CoarseSim(32)]).is_err()
        );
    }

    #[test]
    fn ladder_serde_round_trips() {
        let ladder =
            FidelityLadder::new(vec![Fidelity::Analytical, Fidelity::CoarseSim(48)]).unwrap();
        let back = FidelityLadder::deserialize(&ladder.serialize()).unwrap();
        assert_eq!(back, ladder);
        let misordered =
            Content::Seq(vec![Content::Str("coarse32".into()), Content::Str("analytical".into())]);
        assert!(
            FidelityLadder::deserialize(&misordered).is_err(),
            "validation runs on the wire too"
        );
        for name in ["replay", "full"] {
            let wire = Content::Seq(vec![Content::Str(name.into())]);
            names_the_accepted_rungs(&FidelityLadder::deserialize(&wire).unwrap_err().to_string());
        }
    }

    #[test]
    fn explore_specs_reject_the_replay_and_full_rungs() {
        for name in ["replay", "full"] {
            let json = format!(
                "{{\"space\": {{\"models\": [{{\"name\": \"resnet18\", \"resolution\": 32}}], \
                 \"strategies\": [\"dp\"]}}, \"ladder\": [\"{name}\"]}}"
            );
            let error = crate::ExploreSpec::from_json(&json).unwrap_err().to_string();
            assert!(error.contains("ExploreSpec.ladder"), "{error}");
            names_the_accepted_rungs(&error);
        }
    }

    #[test]
    fn ladder_rejects_rungs_no_point_can_be_coarsened_by() {
        let axes = SweepSpec::new()
            .with_model("mobilenetv2", 32)
            .with_strategies(&[Strategy::GenericMapping])
            .axes()
            .unwrap();
        let useless = FidelityLadder::new(vec![Fidelity::CoarseSim(48)]).unwrap();
        assert!(useless.validate_for(&axes).is_err(), "48 px rung on a 32 px-only space");
        let fine = FidelityLadder::new(vec![Fidelity::CoarseSim(16)]).unwrap();
        assert!(fine.validate_for(&axes).is_ok());
        // A rung *equal* to the finest resolution is the historical
        // default on a 32 px space: every point is its own projection
        // and goes straight to full fidelity.
        let identity = FidelityLadder::new(vec![Fidelity::CoarseSim(32)]).unwrap();
        assert!(identity.validate_for(&axes).is_ok());
        // A rung above *some* resolutions is fine — the finer points
        // still get coarsened.
        let mixed = SweepSpec::new()
            .with_model("mobilenetv2", 32)
            .with_model("mobilenetv2", 64)
            .with_strategies(&[Strategy::GenericMapping])
            .axes()
            .unwrap();
        assert!(useless.validate_for(&mixed).is_ok());
    }

    #[test]
    fn coarse_projection_floors_resolution_and_pins_search() {
        let point = SweepSpec::new()
            .with_model("vgg19", 64)
            .with_strategies(&[Strategy::DpOptimized])
            .with_search_modes(&[SearchMode::Joint])
            .expand()
            .unwrap()[0]
            .clone();
        let coarse = Fidelity::CoarseSim(32).project(&point);
        assert_eq!(coarse.model.resolution, 32);
        assert_eq!(coarse.search, SearchMode::Sequential);
        assert_eq!(Fidelity::Analytical.project(&point), point, "analytical never rewrites");
        // At or below the rung the projection is the point itself.
        let fine = Fidelity::CoarseSim(64).project(&point);
        assert_eq!(fine.model.resolution, 64);
    }

    #[test]
    fn kendall_tau_measures_rank_agreement() {
        assert_eq!(kendall_tau(&[]), None);
        assert_eq!(kendall_tau(&[(1.0, 1.0)]), None);
        assert_eq!(kendall_tau(&[(1.0, 1.0), (1.0, 2.0)]), None, "all-tied pairs measure nothing");
        let agree = [(1.0, 10.0), (2.0, 20.0), (3.0, 30.0)];
        assert_eq!(kendall_tau(&agree), Some(1.0));
        let invert = [(1.0, 30.0), (2.0, 20.0), (3.0, 10.0)];
        assert_eq!(kendall_tau(&invert), Some(-1.0));
        let mixed = [(1.0, 10.0), (2.0, 30.0), (3.0, 20.0)];
        let tau = kendall_tau(&mixed).unwrap();
        assert!((tau - 1.0 / 3.0).abs() < 1e-12, "2 concordant, 1 discordant → 1/3, got {tau}");
    }

    #[test]
    fn scout_share_adapts_to_measured_fidelity() {
        assert_eq!(scout_share_for(None), DEFAULT_SCOUT_SHARE, "uncalibrated keeps the old half");
        assert_eq!(scout_share_for(Some(1.0)), 0.65, "a faithful rung earns more scouting");
        assert_eq!(scout_share_for(Some(0.0)), 0.15, "a useless rung is starved to the floor");
        assert_eq!(scout_share_for(Some(-1.0)), 0.15, "an inverted rung too");
        assert!(scout_share_for(Some(0.9)) > scout_share_for(Some(0.3)), "monotone in tau");
    }

    #[test]
    fn rank_fidelity_needs_enough_graduations() {
        let mut tracker = RankFidelity::new();
        tracker.record("resnet18", "coarse32", 100.0, 110.0);
        tracker.record("resnet18", "coarse32", 200.0, 190.0);
        assert_eq!(tracker.tau("resnet18", "coarse32"), None, "below the sample floor");
        // The third graduation flips the order the proxy promised: one
        // of three pairs is discordant.
        tracker.record("resnet18", "coarse32", 300.0, 150.0);
        let tau = tracker.tau("resnet18", "coarse32").unwrap();
        assert!((tau - 1.0 / 3.0).abs() < 1e-12, "2 concordant, 1 discordant → 1/3, got {tau}");
        assert_eq!(tracker.tau("resnet18", "coarse16"), None, "per-rung isolation");
        assert_eq!(tracker.sample_count("resnet18", "coarse32"), 3);
        let snapshot = tracker.snapshot();
        assert_eq!(snapshot.len(), 1);
        assert!(snapshot.contains_key("resnet18/coarse32"));
    }

    #[test]
    fn feasibility_caps_cut_area_and_power() {
        let arch = ArchConfig::paper_default();
        let area = analysis::area_mm2(&arch);
        let none = FeasibilityCaps::none();
        assert!(!none.is_active());
        assert!(none.admits_arch(&arch), "inactive caps admit everything");
        let tight = FeasibilityCaps { max_area_mm2: Some(area / 2.0), max_power_w: None };
        assert!(tight.is_active());
        assert!(!tight.admits_arch(&arch));
        let loose = FeasibilityCaps { max_area_mm2: Some(area * 2.0), max_power_w: None };
        assert!(loose.admits_arch(&arch));
    }

    #[test]
    fn caps_serde_round_trips_and_defaults_open() {
        let caps = FeasibilityCaps { max_area_mm2: Some(120.0), max_power_w: Some(35.5) };
        let back = FeasibilityCaps::deserialize(&caps.serialize()).unwrap();
        assert_eq!(back, caps);
        let empty = FeasibilityCaps::deserialize(&Content::Map(vec![])).unwrap();
        assert_eq!(empty, FeasibilityCaps::none());
    }

    #[test]
    fn analytical_pricer_estimates_and_caches() {
        let space = SweepSpec::new()
            .with_model("mobilenetv2", 32)
            .with_strategies(&[Strategy::GenericMapping])
            .with_chip_counts(&[1, 2]);
        let points = space.expand().unwrap();
        let mut pricer = AnalyticalPricer::new(space.base_arch());
        let (cycles_one, energy_one) = pricer.objectives(&points[0]).unwrap();
        let (cycles_two, _) = pricer.objectives(&points[1]).unwrap();
        assert!(cycles_one > 0 && cycles_two > 0);
        assert!(energy_one > 0.0 && energy_one.is_finite());
        assert_eq!(pricer.condensed.len(), 1, "one frontend pass serves both points");
        let mut unknown = points[0].clone();
        unknown.model.name = "no-such-model".into();
        assert_eq!(pricer.objectives(&unknown), None);
    }
}
