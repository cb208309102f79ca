//! Serializable workload specification and its expansion into a
//! concrete request stream.
//!
//! A [`WorkloadSpec`] is the *preset*: arrival shape, seed, request
//! horizon, batching knobs and the per-model traffic mix. It is
//! deliberately rate-free — the offered QPS is supplied at expansion
//! time (it is a sweep axis in the DSE layer), and every arrival shape
//! scales with it, so one preset describes a whole load curve.

use std::fmt;

use serde::{optional_field, Content, Deserialize, Serialize};

use crate::arrival::{ArrivalProcess, ArrivalTrace, Bursty, Diurnal, Poisson, TraceReplay};
use crate::rng::XorShift;

/// Default workload seed (the DSE explorer convention: any fixed,
/// documented value; determinism matters, the digits do not).
pub const DEFAULT_SEED: u64 = 0x7AFF_1C5E;

/// Most requests one workload may ask for: 1,048,576 (1 << 20). A
/// serving run holds every request in memory at once, so the bound caps
/// what one spec can allocate.
pub const MAX_REQUESTS: u64 = 1 << 20;

/// A traffic-layer error: an invalid specification or an unusable
/// arrival trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrafficError {
    /// The workload specification is invalid (zero rate, bad mix, …).
    Spec(String),
    /// An arrival trace file could not be read or parsed.
    Trace(String),
    /// An arrival trace contained no usable gaps.
    EmptyTrace,
}

impl TrafficError {
    /// A specification error with `message`.
    pub fn spec(message: impl Into<String>) -> Self {
        TrafficError::Spec(message.into())
    }

    /// A trace error with `message`.
    pub fn trace(message: impl Into<String>) -> Self {
        TrafficError::Trace(message.into())
    }
}

impl fmt::Display for TrafficError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrafficError::Spec(m) => write!(f, "invalid workload spec: {m}"),
            TrafficError::Trace(m) => write!(f, "arrival trace: {m}"),
            TrafficError::EmptyTrace => write!(f, "arrival trace holds no usable gaps"),
        }
    }
}

impl std::error::Error for TrafficError {}

/// One inference request of the open-loop stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Stream-order identifier (0-based).
    pub id: u64,
    /// Index of the model this request targets.
    pub model: usize,
    /// Arrival time in ticks.
    pub arrival: u64,
}

/// The arrival-shape part of a workload preset.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalSpec {
    /// Memoryless Poisson arrivals.
    Poisson,
    /// Two-phase bursty arrivals (MMPP-style).
    Bursty {
        /// Burst-phase rate multiplier (> 1).
        burst: f64,
        /// Requests per phase.
        dwell: u64,
    },
    /// Sinusoidally rate-modulated Poisson arrivals.
    Diurnal {
        /// Modulation depth in `[0, 0.95]`.
        amplitude: f64,
        /// Period in units of mean inter-arrival gaps.
        period_gaps: f64,
    },
    /// Replay of a recorded JSONL arrival trace.
    Trace {
        /// Path of the JSONL file (`{"gap_us": …}` or `{"t_us": …}`
        /// lines).
        path: String,
    },
}

impl ArrivalSpec {
    /// Short name of the shape (`poisson`, `bursty`, `diurnal`,
    /// `trace`).
    pub fn kind(&self) -> &'static str {
        match self {
            ArrivalSpec::Poisson => "poisson",
            ArrivalSpec::Bursty { .. } => "bursty",
            ArrivalSpec::Diurnal { .. } => "diurnal",
            ArrivalSpec::Trace { .. } => "trace",
        }
    }
}

impl Serialize for ArrivalSpec {
    fn serialize(&self) -> Content {
        let mut map = vec![("kind".to_owned(), Content::Str(self.kind().to_owned()))];
        match self {
            ArrivalSpec::Poisson => {}
            ArrivalSpec::Bursty { burst, dwell } => {
                map.push(("burst".to_owned(), Content::F64(*burst)));
                map.push(("dwell".to_owned(), Content::U64(*dwell)));
            }
            ArrivalSpec::Diurnal { amplitude, period_gaps } => {
                map.push(("amplitude".to_owned(), Content::F64(*amplitude)));
                map.push(("period_gaps".to_owned(), Content::F64(*period_gaps)));
            }
            ArrivalSpec::Trace { path } => {
                map.push(("path".to_owned(), Content::Str(path.clone())));
            }
        }
        Content::Map(map)
    }
}

impl Deserialize for ArrivalSpec {
    fn deserialize(content: &Content) -> Result<Self, serde::Error> {
        // A bare string is accepted as shorthand for a parameterless
        // shape: `"arrival": "poisson"`.
        if let Some(kind) = content.as_str() {
            return match kind {
                "poisson" => Ok(ArrivalSpec::Poisson),
                "bursty" => Ok(ArrivalSpec::Bursty { burst: 4.0, dwell: 16 }),
                "diurnal" => Ok(ArrivalSpec::Diurnal { amplitude: 0.5, period_gaps: 256.0 }),
                other => Err(serde::Error::new(format!("unknown arrival kind `{other}`"))),
            };
        }
        let map = content
            .as_map()
            .ok_or_else(|| serde::Error::new("arrival spec must be a string or a map"))?;
        let kind = serde::lookup(map, "kind")
            .and_then(Content::as_str)
            .ok_or_else(|| serde::Error::new("arrival spec needs a string `kind` field"))?;
        match kind {
            "poisson" => Ok(ArrivalSpec::Poisson),
            "bursty" => Ok(ArrivalSpec::Bursty {
                burst: optional_field(map, "burst", "ArrivalSpec")?.unwrap_or(4.0),
                dwell: optional_field(map, "dwell", "ArrivalSpec")?.unwrap_or(16),
            }),
            "diurnal" => Ok(ArrivalSpec::Diurnal {
                amplitude: optional_field(map, "amplitude", "ArrivalSpec")?.unwrap_or(0.5),
                period_gaps: optional_field(map, "period_gaps", "ArrivalSpec")?.unwrap_or(256.0),
            }),
            "trace" => match optional_field(map, "path", "ArrivalSpec")? {
                Some(path) => Ok(ArrivalSpec::Trace { path }),
                None => Err(serde::Error::new("trace arrivals need a `path`")),
            },
            other => Err(serde::Error::new(format!("unknown arrival kind `{other}`"))),
        }
    }
}

/// A rate-free workload preset: arrival shape, seed, horizon, batching
/// knobs and the per-model traffic mix.
///
/// Every field has a default, so `{}` is a valid preset (Poisson
/// arrivals, 256 requests, batches of up to 8, greedy dispatch).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(default)]
pub struct WorkloadSpec {
    /// Arrival shape.
    pub arrival: ArrivalSpec,
    /// PRNG seed: one seed, one request stream.
    pub seed: u64,
    /// Number of requests in the stream (the simulated horizon).
    pub requests: u64,
    /// Largest batch the dynamic batcher dispatches.
    pub max_batch: u64,
    /// Longest time the batcher holds an incomplete batch while the
    /// system is otherwise idle, in microseconds (0 = dispatch
    /// greedily).
    pub max_queue_delay_us: u64,
    /// Per-model traffic weights; empty = uniform across the co-located
    /// models.
    pub mix: Vec<f64>,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec {
            arrival: ArrivalSpec::Poisson,
            seed: DEFAULT_SEED,
            requests: 256,
            max_batch: 8,
            max_queue_delay_us: 0,
            mix: Vec::new(),
        }
    }
}

impl WorkloadSpec {
    /// Validates the preset against a co-location width of `models`.
    ///
    /// # Errors
    ///
    /// [`TrafficError::Spec`] naming the offending field.
    pub fn validate(&self, models: usize) -> Result<(), TrafficError> {
        if models == 0 {
            return Err(TrafficError::spec("at least one model must be served"));
        }
        if self.requests == 0 {
            return Err(TrafficError::spec("request horizon must be positive"));
        }
        if self.requests > MAX_REQUESTS {
            return Err(TrafficError::spec(format!(
                "request horizon of {} exceeds the {MAX_REQUESTS}-request bound",
                self.requests
            )));
        }
        if self.max_batch == 0 {
            return Err(TrafficError::spec("max_batch must be positive"));
        }
        if !self.mix.is_empty() {
            if self.mix.len() != models {
                return Err(TrafficError::spec(format!(
                    "mix has {} weights for {} models",
                    self.mix.len(),
                    models
                )));
            }
            if self.mix.iter().any(|w| !w.is_finite() || *w < 0.0)
                || self.mix.iter().sum::<f64>() <= 0.0
            {
                return Err(TrafficError::spec(
                    "mix weights must be non-negative with a positive sum",
                ));
            }
        }
        if let ArrivalSpec::Bursty { burst, dwell } = &self.arrival {
            if !burst.is_finite() || *burst < 1.0 {
                return Err(TrafficError::spec("burst intensity must be >= 1"));
            }
            if *dwell == 0 {
                return Err(TrafficError::spec("burst dwell must be positive"));
            }
        }
        Ok(())
    }

    /// The arrival process of this preset at one request per `mean_gap`
    /// ticks.
    ///
    /// # Errors
    ///
    /// [`TrafficError::Trace`] when a trace file cannot be loaded.
    pub fn process(&self, mean_gap: f64) -> Result<Box<dyn ArrivalProcess>, TrafficError> {
        Ok(match &self.arrival {
            ArrivalSpec::Poisson => Box::new(Poisson::new(mean_gap, self.seed)),
            ArrivalSpec::Bursty { burst, dwell } => {
                Box::new(Bursty::new(mean_gap, *burst, *dwell, self.seed))
            }
            ArrivalSpec::Diurnal { amplitude, period_gaps } => {
                Box::new(Diurnal::new(mean_gap, *amplitude, *period_gaps, self.seed))
            }
            ArrivalSpec::Trace { path } => {
                let trace = ArrivalTrace::from_path(std::path::Path::new(path))?;
                Box::new(TraceReplay::new(trace, mean_gap))
            }
        })
    }

    /// Expands the preset into a concrete sorted request stream.
    ///
    /// `models` is the co-location width (model indices are assigned by
    /// the mix), `offered_qps` the open-loop rate and
    /// `ticks_per_second` the tick resolution (the simulator passes its
    /// clock rate, so a tick is a cycle).
    ///
    /// Determinism: one `(preset, models, qps, ticks_per_second)`
    /// tuple, one stream. Across the QPS axis the *sequence* of
    /// requests (order, model assignment, relative shape) is invariant
    /// — only the time scale changes.
    ///
    /// # Errors
    ///
    /// [`TrafficError::Spec`] for invalid presets/rates,
    /// [`TrafficError::Trace`] for unusable trace files.
    pub fn generate(
        &self,
        models: usize,
        offered_qps: u64,
        ticks_per_second: u64,
    ) -> Result<Vec<Request>, TrafficError> {
        self.validate(models)?;
        if offered_qps == 0 {
            return Err(TrafficError::spec("offered QPS must be positive"));
        }
        if ticks_per_second == 0 {
            return Err(TrafficError::spec("tick rate must be positive"));
        }
        let mean_gap = ticks_per_second as f64 / offered_qps as f64;
        let mut process = self.process(mean_gap)?;
        // Model assignment draws from its own stream so the assignment
        // sequence is independent of the arrival shape.
        let mut mix_rng = XorShift::new(self.seed ^ 0xA11C_0C8E_D15C_0DE5);
        let weights: Vec<f64> =
            if self.mix.is_empty() { vec![1.0; models] } else { self.mix.clone() };
        let total: f64 = weights.iter().sum();
        let mut clock = 0.0f64;
        let mut requests = Vec::with_capacity(self.requests as usize);
        for id in 0..self.requests {
            clock += process.next_gap();
            let mut pick = mix_rng.unit() * total;
            let mut model = 0;
            for (index, weight) in weights.iter().enumerate() {
                pick -= weight;
                if pick <= 0.0 {
                    model = index;
                    break;
                }
            }
            requests.push(Request { id, model, arrival: clock.round() as u64 });
        }
        Ok(requests)
    }

    /// The max-queue-delay knob converted to ticks.
    pub fn max_queue_delay_ticks(&self, ticks_per_second: u64) -> u64 {
        (self.max_queue_delay_us as f64 * ticks_per_second as f64 / 1e6).round() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_preset_round_trips_through_json() {
        let spec = WorkloadSpec::default();
        let json = serde_json::to_string(&spec).unwrap();
        let back: WorkloadSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(spec, back);
    }

    #[test]
    fn empty_map_and_shorthand_arrivals_parse() {
        let spec: WorkloadSpec = serde_json::from_str("{}").unwrap();
        assert_eq!(spec, WorkloadSpec::default());
        let spec: WorkloadSpec =
            serde_json::from_str("{\"arrival\": \"bursty\", \"requests\": 64}").unwrap();
        assert_eq!(spec.requests, 64);
        assert!(matches!(spec.arrival, ArrivalSpec::Bursty { .. }));
        let spec: WorkloadSpec =
            serde_json::from_str("{\"arrival\": {\"kind\": \"diurnal\", \"amplitude\": 0.25}}")
                .unwrap();
        assert!(
            matches!(spec.arrival, ArrivalSpec::Diurnal { amplitude, .. } if amplitude == 0.25)
        );
    }

    #[test]
    fn generation_is_deterministic_and_rate_faithful() {
        let spec = WorkloadSpec { requests: 4096, ..WorkloadSpec::default() };
        let a = spec.generate(2, 1000, 1_000_000_000).unwrap();
        let b = spec.generate(2, 1000, 1_000_000_000).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), 4096);
        // Mean gap ~ 1e9 / 1000 = 1e6 ticks.
        let makespan = a.last().unwrap().arrival as f64;
        let mean_gap = makespan / a.len() as f64;
        assert!((mean_gap / 1e6 - 1.0).abs() < 0.05, "mean gap {mean_gap}");
        // Uniform mix covers both models.
        let m0 = a.iter().filter(|r| r.model == 0).count();
        assert!(m0 > 1500 && m0 < 2600, "uniform mix skewed: {m0}/4096");
    }

    #[test]
    fn qps_axis_compresses_without_reordering() {
        let spec = WorkloadSpec { requests: 512, ..WorkloadSpec::default() };
        let slow = spec.generate(3, 100, 1_000_000_000).unwrap();
        let fast = spec.generate(3, 400, 1_000_000_000).unwrap();
        for (s, f) in slow.iter().zip(&fast) {
            assert_eq!(s.model, f.model, "model assignment must not depend on rate");
            if f.arrival < 100_000 {
                continue; // rounding noise dominates tiny early arrivals
            }
            let ratio = s.arrival as f64 / f.arrival as f64;
            assert!((ratio - 4.0).abs() < 0.01, "arrivals must compress 4x: {ratio}");
        }
    }

    #[test]
    fn skewed_mix_is_respected() {
        let spec = WorkloadSpec { requests: 4096, mix: vec![3.0, 1.0], ..WorkloadSpec::default() };
        let requests = spec.generate(2, 1000, 1_000_000_000).unwrap();
        let m0 = requests.iter().filter(|r| r.model == 0).count() as f64 / 4096.0;
        assert!((m0 - 0.75).abs() < 0.05, "3:1 mix drifted: {m0}");
    }

    #[test]
    fn invalid_presets_are_rejected() {
        let spec = WorkloadSpec::default();
        assert!(spec.generate(0, 100, 1_000_000).is_err());
        assert!(spec.generate(1, 0, 1_000_000).is_err());
        assert!(WorkloadSpec { requests: 0, ..spec.clone() }.validate(1).is_err());
        assert!(WorkloadSpec { max_batch: 0, ..spec.clone() }.validate(1).is_err());
        assert!(WorkloadSpec { mix: vec![1.0], ..spec.clone() }.validate(2).is_err());
        assert!(WorkloadSpec { mix: vec![0.0, 0.0], ..spec }.validate(2).is_err());
    }

    #[test]
    fn the_request_horizon_is_capped() {
        let at_cap = WorkloadSpec { requests: MAX_REQUESTS, ..WorkloadSpec::default() };
        assert!(at_cap.validate(1).is_ok());
        let over = WorkloadSpec { requests: MAX_REQUESTS + 1, ..at_cap };
        let error = over.validate(1).unwrap_err().to_string();
        assert!(error.contains("1048577 exceeds the 1048576-request bound"), "{error}");
    }

    #[test]
    fn null_takes_each_default_and_errors_name_their_field() {
        let spec: WorkloadSpec =
            serde_json::from_str("{\"arrival\": null, \"seed\": null, \"mix\": null}").unwrap();
        assert_eq!(spec, WorkloadSpec::default());
        let spec: WorkloadSpec =
            serde_json::from_str("{\"arrival\": {\"kind\": \"bursty\", \"burst\": null}}").unwrap();
        assert_eq!(spec.arrival, ArrivalSpec::Bursty { burst: 4.0, dwell: 16 });
        let error = serde_json::from_str::<WorkloadSpec>("{\"requests\": \"many\"}").unwrap_err();
        assert!(error.to_string().contains("WorkloadSpec.requests: expected integer"), "{error}");
        let error = serde_json::from_str::<ArrivalSpec>("{\"kind\": \"bursty\", \"dwell\": -1}")
            .unwrap_err();
        assert!(error.to_string().contains("ArrivalSpec.dwell: integer -1"), "{error}");
    }
}
