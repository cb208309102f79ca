//! Open-loop arrival processes.
//!
//! Every generator implements [`ArrivalProcess`]: an infinite stream of
//! inter-arrival gaps measured in ticks. Generators are deterministic
//! functions of their seed, and all of them scale with a single
//! `mean_gap` parameter (ticks per request at the offered rate), so one
//! workload preset sweeps cleanly across an offered-QPS axis: raising
//! QPS compresses the *same* arrival sequence in time without
//! reordering it.

use std::io::{self, Read};

use serde::Deserialize;

use crate::rng::XorShift;
use crate::workload::TrafficError;

/// Most bytes [`ArrivalTrace::from_path`] reads of a trace file: 16 MiB.
/// A longer file fails the point that names it.
pub const MAX_TRACE_BYTES: u64 = 16 << 20;

/// An open-loop arrival process: an infinite stream of inter-arrival
/// gaps in ticks.
pub trait ArrivalProcess {
    /// The gap between the previous request and the next one, in ticks
    /// (fractional; the workload expander accumulates and rounds).
    fn next_gap(&mut self) -> f64;
}

/// Memoryless Poisson arrivals: exponential gaps with mean `mean_gap`.
#[derive(Debug, Clone)]
pub struct Poisson {
    mean_gap: f64,
    rng: XorShift,
}

impl Poisson {
    /// Poisson arrivals at one request per `mean_gap` ticks.
    pub fn new(mean_gap: f64, seed: u64) -> Self {
        Poisson { mean_gap, rng: XorShift::new(seed) }
    }
}

impl ArrivalProcess for Poisson {
    fn next_gap(&mut self) -> f64 {
        self.rng.exponential() * self.mean_gap
    }
}

/// Two-phase bursty arrivals (MMPP-style): the process alternates
/// between a *burst* phase running `burst`× faster than the base rate
/// and a *calm* phase slowed so the long-run mean rate equals the base
/// rate exactly; each phase lasts `dwell` requests.
#[derive(Debug, Clone)]
pub struct Bursty {
    mean_gap: f64,
    /// Gap multiplier of the current phase (`1/burst` while bursting).
    phase_scale: f64,
    burst_scale: f64,
    calm_scale: f64,
    dwell: u64,
    remaining: u64,
    rng: XorShift,
}

impl Bursty {
    /// Bursty arrivals with base mean gap `mean_gap`, burst intensity
    /// `burst` (> 1) and `dwell` requests per phase (≥ 1).
    pub fn new(mean_gap: f64, burst: f64, dwell: u64, seed: u64) -> Self {
        let burst = burst.max(1.0);
        let dwell = dwell.max(1);
        // Calm-phase gaps are stretched so that one full burst+calm
        // cycle averages to exactly `mean_gap` per request:
        //   (1/burst + calm) / 2 = 1  =>  calm = 2 - 1/burst.
        let burst_scale = 1.0 / burst;
        let calm_scale = 2.0 - burst_scale;
        Bursty {
            mean_gap,
            phase_scale: burst_scale,
            burst_scale,
            calm_scale,
            dwell,
            remaining: dwell,
            rng: XorShift::new(seed),
        }
    }
}

impl ArrivalProcess for Bursty {
    fn next_gap(&mut self) -> f64 {
        if self.remaining == 0 {
            self.phase_scale = if self.phase_scale == self.burst_scale {
                self.calm_scale
            } else {
                self.burst_scale
            };
            self.remaining = self.dwell;
        }
        self.remaining -= 1;
        self.rng.exponential() * self.mean_gap * self.phase_scale
    }
}

/// Diurnal arrivals: a Poisson process whose instantaneous rate is
/// modulated sinusoidally over time — `rate(t) = base · (1 + amplitude
/// · sin(2πt / period))` with the period expressed in mean gaps, so the
/// day/night shape is invariant across the offered-QPS axis.
#[derive(Debug, Clone)]
pub struct Diurnal {
    mean_gap: f64,
    amplitude: f64,
    period: f64,
    elapsed: f64,
    rng: XorShift,
}

impl Diurnal {
    /// Diurnal arrivals with base mean gap `mean_gap`, modulation depth
    /// `amplitude` (clamped to `[0, 0.95]`) and a period of
    /// `period_gaps` mean gaps.
    pub fn new(mean_gap: f64, amplitude: f64, period_gaps: f64, seed: u64) -> Self {
        Diurnal {
            mean_gap,
            amplitude: amplitude.clamp(0.0, 0.95),
            period: period_gaps.max(1.0) * mean_gap,
            elapsed: 0.0,
            rng: XorShift::new(seed),
        }
    }
}

impl ArrivalProcess for Diurnal {
    fn next_gap(&mut self) -> f64 {
        let phase = (self.elapsed / self.period) * std::f64::consts::TAU;
        let modulation = 1.0 + self.amplitude * phase.sin();
        let gap = self.rng.exponential() * self.mean_gap / modulation;
        self.elapsed += gap;
        gap
    }
}

/// A recorded arrival trace: relative inter-arrival gaps normalized to
/// mean 1.0, so replay at any offered QPS preserves the recorded shape.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrivalTrace {
    gaps: Vec<f64>,
}

impl ArrivalTrace {
    /// Builds a trace from raw gaps (any time unit; normalized to mean
    /// 1.0 internally).
    ///
    /// # Errors
    ///
    /// [`TrafficError::EmptyTrace`] when no positive gap survives.
    pub fn from_gaps(raw: &[f64]) -> Result<Self, TrafficError> {
        let gaps: Vec<f64> = raw.iter().copied().filter(|g| g.is_finite() && *g >= 0.0).collect();
        let sum: f64 = gaps.iter().sum();
        if gaps.is_empty() || sum <= 0.0 {
            return Err(TrafficError::EmptyTrace);
        }
        let mean = sum / gaps.len() as f64;
        Ok(ArrivalTrace { gaps: gaps.iter().map(|g| g / mean).collect() })
    }

    /// Parses a JSONL arrival trace: one object per line carrying either
    /// a relative gap (`{"gap_us": 120.5}`) or an absolute timestamp
    /// (`{"t_us": 1042.0}`, differenced in file order). Blank lines are
    /// skipped; mixing the two forms is an error.
    ///
    /// # Errors
    ///
    /// [`TrafficError::Trace`] on malformed lines,
    /// [`TrafficError::EmptyTrace`] when nothing usable remains.
    pub fn from_jsonl(text: &str) -> Result<Self, TrafficError> {
        let mut gaps = Vec::new();
        let mut timestamps = Vec::new();
        for (number, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let value: serde_json::Value = serde_json::from_str(line)
                .map_err(|e| TrafficError::trace(format!("line {}: {e}", number + 1)))?;
            let map = value.as_map().ok_or_else(|| {
                TrafficError::trace(format!("line {}: not an object", number + 1))
            })?;
            let number_field =
                |name| serde::lookup(map, name).and_then(|v| f64::deserialize(v).ok());
            match (number_field("gap_us"), number_field("t_us")) {
                (Some(gap), None) => gaps.push(gap),
                (None, Some(t)) => timestamps.push(t),
                _ => {
                    return Err(TrafficError::trace(format!(
                        "line {}: expected exactly one of \"gap_us\" or \"t_us\"",
                        number + 1
                    )))
                }
            }
        }
        if !gaps.is_empty() && !timestamps.is_empty() {
            return Err(TrafficError::trace("trace mixes \"gap_us\" and \"t_us\" lines"));
        }
        if !timestamps.is_empty() {
            let mut previous = 0.0;
            for t in timestamps {
                gaps.push((t - previous).max(0.0));
                previous = t;
            }
        }
        Self::from_gaps(&gaps)
    }

    /// Reads a JSONL arrival trace from `path`.
    ///
    /// # Errors
    ///
    /// [`TrafficError::Trace`] when the file cannot be read or parsed.
    pub fn from_path(path: &std::path::Path) -> Result<Self, TrafficError> {
        let text = std::fs::File::open(path)
            .and_then(read_bounded)
            .map_err(|e| TrafficError::trace(format!("{}: {e}", path.display())))?;
        Self::from_jsonl(&text)
    }

    /// Number of recorded gaps.
    pub fn len(&self) -> usize {
        self.gaps.len()
    }

    /// Whether the trace holds no gaps (never true for a constructed
    /// trace — constructors reject empty input).
    pub fn is_empty(&self) -> bool {
        self.gaps.is_empty()
    }
}

/// Reads `reader` to its end as UTF-8, failing past [`MAX_TRACE_BYTES`].
fn read_bounded(reader: impl Read) -> io::Result<String> {
    let mut text = String::new();
    reader.take(MAX_TRACE_BYTES + 1).read_to_string(&mut text)?;
    if text.len() as u64 > MAX_TRACE_BYTES {
        return Err(io::Error::other(format!("longer than the {MAX_TRACE_BYTES}-byte bound")));
    }
    Ok(text)
}

/// Replays a recorded [`ArrivalTrace`] at an offered rate, cycling when
/// the request horizon outruns the recording.
#[derive(Debug, Clone)]
pub struct TraceReplay {
    trace: ArrivalTrace,
    mean_gap: f64,
    cursor: usize,
}

impl TraceReplay {
    /// Replays `trace` at one request per `mean_gap` ticks on average.
    pub fn new(trace: ArrivalTrace, mean_gap: f64) -> Self {
        TraceReplay { trace, mean_gap, cursor: 0 }
    }
}

impl ArrivalProcess for TraceReplay {
    fn next_gap(&mut self) -> f64 {
        let gap = self.trace.gaps[self.cursor % self.trace.gaps.len()];
        self.cursor += 1;
        gap * self.mean_gap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean_gap_of(process: &mut dyn ArrivalProcess, n: usize) -> f64 {
        (0..n).map(|_| process.next_gap()).sum::<f64>() / n as f64
    }

    #[test]
    fn poisson_mean_gap_matches_rate() {
        let mut p = Poisson::new(1000.0, 1);
        let mean = mean_gap_of(&mut p, 50_000);
        assert!((mean - 1000.0).abs() / 1000.0 < 0.02, "poisson mean gap {mean}");
    }

    #[test]
    fn bursty_preserves_long_run_rate_but_not_smoothness() {
        let mut b = Bursty::new(1000.0, 8.0, 32, 1);
        let mean = mean_gap_of(&mut b, 64_000);
        assert!((mean - 1000.0).abs() / 1000.0 < 0.02, "bursty mean gap {mean}");
        // Burst-phase gaps are 8x shorter than calm-phase gaps.
        let mut b = Bursty::new(1000.0, 8.0, 4, 1);
        let gaps: Vec<f64> = (0..8).map(|_| b.next_gap()).collect();
        let burst: f64 = gaps[..4].iter().sum();
        let calm: f64 = gaps[4..].iter().sum();
        assert!(calm > burst, "calm phase must be slower: burst={burst} calm={calm}");
    }

    #[test]
    fn diurnal_modulates_and_stays_near_rate() {
        let mut d = Diurnal::new(1000.0, 0.5, 256.0, 1);
        let mean = mean_gap_of(&mut d, 64_000);
        // E[1/(1 + a sin)] = 1/sqrt(1 - a^2): ~15% stretch at a = 0.5.
        assert!((mean - 1000.0).abs() / 1000.0 < 0.25, "diurnal mean gap {mean}");
    }

    #[test]
    fn generators_scale_linearly_with_mean_gap() {
        // Same seed, different rate: the gap *sequence* is identical up
        // to the scale factor — the property the QPS axis relies on.
        let mut slow = Poisson::new(2000.0, 9);
        let mut fast = Poisson::new(500.0, 9);
        for _ in 0..100 {
            let s = slow.next_gap();
            let f = fast.next_gap();
            assert!((s / f - 4.0).abs() < 1e-9, "gaps must scale: {s} vs {f}");
        }
    }

    #[test]
    fn jsonl_traces_parse_gaps_and_timestamps() {
        let by_gap = ArrivalTrace::from_jsonl("{\"gap_us\": 10}\n{\"gap_us\": 30}\n").unwrap();
        assert_eq!(by_gap.len(), 2);
        let by_time =
            ArrivalTrace::from_jsonl("{\"t_us\": 10.0}\n\n{\"t_us\": 40.0}\n{\"t_us\": 45.0}\n")
                .unwrap();
        assert_eq!(by_time.len(), 3);
        // Replay at mean gap 100: normalized shape, mean preserved.
        let mut replay = TraceReplay::new(by_gap, 100.0);
        let a = replay.next_gap();
        let b = replay.next_gap();
        assert!((a - 50.0).abs() < 1e-9 && (b - 150.0).abs() < 1e-9, "{a} {b}");
        let c = replay.next_gap();
        assert!((c - 50.0).abs() < 1e-9, "replay cycles: {c}");
    }

    #[test]
    fn jsonl_traces_reject_garbage() {
        assert!(ArrivalTrace::from_jsonl("").is_err());
        assert!(ArrivalTrace::from_jsonl("not json\n").is_err());
        assert!(ArrivalTrace::from_jsonl("{\"gap_us\": 1}\n{\"t_us\": 2}\n").is_err());
        assert!(ArrivalTrace::from_jsonl("{\"neither\": 1}\n").is_err());
    }

    #[test]
    fn trace_reads_stop_at_the_byte_bound() {
        let at_bound = read_bounded(io::repeat(b'\n').take(MAX_TRACE_BYTES)).unwrap();
        assert_eq!(at_bound.len() as u64, MAX_TRACE_BYTES);
        // An endless reader is refused once it passes the bound.
        let error = read_bounded(io::repeat(b'\n')).unwrap_err().to_string();
        assert!(error.contains("16777216-byte bound"), "{error}");
    }
}
