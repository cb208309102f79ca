//! Serving mode: online inference traffic as queueing arithmetic over
//! single-inference reports.
//!
//! [`Simulator::serve`] drives the `cimflow-traffic` request queue +
//! dynamic batcher with timing taken from one single-inference
//! [`SimReport`] per served model. The caller produces each report once
//! — a [`Simulator::run`], a [`Simulator::record`] or a bit-exact
//! [`ReplayEngine`](crate::ReplayEngine) re-timing of the model's program
//! on the served design point — and serving never runs the cycle engine
//! itself: the report is bit-exact for every batch of the same model on
//! the same architecture, so steady-state serving reuses it instead of
//! re-simulating the program per dispatch, and a rate ladder reuses it
//! across every rung.
//!
//! Consequences worth spelling out:
//!
//! * On an idle system a request's end-to-end latency is **exactly**
//!   the single-inference `SimReport::total_cycles` of its model — the
//!   queueing arithmetic is integer ticks (cycles), so serving results
//!   at low load are bit-consistent with the classic one-inference
//!   report.
//! * Saturation throughput approaches one inference per
//!   `SimReport::pipeline_interval_cycles` for a single model — the
//!   same steady-state bound `pipelined_throughput_tops` reports.
//! * Model switches drain the chip pipeline; the dynamic batcher
//!   exists to amortize exactly that cost under co-location.

use cimflow_obs::HistogramSnapshot;
use cimflow_traffic::{run_queue, ModelTiming, WorkloadSpec};

use crate::engine::Simulator;
use crate::error::SimError;
use crate::report::SimReport;

/// Longest queue-depth timeline kept on a [`ServingReport`] (older
/// samples are decimated, never dropped from one end).
const TIMELINE_CAP: usize = 256;

/// One model taking part in a serving run.
#[derive(Debug, Clone)]
pub struct ServeModel {
    /// Display name (the `model` of the per-model serving results).
    pub name: String,
    /// The model's single-inference report on the served design point.
    pub single: SimReport,
}

/// Exact latency statistics in cycles (computed from the full sorted
/// sample, nearest-rank quantiles — no binning error).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct LatencyStats {
    /// Smallest observed latency.
    pub min: u64,
    /// Median (nearest rank).
    pub p50: u64,
    /// 99th percentile (nearest rank).
    pub p99: u64,
    /// Largest observed latency.
    pub max: u64,
    /// Arithmetic mean.
    pub mean: f64,
}

impl LatencyStats {
    fn from_sorted(sorted: &[u64]) -> Self {
        if sorted.is_empty() {
            return LatencyStats { min: 0, p50: 0, p99: 0, max: 0, mean: 0.0 };
        }
        let rank = |q: f64| {
            let n = sorted.len();
            let index = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
            sorted[index]
        };
        LatencyStats {
            min: sorted[0],
            p50: rank(0.50),
            p99: rank(0.99),
            max: *sorted.last().expect("non-empty"),
            mean: sorted.iter().sum::<u64>() as f64 / sorted.len() as f64,
        }
    }
}

/// Per-model serving results.
#[derive(Debug, Clone)]
pub struct ModelServing {
    /// Model name.
    pub model: String,
    /// Requests served (open loop: everything offered completes).
    pub requests: u64,
    /// Batches dispatched.
    pub batches: u64,
    /// Mean batch size.
    pub mean_batch: f64,
    /// Exact end-to-end latency statistics in cycles.
    pub latency: LatencyStats,
    /// The same latencies (in µs) through a `cimflow-obs` histogram —
    /// the serving counterpart of the wire metrics surface.
    pub histogram: HistogramSnapshot,
    /// The model's single-inference report on this design point, as the
    /// caller passed it in.
    pub single: SimReport,
    /// Dynamic energy under load: requests × single-inference energy,
    /// in millijoules.
    pub energy_mj: f64,
}

/// The result of one serving run: SLO metrics under open-loop load.
#[derive(Debug, Clone)]
pub struct ServingReport {
    /// Offered request rate (requests per second, all models).
    pub offered_qps: u64,
    /// Clock frequency the cycle↔time conversion uses.
    pub frequency_mhz: u32,
    /// Requests served.
    pub requests: u64,
    /// Aggregate latency statistics in cycles (all models).
    pub latency: LatencyStats,
    /// Achieved goodput: completed requests over the serving makespan.
    pub goodput_qps: f64,
    /// Pipeline-bound saturation rate of the offered mix: one request
    /// per mix-weighted `pipeline_interval_cycles` (drain costs at
    /// model switches push the achievable rate slightly below this).
    pub saturation_qps: f64,
    /// Dynamic energy under load (all models), in millijoules.
    pub energy_mj: f64,
    /// Deepest request backlog observed.
    pub peak_queue_depth: u64,
    /// Mean dispatched batch size.
    pub mean_batch: f64,
    /// Cycle of the last completion.
    pub makespan_cycles: u64,
    /// `(cycle, queued)` backlog samples at dispatch points, decimated
    /// to at most 256 entries.
    pub queue_depth_timeline: Vec<(u64, u64)>,
    /// Per-model breakdown, in the order the models were passed.
    pub per_model: Vec<ModelServing>,
}

impl ServingReport {
    /// Converts cycles to microseconds at the serving frequency.
    pub fn cycles_to_us(&self, cycles: u64) -> f64 {
        cycles as f64 / f64::from(self.frequency_mhz)
    }

    /// Aggregate median latency in µs.
    pub fn p50_latency_us(&self) -> f64 {
        self.cycles_to_us(self.latency.p50)
    }

    /// Aggregate 99th-percentile latency in µs.
    pub fn p99_latency_us(&self) -> f64 {
        self.cycles_to_us(self.latency.p99)
    }

    /// Aggregate worst-case latency in µs.
    pub fn max_latency_us(&self) -> f64 {
        self.cycles_to_us(self.latency.max)
    }

    /// Serving makespan in µs.
    pub fn makespan_us(&self) -> f64 {
        self.cycles_to_us(self.makespan_cycles)
    }
}

impl std::fmt::Display for ServingReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "serving @ {} qps: {} requests, goodput {:.1} qps (saturation ~{:.1}), \
             p50 {:.1} us, p99 {:.1} us, max {:.1} us, mean batch {:.2}, peak queue {}, \
             energy {:.3} mJ",
            self.offered_qps,
            self.requests,
            self.goodput_qps,
            self.saturation_qps,
            self.p50_latency_us(),
            self.p99_latency_us(),
            self.max_latency_us(),
            self.mean_batch,
            self.peak_queue_depth,
            self.energy_mj
        )?;
        for m in &self.per_model {
            writeln!(
                f,
                "  {}: {} requests in {} batches, p50 {:.1} us, p99 {:.1} us, max {:.1} us",
                m.model,
                m.requests,
                m.batches,
                self.cycles_to_us(m.latency.p50),
                self.cycles_to_us(m.latency.p99),
                self.cycles_to_us(m.latency.max),
            )?;
        }
        Ok(())
    }
}

impl Simulator<'_> {
    /// Serves an open-loop workload over one (multi-chip) system
    /// time-shared by `models`, at `offered_qps` requests per second.
    ///
    /// See the `serving` module docs for the execution model. The run is
    /// pure integer-tick queueing over the models' single-inference
    /// reports and deterministic: one `(models, workload, qps)` tuple,
    /// one report.
    ///
    /// # Errors
    ///
    /// [`SimError::Traffic`] for invalid workloads: no models, zero
    /// rate, bad mix, unusable trace file, or mismatched frequencies
    /// across models.
    pub fn serve(
        models: &[ServeModel],
        workload: &WorkloadSpec,
        offered_qps: u64,
    ) -> Result<ServingReport, SimError> {
        if models.is_empty() {
            return Err(SimError::Traffic { detail: "no models to serve".to_owned() });
        }
        let frequency_mhz = models[0].single.frequency_mhz;
        if models.iter().any(|m| m.single.frequency_mhz != frequency_mhz) {
            return Err(SimError::Traffic {
                detail: "co-located models must share one clock frequency".to_owned(),
            });
        }
        let ticks_per_second = u64::from(frequency_mhz) * 1_000_000;

        let requests = workload
            .generate(models.len(), offered_qps, ticks_per_second)
            .map_err(|e| SimError::Traffic { detail: e.to_string() })?;
        let timings: Vec<ModelTiming> = models
            .iter()
            .map(|m| ModelTiming {
                latency: m.single.total_cycles,
                interval: m.single.pipeline_interval_cycles(),
            })
            .collect();
        let outcome = run_queue(
            &requests,
            &timings,
            workload.max_batch,
            workload.max_queue_delay_ticks(ticks_per_second),
        );

        // Saturation: one request per mix-weighted pipeline interval.
        let counts: Vec<u64> = (0..models.len())
            .map(|m| requests.iter().filter(|r| r.model == m).count() as u64)
            .collect();
        let total = requests.len() as u64;
        let weighted_interval: f64 = timings
            .iter()
            .zip(&counts)
            .map(|(t, n)| t.interval as f64 * *n as f64 / total as f64)
            .sum();
        let saturation_qps = ticks_per_second as f64 / weighted_interval.max(1.0);

        let cycles_to_us = |cycles: u64| cycles as f64 / f64::from(frequency_mhz);
        let mut per_model = Vec::with_capacity(models.len());
        for (index, model) in models.iter().enumerate() {
            let mut latencies: Vec<u64> = outcome
                .completions
                .iter()
                .filter(|c| c.model == index)
                .map(|c| c.latency())
                .collect();
            latencies.sort_unstable();
            let histogram = cimflow_obs::Histogram::new();
            for latency in &latencies {
                histogram.record(cycles_to_us(*latency).round() as u64);
            }
            let batches = outcome.batches.iter().filter(|b| b.model == index).count() as u64;
            let requests_served = latencies.len() as u64;
            per_model.push(ModelServing {
                model: model.name.clone(),
                requests: requests_served,
                batches,
                mean_batch: if batches == 0 {
                    1.0
                } else {
                    requests_served as f64 / batches as f64
                },
                latency: LatencyStats::from_sorted(&latencies),
                histogram: histogram.snapshot(),
                energy_mj: model.single.energy_mj() * requests_served as f64,
                single: model.single.clone(),
            });
        }
        let mut all: Vec<u64> = outcome.completions.iter().map(|c| c.latency()).collect();
        all.sort_unstable();
        let makespan_seconds = outcome.makespan as f64 / ticks_per_second as f64;
        let goodput_qps = if outcome.makespan == 0 {
            0.0
        } else {
            outcome.completions.len() as f64 / makespan_seconds
        };

        let stride = outcome.depth_timeline.len().div_ceil(TIMELINE_CAP).max(1);
        let queue_depth_timeline: Vec<(u64, u64)> =
            outcome.depth_timeline.iter().step_by(stride).copied().collect();

        Ok(ServingReport {
            offered_qps,
            frequency_mhz,
            requests: total,
            latency: LatencyStats::from_sorted(&all),
            goodput_qps,
            saturation_qps,
            energy_mj: per_model.iter().map(|m| m.energy_mj).sum(),
            peak_queue_depth: outcome.peak_depth,
            mean_batch: outcome.mean_batch(),
            makespan_cycles: outcome.makespan,
            queue_depth_timeline,
            per_model,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cimflow_arch::ArchConfig;
    use cimflow_compiler::{compile, Strategy};
    use cimflow_nn::models;

    fn mobilenet_single() -> SimReport {
        let arch = ArchConfig::paper_default();
        let compiled = compile(&models::mobilenet_v2(32), &arch, Strategy::GenericMapping).unwrap();
        Simulator::new(&compiled).run().unwrap()
    }

    fn serve_once(qps: u64) -> ServingReport {
        let workload = WorkloadSpec { requests: 64, ..WorkloadSpec::default() };
        let served = [ServeModel { name: "mobilenetv2".to_owned(), single: mobilenet_single() }];
        Simulator::serve(&served, &workload, qps).unwrap()
    }

    #[test]
    fn low_qps_latency_is_bit_consistent_with_the_single_inference_report() {
        let report = serve_once(2); // far below saturation
        let single = &report.per_model[0].single;
        assert_eq!(
            report.latency.min, single.total_cycles,
            "idle serving latency must equal SimReport::total_cycles exactly"
        );
        assert_eq!(report.latency.max, single.total_cycles);
        assert_eq!(report.latency.p50, report.latency.p99);
        // The obs histogram agrees on the exact min/max (µs, rounded).
        let us = report.cycles_to_us(single.total_cycles).round() as u64;
        assert_eq!(report.per_model[0].histogram.min, us);
        assert_eq!(report.per_model[0].histogram.max, us);
    }

    #[test]
    fn serving_is_deterministic() {
        let a = serve_once(500);
        let b = serve_once(500);
        assert_eq!(a.latency, b.latency);
        assert_eq!(a.makespan_cycles, b.makespan_cycles);
        assert_eq!(a.queue_depth_timeline, b.queue_depth_timeline);
    }

    #[test]
    fn empty_model_lists_and_bad_workloads_are_rejected() {
        let workload = WorkloadSpec::default();
        let err = Simulator::serve(&[], &workload, 100).unwrap_err();
        assert!(matches!(err, SimError::Traffic { .. }));

        let single = mobilenet_single();
        let served = [ServeModel { name: "m".to_owned(), single: single.clone() }];
        let err = Simulator::serve(&served, &workload, 0).unwrap_err();
        assert!(err.to_string().contains("QPS"), "{err}");

        let slower = SimReport { frequency_mhz: single.frequency_mhz / 2, ..single.clone() };
        let mixed = [
            ServeModel { name: "a".to_owned(), single },
            ServeModel { name: "b".to_owned(), single: slower },
        ];
        let err = Simulator::serve(&mixed, &workload, 100).unwrap_err();
        assert!(err.to_string().contains("frequency"), "{err}");
    }
}
