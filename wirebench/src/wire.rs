//! The closed-loop wire driver: each client owns a `Connection` on one
//! in-process `EvalService`, hands it request lines exactly as
//! `serve_connection` does (`handle_line`, then `serde_json::to_string`
//! of the response), and sends its next request only once the previous
//! result line is serialized. No socket, sleep, poll or timed wait sits
//! inside a timed interval.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex, OnceLock};
use std::time::{Duration, Instant};

use cimflow_dse::serve::{Connection, Response, Target};
use cimflow_dse::EvalService;
use cimflow_obs::Tracer;

use crate::gen::{self, Ask, Plan, CLIENTS};
use crate::stats;

/// One answered request.
pub struct Exchange {
    /// What the request asked for.
    pub ask: Ask,
    /// Its final response line (the result, or the rejection/error that
    /// ended it).
    pub response: String,
    /// From handing the first line to the wire until the result line was
    /// serialized.
    pub latency: Duration,
    /// Design points it covered.
    pub points: usize,
    /// When its result line was serialized, from the phase's start.
    pub done: Duration,
    /// Whether it was sent before the deadline. Requests sent after it
    /// only bring the answered points up to the memory mark: they are
    /// verified but neither timed nor counted in the windows.
    pub timed: bool,
}

/// Windows the measured phase is cut into for the throughput and CPU
/// medians (odd, for a plain median).
pub const WINDOWS: usize = 5;

/// Counters read at a window edge.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Seconds from the phase's start.
    pub at: f64,
    /// Process CPU seconds.
    pub cpu: f64,
    /// Host steal seconds per CPU.
    pub steal: f64,
    /// Host steal seconds over all CPUs.
    pub steal_total: f64,
}

impl Sample {
    fn now(at: f64) -> Self {
        let (steal_total, steal) = stats::host_steal_seconds();
        Sample { at, cpu: stats::process_cpu_seconds(), steal, steal_total }
    }
}

/// One window of the measured phase.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    /// Its edges, in seconds from the phase's start.
    pub from: f64,
    /// See `from`.
    pub to: f64,
    /// Points finished inside it.
    pub points: usize,
    /// Process CPU seconds spent inside it.
    pub cpu: f64,
    /// Host steal seconds per CPU inside it.
    pub stolen: f64,
}

impl Window {
    /// Share of the window's wall time the host left the process: the
    /// 2-CPU reference host is shared, and steal there comes in bursts
    /// that took up to a quarter of a run. Throughput and latency are
    /// taken over this available time so that host interference does not
    /// read as a change of the program; the raw figures stay in the
    /// diagnostics line.
    pub fn available(&self) -> f64 {
        ((self.to - self.from - self.stolen) / (self.to - self.from)).clamp(0.05, 1.0)
    }

    /// Points per second of available wall time.
    pub fn points_per_s(&self) -> f64 {
        self.points as f64 / ((self.to - self.from) * self.available())
    }

    /// Process CPU milliseconds per point.
    pub fn cpu_ms_per_point(&self) -> f64 {
        self.cpu * 1e3 / self.points.max(1) as f64
    }
}

/// Everything one measured phase produced.
pub struct Phase {
    /// Wall seconds from the clients' start to the last window edge.
    pub wall_s: f64,
    /// Process CPU seconds over the same interval.
    pub cpu_s: f64,
    /// Host steal seconds (over all CPUs) over the same interval.
    pub steal_s: f64,
    /// The same steal per CPU.
    pub stolen_s: f64,
    /// Every answered request, client by client, timed or not.
    pub exchanges: Vec<Exchange>,
    /// Whether a client ran out of plan before the run ended.
    pub spent: bool,
    /// Counters at the start and at the first completion after each
    /// window boundary.
    pub samples: Vec<Sample>,
    /// Peak RSS (MiB) when the answered points first reached the phase's
    /// memory mark, if they did (they fall short only when the plan runs
    /// out first).
    pub peak_rss_mib: Option<f64>,
}

impl Phase {
    /// Design points answered inside the windows.
    pub fn points(&self) -> usize {
        self.windows().iter().map(|w| w.points).sum()
    }

    /// The windows between consecutive samples. Requests still in flight
    /// at the deadline finish after the last sample and fall in none, nor
    /// do the untimed requests sent after it.
    pub fn windows(&self) -> Vec<Window> {
        self.samples
            .windows(2)
            .map(|edge| {
                let (from, to) = (edge[0], edge[1]);
                Window {
                    from: from.at,
                    to: to.at,
                    points: self
                        .exchanges
                        .iter()
                        .filter(|e| {
                            e.timed
                                && e.done.as_secs_f64() > from.at
                                && e.done.as_secs_f64() <= to.at
                        })
                        .map(|e| e.points)
                        .sum(),
                    cpu: to.cpu - from.cpu,
                    stolen: to.steal - from.steal,
                }
            })
            .collect()
    }

    /// Ascending latencies of the timed requests in milliseconds. With
    /// `available`, each is scaled by the available share of the window it
    /// finished in (the last window for requests finished after it).
    pub fn latencies_ms(&self, available: bool) -> Vec<f64> {
        let windows = self.windows();
        let mut latencies: Vec<f64> = self
            .exchanges
            .iter()
            .filter(|e| e.timed)
            .map(|e| {
                let scale = if available {
                    let done = e.done.as_secs_f64();
                    windows
                        .iter()
                        .find(|w| done <= w.to)
                        .or(windows.last())
                        .map_or(1.0, Window::available)
                } else {
                    1.0
                };
                e.latency.as_secs_f64() * 1e3 * scale
            })
            .collect();
        latencies.sort_by(f64::total_cmp);
        latencies
    }
}

/// Sends one line and serializes its response, as `serve_connection`
/// does per line.
pub fn send(connection: &mut Connection<'_>, line: &str) -> (Response, String) {
    let (response, _) = connection.handle_line(line);
    let text = serde_json::to_string(&response).expect("response serialization cannot fail");
    (response, text)
}

/// Runs one request — its submission plus the wait on what the
/// submission accepted — and returns the final response line.
pub fn exchange(connection: &mut Connection<'_>, line: &str) -> String {
    let (response, text) = send(connection, line);
    let target = match response {
        Response::Accepted { job } => Target::Job(job),
        Response::AcceptedBatch { batch, .. } => Target::Batch(batch),
        // A rejection or error ends the request; verification fails it.
        _ => return text,
    };
    std::hint::black_box(text);
    send(connection, &gen::wait_line(target)).1
}

/// Drives the plan's requests through `service` from [`CLIENTS`]
/// closed-loop clients until `seconds` have passed (or the plan is
/// spent). With a tracer, each request gets a `request` span on its
/// client's track carrying the request's global id. The first client to
/// finish a request after each of the [`WINDOWS`] window boundaries
/// samples the process CPU time, between requests and outside any
/// request's timed interval; the client whose request brings the answered
/// points to `memory_mark` samples the peak RSS the same way. A run too
/// slow to reach the mark by the deadline keeps sending requests, untimed,
/// until it does, so every run reads its peak RSS at the same work.
pub fn run(
    service: &EvalService,
    plan: &Plan,
    seconds: f64,
    memory_mark: usize,
    tracer: Option<&Tracer>,
) -> Phase {
    let gate = Barrier::new(CLIENTS + 1);
    let start: OnceLock<Instant> = OnceLock::new();
    let window = Duration::from_secs_f64(seconds / WINDOWS as f64);
    let next_window = AtomicUsize::new(1);
    let samples = Mutex::new(Vec::with_capacity(WINDOWS + 1));
    let answered = AtomicUsize::new(0);
    let peak_rss: OnceLock<f64> = OnceLock::new();
    let per_client = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let (gate, start, next_window, samples) = (&gate, &start, &next_window, &samples);
                let (answered, peak_rss) = (&answered, &peak_rss);
                scope.spawn(move || {
                    let mut connection = Connection::new(service);
                    if let Some(tracer) = tracer {
                        tracer.set_track_name(
                            cimflow_obs::thread_track(),
                            &format!("client-{client}"),
                        );
                    }
                    gate.wait();
                    let began_phase = *start.get().expect("start is set before the gate opens");
                    let deadline = began_phase + Duration::from_secs_f64(seconds);
                    let mut exchanges = Vec::new();
                    let mut spent = false;
                    for k in 0.. {
                        let timed = Instant::now() < deadline;
                        if !timed && answered.load(Ordering::Relaxed) >= memory_mark {
                            break;
                        }
                        let Some(generated) = plan.request(client, k) else {
                            spent = true;
                            break;
                        };
                        let span = tracer.map(|tracer| {
                            let mut span = tracer.thread_span("request", "wire");
                            span.attr("request", (k * CLIENTS + client) as u64)
                                .attr("points", generated.points as u64);
                            span
                        });
                        let began = Instant::now();
                        let response = exchange(&mut connection, &generated.line);
                        let latency = began.elapsed();
                        drop(span);
                        let done = began_phase.elapsed();
                        let boundary = next_window.load(Ordering::Relaxed);
                        if timed
                            && boundary <= WINDOWS
                            && done >= window * boundary as u32
                            && next_window
                                .compare_exchange(
                                    boundary,
                                    boundary + 1,
                                    Ordering::Relaxed,
                                    Ordering::Relaxed,
                                )
                                .is_ok()
                        {
                            let sample = Sample::now(done.as_secs_f64());
                            samples.lock().expect("sample list poisoned").push(sample);
                        }
                        let before = answered.fetch_add(generated.points, Ordering::Relaxed);
                        if before < memory_mark && before + generated.points >= memory_mark {
                            // Only the crossing client gets here.
                            let _ = peak_rss.set(stats::peak_rss_mib());
                        }
                        exchanges.push(Exchange {
                            ask: generated.ask,
                            response,
                            latency,
                            points: generated.points,
                            done,
                            timed,
                        });
                    }
                    (exchanges, spent)
                })
            })
            .collect();
        samples.lock().expect("sample list poisoned").push(Sample::now(0.0));
        start.set(Instant::now()).expect("start is set once");
        gate.wait();
        clients.into_iter().map(|c| c.join().expect("client thread panicked")).collect::<Vec<_>>()
    });
    let samples = samples.into_inner().expect("sample list poisoned");
    let (first, last) = (samples[0], *samples.last().expect("the first sample is taken"));
    Phase {
        wall_s: last.at - first.at,
        cpu_s: last.cpu - first.cpu,
        steal_s: last.steal_total - first.steal_total,
        stolen_s: last.steal - first.steal,
        spent: per_client.iter().any(|(_, spent)| *spent),
        samples,
        peak_rss_mib: peak_rss.get().copied(),
        exchanges: per_client.into_iter().flat_map(|(exchanges, _)| exchanges).collect(),
    }
}
