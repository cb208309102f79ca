//! A typed synchronous client for the evaluation service's TCP
//! transport: one JSON request line out, one JSON response line back.

use std::fmt;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

use cimflow_dse::serve::{Request, Response, Target, WireMetric, WireOutcome};
use cimflow_dse::{CacheStats, EvalRequest, Priority, ServiceStats, SweepSpec};

/// Why a client call failed.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ClientError {
    /// The transport failed (connect, read, write).
    Io {
        /// Human-readable reason.
        reason: String,
    },
    /// The server answered something the client cannot parse, or a
    /// response of an unexpected shape for the request.
    Protocol {
        /// Human-readable reason.
        reason: String,
    },
    /// Admission control rejected the submission: back off and retry.
    Rejected {
        /// Machine-readable kind (`queue_full`, `quota_exceeded`, ...).
        kind: String,
        /// Human-readable reason.
        reason: String,
    },
    /// The server reported a request error (unknown id, malformed line).
    Remote {
        /// The server's message.
        message: String,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io { reason } => write!(f, "transport error: {reason}"),
            ClientError::Protocol { reason } => write!(f, "protocol error: {reason}"),
            ClientError::Rejected { kind, reason } => write!(f, "rejected ({kind}): {reason}"),
            ClientError::Remote { message } => write!(f, "server error: {message}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(value: std::io::Error) -> Self {
        ClientError::Io { reason: value.to_string() }
    }
}

/// An admitted batch: the ids needed to poll/wait/cancel it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchTicket {
    /// Connection-local batch id.
    pub batch: u64,
    /// Service-wide job ids in grid order.
    pub jobs: Vec<u64>,
    /// Number of points in the batch.
    pub points: usize,
    /// Points served from a journal without re-running.
    pub resumed: usize,
}

/// A non-blocking status snapshot of a job or batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RemoteStatus {
    /// `queued`/`running`/`done`/`cancelled`.
    pub state: String,
    /// Finished points.
    pub completed: usize,
    /// Total points.
    pub total: usize,
}

/// The answer of a deadline-bounded wait ([`Client::wait_job_timeout`],
/// [`Client::wait_batch_timeout`]): either the finished result, or the
/// status at expiry (the id stays addressable — poll, cancel or wait
/// again).
#[derive(Debug, Clone, PartialEq)]
pub enum Waited<T> {
    /// The job/batch finished within the deadline; the id is consumed.
    Finished(T),
    /// The deadline expired first; the id is *not* consumed.
    TimedOut(RemoteStatus),
}

impl<T> Waited<T> {
    /// The finished result, if the wait did not expire.
    pub fn finished(self) -> Option<T> {
        match self {
            Waited::Finished(value) => Some(value),
            Waited::TimedOut(_) => None,
        }
    }
}

/// A server-side counters snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RemoteStats {
    /// Service counters.
    pub service: ServiceStats,
    /// Cache hit/miss counters.
    pub cache: CacheStats,
    /// Number of stored evaluations.
    pub cache_entries: usize,
    /// Per-tenant in-flight job counts, sorted by tenant.
    pub tenants: Vec<(String, usize)>,
}

/// A server-side metrics snapshot: the structured rows and a
/// Prometheus-style text exposition of the same data.
#[derive(Debug, Clone, PartialEq)]
pub struct RemoteMetrics {
    /// Prometheus text exposition (counters, gauges, histogram
    /// summaries), ready to proxy to a scraper.
    pub exposition: String,
    /// One row per metric, machine-readable.
    pub metrics: Vec<WireMetric>,
}

/// A synchronous connection to a `cimflow-dse serve --tcp` (or embedded
/// [`TcpServer`](crate::TcpServer)) endpoint.
///
/// Job/batch ids are scoped to this connection: handles submitted here
/// cannot be addressed from another connection.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to a serving endpoint.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] when the connection cannot be established.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ClientError> {
        let writer = TcpStream::connect(addr)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client { reader, writer })
    }

    fn round_trip(&mut self, request: &Request) -> Result<Response, ClientError> {
        let line = serde_json::to_string(request).expect("request serialization cannot fail");
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        let mut answer = String::new();
        if self.reader.read_line(&mut answer)? == 0 {
            return Err(ClientError::Io { reason: "server closed the connection".to_owned() });
        }
        let response: Response = serde_json::from_str(answer.trim_end())
            .map_err(|e| ClientError::Protocol { reason: format!("bad response: {e}") })?;
        match response {
            Response::Rejected { kind, reason } => Err(ClientError::Rejected { kind, reason }),
            Response::Error { message } => Err(ClientError::Remote { message }),
            other => Ok(other),
        }
    }

    fn unexpected<T>(what: &str, response: Response) -> Result<T, ClientError> {
        Err(ClientError::Protocol { reason: format!("expected {what}, got {response:?}") })
    }

    /// Submits one evaluation request; returns its job id immediately.
    ///
    /// # Errors
    ///
    /// [`ClientError::Rejected`] on backpressure, transport/protocol
    /// errors otherwise.
    pub fn submit(&mut self, request: &EvalRequest) -> Result<u64, ClientError> {
        match self.round_trip(&Request::Submit(Box::new(request.clone())))? {
            Response::Accepted { job } => Ok(job),
            other => Self::unexpected("an acceptance", other),
        }
    }

    /// Submits a sweep as one batch, charged to `tenant` (the server
    /// defaults an omitted tenant to `anonymous`) at a priority. Every
    /// wire submission passes admission control.
    ///
    /// # Errors
    ///
    /// [`ClientError::Rejected`] on backpressure or an invalid spec.
    pub fn submit_sweep(
        &mut self,
        spec: &SweepSpec,
        tenant: Option<&str>,
        priority: Option<Priority>,
    ) -> Result<BatchTicket, ClientError> {
        let request = Request::Sweep {
            spec: Box::new(spec.clone()),
            tenant: tenant.map(str::to_owned),
            priority,
        };
        match self.round_trip(&request)? {
            Response::AcceptedBatch { batch, jobs, points, resumed } => {
                Ok(BatchTicket { batch, jobs, points, resumed })
            }
            other => Self::unexpected("a batch acceptance", other),
        }
    }

    fn poll(&mut self, target: Target) -> Result<RemoteStatus, ClientError> {
        match self.round_trip(&Request::Poll(target))? {
            Response::Status { state, completed, total } => {
                Ok(RemoteStatus { state, completed, total })
            }
            other => Self::unexpected("a status", other),
        }
    }

    /// Non-blocking status of a job.
    ///
    /// # Errors
    ///
    /// Transport/protocol errors, or [`ClientError::Remote`] for an
    /// unknown id.
    pub fn poll_job(&mut self, job: u64) -> Result<RemoteStatus, ClientError> {
        self.poll(Target::Job(job))
    }

    /// Non-blocking status of a batch.
    ///
    /// # Errors
    ///
    /// See [`Self::poll_job`].
    pub fn poll_batch(&mut self, batch: u64) -> Result<RemoteStatus, ClientError> {
        self.poll(Target::Batch(batch))
    }

    /// Blocks until a job finishes and returns its outcome. The wait
    /// *consumes* the id (results are delivered exactly once; poll
    /// before waiting if status is needed afterwards).
    ///
    /// # Errors
    ///
    /// See [`Self::poll_job`].
    pub fn wait_job(&mut self, job: u64) -> Result<WireOutcome, ClientError> {
        match self.round_trip(&Request::Wait { target: Target::Job(job), timeout_ms: None })? {
            Response::Result(outcome) => Ok(outcome),
            other => Self::unexpected("a result", other),
        }
    }

    /// [`Self::wait_job`] bounded by `timeout_ms`: the server answers
    /// within the deadline — the outcome if the job finished (consuming
    /// the id), its current status otherwise (the id stays addressable).
    /// Use this to lease the connection in bounded slices instead of
    /// wedging it behind one slow job.
    ///
    /// # Errors
    ///
    /// See [`Self::poll_job`].
    pub fn wait_job_timeout(
        &mut self,
        job: u64,
        timeout_ms: u64,
    ) -> Result<Waited<WireOutcome>, ClientError> {
        let request = Request::Wait { target: Target::Job(job), timeout_ms: Some(timeout_ms) };
        match self.round_trip(&request)? {
            Response::Result(outcome) => Ok(Waited::Finished(outcome)),
            Response::Status { state, completed, total } => {
                Ok(Waited::TimedOut(RemoteStatus { state, completed, total }))
            }
            other => Self::unexpected("a result or an expiry status", other),
        }
    }

    /// Blocks until a batch finishes; outcomes are in grid order. Like
    /// [`Self::wait_job`], the wait consumes the batch id.
    ///
    /// # Errors
    ///
    /// See [`Self::poll_job`].
    pub fn wait_batch(&mut self, batch: u64) -> Result<Vec<WireOutcome>, ClientError> {
        match self.round_trip(&Request::Wait { target: Target::Batch(batch), timeout_ms: None })? {
            Response::BatchResult { outcomes, .. } => Ok(outcomes),
            other => Self::unexpected("a batch result", other),
        }
    }

    /// [`Self::wait_batch`] bounded by `timeout_ms` (see
    /// [`Self::wait_job_timeout`] for the expiry semantics).
    ///
    /// # Errors
    ///
    /// See [`Self::poll_job`].
    pub fn wait_batch_timeout(
        &mut self,
        batch: u64,
        timeout_ms: u64,
    ) -> Result<Waited<Vec<WireOutcome>>, ClientError> {
        let request = Request::Wait { target: Target::Batch(batch), timeout_ms: Some(timeout_ms) };
        match self.round_trip(&request)? {
            Response::BatchResult { outcomes, .. } => Ok(Waited::Finished(outcomes)),
            Response::Status { state, completed, total } => {
                Ok(Waited::TimedOut(RemoteStatus { state, completed, total }))
            }
            other => Self::unexpected("a batch result or an expiry status", other),
        }
    }

    /// Cancels a queued job; returns whether it was cancelled.
    ///
    /// # Errors
    ///
    /// See [`Self::poll_job`].
    pub fn cancel_job(&mut self, job: u64) -> Result<bool, ClientError> {
        match self.round_trip(&Request::Cancel(Target::Job(job)))? {
            Response::Cancelled { cancelled } => Ok(cancelled > 0),
            other => Self::unexpected("a cancellation", other),
        }
    }

    /// Cancels every queued point of a batch; returns how many were
    /// cancelled.
    ///
    /// # Errors
    ///
    /// See [`Self::poll_job`].
    pub fn cancel_batch(&mut self, batch: u64) -> Result<usize, ClientError> {
        match self.round_trip(&Request::Cancel(Target::Batch(batch)))? {
            Response::Cancelled { cancelled } => Ok(cancelled),
            other => Self::unexpected("a cancellation", other),
        }
    }

    /// Fetches the service and cache counters.
    ///
    /// # Errors
    ///
    /// Transport/protocol errors.
    pub fn stats(&mut self) -> Result<RemoteStats, ClientError> {
        match self.round_trip(&Request::Stats)? {
            Response::Stats { service, cache, cache_entries, tenants } => {
                Ok(RemoteStats { service, cache, cache_entries, tenants })
            }
            other => Self::unexpected("stats", other),
        }
    }

    /// Fetches the server's metrics registry: structured rows plus a
    /// Prometheus text exposition of queue-wait/latency histograms,
    /// admission counters and cache gauges.
    ///
    /// # Errors
    ///
    /// Transport/protocol errors.
    pub fn metrics(&mut self) -> Result<RemoteMetrics, ClientError> {
        match self.round_trip(&Request::Metrics)? {
            Response::Metrics { exposition, metrics } => Ok(RemoteMetrics { exposition, metrics }),
            other => Self::unexpected("metrics", other),
        }
    }

    /// Asks the server to shut down (queued jobs are cancelled, running
    /// jobs finish, the listener stops accepting).
    ///
    /// # Errors
    ///
    /// Transport/protocol errors.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.round_trip(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            other => Self::unexpected("a shutdown acknowledgement", other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cimflow_compiler::Strategy;
    use cimflow_dse::serve::TcpServer;
    use cimflow_dse::{EvalService, ServiceConfig};
    use std::sync::Arc;

    fn spec() -> SweepSpec {
        SweepSpec::new()
            .with_model("mobilenetv2", 32)
            .with_strategies(&[Strategy::GenericMapping])
            .with_mg_sizes(&[4, 8])
    }

    #[test]
    fn client_round_trips_jobs_batches_and_stats_over_tcp() {
        let service = Arc::new(EvalService::new(ServiceConfig::new().with_workers(2)));
        let server = TcpServer::spawn(Arc::clone(&service), 0).expect("bind loopback");

        let mut client = Client::connect(server.addr()).expect("connect");
        let job = client
            .submit(&EvalRequest::new("mobilenetv2", 32, Strategy::DpOptimized))
            .expect("admitted");
        assert_eq!(client.poll_job(job).unwrap().total, 1);
        let outcome = client.wait_job(job).expect("result");
        assert!(outcome.ok && !outcome.cached);
        // The wait consumed the id: the server released the result slot.
        assert!(matches!(client.poll_job(job), Err(ClientError::Remote { .. })));

        let ticket = client.submit_sweep(&spec(), Some("alice"), None).expect("admitted");
        assert_eq!(ticket.points, 2);
        let outcomes = client.wait_batch(ticket.batch).expect("batch result");
        assert_eq!(outcomes.len(), 2);
        assert!(outcomes.iter().all(|o| o.ok));
        assert!(matches!(client.poll_batch(ticket.batch), Err(ClientError::Remote { .. })));

        // A second connection shares the service (and its cache) but not
        // the first connection's ids; a tenant-less sweep is admitted
        // under the default tenant.
        let mut second = Client::connect(server.addr()).expect("connect");
        assert!(matches!(second.wait_job(job), Err(ClientError::Remote { .. })));
        let warm = second.submit_sweep(&spec(), None, None).expect("admitted as `anonymous`");
        assert!(second.wait_batch(warm.batch).unwrap().iter().all(|o| o.cached));

        let stats = client.stats().expect("stats");
        assert_eq!(stats.service.completed, 5);
        assert_eq!(stats.cache.hits, 2);
        // Every wait above consumed its ids, so nothing is in flight.
        assert!(stats.tenants.is_empty());

        let metrics = client.metrics().expect("metrics");
        assert!(metrics.exposition.contains("service_evals_completed 5"));
        let latency = metrics
            .metrics
            .iter()
            .find(|m| m.name == "service.eval_latency_us")
            .expect("latency histogram");
        assert_eq!(latency.kind, "histogram");
        assert!(latency.count.unwrap() >= 1);
        server.stop();
    }

    #[test]
    fn serving_metrics_cross_the_wire_for_traffic_requests() {
        let service = Arc::new(EvalService::new(ServiceConfig::new().with_workers(1)));
        let server = TcpServer::spawn(Arc::clone(&service), 0).expect("bind loopback");
        let mut client = Client::connect(server.addr()).expect("connect");

        let offline = client
            .submit(&EvalRequest::new("mobilenetv2", 32, Strategy::GenericMapping))
            .expect("admitted");
        let outcome = client.wait_job(offline).expect("result");
        assert!(outcome.ok && outcome.serving.is_none());

        // The same design point under load: a distinct cache identity
        // (traffic fingerprint) whose outcome carries SLO metrics.
        let served = client
            .submit(
                &EvalRequest::new("mobilenetv2", 32, Strategy::GenericMapping)
                    .with_offered_qps(500),
            )
            .expect("admitted");
        let outcome = client.wait_job(served).expect("result");
        assert!(outcome.ok, "{:?}", outcome.error);
        assert!(!outcome.cached, "traffic fingerprint separates the cache identity");
        let serving = outcome.serving.expect("serving metrics on the wire");
        assert_eq!(serving.offered_qps, 500);
        assert!(serving.p99_latency_us > 0.0);
        assert!(serving.goodput_qps > 0.0);
        assert!(serving.energy_mj > 0.0);
        server.stop();
    }

    #[test]
    fn quota_rejections_surface_as_client_backpressure() {
        let service =
            Arc::new(EvalService::new(ServiceConfig::new().with_workers(1).with_tenant_quota(2)));
        let server = TcpServer::spawn(Arc::clone(&service), 0).expect("bind loopback");
        let mut client = Client::connect(server.addr()).expect("connect");
        // The 3-point sweep exceeds tenant `a`'s quota of 2 atomically.
        let wide = spec().with_mg_sizes(&[4, 8, 16]);
        match client.submit_sweep(&wide, Some("a"), Some(Priority::High)) {
            Err(ClientError::Rejected { kind, .. }) => assert_eq!(kind, "quota_exceeded"),
            other => panic!("expected quota backpressure, got {other:?}"),
        }
        // A tenant-less sweep is charged to `anonymous` — the operator's
        // quota binds every wire submission.
        match client.submit_sweep(&wide, None, None) {
            Err(ClientError::Rejected { kind, .. }) => assert_eq!(kind, "quota_exceeded"),
            other => panic!("expected quota backpressure, got {other:?}"),
        }
        // Within quota, tenant `b` flows through the same pool.
        let ticket = client.submit_sweep(&spec(), Some("b"), None).expect("admitted");
        assert_eq!(client.wait_batch(ticket.batch).unwrap().len(), 2);
        server.stop();
    }

    #[test]
    fn bounded_waits_lease_the_connection_in_slices() {
        use cimflow_arch::ArchConfig;
        use cimflow_compiler::SearchMode;
        use cimflow_dse::{evaluate_with_search, CacheKey, EvalCache};
        use cimflow_nn::models;
        use std::sync::mpsc;
        use std::time::{Duration, Instant};

        // Hold the first sweep point's in-flight cache marker so the
        // single worker blocks deterministically on it (the marker is
        // guaranteed held before anything is submitted).
        let cache = EvalCache::new();
        let service =
            Arc::new(EvalService::with_cache(ServiceConfig::new().with_workers(1), cache.clone()));
        let server = TcpServer::spawn(Arc::clone(&service), 0).expect("bind loopback");
        let (go, release) = mpsc::channel();
        let (entered_tx, entered_rx) = mpsc::channel();
        let blocked_cache = cache.clone();
        let blocker = std::thread::spawn(move || {
            let arch = ArchConfig::paper_default().with_macros_per_group(4);
            let model = models::mobilenet_v2(32);
            let key = CacheKey::of(&arch, &model, Strategy::GenericMapping, SearchMode::Sequential);
            blocked_cache
                .get_or_insert_with(key, || {
                    entered_tx.send(()).expect("entered signal");
                    release.recv().expect("release signal");
                    evaluate_with_search(
                        &arch,
                        &model,
                        Strategy::GenericMapping,
                        SearchMode::Sequential,
                    )
                })
                .expect("blocked evaluation succeeds");
        });
        entered_rx.recv().expect("blocker holds the marker");

        let mut client = Client::connect(server.addr()).expect("connect");
        let ticket = client.submit_sweep(&spec(), None, None).expect("admitted");
        let started = Instant::now();
        match client.wait_batch_timeout(ticket.batch, 50).expect("answered") {
            Waited::TimedOut(status) => {
                assert_eq!(status.total, 2);
                assert_eq!(status.state, "running");
            }
            Waited::Finished(outcomes) => {
                panic!("the blocked sweep cannot finish within its lease: {outcomes:?}")
            }
        }
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "the bounded wait answers within the deadline, not at completion"
        );
        // The expired wait left the batch addressable; once released, a
        // generous lease finishes and consumes it.
        assert!(client.poll_batch(ticket.batch).is_ok());
        go.send(()).unwrap();
        match client.wait_batch_timeout(ticket.batch, 120_000).expect("answered") {
            Waited::Finished(outcomes) => {
                assert_eq!(outcomes.len(), 2);
                assert!(outcomes.iter().all(|o| o.ok));
            }
            Waited::TimedOut(status) => panic!("two minutes was not enough: {status:?}"),
        }
        assert!(matches!(client.poll_batch(ticket.batch), Err(ClientError::Remote { .. })));

        // Job-level bounded waits share the semantics.
        let job = client
            .submit(&EvalRequest::new("mobilenetv2", 32, Strategy::DpOptimized))
            .expect("admitted");
        match client.wait_job_timeout(job, 120_000).expect("answered") {
            Waited::Finished(outcome) => assert!(outcome.ok),
            Waited::TimedOut(status) => panic!("two minutes was not enough: {status:?}"),
        }
        blocker.join().unwrap();
        server.stop();
    }

    /// Polls `status` until it reports every point finished.
    fn until_finished(mut status: impl FnMut() -> RemoteStatus) {
        for _ in 0..6000 {
            let now = status();
            if now.completed == now.total {
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        panic!("the work did not finish within a minute");
    }

    #[test]
    fn client_cancels_queued_work_and_nothing_finished() {
        use cimflow_arch::ArchConfig;
        use cimflow_compiler::SearchMode;
        use cimflow_dse::{evaluate_with_search, CacheKey, EvalCache};
        use cimflow_nn::models;
        use std::sync::mpsc;

        // Hold the first job's in-flight cache marker so the one worker
        // blocks on it and everything submitted after it stays queued.
        let cache = EvalCache::new();
        let service =
            Arc::new(EvalService::with_cache(ServiceConfig::new().with_workers(1), cache.clone()));
        let server = TcpServer::spawn(Arc::clone(&service), 0).expect("bind loopback");
        let (go, release) = mpsc::channel();
        let (entered_tx, entered_rx) = mpsc::channel();
        let blocked_cache = cache.clone();
        let blocker = std::thread::spawn(move || {
            let arch = ArchConfig::paper_default();
            let model = models::mobilenet_v2(32);
            let key = CacheKey::of(&arch, &model, Strategy::GenericMapping, SearchMode::Sequential);
            blocked_cache
                .get_or_insert_with(key, || {
                    entered_tx.send(()).expect("entered signal");
                    release.recv().expect("release signal");
                    evaluate_with_search(
                        &arch,
                        &model,
                        Strategy::GenericMapping,
                        SearchMode::Sequential,
                    )
                })
                .expect("blocked evaluation succeeds");
        });
        entered_rx.recv().expect("blocker holds the marker");

        let mut client = Client::connect(server.addr()).expect("connect");
        let running = client
            .submit(&EvalRequest::new("mobilenetv2", 32, Strategy::GenericMapping))
            .expect("admitted");
        // Claims are FIFO, so the one worker takes `running` first and
        // blocks on its marker: every later submission stays queued.
        let queued = client
            .submit(&EvalRequest::new("resnet18", 32, Strategy::GenericMapping))
            .expect("admitted");
        let ticket = client.submit_sweep(&spec(), None, None).expect("admitted");

        assert!(client.cancel_job(queued).expect("answered"), "a queued job cancels");
        let outcome = client.wait_job(queued).expect("result");
        assert!(!outcome.ok);
        let error = outcome.error.expect("a cancelled job reports why");
        assert!(error.contains("cancelled"), "{error}");
        assert_eq!(client.cancel_batch(ticket.batch).expect("answered"), 2);

        go.send(()).unwrap();
        blocker.join().unwrap();
        until_finished(|| client.poll_job(running).expect("status"));
        assert!(!client.cancel_job(running).expect("answered"), "a finished job cannot cancel");
        let finished = client.submit_sweep(&spec(), None, None).expect("admitted");
        until_finished(|| client.poll_batch(finished.batch).expect("status"));
        assert_eq!(client.cancel_batch(finished.batch).expect("answered"), 0);
        server.stop();
    }

    #[test]
    fn shutdown_stops_the_listener() {
        use std::time::{Duration, Instant};

        let service = Arc::new(EvalService::new(ServiceConfig::new().with_workers(1)));
        let server = TcpServer::spawn(Arc::clone(&service), 0).expect("bind loopback");
        let mut client = Client::connect(server.addr()).expect("connect");
        client.shutdown().expect("acknowledged");
        assert!(server.shutdown_requested());
        // The waiter and the accept loop are condvar-woken: with no work
        // in flight the whole teardown completes promptly instead of
        // lagging a poll interval per loop.
        let started = Instant::now();
        server.wait_for_shutdown();
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "shutdown must not lag on polling sleeps: {:?}",
            started.elapsed()
        );
        assert!(service.submit(EvalRequest::new("resnet18", 32, Strategy::DpOptimized)).is_err());
    }
}
