//! Client side: a blocking one-request-at-a-time [`Client`], plus the
//! [`run_load_with`] generator the CLI (`submit --load`) uses to drive
//! the daemon under concurrency. [`Stream`] is the one client-side
//! socket type; the router's backend connections use it too.
//!
//! The load generator verifies more than liveness: when given the
//! expected wire encoding (computed in-process by
//! [`expected_results_wire`] over the same job specs), every response
//! body is compared byte-for-byte — any divergence between the served
//! pipeline and a local [`obfuscade::run_pipeline_jobs`] run counts as a
//! `mismatch` and fails the run.
//!
//! # Retries (PR 6)
//!
//! [`RetryingClient`] wraps the blocking client with read timeouts,
//! bounded exponential backoff and transparent reconnects. Retrying a
//! `run`/`authenticate` submission is **safe by construction**: the
//! daemon's pipeline is deterministic and content-addressed, so a
//! duplicate execution returns byte-identical results and at-most-once
//! delivery is unnecessary. Only transient failures are retried —
//! transport errors (dropped connections, timeouts) and the typed
//! `overloaded`/`internal` responses; `malformed`, `forbidden`,
//! `shutting_down` and `job` errors are the daemon's real answer and are
//! returned as-is. `shutdown` is never retried.

use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use am_par::Parallelism;
use obfuscade::json::Json;
use obfuscade::{run_pipeline_jobs, BatchJob, StageCache, StageHasher};

use crate::codec::{negotiate_binary, Codec};
use crate::protocol::{
    encode_detect_outcome, encode_outcome, encode_sanitize_outcome, read_frame, write_frame,
    DetectSpec, JobSpec, Request, RequestBody, Response, SanitizeSpec, ServiceError,
};

/// Where the daemon listens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A TCP address, e.g. `127.0.0.1:4817`.
    Tcp(String),
    /// A Unix-domain socket path (Unix only; connecting on other
    /// platforms errors).
    Unix(PathBuf),
}

/// A connected TCP or Unix-domain stream to a daemon — the one socket
/// type under [`Client`] and the router's backend connections.
#[derive(Debug)]
pub enum Stream {
    /// A TCP connection, opened with `TCP_NODELAY`.
    Tcp(TcpStream),
    /// A Unix-domain socket connection.
    #[cfg(unix)]
    Unix(std::os::unix::net::UnixStream),
}

impl Stream {
    /// Connects to `endpoint`. TCP connections set `TCP_NODELAY`: every
    /// write is a whole frame, so batching small writes only adds delay.
    ///
    /// # Errors
    ///
    /// Connection failures; on non-Unix platforms, any
    /// [`Endpoint::Unix`].
    pub fn connect(endpoint: &Endpoint) -> io::Result<Stream> {
        match endpoint {
            Endpoint::Tcp(addr) => {
                let stream = TcpStream::connect(addr)?;
                let _ = stream.set_nodelay(true);
                Ok(Stream::Tcp(stream))
            }
            #[cfg(unix)]
            Endpoint::Unix(path) => {
                Ok(Stream::Unix(std::os::unix::net::UnixStream::connect(path)?))
            }
            #[cfg(not(unix))]
            Endpoint::Unix(_) => Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "unix-domain sockets are not available on this platform",
            )),
        }
    }

    /// Sets (or, with `None`, clears) the timeout of every read.
    ///
    /// # Errors
    ///
    /// The socket refusing the option.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_read_timeout(timeout),
            #[cfg(unix)]
            Stream::Unix(s) => s.set_read_timeout(timeout),
        }
    }

    /// A second handle to the same socket, e.g. for a reader thread.
    ///
    /// # Errors
    ///
    /// The socket cannot be duplicated.
    pub fn try_clone(&self) -> io::Result<Stream> {
        match self {
            Stream::Tcp(s) => s.try_clone().map(Stream::Tcp),
            #[cfg(unix)]
            Stream::Unix(s) => s.try_clone().map(Stream::Unix),
        }
    }

    /// Closes both directions, waking a reader blocked on any handle to
    /// the socket. Closing an already-closed socket is not an error here.
    pub fn shutdown(&self) {
        let _ = match self {
            Stream::Tcp(s) => s.shutdown(Shutdown::Both),
            #[cfg(unix)]
            Stream::Unix(s) => s.shutdown(Shutdown::Both),
        };
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Stream::Unix(s) => s.flush(),
        }
    }
}

/// A blocking service client: one in-flight request at a time, ids
/// assigned sequentially per connection.
pub struct Client {
    stream: Stream,
    next_id: u64,
    codec: Codec,
}

impl Client {
    /// Connects to the daemon.
    ///
    /// # Errors
    ///
    /// Connection failures; on non-Unix platforms, any
    /// [`Endpoint::Unix`].
    pub fn connect(endpoint: &Endpoint) -> io::Result<Client> {
        Client::connect_with(endpoint, None)
    }

    /// [`Client::connect`] with a read timeout: a response that takes
    /// longer than `read_timeout` fails the call with a transport error
    /// instead of blocking forever (a hung daemon then surfaces as a
    /// retryable failure).
    ///
    /// # Errors
    ///
    /// Connection failures; on non-Unix platforms, any
    /// [`Endpoint::Unix`].
    pub fn connect_with(
        endpoint: &Endpoint,
        read_timeout: Option<Duration>,
    ) -> io::Result<Client> {
        let stream = Stream::connect(endpoint)?;
        stream.set_read_timeout(read_timeout)?;
        Ok(Client { stream, next_id: 1, codec: Codec::Json })
    }

    /// [`Client::connect_with`] plus codec selection: [`Codec::Binary`]
    /// performs the hello negotiation on the fresh connection before
    /// returning, so a successfully built client speaks the requested
    /// codec from its first request.
    ///
    /// # Errors
    ///
    /// Connection failures, or a failed negotiation ([`negotiate_binary`]:
    /// the daemon refusing the binary codec or acknowledging another
    /// version) — surfaced as `InvalidData` with the daemon's message.
    pub fn connect_with_codec(
        endpoint: &Endpoint,
        read_timeout: Option<Duration>,
        codec: Codec,
    ) -> io::Result<Client> {
        let mut client = Client::connect_with(endpoint, read_timeout)?;
        if codec == Codec::Binary {
            negotiate_binary(&mut client.stream)
                .map_err(|message| io::Error::new(io::ErrorKind::InvalidData, message))?;
            client.codec = Codec::Binary;
        }
        Ok(client)
    }

    /// The codec this connection speaks.
    pub fn codec(&self) -> Codec {
        self.codec
    }

    /// Sends one request body and waits for the matching response.
    ///
    /// # Errors
    ///
    /// Transport failures, a closed connection, an undecodable reply, or
    /// a response id that does not echo the request id.
    pub fn call(&mut self, body: RequestBody) -> Result<Response, String> {
        let id = self.next_id;
        self.next_id += 1;
        let request = Request { id, body };
        let payload = self.codec.encode_request(&request);
        write_frame(&mut self.stream, &payload).map_err(|e| format!("send failed: {e}"))?;
        let frame = read_frame(&mut self.stream)
            .map_err(|e| format!("receive failed: {e}"))?
            .ok_or("the daemon closed the connection")?;
        let response = self.codec.decode_response(&frame)?;
        if response.id() == id || matches!(response, Response::Error { id: 0, .. }) {
            Ok(response)
        } else {
            Err(format!("response id {} does not match request id {id}", response.id()))
        }
    }

    /// Sends raw frame-payload bytes and decodes whatever comes back as
    /// JSON — the hook tests use to probe the daemon's malformed-input
    /// handling (only meaningful on a JSON connection).
    ///
    /// # Errors
    ///
    /// Transport failures, a closed connection, or an undecodable reply.
    pub fn raw_call(&mut self, payload: &[u8]) -> Result<Response, String> {
        write_frame(&mut self.stream, payload).map_err(|e| format!("send failed: {e}"))?;
        let frame = read_frame(&mut self.stream)
            .map_err(|e| format!("receive failed: {e}"))?
            .ok_or("the daemon closed the connection")?;
        Response::decode(&frame)
    }

    /// Liveness probe.
    ///
    /// # Errors
    ///
    /// Transport failures or an unexpected response kind.
    pub fn ping(&mut self) -> Result<(), String> {
        match self.call(RequestBody::Ping)? {
            Response::Pong { .. } => Ok(()),
            other => Err(format!("expected pong, got {other:?}")),
        }
    }

    /// Fetches the daemon's metrics snapshot.
    ///
    /// # Errors
    ///
    /// Transport failures or an unexpected response kind.
    pub fn stats(&mut self) -> Result<Json, String> {
        match self.call(RequestBody::Stats)? {
            Response::Stats { metrics, .. } => Ok(metrics),
            other => Err(format!("expected stats, got {other:?}")),
        }
    }

    /// Requests a graceful drain; returns the daemon's lifetime
    /// completed-job count.
    ///
    /// # Errors
    ///
    /// Transport failures or an unexpected response kind.
    pub fn shutdown(&mut self) -> Result<u64, String> {
        match self.call(RequestBody::Shutdown)? {
            Response::Bye { completed, .. } => Ok(completed),
            other => Err(format!("expected bye, got {other:?}")),
        }
    }

    /// Submits a batch of jobs.
    ///
    /// # Errors
    ///
    /// Transport failures; the returned [`Response`] may itself be a
    /// typed error (overloaded, shutting down, …).
    pub fn run(
        &mut self,
        jobs: Vec<JobSpec>,
        deadline_ms: Option<u64>,
    ) -> Result<Response, String> {
        self.call(RequestBody::Run { jobs, deadline_ms })
    }

    /// Submits one job for manufacture-and-authenticate.
    ///
    /// # Errors
    ///
    /// Transport failures; the returned [`Response`] may itself be a
    /// typed error.
    pub fn authenticate(
        &mut self,
        job: JobSpec,
        deadline_ms: Option<u64>,
    ) -> Result<Response, String> {
        self.call(RequestBody::Authenticate { job, deadline_ms })
    }

    /// Submits a batch of side-channel detection jobs.
    ///
    /// # Errors
    ///
    /// Transport failures; the returned [`Response`] may itself be a
    /// typed error.
    pub fn detect(
        &mut self,
        jobs: Vec<DetectSpec>,
        deadline_ms: Option<u64>,
    ) -> Result<Response, String> {
        self.call(RequestBody::Detect { jobs, deadline_ms })
    }

    /// Submits a batch of stego-sanitization jobs.
    ///
    /// # Errors
    ///
    /// Transport failures; the returned [`Response`] may itself be a
    /// typed error.
    pub fn sanitize(
        &mut self,
        jobs: Vec<SanitizeSpec>,
        deadline_ms: Option<u64>,
    ) -> Result<Response, String> {
        self.call(RequestBody::Sanitize { jobs, deadline_ms })
    }
}

/// Timeout and bounded-exponential-backoff schedule for
/// [`RetryingClient`].
///
/// The backoff is **deterministic including its jitter**: attempt *k*
/// (zero-based) sleeps `min(base_backoff · 2^(k-1), max_backoff)` plus a
/// jitter drawn as a pure hash of `(jitter_seed, k)`, bounded by
/// `jitter`. Distinct seeds decorrelate the schedules of concurrent
/// clients — without the jitter, every load worker that watched the same
/// daemon die retries in lockstep and the reconnect burst arrives as one
/// synchronized wave — while a fixed seed keeps any single schedule
/// exactly reproducible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per request, including the first (≥ 1).
    pub attempts: u32,
    /// Per-read socket timeout; a response slower than this is a
    /// transport failure (and thus retryable).
    pub timeout: Duration,
    /// Sleep before the first retry.
    pub base_backoff: Duration,
    /// Backoff ceiling: doubling stops here (jitter is added on top).
    pub max_backoff: Duration,
    /// Upper bound on the deterministic jitter added to every backoff
    /// sleep; `Duration::ZERO` disables jitter entirely.
    pub jitter: Duration,
    /// Seed the jitter is derived from. Give concurrent clients distinct
    /// seeds (the load generator seeds each worker with its index) so
    /// their retry bursts de-synchronize.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 4,
            timeout: Duration::from_secs(30),
            base_backoff: Duration::from_millis(25),
            max_backoff: Duration::from_millis(400),
            jitter: Duration::from_millis(25),
            jitter_seed: 0,
        }
    }
}

impl RetryPolicy {
    /// This policy with a different jitter seed — how the load generator
    /// and the router hand each worker its own reproducible schedule.
    #[must_use]
    pub fn with_jitter_seed(mut self, seed: u64) -> Self {
        self.jitter_seed = seed;
        self
    }

    /// The sleep before retry number `retry` (zero-based):
    /// `base_backoff · 2^retry`, capped at `max_backoff`, plus the
    /// seeded jitter for this retry (at most `jitter`).
    pub fn backoff(&self, retry: u32) -> Duration {
        let factor = 1u32.checked_shl(retry).unwrap_or(u32::MAX);
        let base = self
            .base_backoff
            .checked_mul(factor)
            .unwrap_or(self.max_backoff)
            .min(self.max_backoff);
        base + self.jitter_for(retry)
    }

    /// The deterministic jitter component of [`RetryPolicy::backoff`]:
    /// a pure function of `(jitter_seed, retry)`, uniform over
    /// `[0, jitter]` in whole nanoseconds.
    fn jitter_for(&self, retry: u32) -> Duration {
        let cap_ns = u64::try_from(self.jitter.as_nanos()).unwrap_or(u64::MAX);
        if cap_ns == 0 {
            return Duration::ZERO;
        }
        let mut h = StageHasher::new("obfuscade/backoff/v1");
        h.write_u64(self.jitter_seed);
        h.write_u64(u64::from(retry));
        let draw = h.finish().to_words()[0] % (cap_ns + 1);
        Duration::from_nanos(draw)
    }
}

/// Is this typed response worth retrying? Only `overloaded` (queue was
/// momentarily full) and `internal` (the worker died; the supervisor
/// respawns it and the submission is idempotent). Everything else —
/// `malformed`, `forbidden`, `shutting_down`, per-job errors — is the
/// daemon's real answer.
fn retryable(response: &Response) -> bool {
    matches!(
        response,
        Response::Error { error: ServiceError::Overloaded | ServiceError::Internal, .. }
    )
}

/// A [`Client`] that survives daemon restarts: connects lazily, applies
/// the [`RetryPolicy`] read timeout, and on transport failures or
/// retryable typed errors backs off, reconnects if needed, and resends.
///
/// Resending is safe because `run`/`authenticate` submissions are
/// idempotent: the pipeline is deterministic and content-addressed, so
/// a duplicated execution produces byte-identical results. Requests
/// with side effects (`shutdown`) are deliberately not offered here.
pub struct RetryingClient {
    endpoint: Endpoint,
    policy: RetryPolicy,
    codec: Codec,
    conn: Option<Client>,
    retries: u64,
    connects: u64,
}

impl RetryingClient {
    /// Creates the client without connecting; the first request (or
    /// [`RetryingClient::connect`]) establishes the connection. Speaks
    /// JSON; use [`RetryingClient::new_with_codec`] to negotiate binary.
    pub fn new(endpoint: &Endpoint, policy: RetryPolicy) -> RetryingClient {
        RetryingClient::new_with_codec(endpoint, policy, Codec::Json)
    }

    /// [`RetryingClient::new`] with an explicit codec. Every connection
    /// (including reconnects after transport failures) negotiates that
    /// codec before requests flow.
    pub fn new_with_codec(
        endpoint: &Endpoint,
        policy: RetryPolicy,
        codec: Codec,
    ) -> RetryingClient {
        RetryingClient {
            endpoint: endpoint.clone(),
            policy,
            codec,
            conn: None,
            retries: 0,
            connects: 0,
        }
    }

    /// Retries performed so far — backoff-then-resend cycles, whether
    /// triggered by transport failures or retryable typed errors.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Connections established over this client's lifetime. A healthy
    /// run reuses one connection for every request, so this stays at 1;
    /// each transport-failure reconnect adds one.
    pub fn connects(&self) -> u64 {
        self.connects
    }

    /// Establishes the connection now, retrying with backoff per the
    /// policy. Useful to fail fast before starting a measured run.
    ///
    /// # Errors
    ///
    /// Connection still failing after all attempts.
    pub fn connect(&mut self) -> Result<(), String> {
        let mut last = String::new();
        for attempt in 0..self.policy.attempts.max(1) {
            if attempt > 0 {
                std::thread::sleep(self.policy.backoff(attempt - 1));
                self.retries += 1;
            }
            if self.conn.is_some() {
                return Ok(());
            }
            match Client::connect_with_codec(&self.endpoint, Some(self.policy.timeout), self.codec)
            {
                Ok(client) => {
                    self.connects += 1;
                    self.conn = Some(client);
                    return Ok(());
                }
                Err(err) => last = err.to_string(),
            }
        }
        Err(format!(
            "could not connect after {} attempts: {last}",
            self.policy.attempts.max(1)
        ))
    }

    /// Submits a `run` batch, retrying transient failures.
    ///
    /// # Errors
    ///
    /// Transport still failing (or the daemon still answering
    /// `overloaded`/`internal`) after all attempts. A non-retryable
    /// typed error comes back as `Ok(Response::Error { .. })`.
    pub fn run(
        &mut self,
        jobs: &[JobSpec],
        deadline_ms: Option<u64>,
    ) -> Result<Response, String> {
        self.call_with_retry(|client| client.run(jobs.to_vec(), deadline_ms))
    }

    /// Submits an `authenticate` job, retrying transient failures.
    ///
    /// # Errors
    ///
    /// As for [`RetryingClient::run`].
    pub fn authenticate(
        &mut self,
        job: &JobSpec,
        deadline_ms: Option<u64>,
    ) -> Result<Response, String> {
        self.call_with_retry(|client| client.authenticate(job.clone(), deadline_ms))
    }

    /// Submits a `detect` batch, retrying transient failures — safe for
    /// the same reason as `run`: detection is deterministic and
    /// content-addressed, so a duplicate execution returns identical
    /// reports.
    ///
    /// # Errors
    ///
    /// As for [`RetryingClient::run`].
    pub fn detect(
        &mut self,
        jobs: &[DetectSpec],
        deadline_ms: Option<u64>,
    ) -> Result<Response, String> {
        self.call_with_retry(|client| client.detect(jobs.to_vec(), deadline_ms))
    }

    /// Submits a `sanitize` batch, retrying transient failures.
    ///
    /// # Errors
    ///
    /// As for [`RetryingClient::run`].
    pub fn sanitize(
        &mut self,
        jobs: &[SanitizeSpec],
        deadline_ms: Option<u64>,
    ) -> Result<Response, String> {
        self.call_with_retry(|client| client.sanitize(jobs.to_vec(), deadline_ms))
    }

    /// Fetches the daemon's metrics snapshot, retrying transient
    /// failures.
    ///
    /// # Errors
    ///
    /// As for [`RetryingClient::run`], plus an unexpected response
    /// kind.
    pub fn stats(&mut self) -> Result<Json, String> {
        match self.call_with_retry(|client| client.call(RequestBody::Stats))? {
            Response::Stats { metrics, .. } => Ok(metrics),
            other => Err(format!("expected stats, got {other:?}")),
        }
    }

    fn call_with_retry(
        &mut self,
        mut send: impl FnMut(&mut Client) -> Result<Response, String>,
    ) -> Result<Response, String> {
        let attempts = self.policy.attempts.max(1);
        let mut last = String::new();
        for attempt in 0..attempts {
            if attempt > 0 {
                std::thread::sleep(self.policy.backoff(attempt - 1));
                self.retries += 1;
            }
            let client = match self.conn {
                Some(ref mut client) => client,
                None => {
                    match Client::connect_with_codec(
                        &self.endpoint,
                        Some(self.policy.timeout),
                        self.codec,
                    ) {
                        Ok(client) => {
                            self.connects += 1;
                            self.conn.insert(client)
                        }
                        Err(err) => {
                            last = format!("connect failed: {err}");
                            continue;
                        }
                    }
                }
            };
            match send(client) {
                Ok(response) if retryable(&response) => {
                    // The connection is still healthy; only the request
                    // needs another go.
                    if let Response::Error { ref error, .. } = response {
                        last = format!("daemon answered `{}`", error.name());
                    }
                }
                Ok(response) => return Ok(response),
                Err(err) => {
                    // Transport failure: the stream is in an unknown
                    // state, drop it and reconnect on the next attempt.
                    self.conn = None;
                    last = err;
                }
            }
        }
        Err(format!("gave up after {attempts} attempts: {last}"))
    }
}

/// What one load run measured.
#[derive(Debug, Clone, Default)]
pub struct LoadReport {
    /// Requests attempted.
    pub requests: u64,
    /// Client threads used.
    pub concurrency: usize,
    /// Transport failures plus typed error responses.
    pub errors: u64,
    /// Client threads that failed to establish their connection.
    pub dropped_connections: u64,
    /// Responses whose body differed from the expected wire bytes.
    pub mismatches: u64,
    /// Backoff-then-resend cycles across all threads. A retried request
    /// that eventually succeeds counts here and **not** in `errors` or
    /// `dropped_connections` — a run is still [`LoadReport::clean`]
    /// under chaos as long as every request got correct bytes in the
    /// end.
    pub retries: u64,
    /// Connections established across all threads. Each thread reuses
    /// one connection for its whole share, so a clean run reports
    /// exactly `concurrency`; anything above that is chaos-forced
    /// reconnects.
    pub connects: u64,
    /// Per-request round-trip latencies, sorted ascending (ms).
    pub latencies_ms: Vec<f64>,
    /// Wall-clock duration of the whole run (s).
    pub wall_s: f64,
}

impl LoadReport {
    /// Exact sample quantile (0 < q ≤ 1): the ⌈q·n⌉-th smallest latency
    /// per the workspace-wide rank rule
    /// ([`obfuscade::metrics::quantile`]). 0 when no request completed.
    pub fn quantile_ms(&self, q: f64) -> f64 {
        obfuscade::metrics::quantile(&self.latencies_ms, q)
    }

    /// Completed requests per wall-clock second.
    pub fn throughput_rps(&self) -> f64 {
        if self.wall_s > 0.0 {
            (self.requests - self.errors) as f64 / self.wall_s
        } else {
            0.0
        }
    }

    /// `true` when nothing was dropped, rejected, or served wrong bytes.
    pub fn clean(&self) -> bool {
        self.errors == 0 && self.dropped_connections == 0 && self.mismatches == 0
    }
}

/// Computes, in-process, the exact wire encoding a `run` request over
/// `jobs` must come back with: the batch runs through
/// [`obfuscade::run_pipeline_jobs`] against a fresh cache and each
/// outcome is encoded with [`encode_outcome`] — the same function the
/// daemon uses.
///
/// # Errors
///
/// An invalid part family or fault spec in `jobs`.
pub fn expected_results_wire(jobs: &[JobSpec]) -> Result<String, String> {
    let mut parts = Vec::with_capacity(jobs.len());
    let mut faults = Vec::with_capacity(jobs.len());
    for job in jobs {
        parts.push(job.build_part()?);
        faults.push(job.fault_plan()?);
    }
    let batch: Vec<BatchJob<'_>> = jobs
        .iter()
        .zip(parts.iter())
        .zip(faults.iter())
        .map(|((job, part), fault)| BatchJob { part, plan: job.plan(), faults: fault.clone() })
        .collect();
    let cache = StageCache::with_budget(StageCache::DEFAULT_BUDGET);
    let outcomes = run_pipeline_jobs(&batch, &cache, Parallelism::serial());
    Ok(Json::Array(outcomes.iter().map(encode_outcome).collect()).render())
}

/// Computes, in-process, the exact wire encoding a `detect` request over
/// `specs` must come back with — the same `am_detect::detect_counterfeit`
/// calls the daemon makes, against a fresh cache, encoded with
/// [`encode_detect_outcome`].
///
/// # Errors
///
/// An invalid part family, fault spec, or capture-quality preset.
pub fn expected_detections_wire(specs: &[DetectSpec]) -> Result<String, String> {
    let cache = StageCache::with_budget(StageCache::DEFAULT_BUDGET);
    let mut reports = Vec::with_capacity(specs.len());
    for spec in specs {
        am_detect::capture_quality(&spec.quality)?;
        let part = spec.job.build_part()?;
        let faults = spec.job.fault_plan()?;
        let config = am_detect::DetectConfig {
            quality: spec.quality.clone(),
            jam_amplitude: spec.jam_amplitude,
            trace_seed: spec.trace_seed,
            ..am_detect::DetectConfig::default()
        };
        let outcome = am_detect::detect_counterfeit(
            &part,
            &spec.job.plan(),
            &faults,
            &spec.job.faults,
            &config,
            &cache,
            obfuscade::Deadline::none(),
        );
        reports.push(encode_detect_outcome(&outcome));
    }
    Ok(Json::Array(reports).render())
}

/// Computes, in-process, the exact wire encoding a `sanitize` request
/// over `specs` must come back with (see [`expected_detections_wire`]).
///
/// # Errors
///
/// An invalid part family or fault spec, or a payload width beyond
/// `u32`.
pub fn expected_sanitize_wire(specs: &[SanitizeSpec]) -> Result<String, String> {
    let cache = StageCache::with_budget(StageCache::DEFAULT_BUDGET);
    let mut reports = Vec::with_capacity(specs.len());
    for spec in specs {
        let part = spec.job.build_part()?;
        let faults = spec.job.fault_plan()?;
        let payload_bits = u32::try_from(spec.payload_bits)
            .map_err(|_| format!("`payload_bits` {} does not fit in u32", spec.payload_bits))?;
        let config = am_detect::SanitizeConfig { payload_seed: spec.payload_seed, payload_bits };
        let outcome = am_detect::sanitize_toolpath(
            &part,
            &spec.job.plan(),
            &faults,
            &config,
            &cache,
            obfuscade::Deadline::none(),
        );
        reports.push(encode_sanitize_outcome(&outcome));
    }
    Ok(Json::Array(reports).render())
}

/// Drives `total` identical `run` requests at the daemon from
/// `concurrency` client threads (each with its own connection) and
/// measures per-request round-trip latency.
///
/// When `expected` is given (see [`expected_results_wire`]), each
/// response's results array must render to exactly those bytes;
/// divergences are counted as mismatches.
///
/// Each client thread drives a [`RetryingClient`] under `policy` on the
/// given wire codec, so transient failures (chaos-injected connection
/// drops, worker panics, even a daemon restart mid-run) are retried
/// with backoff instead of counted as errors. Only a request that still
/// fails after exhausting the policy's attempts — or a non-retryable
/// typed error — lands in `errors`.
///
/// The byte-identity check is codec-independent: binary responses are
/// decoded and re-rendered as canonical JSON before comparing against
/// `expected`, so both codecs must agree with the in-process reference.
pub fn run_load_with(
    endpoint: &Endpoint,
    total: u64,
    concurrency: usize,
    jobs: &[JobSpec],
    expected: Option<&str>,
    policy: &RetryPolicy,
    codec: Codec,
) -> LoadReport {
    let concurrency = concurrency.max(1);
    let report = Mutex::new(LoadReport {
        requests: total,
        concurrency,
        ..LoadReport::default()
    });
    let started = Instant::now();

    std::thread::scope(|scope| {
        for worker in 0..concurrency {
            // Spread the total across threads, first threads take the
            // remainder.
            let share = total / concurrency as u64
                + u64::from((worker as u64) < total % concurrency as u64);
            if share == 0 {
                continue;
            }
            let report = &report;
            let jobs = jobs.to_vec();
            scope.spawn(move || {
                // Each worker gets its own jitter seed, so the backoff
                // schedules of workers that hit the same outage spread
                // out instead of re-bursting in lockstep.
                let policy = policy.with_jitter_seed(worker as u64 + 1);
                let mut client = RetryingClient::new_with_codec(endpoint, policy, codec);
                if client.connect().is_err() {
                    let mut r = report.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                    r.dropped_connections += 1;
                    r.errors += share;
                    merge_client_counters(&mut r, &client);
                    return;
                }
                let mut latencies = Vec::with_capacity(share as usize);
                let mut errors = 0u64;
                let mut mismatches = 0u64;
                for _ in 0..share {
                    let sent = Instant::now();
                    match client.run(&jobs, None) {
                        Ok(Response::Results { results, .. }) => {
                            latencies.push(sent.elapsed().as_secs_f64() * 1e3);
                            if let Some(expected) = expected {
                                if Json::Array(results).render() != expected {
                                    mismatches += 1;
                                }
                            }
                        }
                        Ok(_) | Err(_) => errors += 1,
                    }
                }
                let mut r = report.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                r.latencies_ms.extend(latencies);
                r.errors += errors;
                r.mismatches += mismatches;
                merge_client_counters(&mut r, &client);
            });
        }
    });

    let mut report = report.into_inner().unwrap_or_else(std::sync::PoisonError::into_inner);
    report.wall_s = started.elapsed().as_secs_f64();
    report
        .latencies_ms
        .sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    report
}

/// Folds one worker's client counters into the shared report.
fn merge_client_counters(report: &mut LoadReport, client: &RetryingClient) {
    report.retries += client.retries();
    report.connects += client.connects();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_deterministically_and_caps() {
        let policy = RetryPolicy { jitter: Duration::ZERO, ..RetryPolicy::default() };
        assert_eq!(policy.backoff(0), Duration::from_millis(25));
        assert_eq!(policy.backoff(1), Duration::from_millis(50));
        assert_eq!(policy.backoff(2), Duration::from_millis(100));
        assert_eq!(policy.backoff(3), Duration::from_millis(200));
        assert_eq!(policy.backoff(4), Duration::from_millis(400));
        assert_eq!(policy.backoff(5), Duration::from_millis(400));
        assert_eq!(policy.backoff(63), Duration::from_millis(400));
    }

    #[test]
    fn backoff_jitter_is_bounded_seeded_and_reproducible() {
        let policy = RetryPolicy::default();
        for retry in 0..8 {
            let pure =
                RetryPolicy { jitter: Duration::ZERO, ..policy }.backoff(retry);
            let jittered = policy.backoff(retry);
            // Bounded: never below the doubling schedule, never more
            // than the jitter cap above it.
            assert!(jittered >= pure, "retry {retry}: {jittered:?} < {pure:?}");
            assert!(
                jittered <= pure + policy.jitter,
                "retry {retry}: jitter exceeded its cap"
            );
            // Reproducible: the same seed always draws the same sleep.
            assert_eq!(jittered, policy.backoff(retry));
        }
        // Seeded: distinct seeds decorrelate — across a handful of
        // retries at least one sleep must differ (the fix for the
        // synchronized dead-socket retry burst across load workers).
        let other = policy.with_jitter_seed(7);
        assert!(
            (0..8).any(|r| policy.backoff(r) != other.backoff(r)),
            "distinct jitter seeds produced identical schedules"
        );
    }

    #[test]
    fn only_overloaded_and_internal_are_retryable() {
        let wrap = |error: ServiceError| Response::Error { id: 1, error, message: String::new() };
        assert!(retryable(&wrap(ServiceError::Overloaded)));
        assert!(retryable(&wrap(ServiceError::Internal)));
        assert!(!retryable(&wrap(ServiceError::Malformed)));
        assert!(!retryable(&wrap(ServiceError::Forbidden)));
        assert!(!retryable(&wrap(ServiceError::ShuttingDown)));
        assert!(!retryable(&Response::Pong { id: 1 }));
    }

    #[test]
    fn exhausted_retries_against_a_dead_endpoint_fail_with_context() {
        let policy = RetryPolicy {
            attempts: 2,
            timeout: Duration::from_millis(200),
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(2),
            jitter: Duration::from_millis(1),
            jitter_seed: 0,
        };
        // A port from the dynamic range nothing in the test suite binds.
        let endpoint = Endpoint::Tcp("127.0.0.1:1".to_string());
        let mut client = RetryingClient::new(&endpoint, policy);
        let err = client.run(&[JobSpec::default()], None).unwrap_err();
        assert!(err.contains("gave up after 2 attempts"), "{err}");
        assert_eq!(client.retries(), 1);
    }

    #[test]
    fn quantiles_are_exact_order_statistics() {
        let report = LoadReport {
            requests: 4,
            latencies_ms: vec![1.0, 2.0, 3.0, 4.0],
            wall_s: 2.0,
            ..LoadReport::default()
        };
        assert_eq!(report.quantile_ms(0.25), 1.0);
        assert_eq!(report.quantile_ms(0.5), 2.0);
        assert_eq!(report.quantile_ms(0.75), 3.0);
        assert_eq!(report.quantile_ms(0.99), 4.0);
        assert_eq!(report.quantile_ms(1.0), 4.0);
        assert!((report.throughput_rps() - 2.0).abs() < 1e-12);
        assert!(report.clean());
        assert_eq!(LoadReport::default().quantile_ms(0.5), 0.0);
    }

    #[test]
    fn expected_wire_is_deterministic() {
        let jobs = vec![JobSpec::default()];
        let a = expected_results_wire(&jobs).expect("reference run");
        let b = expected_results_wire(&jobs).expect("reference run");
        assert_eq!(a, b);
        assert!(a.starts_with('['), "a results array: {a}");
    }
}
