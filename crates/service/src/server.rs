//! The obfuscation daemon: one epoll reactor thread
//! ([`crate::reactor`]) serves every connection, answering control
//! requests inline (`ping`, `stats`, `shutdown`) and pushing job requests
//! onto one bounded queue that a fixed pool of worker threads drains.
//! All connections share a single process-wide [`StageCache`] (and,
//! through it, the fea crate's solver pool), so repeated requests for the
//! same stage prefixes are served from cache across clients.
//!
//! The daemon runs on Linux only: elsewhere [`Server::start`] fails with
//! [`io::ErrorKind::Unsupported`].
//!
//! # Admission control and shutdown
//!
//! The queue is bounded: a `run`/`authenticate` arriving while it is full
//! is rejected immediately with a typed `overloaded` error — the client
//! owns the retry policy. Shutdown is drain-then-stop: after a
//! `shutdown` request (or [`Server::begin_shutdown`]) no new jobs are
//! admitted, every queued and in-flight job still completes and its
//! response is delivered, and only then do the listeners close and the
//! worker threads exit. The phase transition happens under the queue
//! lock, so no job can slip in between "stop admitting" and "queue is
//! empty".
//!
//! Wire `shutdown` carries no authentication, so it is honored only
//! from local peers (loopback TCP or the Unix socket) unless
//! [`ServerConfig::allow_remote_shutdown`] is set — otherwise a daemon
//! bound to a routable address would be one anonymous frame away from a
//! permanent stop. Non-local shutdown attempts get a typed `forbidden`
//! error and the daemon keeps running.
//!
//! # Fault tolerance (PR 6)
//!
//! Workers are **supervised**: each job executes under
//! `std::panic::catch_unwind`, so a panicking job costs exactly that job
//! — its client receives a typed `internal` error (safe to retry:
//! submission is idempotent and content-addressed), the worker thread
//! exits, and a supervisor thread immediately spawns a replacement so
//! the queue keeps draining at full width. With
//! [`ServerConfig::spill_dir`] set, the shared cache gains a crash-safe
//! persistent spill tier ([`obfuscade::SpillStore`]) — evicted artifacts
//! survive a daemon kill and warm-start the next process.
//!
//! A deterministic **chaos layer** ([`ChaosPlan`]) injects the faults
//! this machinery defends against — accept-time connection drops,
//! mid-frame short reads and stalls, forced worker panics, and spill
//! write failures — all derived from one seed, so a failing run replays
//! exactly.

use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use am_par::Parallelism;
use obfuscade::json::Json;
use obfuscade::metrics::{LatencyHistogram, MetricsSnapshot, ServiceStats};
use obfuscade::{
    run_pipeline_jobs_with, BatchJob, Deadline, PipelineError, SpillStore, StageCache, StageHasher,
};

use crate::codec::{decode_hello, encode_hello, is_binary_hello, Codec, BINARY_VERSION};
use crate::protocol::{
    encode_detect_outcome, encode_outcome, encode_sanitize_outcome, DetectSpec, JobSpec,
    RequestBody, Response, SanitizeSpec, ServiceError,
};
use crate::reactor;

/// Lifecycle phase: accepting and executing.
pub(crate) const RUNNING: u8 = 0;
/// Draining: no new jobs admitted, queued/in-flight jobs still complete.
const DRAINING: u8 = 1;
/// Stopped: drain complete, listeners closing, workers exited.
pub(crate) const STOPPED: u8 = 2;

/// Deterministic fault-injection plan: every chaos decision is a pure
/// function of the seed, the site name and a per-site ordinal, so a run
/// under a given seed replays its exact fault schedule.
///
/// Each knob is a `one_in` rate: the fault fires on roughly one out of
/// that many opportunities; `0` disables the site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosPlan {
    /// Seed every decision derives from.
    pub seed: u64,
    /// Drop an accepted connection immediately (one in N accepts).
    pub accept_drop_one_in: u64,
    /// Serve a 1-byte short read instead of a full one (one in N reads) —
    /// exercises the frame reassembly path.
    pub read_chop_one_in: u64,
    /// Stall a read for ~1 ms (one in N reads).
    pub read_stall_one_in: u64,
    /// Panic a worker at job pickup (one in N jobs) — exercises
    /// supervision and the typed `internal` error.
    pub worker_panic_one_in: u64,
    /// Fail a spill-tier disk append (one in N writes).
    pub spill_fail_one_in: u64,
}

impl ChaosPlan {
    /// The default chaos mix for `seed`: frequent short reads, regular
    /// accept drops and spill write failures, occasional stalls and
    /// worker panics. Matches the `serve --chaos-seed` CLI flag.
    pub fn from_seed(seed: u64) -> Self {
        ChaosPlan {
            seed,
            accept_drop_one_in: 8,
            read_chop_one_in: 4,
            read_stall_one_in: 32,
            worker_panic_one_in: 24,
            spill_fail_one_in: 8,
        }
    }

    /// The deterministic coin flip: does the `ordinal`-th opportunity at
    /// `site` fault, at a one-in-`one_in` rate?
    fn fires(&self, site: &str, ordinal: u64, one_in: u64) -> bool {
        if one_in == 0 {
            return false;
        }
        let mut h = StageHasher::new("obfuscade/chaos/v1");
        h.write_u64(self.seed);
        h.write_str(site);
        h.write_u64(ordinal);
        h.finish().to_words()[0].is_multiple_of(one_in)
    }
}

/// Live chaos state: the plan plus one monotonically increasing ordinal
/// per site, giving every opportunity a stable identity.
struct ChaosState {
    plan: ChaosPlan,
    accepts: AtomicU64,
    reads: AtomicU64,
    jobs: AtomicU64,
}

impl ChaosState {
    fn new(plan: ChaosPlan) -> Self {
        ChaosState {
            plan,
            accepts: AtomicU64::new(0),
            reads: AtomicU64::new(0),
            jobs: AtomicU64::new(0),
        }
    }

    fn drop_accept(&self) -> bool {
        let n = self.accepts.fetch_add(1, Ordering::Relaxed);
        self.plan.fires("accept_drop", n, self.plan.accept_drop_one_in)
    }

    /// Read-time decision: `(stall, chop)` for this read opportunity.
    fn read_fault(&self) -> (bool, bool) {
        let n = self.reads.fetch_add(1, Ordering::Relaxed);
        (
            self.plan.fires("read_stall", n, self.plan.read_stall_one_in),
            self.plan.fires("read_chop", n, self.plan.read_chop_one_in),
        )
    }

    fn panic_job(&self) -> bool {
        let n = self.jobs.fetch_add(1, Ordering::Relaxed);
        self.plan.fires("worker_panic", n, self.plan.worker_panic_one_in)
    }
}

/// Where admitted jobs are executed: in-process (the daemon proper) or
/// handed to a [`Forwarder`] (the router tier). Everything in front of
/// the engine — the reactor, both codecs, admission control, the queue,
/// stats — is shared; only the execution step differs.
#[derive(Clone, Default)]
pub enum Engine {
    /// Run jobs against this process's shared [`StageCache`] (default).
    #[default]
    Local,
    /// Hand jobs to a forwarder — `am-router` plugs its rendezvous fleet
    /// in here, turning the server into a routing front end.
    Forward(Arc<dyn Forwarder>),
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Engine::Local => f.write_str("Engine::Local"),
            Engine::Forward(_) => f.write_str("Engine::Forward(..)"),
        }
    }
}

/// Executes queued jobs somewhere other than the local pipeline. The
/// implementation owns delivery (routing, retries, failover) and must
/// return a [`Response`] carrying the **front** request id `id` — the
/// one the waiting client correlates on — whatever ids it used upstream.
pub trait Forwarder: Send + Sync {
    /// Forwards one `run` batch; `deadline_ms` is the client's original
    /// per-request budget, to be passed through untouched.
    fn run(&self, id: u64, specs: &[JobSpec], deadline_ms: Option<u64>) -> Response;

    /// Forwards one `authenticate` probe.
    fn authenticate(&self, id: u64, spec: &JobSpec, deadline_ms: Option<u64>) -> Response;

    /// Forwards one `detect` batch.
    fn detect(&self, id: u64, specs: &[DetectSpec], deadline_ms: Option<u64>) -> Response;

    /// Forwards one `sanitize` batch.
    fn sanitize(&self, id: u64, specs: &[SanitizeSpec], deadline_ms: Option<u64>) -> Response;

    /// Routing-tier counters for the stats wire (`fleet` section of the
    /// metrics snapshot). `None` keeps the section `null`.
    fn stats(&self) -> Option<Json> {
        None
    }
}

/// Everything needed to boot a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// TCP bind address; port 0 picks a free port (read it back with
    /// [`Server::addr`]).
    pub addr: String,
    /// Optional Unix-domain socket path to listen on as well.
    pub unix_socket: Option<PathBuf>,
    /// Worker threads draining the job queue.
    pub workers: usize,
    /// Bounded job-queue capacity; a full queue rejects with
    /// `overloaded`.
    pub queue_capacity: usize,
    /// Byte budget of the shared stage cache.
    pub cache_budget: usize,
    /// Honor wire `shutdown` from non-local peers. **Off by default**:
    /// `shutdown` carries no authentication, so on a non-loopback `addr`
    /// any anonymous client could otherwise stop the daemon permanently.
    /// Loopback TCP peers and Unix-socket peers may always shut down.
    pub allow_remote_shutdown: bool,
    /// Directory of the persistent spill tier. When set, cache evictions
    /// spill to CRC-checked segment files there and a restarted daemon
    /// pointed at the same directory warm-starts from them.
    pub spill_dir: Option<PathBuf>,
    /// Deterministic fault injection; `None` (the default) runs clean.
    pub chaos: Option<ChaosPlan>,
    /// A connection that makes no progress for this long —
    /// no bytes read or written, nothing in flight — is closed. Also the
    /// slow-loris bound: a peer dribbling a partial frame must finish it
    /// within this window.
    pub idle_timeout: Duration,
    /// Operator-chosen node name surfaced in stats snapshots (`serve
    /// --node`). Empty (the default) means unnamed; fleet tooling names
    /// each backend so routed deployments can tell the N daemons apart.
    pub node: String,
    /// Job execution engine: local pipeline (default) or a forwarder.
    pub engine: Engine,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            unix_socket: None,
            workers: 2,
            queue_capacity: 64,
            cache_budget: StageCache::DEFAULT_BUDGET,
            allow_remote_shutdown: false,
            spill_dir: None,
            chaos: None,
            idle_timeout: Duration::from_secs(60),
            node: String::new(),
            engine: Engine::Local,
        }
    }
}

/// Where a worker's response goes: the reactor's completion hub, the
/// connection it is for, and the codec that connection settled on.
#[derive(Clone)]
pub(crate) struct ReplySink {
    /// Connection token inside the reactor.
    pub(crate) conn: u64,
    /// Completion queue + waker shared with the reactor thread.
    pub(crate) hub: Arc<reactor::Hub>,
    /// The connection's negotiated codec.
    pub(crate) codec: Codec,
}

impl ReplySink {
    /// Encodes `response` under the connection's codec and hands it to
    /// the reactor.
    pub(crate) fn send(&self, response: Response) {
        self.hub.push(self.conn, self.codec.encode_owned_response(response));
    }
}

/// A job admitted to the queue, waiting for a worker.
struct QueuedJob {
    request_id: u64,
    work: Work,
    deadline: Deadline,
    /// The client's original deadline in milliseconds, preserved so a
    /// forwarding engine can pass the budget through to a backend
    /// untouched (re-deriving it from `deadline` would shrink it by the
    /// local queue wait).
    deadline_ms: Option<u64>,
    reply: ReplySink,
    enqueued: Instant,
}

/// The queueable request kinds.
enum Work {
    Run(Vec<JobSpec>),
    Authenticate(JobSpec),
    Detect(Vec<DetectSpec>),
    Sanitize(Vec<SanitizeSpec>),
}

/// State shared by the reactor and the workers.
pub(crate) struct Shared {
    cache: StageCache,
    workers: usize,
    queue_capacity: usize,
    allow_remote_shutdown: bool,
    node: String,
    engine: Engine,
    pub(crate) idle_timeout: Duration,
    queue: Mutex<VecDeque<QueuedJob>>,
    /// Signalled when a job is enqueued or the phase changes.
    queue_cv: Condvar,
    /// Signalled when a job finishes (drain waits on it).
    drained_cv: Condvar,
    in_flight: AtomicUsize,
    phase: AtomicU8,
    pub(crate) connections: AtomicU64,
    accepted: AtomicU64,
    completed: AtomicU64,
    rejected: AtomicU64,
    expired: AtomicU64,
    worker_panics: AtomicU64,
    respawns: AtomicU64,
    /// Request frames decoded under the JSON codec.
    frames_json: AtomicU64,
    /// Request frames decoded under the binary codec.
    frames_binary: AtomicU64,
    /// Connections that successfully negotiated the binary codec.
    binary_negotiated: AtomicU64,
    /// Reactor writes deferred because the peer's socket buffer was full
    /// (each is one `WouldBlock` → wait-for-writable transition).
    pub(crate) backpressure_stalls: AtomicU64,
    latency: Mutex<LatencyHistogram>,
    chaos: Option<ChaosState>,
    /// Handles of live (and exited) worker threads. The supervisor pushes
    /// replacements here; [`Server::join`] drains it.
    worker_handles: Mutex<Vec<JoinHandle<()>>>,
    /// Channel to the supervisor thread (worker-death notices, stop).
    supervisor: Mutex<Option<Sender<SupervisorMsg>>>,
}

/// Messages to the supervisor thread.
enum SupervisorMsg {
    /// A worker thread is exiting after a caught panic.
    WorkerDied,
    /// The drain completed; the supervisor should exit.
    Stop,
}

/// Locks a mutex, recovering the guard from a poisoned lock — the state
/// behind every mutex here (queue, histogram) stays consistent even if a
/// holder panicked mid-update.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Shared {
    pub(crate) fn phase(&self) -> u8 {
        self.phase.load(Ordering::SeqCst)
    }

    /// Chaos decision for one socket read: `(stall, chop)`. `(false,
    /// false)` when the daemon runs clean.
    pub(crate) fn chaos_read_fault(&self) -> (bool, bool) {
        match &self.chaos {
            Some(chaos) => chaos.read_fault(),
            None => (false, false),
        }
    }

    /// One coherent metrics snapshot with the service section filled in.
    fn snapshot(&self) -> MetricsSnapshot {
        let mut snapshot = MetricsSnapshot::gather(&self.cache);
        if let Engine::Forward(forwarder) = &self.engine {
            snapshot.fleet = forwarder.stats();
        }
        snapshot.service = Some(ServiceStats {
            node: self.node.clone(),
            workers: self.workers,
            queue_capacity: self.queue_capacity,
            queue_depth: lock(&self.queue).len(),
            connections: self.connections.load(Ordering::SeqCst),
            accepted: self.accepted.load(Ordering::SeqCst),
            completed: self.completed.load(Ordering::SeqCst),
            rejected_overloaded: self.rejected.load(Ordering::SeqCst),
            expired_deadlines: self.expired.load(Ordering::SeqCst),
            worker_panics: self.worker_panics.load(Ordering::SeqCst),
            respawns: self.respawns.load(Ordering::SeqCst),
            frames_json: self.frames_json.load(Ordering::SeqCst),
            frames_binary: self.frames_binary.load(Ordering::SeqCst),
            binary_negotiated: self.binary_negotiated.load(Ordering::SeqCst),
            backpressure_stalls: self.backpressure_stalls.load(Ordering::SeqCst),
            latency: *lock(&self.latency),
        });
        snapshot
    }
}

/// A running daemon. Dropping the handle does **not** stop it; use a
/// wire `shutdown` request or [`Server::begin_shutdown`], then
/// [`Server::join`].
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds the listeners and spawns the reactor, worker and supervisor
    /// threads (and opens the spill tier, when configured).
    ///
    /// # Errors
    ///
    /// Bind/configuration failures, an unusable `spill_dir`, or
    /// [`io::ErrorKind::Unsupported`] on any platform but Linux.
    pub fn start(config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;

        let cache = match &config.spill_dir {
            None => StageCache::with_budget(config.cache_budget),
            Some(dir) => {
                let store = SpillStore::open(dir)?;
                if let Some(plan) = config.chaos {
                    if plan.spill_fail_one_in > 0 {
                        // The write ordinal is already a stable per-site
                        // counter — feed it straight into the plan.
                        store.set_write_fault(move |ordinal| {
                            plan.fires("spill_fail", ordinal, plan.spill_fail_one_in)
                        });
                    }
                }
                StageCache::with_budget_and_spill(config.cache_budget, store)
            }
        };

        let shared = Arc::new(Shared {
            cache,
            workers: config.workers.max(1),
            queue_capacity: config.queue_capacity.max(1),
            allow_remote_shutdown: config.allow_remote_shutdown,
            node: config.node.clone(),
            engine: config.engine.clone(),
            idle_timeout: config.idle_timeout,
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            drained_cv: Condvar::new(),
            in_flight: AtomicUsize::new(0),
            phase: AtomicU8::new(RUNNING),
            connections: AtomicU64::new(0),
            accepted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            expired: AtomicU64::new(0),
            worker_panics: AtomicU64::new(0),
            respawns: AtomicU64::new(0),
            frames_json: AtomicU64::new(0),
            frames_binary: AtomicU64::new(0),
            binary_negotiated: AtomicU64::new(0),
            backpressure_stalls: AtomicU64::new(0),
            latency: Mutex::new(LatencyHistogram::default()),
            chaos: config.chaos.map(ChaosState::new),
            worker_handles: Mutex::new(Vec::new()),
            supervisor: Mutex::new(None),
        });

        let mut threads = vec![reactor::spawn(Arc::clone(&shared), listener, config.unix_socket)?];

        let (tx, rx) = mpsc::channel::<SupervisorMsg>();
        *lock(&shared.supervisor) = Some(tx);
        for _ in 0..shared.workers {
            spawn_worker(&shared);
        }
        {
            let shared = Arc::clone(&shared);
            threads.push(thread::spawn(move || supervisor_loop(shared, rx)));
        }
        Ok(Server { shared, addr, threads })
    }

    /// The bound TCP address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A metrics snapshot taken directly from the shared state (no wire
    /// round trip).
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.snapshot()
    }

    /// Initiates and completes a graceful drain from within the process:
    /// blocks until every queued and in-flight job has finished, then
    /// marks the daemon stopped. Equivalent to a wire `shutdown`.
    pub fn begin_shutdown(&self) {
        drain(&self.shared);
    }

    /// Waits for the reactor, supervisor and every worker thread to exit.
    /// Returns only after a shutdown (wire or [`Server::begin_shutdown`])
    /// completed.
    pub fn join(self) {
        for handle in self.threads {
            let _ = handle.join();
        }
        // Workers live in shared state (the supervisor spawns
        // replacements at runtime); drain whatever is there once the
        // supervisor has exited.
        loop {
            let Some(handle) = lock(&self.shared.worker_handles).pop() else { break };
            let _ = handle.join();
        }
    }
}

/// Performs the drain-then-stop transition; returns lifetime completed
/// jobs. Idempotent — concurrent callers all block until the drain is
/// done.
fn drain(shared: &Shared) -> u64 {
    {
        // Under the queue lock so admission cannot race the transition.
        let _queue = lock(&shared.queue);
        let _ = shared.phase.compare_exchange(RUNNING, DRAINING, Ordering::SeqCst, Ordering::SeqCst);
    }
    shared.queue_cv.notify_all();
    let mut queue = lock(&shared.queue);
    while !(queue.is_empty() && shared.in_flight.load(Ordering::SeqCst) == 0) {
        let (guard, _timeout) = shared
            .drained_cv
            .wait_timeout(queue, Duration::from_millis(20))
            .unwrap_or_else(PoisonError::into_inner);
        queue = guard;
    }
    drop(queue);
    shared.phase.store(STOPPED, Ordering::SeqCst);
    shared.queue_cv.notify_all();
    // The drain is complete; release the supervisor. Dropping the sender
    // also closes the channel, so a second drain is a no-op here.
    if let Some(tx) = lock(&shared.supervisor).take() {
        let _ = tx.send(SupervisorMsg::Stop);
    }
    shared.completed.load(Ordering::SeqCst)
}

/// Spawns one worker thread, tracking its handle in shared state.
fn spawn_worker(shared: &Arc<Shared>) {
    let worker_shared = Arc::clone(shared);
    let handle = thread::spawn(move || worker_loop(worker_shared));
    lock(&shared.worker_handles).push(handle);
}

/// Supervisor: replaces every worker that dies to a panicking job, as
/// long as the daemon has not stopped. Exits on `Stop` (sent when the
/// drain completes) or when every sender is gone.
fn supervisor_loop(shared: Arc<Shared>, rx: mpsc::Receiver<SupervisorMsg>) {
    while let Ok(msg) = rx.recv() {
        match msg {
            SupervisorMsg::WorkerDied => {
                if shared.phase() == STOPPED {
                    continue;
                }
                shared.respawns.fetch_add(1, Ordering::SeqCst);
                spawn_worker(&shared);
            }
            SupervisorMsg::Stop => break,
        }
    }
}

/// Worker: pop, execute, reply, account. Exits once the daemon is
/// draining and the queue is empty — or after a job panics, in which
/// case the job's client gets a typed `internal` error, the supervisor
/// is told to spawn a replacement, and this thread unwinds cleanly.
fn worker_loop(shared: Arc<Shared>) {
    loop {
        let job = {
            let mut queue = lock(&shared.queue);
            loop {
                if let Some(job) = queue.pop_front() {
                    // Claim in-flight status under the lock so the drain
                    // cannot observe "queue empty, nothing in flight"
                    // between the pop and the increment.
                    shared.in_flight.fetch_add(1, Ordering::SeqCst);
                    break job;
                }
                if shared.phase() != RUNNING {
                    return;
                }
                queue = shared
                    .queue_cv
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        let id = job.request_id;
        // The panic boundary: a job that unwinds — the pipeline's own
        // bug, or a chaos-forced panic — costs exactly this job. Shared
        // state stays coherent (every mutex here recovers from poison,
        // and the accounting below runs on both paths).
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if let Some(chaos) = &shared.chaos {
                if chaos.panic_job() {
                    panic!("chaos-injected worker panic");
                }
            }
            execute(&shared, id, job.work, job.deadline, job.deadline_ms)
        }));
        let (response, panicked) = match outcome {
            Ok(response) => (response, false),
            Err(_) => {
                shared.worker_panics.fetch_add(1, Ordering::SeqCst);
                let error = Response::Error {
                    id,
                    error: ServiceError::Internal,
                    message: "the worker processing this job died; the job was not \
                              completed — submission is idempotent, retry is safe"
                        .to_string(),
                };
                (error, true)
            }
        };
        // Account *before* replying: a client that sees its response and
        // immediately asks for stats must observe the completion.
        let waited_ms = job.enqueued.elapsed().as_secs_f64() * 1e3;
        lock(&shared.latency).record_ms(waited_ms);
        shared.completed.fetch_add(1, Ordering::SeqCst);
        job.reply.send(response);
        shared.in_flight.fetch_sub(1, Ordering::SeqCst);
        shared.drained_cv.notify_all();
        if panicked {
            // Die visibly: tell the supervisor to replace this worker,
            // then exit. The queue keeps draining on the replacement.
            if let Some(tx) = lock(&shared.supervisor).as_ref() {
                let _ = tx.send(SupervisorMsg::WorkerDied);
            }
            return;
        }
    }
}

/// Runs one queued request: through the engine's forwarder when this
/// server is a routing front end, against the shared cache otherwise.
fn execute(
    shared: &Shared,
    id: u64,
    work: Work,
    deadline: Deadline,
    deadline_ms: Option<u64>,
) -> Response {
    if let Engine::Forward(forwarder) = &shared.engine {
        return match work {
            Work::Run(specs) => forwarder.run(id, &specs, deadline_ms),
            Work::Authenticate(spec) => forwarder.authenticate(id, &spec, deadline_ms),
            Work::Detect(specs) => forwarder.detect(id, &specs, deadline_ms),
            Work::Sanitize(specs) => forwarder.sanitize(id, &specs, deadline_ms),
        };
    }
    match work {
        Work::Run(specs) => match run_specs(shared, &specs, deadline) {
            Ok(outcomes) => {
                Response::Results { id, results: outcomes.iter().map(encode_outcome).collect() }
            }
            Err(message) => Response::Error { id, error: ServiceError::Malformed, message },
        },
        Work::Authenticate(spec) => {
            match run_specs(shared, std::slice::from_ref(&spec), deadline) {
                Ok(outcomes) => match outcomes.into_iter().next() {
                    Some(Ok(output)) => {
                        // Absolute thresholds, same as the CLI `authenticate`
                        // command: a genuine FDM print of these demo parts
                        // measures ~0 on both axes.
                        let cold = output.scan.cold_joint_area;
                        let voids = output.scan.internal_void_volume;
                        let verdict = if cold > 10.0 || voids > 20.0 {
                            "counterfeit"
                        } else {
                            "genuine"
                        };
                        Response::Verdict {
                            id,
                            verdict: verdict.to_string(),
                            cold_joint_mm2: cold,
                            void_mm3: voids,
                        }
                    }
                    Some(Err(e)) => {
                        Response::Error { id, error: ServiceError::Job, message: e.to_string() }
                    }
                    None => Response::Error {
                        id,
                        error: ServiceError::Job,
                        message: "empty batch".to_string(),
                    },
                },
                Err(message) => Response::Error { id, error: ServiceError::Malformed, message },
            }
        }
        Work::Detect(specs) => match detect_specs(shared, &specs, deadline) {
            Ok(outcomes) => Response::Detections {
                id,
                reports: outcomes.iter().map(encode_detect_outcome).collect(),
            },
            Err(message) => Response::Error { id, error: ServiceError::Malformed, message },
        },
        Work::Sanitize(specs) => match sanitize_specs(shared, &specs, deadline) {
            Ok(outcomes) => Response::Sanitized {
                id,
                reports: outcomes.iter().map(encode_sanitize_outcome).collect(),
            },
            Err(message) => Response::Error { id, error: ServiceError::Malformed, message },
        },
    }
}

/// Materialises the specs and runs them through the shared batch engine.
#[allow(clippy::type_complexity)]
fn run_specs(
    shared: &Shared,
    specs: &[JobSpec],
    deadline: Deadline,
) -> Result<Vec<Result<obfuscade::PipelineOutput, PipelineError>>, String> {
    let mut parts = Vec::with_capacity(specs.len());
    let mut faults = Vec::with_capacity(specs.len());
    for spec in specs {
        parts.push(spec.build_part()?);
        faults.push(spec.fault_plan()?);
    }
    let jobs: Vec<BatchJob<'_>> = specs
        .iter()
        .zip(parts.iter())
        .zip(faults.iter())
        .map(|((spec, part), fault)| BatchJob { part, plan: spec.plan(), faults: fault.clone() })
        .collect();
    let outcomes = run_pipeline_jobs_with(&jobs, &shared.cache, Parallelism::serial(), deadline);
    if outcomes
        .iter()
        .any(|o| matches!(o, Err(PipelineError::DeadlineExceeded { .. })))
    {
        shared.expired.fetch_add(1, Ordering::SeqCst);
    }
    Ok(outcomes)
}

/// Materialises detect specs and runs each through `am-detect` against
/// the shared cache. Detection jobs share the batch engine's error
/// taxonomy: a malformed spec (bad part name, fault spec or quality
/// preset) fails the whole batch as `malformed`; per-job pipeline
/// failures are typed outcomes in the report list.
#[allow(clippy::type_complexity)]
fn detect_specs(
    shared: &Shared,
    specs: &[DetectSpec],
    deadline: Deadline,
) -> Result<Vec<Result<obfuscade::DetectionReport, am_detect::DetectError>>, String> {
    let mut prepared = Vec::with_capacity(specs.len());
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
        prepared.push((part, faults, config));
    }
    let outcomes: Vec<_> = specs
        .iter()
        .zip(&prepared)
        .map(|(spec, (part, faults, config))| {
            am_detect::detect_counterfeit(
                part,
                &spec.job.plan(),
                faults,
                &spec.job.faults,
                config,
                &shared.cache,
                deadline,
            )
        })
        .collect();
    note_expired_detect(shared, &outcomes);
    Ok(outcomes)
}

/// Materialises sanitize specs and runs each through `am-detect`.
#[allow(clippy::type_complexity)]
fn sanitize_specs(
    shared: &Shared,
    specs: &[SanitizeSpec],
    deadline: Deadline,
) -> Result<Vec<Result<obfuscade::SanitizeReport, am_detect::DetectError>>, String> {
    let mut prepared = Vec::with_capacity(specs.len());
    for spec in specs {
        let part = spec.job.build_part()?;
        let faults = spec.job.fault_plan()?;
        let config = am_detect::SanitizeConfig {
            payload_seed: spec.payload_seed,
            payload_bits: spec.payload_bits as u32,
        };
        prepared.push((part, faults, config));
    }
    let outcomes: Vec<_> = specs
        .iter()
        .zip(&prepared)
        .map(|(spec, (part, faults, config))| {
            am_detect::sanitize_toolpath(
                part,
                &spec.job.plan(),
                faults,
                config,
                &shared.cache,
                deadline,
            )
        })
        .collect();
    note_expired_detect(shared, &outcomes);
    Ok(outcomes)
}

/// Bumps the expired-deadline counter when any detect-subsystem outcome
/// died to the request deadline (mirrors [`run_specs`]'s accounting).
fn note_expired_detect<T>(shared: &Shared, outcomes: &[Result<T, am_detect::DetectError>]) {
    if outcomes.iter().any(|o| {
        matches!(
            o,
            Err(am_detect::DetectError::Pipeline(PipelineError::DeadlineExceeded { .. }))
        )
    }) {
        shared.expired.fetch_add(1, Ordering::SeqCst);
    }
}

/// Admission control for queueable requests. The phase check and the
/// capacity check both happen under the queue lock.
fn admit(shared: &Arc<Shared>, id: u64, work: Work, deadline_ms: Option<u64>, reply: &ReplySink) {
    let deadline = deadline_ms
        .map(|ms| Deadline::within(Duration::from_millis(ms)))
        .unwrap_or_default();
    let mut queue = lock(&shared.queue);
    if shared.phase() != RUNNING {
        drop(queue);
        reply.send(Response::Error {
            id,
            error: ServiceError::ShuttingDown,
            message: "the daemon is draining and admits no new jobs".to_string(),
        });
        return;
    }
    if queue.len() >= shared.queue_capacity {
        shared.rejected.fetch_add(1, Ordering::SeqCst);
        drop(queue);
        reply.send(Response::Error {
            id,
            error: ServiceError::Overloaded,
            message: format!("job queue is at capacity ({})", shared.queue_capacity),
        });
        return;
    }
    queue.push_back(QueuedJob {
        request_id: id,
        work,
        deadline,
        deadline_ms,
        reply: reply.clone(),
        enqueued: Instant::now(),
    });
    shared.accepted.fetch_add(1, Ordering::SeqCst);
    drop(queue);
    shared.queue_cv.notify_one();
}

/// Per-connection protocol state: the codec is undetermined until the
/// first frame arrives (binary hello → binary,
/// anything else → JSON, permanently).
pub(crate) struct ConnProto {
    codec: Option<Codec>,
}

impl ConnProto {
    pub(crate) fn new() -> ConnProto {
        ConnProto { codec: None }
    }

    /// The codec the connection settled on (JSON until negotiated).
    pub(crate) fn codec(&self) -> Codec {
        self.codec.unwrap_or(Codec::Json)
    }
}

/// What the connection layer should do after feeding one inbound frame
/// through [`process_frame`].
pub(crate) enum FrameOutcome {
    /// Write these encoded payload bytes back now.
    Reply(Vec<u8>),
    /// The request was admitted to the job queue; the response arrives
    /// later through the [`ReplySink`] built by `sink`.
    Queued,
}

/// One inbound frame through negotiation + dispatch. `sink` builds the
/// reply route for the connection's (just-settled) codec; it is only
/// invoked for queueable requests.
///
/// Control requests (`ping`, `stats`, `shutdown`) are answered inline;
/// `shutdown` from an authorised peer blocks the calling thread in
/// [`drain`] until every queued and in-flight job completed (worker
/// replies are deposited through their sinks meanwhile, never through
/// this thread).
pub(crate) fn process_frame(
    shared: &Arc<Shared>,
    proto: &mut ConnProto,
    frame: &[u8],
    local_peer: bool,
    sink: &dyn Fn(Codec) -> ReplySink,
) -> FrameOutcome {
    if proto.codec.is_none() {
        if is_binary_hello(frame) {
            // A negotiation attempt. Failure is answered (in JSON, the
            // codec the connection stays on) — never a hangup.
            let refusal = match decode_hello(frame) {
                Ok(BINARY_VERSION) => {
                    proto.codec = Some(Codec::Binary);
                    shared.binary_negotiated.fetch_add(1, Ordering::SeqCst);
                    return FrameOutcome::Reply(encode_hello(BINARY_VERSION));
                }
                Ok(version) => format!(
                    "binary codec version {version} is not supported (this daemon \
                     speaks {BINARY_VERSION}); continue in JSON"
                ),
                Err(message) => message,
            };
            proto.codec = Some(Codec::Json);
            let error =
                Response::Error { id: 0, error: ServiceError::BadCodec, message: refusal };
            return FrameOutcome::Reply(error.encode());
        }
        proto.codec = Some(Codec::Json);
    }
    let codec = proto.codec();
    match codec {
        Codec::Json => shared.frames_json.fetch_add(1, Ordering::SeqCst),
        Codec::Binary => shared.frames_binary.fetch_add(1, Ordering::SeqCst),
    };
    let request = match codec.decode_request(frame) {
        Ok(request) => request,
        Err(message) => {
            let error = Response::Error { id: 0, error: ServiceError::Malformed, message };
            return FrameOutcome::Reply(codec.encode_owned_response(error));
        }
    };
    let id = request.id;
    let inline = match request.body {
        RequestBody::Ping => Response::Pong { id },
        RequestBody::Stats => Response::Stats { id, metrics: shared.snapshot().to_json() },
        RequestBody::Shutdown => {
            if local_peer || shared.allow_remote_shutdown {
                let completed = drain(shared);
                Response::Bye { id, completed }
            } else {
                Response::Error {
                    id,
                    error: ServiceError::Forbidden,
                    message: "shutdown is only honored from loopback/Unix-socket \
                              peers (start with allow_remote_shutdown to override)"
                        .to_string(),
                }
            }
        }
        RequestBody::Run { jobs, deadline_ms } => {
            admit(shared, id, Work::Run(jobs), deadline_ms, &sink(codec));
            return FrameOutcome::Queued;
        }
        RequestBody::Authenticate { job, deadline_ms } => {
            admit(shared, id, Work::Authenticate(job), deadline_ms, &sink(codec));
            return FrameOutcome::Queued;
        }
        RequestBody::Detect { jobs, deadline_ms } => {
            admit(shared, id, Work::Detect(jobs), deadline_ms, &sink(codec));
            return FrameOutcome::Queued;
        }
        RequestBody::Sanitize { jobs, deadline_ms } => {
            admit(shared, id, Work::Sanitize(jobs), deadline_ms, &sink(codec));
            return FrameOutcome::Queued;
        }
    };
    FrameOutcome::Reply(codec.encode_owned_response(inline))
}

/// Chaos accept gate: `true` means this freshly accepted connection
/// should be dropped on the floor (the client sees an immediate EOF and
/// owns the retry).
pub(crate) fn chaos_drops_accept(shared: &Shared) -> bool {
    shared.chaos.as_ref().is_some_and(ChaosState::drop_accept)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{Client, Endpoint};
    use crate::protocol::Request;

    fn boot(workers: usize, queue_capacity: usize) -> Server {
        Server::start(ServerConfig {
            workers,
            queue_capacity,
            ..ServerConfig::default()
        })
        .expect("server boots on a loopback port")
    }

    #[test]
    fn ping_stats_run_shutdown_round_trip() {
        let server = boot(2, 8);
        let endpoint = Endpoint::Tcp(server.addr().to_string());
        let mut client = Client::connect(&endpoint).expect("connect");
        client.ping().expect("ping");

        let response =
            client.run(vec![JobSpec::default()], None).expect("run");
        let Response::Results { results, .. } = response else {
            panic!("expected results, got {response:?}");
        };
        assert_eq!(results.len(), 1);
        assert!(results[0].get("ok").is_some(), "clean job must succeed: {results:?}");

        let metrics = client.stats().expect("stats");
        let completed = metrics
            .get("service")
            .and_then(|s| s.get("completed"))
            .and_then(obfuscade::json::Json::as_u64)
            .expect("service.completed");
        assert_eq!(completed, 1);

        let lifetime = client.shutdown().expect("shutdown");
        assert_eq!(lifetime, 1);
        server.join();
    }

    #[test]
    fn non_local_shutdown_is_refused_and_daemon_keeps_running() {
        let server = boot(1, 4);

        // Feed a shutdown frame through the protocol path as a non-local
        // peer (the reactor classifies loopback/Unix peers as local, so
        // the deny path needs driving directly).
        let frame = Request { id: 5, body: RequestBody::Shutdown }.encode();
        let no_sink = |_: Codec| -> ReplySink { unreachable!("shutdown is answered inline") };
        let outcome =
            process_frame(&server.shared, &mut ConnProto::new(), &frame, false, &no_sink);
        let FrameOutcome::Reply(payload) = outcome else {
            panic!("shutdown must be answered inline");
        };
        let response = Response::decode(&payload).expect("decode");
        assert!(
            matches!(response, Response::Error { id: 5, error: ServiceError::Forbidden, .. }),
            "got {response:?}"
        );

        // The refusal must not have drained anything: a loopback client
        // still gets served and may still shut the daemon down.
        let endpoint = Endpoint::Tcp(server.addr().to_string());
        let mut client = Client::connect(&endpoint).expect("connect");
        client.ping().expect("daemon still answers");
        client.shutdown().expect("loopback shutdown is allowed");
        server.join();
    }

    #[test]
    fn panicking_workers_are_respawned_and_retries_still_get_correct_bytes() {
        use crate::client::{expected_results_wire, RetryingClient, RetryPolicy};

        // Panic roughly every other job; leave the transport untouched so
        // the test isolates the supervision path.
        let plan = ChaosPlan {
            seed: 11,
            accept_drop_one_in: 0,
            read_chop_one_in: 0,
            read_stall_one_in: 0,
            worker_panic_one_in: 2,
            spill_fail_one_in: 0,
        };
        let server = Server::start(ServerConfig {
            workers: 2,
            queue_capacity: 8,
            chaos: Some(plan),
            ..ServerConfig::default()
        })
        .expect("server boots on a loopback port");
        let endpoint = Endpoint::Tcp(server.addr().to_string());

        let jobs = vec![JobSpec::default()];
        let expected = expected_results_wire(&jobs).expect("reference run");
        let policy = RetryPolicy {
            attempts: 16,
            base_backoff: std::time::Duration::from_millis(1),
            max_backoff: std::time::Duration::from_millis(8),
            ..RetryPolicy::default()
        };
        let mut client = RetryingClient::new(&endpoint, policy);
        for _ in 0..8 {
            let response = client.run(&jobs, None).expect("retries outlast the chaos");
            let Response::Results { results, .. } = response else {
                panic!("expected results, got {response:?}");
            };
            assert_eq!(
                obfuscade::json::Json::Array(results).render(),
                expected,
                "a retried job must still return byte-identical results"
            );
        }
        assert!(client.retries() > 0, "a one-in-two panic rate must force retries");

        let mut plain = Client::connect(&endpoint).expect("connect");
        let metrics = plain.stats().expect("stats");
        let counter = |name: &str| {
            metrics
                .get("service")
                .and_then(|s| s.get(name))
                .and_then(obfuscade::json::Json::as_u64)
                .unwrap_or(0)
        };
        assert!(counter("worker_panics") > 0, "chaos must have killed at least one worker");
        assert_eq!(
            counter("worker_panics"),
            counter("respawns"),
            "every dead worker gets replaced"
        );

        plain.shutdown().expect("shutdown");
        server.join();
    }

    #[test]
    fn unknown_frames_get_typed_malformed_errors() {
        let server = boot(1, 4);
        let endpoint = Endpoint::Tcp(server.addr().to_string());
        let mut client = Client::connect(&endpoint).expect("connect");
        let response = client.raw_call(b"{\"id\":9,\"kind\":\"warp\"}").expect("reply");
        assert!(
            matches!(response, Response::Error { error: ServiceError::Malformed, .. }),
            "got {response:?}"
        );
        server.begin_shutdown();
        server.join();
    }
}
