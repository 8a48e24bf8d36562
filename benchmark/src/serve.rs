//! `serve-hot` and `serve-routed`: open-loop load at fixed offered rates
//! against the production daemon (`obfuscade serve`) and router
//! (`obfuscade route`), and their traced in-process twins behind the
//! public `Engine::Forward` seam.

use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use am_router::{Fleet, RoutePolicy, Router, RouterConfig};
use am_service::{
    encode_detect_outcome, encode_outcome, Client, Codec, DetectSpec, Endpoint, Engine, Forwarder,
    JobSpec, Request, RequestBody, Response, RetryPolicy, RetryingClient, SanitizeSpec, Server,
    ServerConfig, ServiceError,
};
use obfuscade::json::Json;
use obfuscade::{plan_toolpath, run_pipeline_jobs_with, BatchJob, Deadline, FaultPlan, StageCache};

use crate::gen::{self, Exchange, GenConn};
use crate::report::{median, peak_rss_mb, quantile, RunResult};
use crate::schedule::{self, process_seed, Rung, Schedule};
use crate::trace::{SpanStore, TraceSummary};
use crate::verify::{self, Expected};

/// One serve workload's frozen parameters.
pub struct ServeSpec {
    pub name: &'static str,
    /// Through the router, over two single-worker daemons.
    pub routed: bool,
    /// Offered rates, in the order they run.
    pub rungs: &'static [Rung],
    /// The rung whose latency is reported as `p50_ms` / `p99_ms`.
    pub nominal: usize,
    /// A rung passes when its p99 and its drain time stay within this.
    pub p99_limit_ms: f64,
}

/// `serve-hot`: one `obfuscade serve` with its defaults (reactor, two
/// workers), every request a stage-cache hit.
pub const HOT: ServeSpec = ServeSpec {
    name: "serve-hot",
    routed: false,
    rungs: &[
        Rung {
            rate_rps: 500.0,
            share: 0.2,
        },
        Rung {
            rate_rps: 1000.0,
            share: 0.5,
        },
        Rung {
            rate_rps: 1500.0,
            share: 0.3,
        },
    ],
    nominal: 1,
    p99_limit_ms: 10.0,
};

/// `serve-routed`: `obfuscade route` (affinity) over two
/// `obfuscade serve --workers 1` daemons with small caches. A short
/// lead-in at half the nominal rate, the nominal rung for most of the run
/// (its latency moves with the host's load, and a longer rung averages
/// more of that out), one rung below the stack's capacity and one far
/// past it.
///
/// At the seed commit on a 2-vCPU VM the saturated stack answers anywhere
/// from about 255 to over 560 req/s, depending on the host's load at the
/// time, and a run's capacity moves by a third from one minute to the
/// next. A rung inside that band passes in one run and misses in the
/// next, so the ladder has none: 210 req/s meets the limit in every run
/// and 1080 req/s misses it in every run. `max_rate_rps` is therefore a
/// floor check: it drops when capacity falls below 210 req/s, and rises
/// only when it passes about 860 req/s (1080 req/s with the limit's
/// slack).
pub const ROUTED: ServeSpec = ServeSpec {
    name: "serve-routed",
    routed: true,
    rungs: &[
        Rung {
            rate_rps: 35.0,
            share: 0.025,
        },
        Rung {
            rate_rps: 70.0,
            share: 0.85,
        },
        Rung {
            rate_rps: 210.0,
            share: 0.1,
        },
        Rung {
            rate_rps: 1080.0,
            share: 0.025,
        },
    ],
    nominal: 1,
    p99_limit_ms: 250.0,
};

/// Stage-cache budget of each routed daemon: below the working set
/// (every request prints a fresh part), so the cache inserts and evicts
/// all the time, yet large enough to keep the popular families' prefixes.
const BACKEND_CACHE_MB: usize = 32;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 11;
/// Front queue of the routed stack's router: deep enough that a rung
/// past the stack's capacity builds a backlog (and misses the latency
/// limit) instead of being refused.
const ROUTER_QUEUE: usize = 4096;
/// The generator may run this late (p99 of send − due) before a run is
/// invalid.
const LATE_LIMIT_MS: f64 = 20.0;
/// A connection that answers nothing for this long is given up.
const IDLE: Duration = Duration::from_secs(15);
/// Working directory for sockets and port files, under the checkout.
const RUN_DIR: &str = ".bench_run";

fn node_socket(n: usize) -> PathBuf {
    // Relative, so the backends' endpoint names — and with them the
    // rendezvous placement — are the same in every checkout.
    Path::new(RUN_DIR).join(format!("n{n}.sock"))
}

/// The requests that warm a stack before timing: the hot set, or one
/// `run` per routed family.
fn warm_bodies(spec: &ServeSpec, seed: u64) -> Vec<RequestBody> {
    if !spec.routed {
        return schedule::hot_set(seed);
    }
    schedule::families()
        .into_iter()
        .enumerate()
        .map(|(i, (part, orientation, resolution))| RequestBody::Run {
            jobs: vec![JobSpec {
                part: part.to_string(),
                orientation,
                resolution,
                seed: schedule::derive_seed(seed, "routed.warm", i as u64) >> 16,
                ..JobSpec::default()
            }],
            deadline_ms: None,
        })
        .collect()
}

fn build_schedule(spec: &ServeSpec, seed: u64, seconds: f64) -> Schedule {
    if spec.routed {
        schedule::routed_schedule(seed, spec.rungs, seconds)
    } else {
        schedule::hot_schedule(seed, spec.rungs, seconds)
    }
}

fn connect_client(addr: &str) -> Result<Client, String> {
    Client::connect_with(
        &Endpoint::Tcp(addr.to_string()),
        Some(Duration::from_secs(60)),
    )
    .map_err(|e| format!("connect {addr}: {e}"))
}

/// Connections opened and requests re-sent by the benchmark's clients.
struct ClientCounts {
    retries: u64,
    connects: u64,
}

/// Sends the warm-up requests through am-service's `RetryingClient`.
fn warm_up(addr: &str, bodies: &[RequestBody]) -> Result<ClientCounts, String> {
    let mut client = RetryingClient::new(&Endpoint::Tcp(addr.to_string()), RetryPolicy::default());
    for body in bodies {
        let response = match body {
            RequestBody::Run { jobs, deadline_ms } => client.run(jobs, *deadline_ms)?,
            RequestBody::Authenticate { job, deadline_ms } => {
                client.authenticate(job, *deadline_ms)?
            }
            RequestBody::Detect { jobs, deadline_ms } => client.detect(jobs, *deadline_ms)?,
            other => return Err(format!("not a warm-up request: {other:?}")),
        };
        if let Response::Error { message, .. } = response {
            return Err(format!("warm-up request failed: {message}"));
        }
    }
    Ok(ClientCounts {
        retries: client.retries(),
        connects: client.connects(),
    })
}

// --- The production stack: CLI processes ---------------------------------

struct ProcStack {
    /// Front (router or daemon) last.
    children: Vec<(Child, String)>,
}

impl ProcStack {
    fn spawn(cli: &Path, args: &[String], tag: &str) -> Result<(Child, String), String> {
        let port_file = Path::new(RUN_DIR).join(format!("{tag}.port"));
        let _ = fs::remove_file(&port_file);
        let mut full: Vec<String> = args.to_vec();
        full.extend(["--addr".into(), "127.0.0.1:0".into()]);
        full.extend(["--port-file".into(), port_file.display().to_string()]);
        let mut child = Command::new(cli)
            .args(&full)
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", cli.display()))?;
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            if let Ok(addr) = fs::read_to_string(&port_file) {
                if !addr.trim().is_empty() {
                    return Ok((child, addr.trim().to_string()));
                }
            }
            if Instant::now() > deadline || matches!(child.try_wait(), Ok(Some(_))) {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("{tag} did not come up"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Boots the stack and returns it once its front answers a ping.
    fn boot(cli: &Path, routed: bool) -> Result<ProcStack, String> {
        fs::create_dir_all(RUN_DIR).map_err(|e| e.to_string())?;
        let mut stack = ProcStack {
            children: Vec::new(),
        };
        match stack.start(cli, routed) {
            Ok(()) => Ok(stack),
            Err(e) => {
                stack.shutdown();
                Err(e)
            }
        }
    }

    fn start(&mut self, cli: &Path, routed: bool) -> Result<(), String> {
        if routed {
            let mut to = Vec::new();
            for n in 0..2 {
                let args: Vec<String> = vec![
                    "serve".into(),
                    "--workers".into(),
                    "1".into(),
                    "--cache-mb".into(),
                    BACKEND_CACHE_MB.to_string(),
                    "--uds".into(),
                    node_socket(n).display().to_string(),
                    "--node".into(),
                    format!("n{n}"),
                ];
                self.children
                    .push(Self::spawn(cli, &args, &format!("n{n}"))?);
                ping(self.front())?;
                to.push(format!("unix:{}", node_socket(n).display()));
            }
            let args = vec![
                "route".into(),
                "--queue".into(),
                ROUTER_QUEUE.to_string(),
                "--to".into(),
                to.join(","),
            ];
            self.children.push(Self::spawn(cli, &args, "router")?);
        } else {
            self.children
                .push(Self::spawn(cli, &["serve".to_string()], "daemon")?);
        }
        ping(self.front())
    }

    fn front(&self) -> &str {
        self.children.last().map_or("", |c| c.1.as_str())
    }

    fn rss_mb(&self) -> f64 {
        self.children.iter().map(|(c, _)| peak_rss_mb(c.id())).sum()
    }

    /// Drains the front first, then the daemons, and waits for every
    /// process to exit (killing one that does not within 20 s).
    fn shutdown(mut self) {
        while let Some((mut child, addr)) = self.children.pop() {
            if let Ok(mut client) = connect_client(&addr) {
                let _ = client.shutdown();
            }
            let deadline = Instant::now() + Duration::from_secs(20);
            while !matches!(child.try_wait(), Ok(Some(_))) {
                if Instant::now() > deadline {
                    let _ = child.kill();
                    break;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            let _ = child.wait();
        }
    }
}

fn ping(addr: &str) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        match connect_client(addr).and_then(|mut c| c.ping()) {
            Ok(()) => return Ok(()),
            Err(e) if Instant::now() > deadline => return Err(format!("ping {addr}: {e}")),
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

// --- The traced in-process stack -----------------------------------------

/// How a traced engine maps the id it is handed to the generator's
/// request index.
enum Ids {
    /// The front daemon sees the generator's own ids (index + 1).
    Front,
    /// Behind the router ids are the fleet's; every routed request has a
    /// unique process seed, which identifies it instead.
    BySeed(HashMap<u64, u64>),
}

/// A benchmark-owned engine that executes jobs through the same public
/// calls as the daemon's local engine, inside an engine span.
struct TracedEngine {
    cache: StageCache,
    store: Arc<SpanStore>,
    ids: Arc<Ids>,
    /// `(request index, start, end)` of every engine span.
    execs: Mutex<Vec<(u64, u64, u64)>>,
}

impl TracedEngine {
    fn request_id(&self, front_id: u64, seed: Option<u64>) -> u64 {
        match (&*self.ids, seed) {
            (Ids::Front, _) => front_id.saturating_sub(1),
            (Ids::BySeed(map), Some(seed)) => map.get(&seed).copied().unwrap_or(u64::MAX),
            (Ids::BySeed(_), None) => u64::MAX,
        }
    }

    fn traced(&self, rid: u64, f: impl FnOnce(usize) -> Response) -> Response {
        let span = self.store.open("server.exec", rid, None);
        let response = f(span);
        let (start, end) = self.store.close(span);
        self.execs
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push((rid, start, end));
        response
    }

    /// The local engine's `run`: materialise, batch, encode.
    fn run_jobs(
        &self,
        rid: u64,
        parent: usize,
        specs: &[JobSpec],
    ) -> Result<Vec<Result<obfuscade::PipelineOutput, obfuscade::PipelineError>>, String> {
        let (parts, faults) = self.store.in_span("core.build", rid, Some(parent), |_| {
            let mut parts = Vec::with_capacity(specs.len());
            let mut faults = Vec::with_capacity(specs.len());
            for spec in specs {
                parts.push(spec.build_part()?);
                faults.push(spec.fault_plan()?);
            }
            Ok::<_, String>((parts, faults))
        })?;
        let jobs: Vec<BatchJob<'_>> = specs
            .iter()
            .zip(&parts)
            .zip(&faults)
            .map(|((spec, part), f)| BatchJob {
                part,
                plan: spec.plan(),
                faults: f.clone(),
            })
            .collect();
        Ok(self.store.in_span("core.run", rid, Some(parent), |_| {
            run_pipeline_jobs_with(
                &jobs,
                &self.cache,
                am_par::Parallelism::serial(),
                Deadline::none(),
            )
        }))
    }
}

impl Forwarder for TracedEngine {
    fn run(&self, id: u64, specs: &[JobSpec], _deadline_ms: Option<u64>) -> Response {
        let rid = self.request_id(id, specs.first().map(|s| s.seed));
        self.traced(rid, |exec| match self.run_jobs(rid, exec, specs) {
            Ok(outcomes) => {
                let results = outcomes
                    .iter()
                    .map(|o| {
                        self.store
                            .in_span("protocol.render", rid, Some(exec), |_| encode_outcome(o))
                    })
                    .collect();
                Response::Results { id, results }
            }
            Err(message) => Response::Error {
                id,
                error: ServiceError::Malformed,
                message,
            },
        })
    }

    fn authenticate(&self, id: u64, spec: &JobSpec, _deadline_ms: Option<u64>) -> Response {
        let rid = self.request_id(id, Some(spec.seed));
        self.traced(rid, |exec| {
            match self.run_jobs(rid, exec, std::slice::from_ref(spec)) {
                Ok(outcomes) => match outcomes.into_iter().next() {
                    Some(Ok(output)) => {
                        let cold = output.scan.cold_joint_area;
                        let voids = output.scan.internal_void_volume;
                        Response::Verdict {
                            id,
                            verdict: verify::verdict_rule(cold, voids).to_string(),
                            cold_joint_mm2: cold,
                            void_mm3: voids,
                        }
                    }
                    Some(Err(e)) => Response::Error {
                        id,
                        error: ServiceError::Job,
                        message: e.to_string(),
                    },
                    None => Response::Error {
                        id,
                        error: ServiceError::Job,
                        message: "empty batch".into(),
                    },
                },
                Err(message) => Response::Error {
                    id,
                    error: ServiceError::Malformed,
                    message,
                },
            }
        })
    }

    fn detect(&self, id: u64, specs: &[DetectSpec], _deadline_ms: Option<u64>) -> Response {
        let rid = self.request_id(id, specs.first().map(|s| s.job.seed));
        self.traced(rid, |exec| {
            let prepared = self.store.in_span("core.build", rid, Some(exec), |_| {
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
                Ok::<_, String>(prepared)
            });
            let prepared = match prepared {
                Ok(p) => p,
                Err(message) => {
                    return Response::Error {
                        id,
                        error: ServiceError::Malformed,
                        message,
                    }
                }
            };
            let mut reports = Vec::with_capacity(specs.len());
            for (spec, (part, faults, config)) in specs.iter().zip(&prepared) {
                let plan = spec.job.plan();
                // The golden tool-path prefix first, so the judge span
                // below is net of it.
                self.store.in_span("detect.prefix", rid, Some(exec), |_| {
                    let _ = plan_toolpath(
                        part,
                        &plan,
                        &FaultPlan::none(),
                        &self.cache,
                        Deadline::none(),
                    );
                });
                let outcome = self.store.in_span("detect.judge", rid, Some(exec), |_| {
                    am_detect::detect_counterfeit(
                        part,
                        &plan,
                        faults,
                        &spec.job.faults,
                        config,
                        &self.cache,
                        Deadline::none(),
                    )
                });
                reports.push(self.store.in_span("protocol.render", rid, Some(exec), |_| {
                    encode_detect_outcome(&outcome)
                }));
            }
            Response::Detections { id, reports }
        })
    }

    fn sanitize(&self, id: u64, _specs: &[SanitizeSpec], _deadline_ms: Option<u64>) -> Response {
        Response::Error {
            id,
            error: ServiceError::Malformed,
            message: "sanitize is not part of the benchmark workloads".into(),
        }
    }
}

/// The traced router front: `am_router::Fleet` inside a forward span.
struct TracedFleet {
    fleet: Fleet,
    store: Arc<SpanStore>,
    forwards: Mutex<Vec<(u64, u64, u64)>>,
}

impl TracedFleet {
    fn forward(&self, id: u64, f: impl FnOnce() -> Response) -> Response {
        let rid = id.saturating_sub(1);
        let start = self.store.now_ns();
        let response = f();
        let end = self.store.now_ns();
        self.store.record("router.forward", rid, None, start, end);
        self.forwards
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push((rid, start, end));
        response
    }
}

impl Forwarder for TracedFleet {
    fn run(&self, id: u64, specs: &[JobSpec], deadline_ms: Option<u64>) -> Response {
        self.forward(id, || self.fleet.run(id, specs, deadline_ms))
    }
    fn authenticate(&self, id: u64, spec: &JobSpec, deadline_ms: Option<u64>) -> Response {
        self.forward(id, || self.fleet.authenticate(id, spec, deadline_ms))
    }
    fn detect(&self, id: u64, specs: &[DetectSpec], deadline_ms: Option<u64>) -> Response {
        self.forward(id, || self.fleet.detect(id, specs, deadline_ms))
    }
    fn sanitize(&self, id: u64, specs: &[SanitizeSpec], deadline_ms: Option<u64>) -> Response {
        self.forward(id, || self.fleet.sanitize(id, specs, deadline_ms))
    }
    fn stats(&self) -> Option<Json> {
        self.fleet.stats()
    }
}

enum Front {
    Server(Server),
    Router(Router),
}

/// The daemons and router in-process, traced (engines behind
/// `Engine::Forward`) or not (the daemon's local engine and
/// `am_router::Router`).
struct InProcStack {
    backends: Vec<Server>,
    front: Front,
    engines: Vec<Arc<TracedEngine>>,
    fleet: Option<Arc<TracedFleet>>,
}

impl InProcStack {
    fn boot(
        routed: bool,
        trace: Option<(&Arc<SpanStore>, &Arc<Ids>)>,
    ) -> Result<InProcStack, String> {
        let err = |e: std::io::Error| e.to_string();
        let mut engines = Vec::new();
        let mut engine_for = |budget: usize| match trace {
            Some((store, ids)) => {
                let engine = Arc::new(TracedEngine {
                    cache: StageCache::with_budget(budget),
                    store: Arc::clone(store),
                    ids: Arc::clone(ids),
                    execs: Mutex::new(Vec::new()),
                });
                engines.push(Arc::clone(&engine));
                Engine::Forward(engine)
            }
            None => Engine::Local,
        };
        if !routed {
            let config = ServerConfig {
                engine: engine_for(StageCache::DEFAULT_BUDGET),
                ..ServerConfig::default()
            };
            let server = Server::start(config).map_err(err)?;
            return Ok(InProcStack {
                backends: Vec::new(),
                front: Front::Server(server),
                engines,
                fleet: None,
            });
        }
        fs::create_dir_all(RUN_DIR).map_err(err)?;
        let mut backends = Vec::new();
        for n in 0..2 {
            let config = ServerConfig {
                unix_socket: Some(node_socket(n)),
                workers: 1,
                cache_budget: BACKEND_CACHE_MB << 20,
                node: format!("n{n}"),
                engine: engine_for(BACKEND_CACHE_MB << 20),
                ..ServerConfig::default()
            };
            backends.push(Server::start(config).map_err(err)?);
        }
        let endpoints: Vec<Endpoint> = (0..2).map(|n| Endpoint::Unix(node_socket(n))).collect();
        // The CLI router's front: eight forwarding workers.
        let front_config = ServerConfig {
            workers: 8,
            queue_capacity: ROUTER_QUEUE,
            node: "router".into(),
            ..ServerConfig::default()
        };
        let defaults = RouterConfig::default();
        match trace {
            Some((store, _)) => {
                let fleet = Arc::new(TracedFleet {
                    fleet: Fleet::new(
                        endpoints,
                        defaults.conns_per_backend,
                        RoutePolicy::Affinity,
                        defaults.fail_threshold,
                        defaults.probe_every,
                        defaults.retry,
                    ),
                    store: Arc::clone(store),
                    forwards: Mutex::new(Vec::new()),
                });
                let front = Server::start(ServerConfig {
                    engine: Engine::Forward(Arc::clone(&fleet) as Arc<dyn Forwarder>),
                    ..front_config
                })
                .map_err(err)?;
                Ok(InProcStack {
                    backends,
                    front: Front::Server(front),
                    engines,
                    fleet: Some(fleet),
                })
            }
            None => {
                let router = Router::start(RouterConfig {
                    front: front_config,
                    backends: endpoints,
                    retry: RetryPolicy::default(),
                    ..defaults
                })
                .map_err(err)?;
                Ok(InProcStack {
                    backends,
                    front: Front::Router(router),
                    engines,
                    fleet: None,
                })
            }
        }
    }

    fn front_addr(&self) -> String {
        match &self.front {
            Front::Server(s) => s.addr().to_string(),
            Front::Router(r) => r.addr().to_string(),
        }
    }

    fn addrs(&self) -> Vec<String> {
        let mut out: Vec<String> = self.backends.iter().map(|s| s.addr().to_string()).collect();
        out.push(self.front_addr());
        out
    }

    fn shutdown(self) {
        match self.front {
            Front::Server(s) => {
                s.begin_shutdown();
                s.join();
            }
            Front::Router(r) => {
                r.begin_shutdown();
                r.join();
            }
        }
        for b in self.backends {
            b.begin_shutdown();
            b.join();
        }
    }
}

// --- Running and judging rungs -------------------------------------------

/// Per-rung verdicts over the exchanges of one open-loop run.
struct RungStats {
    attempted: usize,
    ok: usize,
    latencies_ms: Vec<f64>,
    late_ms: Vec<f64>,
    drain_ms: f64,
    wall_s: f64,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Judges every exchange against its reference; failures go to `result`.
fn judge(
    schedule: &Schedule,
    rung: usize,
    start: Instant,
    exchanges: &HashMap<usize, Exchange>,
    expected: &[Expected],
    result: &mut RunResult,
) -> RungStats {
    let indices = schedule.rung_requests(rung);
    let mut stats = RungStats {
        attempted: indices.len(),
        ok: 0,
        latencies_ms: Vec::new(),
        late_ms: Vec::new(),
        drain_ms: 0.0,
        wall_s: 0.0,
    };
    let mut end = start;
    let mut last_due = start;
    for &i in &indices {
        let Some(x) = exchanges.get(&i) else {
            result.fail(format!("request {i} was never sent"));
            continue;
        };
        last_due = last_due.max(x.due);
        stats
            .late_ms
            .push(ms(x.sent.saturating_duration_since(x.due)));
        match &x.done {
            None => result.fail(format!("request {i} got no response")),
            Some((at, response)) => {
                end = end.max(*at);
                if verify::matches(&expected[i], response) {
                    stats.ok += 1;
                    stats
                        .latencies_ms
                        .push(ms(at.saturating_duration_since(x.due)));
                } else {
                    result.fail(format!(
                        "request {i}: response differs from its reference: {}",
                        short(response)
                    ));
                }
            }
        }
    }
    stats.drain_ms = ms(end.saturating_duration_since(last_due));
    stats.wall_s = end
        .max(last_due)
        .saturating_duration_since(start)
        .as_secs_f64();
    stats
}

fn short(response: &Response) -> String {
    match response {
        Response::Error { error, message, .. } => format!("{}: {message}", error.name()),
        other => {
            let text = format!("{other:?}");
            text.chars().take(160).collect()
        }
    }
}

fn connect_generator(addr: &str) -> Result<Vec<GenConn>, String> {
    let json = GenConn::connect(addr, Codec::Json).map_err(|e| format!("generator: {e}"))?;
    let binary = GenConn::connect(addr, Codec::Binary).map_err(|e| format!("generator: {e}"))?;
    Ok(vec![json, binary])
}

/// Runs the given rungs back to back, each after the previous one's
/// responses are in.
fn drive(
    addr: &str,
    schedule: &Schedule,
    rungs: &[usize],
) -> Result<(HashMap<usize, Exchange>, Vec<Instant>), String> {
    let mut conns = connect_generator(addr)?;
    let frames = gen::encode_frames(schedule, &conns);
    let mut exchanges = HashMap::new();
    let mut starts = Vec::new();
    for &r in rungs {
        let start = Instant::now() + Duration::from_millis(20);
        starts.push(start);
        exchanges.extend(gen::run_rung(&mut conns, schedule, &frames, r, start, IDLE));
    }
    gen::close(conns);
    Ok((exchanges, starts))
}

/// References for every request of `schedule` (computed once per
/// distinct body), indexed like the schedule.
fn schedule_references(schedule: &Schedule, rungs: &[usize]) -> Result<Vec<Expected>, String> {
    let mut distinct: Vec<RequestBody> = Vec::new();
    let mut slot: Vec<usize> = vec![usize::MAX; schedule.requests.len()];
    for &r in rungs {
        for i in schedule.rung_requests(r) {
            let body = &schedule.requests[i].body;
            slot[i] = match distinct.iter().position(|b| b == body) {
                Some(k) => k,
                None => {
                    distinct.push(body.clone());
                    distinct.len() - 1
                }
            };
        }
    }
    let refs = verify::references(&distinct, 2)?;
    Ok(slot
        .into_iter()
        .map(|k| {
            refs.get(k)
                .cloned()
                .unwrap_or(Expected::Wire(String::new()))
        })
        .collect())
}

/// The untraced run against the CLI daemons: every end-to-end metric.
pub fn run_untraced(
    spec: &ServeSpec,
    seed: u64,
    seconds: f64,
    cli: &Path,
) -> Result<RunResult, String> {
    let schedule = build_schedule(spec, seed, seconds);
    let warm = warm_bodies(spec, seed);
    let mut setups = Vec::new();
    let mut stack: Option<ProcStack> = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(previous) = stack.take() {
            previous.shutdown();
        }
        let t = Instant::now();
        let booted = ProcStack::boot(cli, spec.routed)?;
        let warmed = warm_up(booted.front(), &warm);
        stack = Some(booted);
        warmed?;
        setups.push(t.elapsed().as_secs_f64());
    }
    let stack = stack.ok_or("no stack booted")?;
    let all: Vec<usize> = (0..spec.rungs.len()).collect();
    let driven = drive(stack.front(), &schedule, &all);
    let rss = stack.rss_mb();
    stack.shutdown();
    let (exchanges, starts) = driven?;

    let expected = schedule_references(&schedule, &all)?;
    let mut result = RunResult::new(schedule.requests.len() as u64);
    // (offered, measured) rate of the highest rung that meets the limit.
    let mut max_rate = (0.0f64, 0.0f64);
    let (mut ok, mut wall) = (0usize, 0.0f64);
    let mut nominal: Option<RungStats> = None;
    for (r, start) in all.iter().zip(&starts) {
        let failed_before = result.failed;
        let s = judge(&schedule, *r, *start, &exchanges, &expected, &mut result);
        let p99 = quantile(&s.latencies_ms, 0.99);
        let passed = result.failed == failed_before
            && p99 <= spec.p99_limit_ms
            && s.drain_ms <= spec.p99_limit_ms;
        let rate = s.ok as f64 / s.wall_s.max(1e-9);
        if passed && spec.rungs[*r].rate_rps > max_rate.0 {
            max_rate = (spec.rungs[*r].rate_rps, rate);
        }
        eprintln!(
            "{} rung {r}: {:>7.1} req/s offered, {:>7.1} req/s answered, {} requests, \
             p50 {:.3} ms, p99 {p99:.3} ms, drain {:.3} ms, sent late p50 {:.3} ms, {}",
            spec.name,
            spec.rungs[*r].rate_rps,
            rate,
            s.attempted,
            quantile(&s.latencies_ms, 0.5),
            s.drain_ms,
            quantile(&s.late_ms, 0.5),
            if passed {
                "meets the limit"
            } else {
                "misses the limit"
            }
        );
        ok += s.ok;
        wall += s.wall_s;
        if *r == spec.nominal {
            nominal = Some(s);
        }
    }
    let nominal = nominal.ok_or("no nominal rung")?;
    let late = quantile(&nominal.late_ms, 0.99);
    if late > LATE_LIMIT_MS {
        result.invalid(format!(
            "generator fell behind: p99 send lateness {late:.3} ms"
        ));
    }
    result.metric("setup_s", median(&setups), "s");
    // Mostly the schedule's offered rate: of the stack's speed it sees
    // how long the rungs past its capacity take to drain.
    result.metric("jobs_per_s", ok as f64 / wall.max(1e-9), "jobs/s");
    result.metric("p50_ms", quantile(&nominal.latencies_ms, 0.5), "ms");
    result.metric("p99_ms", quantile(&nominal.latencies_ms, 0.99), "ms");
    result.metric("max_rate_rps", max_rate.1, "req/s");
    result.metric("rss_peak_mb", rss, "MiB");
    Ok(result)
}

/// Mean per-call time (µs) of `f` over `items`, best of three passes.
fn per_call_us<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t = Instant::now();
        for item in items {
            f(item);
        }
        best = best.min(t.elapsed().as_secs_f64() * 1e6 / items.len().max(1) as f64);
    }
    if best.is_finite() {
        best
    } else {
        0.0
    }
}

/// Codec costs on the run's own frames: every request and response of
/// the measured rung, encoded and decoded under each codec.
fn codec_metrics(requests: &[Request], responses: &[Response], result: &mut RunResult) {
    for codec in [Codec::Json, Codec::Binary] {
        let name = codec.name();
        let req_bytes: Vec<Vec<u8>> = requests.iter().map(|r| codec.encode_request(r)).collect();
        let resp_bytes: Vec<Vec<u8>> = responses.iter().map(|r| codec.encode_response(r)).collect();
        let mean_len =
            |v: &[Vec<u8>]| v.iter().map(Vec::len).sum::<usize>() as f64 / v.len().max(1) as f64;
        result.metric(
            &format!("codec.{name}.encode_req_us"),
            per_call_us(requests, |r| {
                std::hint::black_box(codec.encode_request(r));
            }),
            "us",
        );
        result.metric(
            &format!("codec.{name}.decode_req_us"),
            per_call_us(&req_bytes, |b| {
                let _ = std::hint::black_box(codec.decode_request(b));
            }),
            "us",
        );
        result.metric(
            &format!("codec.{name}.encode_resp_us"),
            per_call_us(responses, |r| {
                std::hint::black_box(codec.encode_response(r));
            }),
            "us",
        );
        result.metric(
            &format!("codec.{name}.decode_resp_us"),
            per_call_us(&resp_bytes, |b| {
                let _ = std::hint::black_box(codec.decode_response(b));
            }),
            "us",
        );
        result.metric(
            &format!("codec.{name}.req_bytes"),
            mean_len(&req_bytes),
            "bytes",
        );
        result.metric(
            &format!("codec.{name}.resp_bytes"),
            mean_len(&resp_bytes),
            "bytes",
        );
    }
}

fn stat_sum(stats: &[Json], section: &str, field: &str) -> f64 {
    stats
        .iter()
        .filter_map(|s| s.get(section)?.get(field)?.as_number())
        .sum()
}

fn cache_totals(engines: &[Arc<TracedEngine>]) -> obfuscade::CacheStats {
    let mut total = obfuscade::CacheStats::default();
    for e in engines {
        let s = e.cache.stats();
        total.hits += s.hits;
        total.misses += s.misses;
        total.insertions += s.insertions;
        total.evictions += s.evictions;
        total.bytes += s.bytes;
    }
    total
}

/// The traced run: the nominal rung against the in-process stack, first
/// untraced (the daemon's local engine, `am_router::Router`) and then
/// traced (benchmark engines and the wrapped fleet behind
/// `Engine::Forward`), both byte-checked. Reports every per-layer metric.
pub fn run_traced(
    spec: &ServeSpec,
    seed: u64,
    seconds: f64,
    trace_path: &Path,
) -> Result<RunResult, String> {
    let schedule = build_schedule(spec, seed, seconds);
    let warm = warm_bodies(spec, seed);
    let rung = [spec.nominal];
    let window = schedule.rung_requests(spec.nominal);

    // Untraced, in-process.
    let stack = InProcStack::boot(spec.routed, None)?;
    let untraced = warm_up(&stack.front_addr(), &warm)
        .and_then(|_| drive(&stack.front_addr(), &schedule, &rung));
    stack.shutdown();
    let (untraced, _) = untraced?;

    // Traced.
    let store = Arc::new(SpanStore::new());
    let ids = Arc::new(if spec.routed {
        Ids::BySeed(
            window
                .iter()
                .filter_map(|&i| process_seed(&schedule.requests[i].body).map(|s| (s, i as u64)))
                .collect(),
        )
    } else {
        Ids::Front
    });
    let stack = InProcStack::boot(spec.routed, Some((&store, &ids)))?;
    let addr = stack.front_addr();
    let traced = (|| {
        let connects_before = gen::connects();
        let warmed = warm_up(&addr, &warm)?;
        let cache_before = cache_totals(&stack.engines);
        let fleet_before = stack.fleet.as_ref().map(|f| {
            (
                f.fleet.routed(),
                f.fleet.failovers(),
                routed_per_node(&f.fleet),
            )
        });
        let window_start = store.now_ns();
        let (exchanges, _) = drive(&addr, &schedule, &rung)?;
        let client = ClientCounts {
            retries: warmed.retries,
            connects: warmed.connects + (gen::connects() - connects_before),
        };
        let stats: Vec<Json> = stack
            .addrs()
            .iter()
            .filter_map(|a| connect_client(a).ok()?.stats().ok())
            .collect();
        let cache_after = cache_totals(&stack.engines);
        let fleet_after = stack.fleet.as_ref().map(|f| {
            (
                f.fleet.routed(),
                f.fleet.failovers(),
                routed_per_node(&f.fleet),
            )
        });
        Ok::<_, String>((
            exchanges,
            client,
            stats,
            cache_before,
            cache_after,
            fleet_before,
            fleet_after,
            window_start,
        ))
    })();
    let engines = stack.engines.clone();
    let fleet = stack.fleet.clone();
    stack.shutdown();
    let (
        exchanges,
        client,
        stats,
        cache_before,
        cache_after,
        fleet_before,
        fleet_after,
        window_start,
    ) = traced?;

    let expected = schedule_references(&schedule, &rung)?;
    let mut result = RunResult::new(2 * window.len() as u64);
    let start_of = |x: &HashMap<usize, Exchange>| {
        window
            .iter()
            .filter_map(|i| x.get(i))
            .map(|e| e.due)
            .min()
            .unwrap_or_else(Instant::now)
    };
    let base = judge(
        &schedule,
        spec.nominal,
        start_of(&untraced),
        &untraced,
        &expected,
        &mut result,
    );
    let traced_stats = judge(
        &schedule,
        spec.nominal,
        start_of(&exchanges),
        &exchanges,
        &expected,
        &mut result,
    );

    // Client spans, then the trace is written once.
    let clock: HashMap<usize, (u64, Option<u64>)> = window
        .iter()
        .filter_map(|&i| {
            let x = exchanges.get(&i)?;
            Some((
                i,
                (
                    store.ns_at(x.sent),
                    x.done.as_ref().map(|(at, _)| store.ns_at(*at)),
                ),
            ))
        })
        .collect();
    for (&i, &(sent, done)) in &clock {
        if let Some(done) = done {
            store.record("client.request", i as u64, None, sent, done);
        }
    }
    let fleet_forwards: Vec<(u64, u64, u64)> = fleet
        .as_ref()
        .map(|f| {
            f.forwards
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .clone()
        })
        .unwrap_or_default();
    let node_execs: Vec<Vec<(u64, u64, u64)>> = engines
        .iter()
        .map(|e| {
            let mut v = e
                .execs
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .clone();
            v.retain(|x| x.1 >= window_start);
            v.sort_by_key(|x| x.1);
            v
        })
        .collect();
    drop(engines);
    drop(fleet);
    let store = Arc::try_unwrap(store).map_err(|_| "span store still shared after shutdown")?;
    let summary = TraceSummary::new(store.finish(trace_path).map_err(|e| e.to_string())?);
    let in_window = |name: &str| -> Vec<f64> {
        summary
            .spans()
            .iter()
            .filter(|s| s.name == name && s.start_ns >= window_start)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    };

    // Per-request wait / exec / return split.
    let exec_of: HashMap<u64, (usize, u64, u64)> = node_execs
        .iter()
        .enumerate()
        .flat_map(|(n, v)| v.iter().map(move |&(id, s, e)| (id, (n, s, e))))
        .collect();
    let forward_of: HashMap<u64, (u64, u64)> = fleet_forwards
        .iter()
        .filter(|f| f.1 >= window_start)
        .map(|&(id, s, e)| (id, (s, e)))
        .collect();
    let (mut wait, mut exec, mut ret, mut hop) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut covered, mut total) = (0.0, 0.0);
    let (mut first_sent, mut last_sent) = (u64::MAX, 0u64);
    let mut window_requests = Vec::new();
    let mut window_responses = Vec::new();
    for &i in &window {
        let Some(x) = exchanges.get(&i) else { continue };
        window_requests.push(Request {
            id: i as u64 + 1,
            body: schedule.requests[i].body.clone(),
        });
        let (sent, done) = clock[&i];
        first_sent = first_sent.min(sent);
        last_sent = last_sent.max(sent);
        let (Some((_, response)), Some(done), Some(&(node, e0, e1))) =
            (&x.done, done, exec_of.get(&(i as u64)))
        else {
            continue;
        };
        window_responses.push(response.clone());
        wait.push(e0.saturating_sub(sent) as f64 / 1e6);
        exec.push((e1 - e0) as f64 / 1e6);
        ret.push(done.saturating_sub(e1) as f64 / 1e6);
        total += done.saturating_sub(sent) as f64;
        let mut inside = (e1 - e0) as f64;
        if let Some(&(t1, t2)) = forward_of.get(&(i as u64)) {
            inside = inside.max((t2 - t1) as f64);
            // Backend queue wait: the part of the hop during which the
            // node's single worker was still busy with an earlier job.
            let before = node_execs[node]
                .iter()
                .take_while(|x| x.1 < e0)
                .last()
                .map_or(0, |x| x.2);
            let queued = before.saturating_sub(t1).min(e0.saturating_sub(t1));
            hop.push(((t2 - t1).saturating_sub(e1 - e0).saturating_sub(queued)) as f64 / 1e6);
        }
        covered += inside;
    }
    let offered = if last_sent > first_sent {
        window.len() as f64 / ((last_sent - first_sent) as f64 / 1e9)
    } else {
        0.0
    };

    result.metric("server.wait_p50_ms", quantile(&wait, 0.5), "ms");
    result.metric("server.wait_p99_ms", quantile(&wait, 0.99), "ms");
    result.metric("server.exec_p50_ms", quantile(&exec, 0.5), "ms");
    result.metric("server.exec_p99_ms", quantile(&exec, 0.99), "ms");
    result.metric("server.return_p50_ms", quantile(&ret, 0.5), "ms");
    result.metric(
        "server.rejected",
        stat_sum(&stats, "service", "rejected_overloaded"),
        "count",
    );
    result.metric(
        "server.expired",
        stat_sum(&stats, "service", "expired_deadlines"),
        "count",
    );
    result.metric(
        "server.backpressure_stalls",
        stat_sum(&stats, "service", "backpressure_stalls"),
        "count",
    );
    result.metric("client.retries", client.retries as f64, "count");
    result.metric("client.connects", client.connects as f64, "count");
    let renders = in_window("protocol.render");
    result.metric(
        "protocol.render_us",
        1e3 * renders.iter().sum::<f64>() / renders.len().max(1) as f64,
        "us",
    );
    let judges = in_window("detect.judge");
    result.metric(
        "detect.judge_ms",
        judges.iter().sum::<f64>() / judges.len().max(1) as f64,
        "ms",
    );
    let lookups =
        (cache_after.hits + cache_after.misses) - (cache_before.hits + cache_before.misses);
    result.metric(
        "cache.hit_ratio",
        (cache_after.hits - cache_before.hits) as f64 / lookups.max(1) as f64,
        "ratio",
    );
    result.metric(
        "cache.insertions",
        (cache_after.insertions - cache_before.insertions) as f64,
        "count",
    );
    result.metric(
        "cache.evictions",
        (cache_after.evictions - cache_before.evictions) as f64,
        "count",
    );
    result.metric(
        "cache.resident_mb",
        cache_after.bytes as f64 / (1u64 << 20) as f64,
        "MiB",
    );
    if let (Some((r0, f0, n0)), Some((r1, f1, n1))) = (fleet_before, fleet_after) {
        result.metric("router.hop_ms", median(&hop), "ms");
        result.metric("router.routed", (r1 - r0) as f64, "count");
        result.metric("router.failovers", (f1 - f0) as f64, "count");
        let per: Vec<u64> = n1.iter().zip(&n0).map(|(a, b)| a - b).collect();
        let sum: u64 = per.iter().sum();
        let top = per.iter().copied().max().unwrap_or(0);
        result.metric(
            "router.imbalance",
            top as f64 / sum.max(1) as f64 * per.len() as f64,
            "ratio",
        );
    }
    result.metric("gen.offered_rps", offered, "req/s");
    result.metric(
        "gen.late_p99_ms",
        quantile(&traced_stats.late_ms, 0.99),
        "ms",
    );
    result.metric("trace.coverage", covered / total.max(1.0), "ratio");
    let p50_untraced = quantile(&base.latencies_ms, 0.5);
    let p50_traced = quantile(&traced_stats.latencies_ms, 0.5);
    result.metric(
        "trace.overhead_frac",
        p50_traced / p50_untraced.max(1e-9) - 1.0,
        "ratio",
    );
    codec_metrics(&window_requests, &window_responses, &mut result);
    eprintln!(
        "{} traced: nominal p50 {p50_traced:.3} ms traced vs {p50_untraced:.3} ms untraced (in-process)",
        spec.name
    );
    Ok(result)
}

fn routed_per_node(fleet: &Fleet) -> Vec<u64> {
    fleet
        .stats_json()
        .get("per_backend")
        .and_then(Json::as_array)
        .map(|nodes| {
            nodes
                .iter()
                .filter_map(|n| n.get("routed")?.as_u64())
                .collect()
        })
        .unwrap_or_default()
}
