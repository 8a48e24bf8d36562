//! The routing fleet: rendezvous hashing, per-backend health, failover.
//!
//! # Why rendezvous (highest-random-weight) hashing
//!
//! The fleet's whole purpose is **cache affinity**: jobs sharing a
//! mesh→slice stage-key prefix must land on the same backend so they hit
//! that backend's warm [`obfuscade::StageCache`] instead of re-deriving
//! the prefix N times across the fleet. Rendezvous hashing gives every
//! (prefix, backend) pair an independent pseudo-random weight and routes
//! to the highest; when a backend dies, only the prefixes it owned move
//! (each to its second-highest backend), and every router instance
//! computes the identical order with no shared state, no token ring to
//! rebalance, and no virtual-node bookkeeping.
//!
//! # Failover keeps the determinism contract
//!
//! A failed backend never changes *bytes*, only *placement*: the job
//! re-runs on the next backend in descending-weight order, and the
//! pipeline's output is a pure function of the job spec. Failing over
//! is therefore always safe — at worst it costs a cold cache.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::thread;

use am_service::{
    DetectSpec, Endpoint, Forwarder, JobSpec, Request, RequestBody, Response, RetryPolicy,
    SanitizeSpec, ServiceError,
};
use obfuscade::json::Json;
use obfuscade::{StageHasher, StageKey};

use crate::conn::ConnPool;

/// Hash domain for rendezvous weights; versioned so a future re-keying
/// is an explicit, observable change.
const ROUTE_DOMAIN: &str = "obfuscade/route/v1";

/// How a job picks its backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RoutePolicy {
    /// Rendezvous-hash the job's stage-key prefix: equal prefixes land
    /// on the same backend and ride its warm cache (the default).
    #[default]
    Affinity,
    /// Rotate across backends regardless of the job — the cache-oblivious
    /// baseline affinity is tested against; shared prefixes smear across
    /// the fleet and the warm hit rate collapses toward 1/N.
    RoundRobin,
}

impl RoutePolicy {
    /// Stable lowercase name (CLI flag value, stats field).
    pub fn name(&self) -> &'static str {
        match self {
            RoutePolicy::Affinity => "affinity",
            RoutePolicy::RoundRobin => "round-robin",
        }
    }

    /// Parses a CLI flag value.
    ///
    /// # Errors
    ///
    /// The unknown name.
    pub fn from_name(name: &str) -> Result<RoutePolicy, String> {
        match name {
            "affinity" => Ok(RoutePolicy::Affinity),
            "round-robin" | "rr" => Ok(RoutePolicy::RoundRobin),
            other => Err(format!("unknown routing policy `{other}` (affinity|round-robin)")),
        }
    }
}

/// Stable display name of an endpoint — the rendezvous hash input and
/// the `endpoint` field of fleet stats. The *name string* is what
/// placement hangs on: keep it stable across router restarts.
pub fn endpoint_name(endpoint: &Endpoint) -> String {
    match endpoint {
        Endpoint::Tcp(addr) => format!("tcp:{addr}"),
        Endpoint::Unix(path) => format!("unix:{}", path.display()),
    }
}

/// One backend daemon: its connection pool plus health and routing
/// counters.
struct Backend {
    name: String,
    pool: ConnPool,
    /// Failures since the last success; reaching the fleet threshold
    /// ejects the backend.
    consecutive_failures: AtomicU32,
    ejected: AtomicBool,
    /// Routing decisions that skipped this backend while ejected — the
    /// probe cadence counter.
    skips: AtomicU64,
    routed: AtomicU64,
    failures: AtomicU64,
    ejections: AtomicU64,
    probes: AtomicU64,
}

impl Backend {
    fn mark_ok(&self) {
        self.consecutive_failures.store(0, Ordering::SeqCst);
        if self.ejected.swap(false, Ordering::SeqCst) {
            self.skips.store(0, Ordering::SeqCst);
        }
    }

    fn mark_failure(&self, threshold: u32) {
        self.failures.fetch_add(1, Ordering::SeqCst);
        let n = self.consecutive_failures.fetch_add(1, Ordering::SeqCst) + 1;
        if n >= threshold && !self.ejected.swap(true, Ordering::SeqCst) {
            self.ejections.fetch_add(1, Ordering::SeqCst);
        }
    }
}

/// The routing fleet: N backends, a policy, health state, and the
/// pipelined connection pools. Plugs into the front-end server as its
/// [`Forwarder`] engine.
pub struct Fleet {
    backends: Vec<Backend>,
    policy: RoutePolicy,
    fail_threshold: u32,
    probe_every: u64,
    retry: RetryPolicy,
    rr: AtomicU64,
    /// Upstream request ids, unique across every connection of every
    /// backend so pipelined responses can never be misattributed.
    next_upstream: AtomicU64,
    routed: AtomicU64,
    failovers: AtomicU64,
}

impl Fleet {
    /// Builds the fleet over `backends` with `conns_per_backend`-wide
    /// pipelined pools. `fail_threshold` consecutive failures eject a
    /// backend; every `probe_every`-th decision that would skip an
    /// ejected backend probes it instead (0 disables probing — an
    /// ejected backend then stays out until the router restarts).
    pub fn new(
        backends: Vec<Endpoint>,
        conns_per_backend: usize,
        policy: RoutePolicy,
        fail_threshold: u32,
        probe_every: u64,
        retry: RetryPolicy,
    ) -> Fleet {
        let backends = backends
            .into_iter()
            .map(|endpoint| Backend {
                name: endpoint_name(&endpoint),
                pool: ConnPool::new(endpoint, conns_per_backend),
                consecutive_failures: AtomicU32::new(0),
                ejected: AtomicBool::new(false),
                skips: AtomicU64::new(0),
                routed: AtomicU64::new(0),
                failures: AtomicU64::new(0),
                ejections: AtomicU64::new(0),
                probes: AtomicU64::new(0),
            })
            .collect();
        Fleet {
            backends,
            policy,
            fail_threshold: fail_threshold.max(1),
            probe_every,
            retry,
            rr: AtomicU64::new(0),
            next_upstream: AtomicU64::new(0),
            routed: AtomicU64::new(0),
            failovers: AtomicU64::new(0),
        }
    }

    /// Jobs routed (front-end requests dispatched) so far.
    pub fn routed(&self) -> u64 {
        self.routed.load(Ordering::SeqCst)
    }

    /// Jobs served by a backend other than their first-choice node.
    pub fn failovers(&self) -> u64 {
        self.failovers.load(Ordering::SeqCst)
    }

    /// The rendezvous weight of `key` on the backend named `name`.
    fn weight(key: StageKey, name: &str) -> u64 {
        let mut h = StageHasher::new(ROUTE_DOMAIN);
        let [a, b] = key.to_words();
        h.write_u64(a);
        h.write_u64(b);
        h.write_str(name);
        h.finish().to_words()[0]
    }

    /// Backend indices in routing order for `key`: descending rendezvous
    /// weight under [`RoutePolicy::Affinity`] (name-ordered tiebreak), a
    /// rotating start under [`RoutePolicy::RoundRobin`]. The first entry
    /// is the job's home; the rest are its failover sequence.
    fn order_for(&self, key: Option<StageKey>) -> Vec<usize> {
        let n = self.backends.len();
        match self.policy {
            RoutePolicy::Affinity => {
                // A spec too malformed to derive a prefix key still
                // deserves a deterministic (and typed-error) answer;
                // route it like the zero key.
                let key = key.unwrap_or_else(|| StageKey::from_words([0, 0]));
                let mut order: Vec<usize> = (0..n).collect();
                order.sort_by(|&a, &b| {
                    let (wa, wb) = (
                        Self::weight(key, &self.backends[a].name),
                        Self::weight(key, &self.backends[b].name),
                    );
                    wb.cmp(&wa).then_with(|| self.backends[a].name.cmp(&self.backends[b].name))
                });
                order
            }
            RoutePolicy::RoundRobin => {
                let start = (self.rr.fetch_add(1, Ordering::SeqCst) as usize) % n;
                (0..n).map(|i| (start + i) % n).collect()
            }
        }
    }

    /// Routes one queued request: walk the routing order, skipping
    /// ejected backends (except on their probe turns), retrying
    /// transient errors on the owning backend, failing the job over to
    /// the next backend on transport errors or a draining node. The
    /// response comes back carrying the **front** id `id`.
    fn dispatch(&self, id: u64, body: RequestBody, key: Option<StageKey>) -> Response {
        self.routed.fetch_add(1, Ordering::SeqCst);
        let order = self.order_for(key);
        let mut last = String::from("no backends configured");
        for (rank, &bi) in order.iter().enumerate() {
            let backend = &self.backends[bi];
            if backend.ejected.load(Ordering::SeqCst) {
                let skip = backend.skips.fetch_add(1, Ordering::SeqCst) + 1;
                if self.probe_every == 0 || !skip.is_multiple_of(self.probe_every) {
                    continue;
                }
                backend.probes.fetch_add(1, Ordering::SeqCst);
            }
            match self.try_backend(backend, &body) {
                Ok(response) => {
                    if rank > 0 {
                        self.failovers.fetch_add(1, Ordering::SeqCst);
                    }
                    backend.routed.fetch_add(1, Ordering::SeqCst);
                    backend.mark_ok();
                    return with_id(response, id);
                }
                Err(err) => {
                    last = format!("{}: {err}", backend.name);
                    backend.mark_failure(self.fail_threshold);
                }
            }
        }
        Response::Error {
            id,
            error: ServiceError::Internal,
            message: format!(
                "every backend failed this job (last: {last}); submission is idempotent, \
                 retry is safe"
            ),
        }
    }

    /// One backend's worth of attempts: transient backend errors
    /// (overloaded, a panicked worker) retry here under the fleet's
    /// backoff; a draining backend or exhausted attempts return `Err`,
    /// which the caller turns into a failover. A transport error retries
    /// too — the pooled connection may simply have gone stale — but a
    /// *connect* failure aborts immediately (the backend is down; make
    /// the failover fast).
    fn try_backend(&self, backend: &Backend, body: &RequestBody) -> Result<Response, String> {
        let attempts = self.retry.attempts.max(1);
        let mut last = String::new();
        for attempt in 0..attempts {
            if attempt > 0 {
                thread::sleep(self.retry.backoff(attempt - 1));
            }
            let conn = backend.pool.get().map_err(|e| {
                if last.is_empty() {
                    e.clone()
                } else {
                    format!("{e} (after: {last})")
                }
            })?;
            let id = self.next_upstream.fetch_add(1, Ordering::SeqCst) + 1;
            match conn.call(Request { id, body: body.clone() }, self.retry.timeout) {
                Ok(Response::Error { error, message, .. })
                    if matches!(error, ServiceError::Overloaded | ServiceError::Internal) =>
                {
                    last = format!("{}: {message}", error.name());
                }
                Ok(Response::Error { error: ServiceError::ShuttingDown, message, .. }) => {
                    return Err(format!("shutting_down: {message}"));
                }
                Ok(response) => return Ok(response),
                Err(err) => last = err,
            }
        }
        Err(format!("retries exhausted ({last})"))
    }

    /// The `fleet` section of the front-end's metrics snapshot: policy,
    /// fleet-wide routed/failover totals, and per-backend routing +
    /// health counters, in configuration order with a stable field
    /// order.
    pub fn stats_json(&self) -> Json {
        let per_backend = self
            .backends
            .iter()
            .map(|b| {
                Json::Object(vec![
                    ("endpoint".into(), Json::String(b.name.clone())),
                    ("routed".into(), Json::u64(b.routed.load(Ordering::SeqCst))),
                    ("failures".into(), Json::u64(b.failures.load(Ordering::SeqCst))),
                    ("ejections".into(), Json::u64(b.ejections.load(Ordering::SeqCst))),
                    ("probes".into(), Json::u64(b.probes.load(Ordering::SeqCst))),
                    ("ejected".into(), Json::Bool(b.ejected.load(Ordering::SeqCst))),
                ])
            })
            .collect();
        Json::Object(vec![
            ("policy".into(), Json::String(self.policy.name().to_string())),
            ("backends".into(), Json::u64(self.backends.len() as u64)),
            ("routed".into(), Json::u64(self.routed())),
            ("failovers".into(), Json::u64(self.failovers())),
            ("per_backend".into(), Json::Array(per_backend)),
        ])
    }
}

impl Forwarder for Fleet {
    fn run(&self, id: u64, specs: &[JobSpec], deadline_ms: Option<u64>) -> Response {
        // A batch routes by its first job's prefix — sweep drivers keep
        // shared-prefix jobs in the same request, so the first job's
        // prefix is the batch's prefix in the intended workload.
        let key = specs.first().and_then(|spec| spec.prefix_key().ok());
        self.dispatch(id, RequestBody::Run { jobs: specs.to_vec(), deadline_ms }, key)
    }

    fn authenticate(&self, id: u64, spec: &JobSpec, deadline_ms: Option<u64>) -> Response {
        let key = spec.prefix_key().ok();
        self.dispatch(id, RequestBody::Authenticate { job: spec.clone(), deadline_ms }, key)
    }

    fn detect(&self, id: u64, specs: &[DetectSpec], deadline_ms: Option<u64>) -> Response {
        // Detection jobs share their golden master's mesh→slice prefix
        // with plain runs of the same part, so affinity routing lands
        // them on the backend already holding that warm prefix.
        let key = specs.first().and_then(|spec| spec.job.prefix_key().ok());
        self.dispatch(id, RequestBody::Detect { jobs: specs.to_vec(), deadline_ms }, key)
    }

    fn sanitize(&self, id: u64, specs: &[SanitizeSpec], deadline_ms: Option<u64>) -> Response {
        let key = specs.first().and_then(|spec| spec.job.prefix_key().ok());
        self.dispatch(id, RequestBody::Sanitize { jobs: specs.to_vec(), deadline_ms }, key)
    }

    fn stats(&self) -> Option<Json> {
        Some(self.stats_json())
    }
}

/// Rewrites a response's correlation id — upstream responses carry the
/// router's internal ids; the waiting front-end client correlates on its
/// own.
fn with_id(response: Response, id: u64) -> Response {
    match response {
        Response::Pong { .. } => Response::Pong { id },
        Response::Stats { metrics, .. } => Response::Stats { id, metrics },
        Response::Bye { completed, .. } => Response::Bye { id, completed },
        Response::Results { results, .. } => Response::Results { id, results },
        Response::Verdict { verdict, cold_joint_mm2, void_mm3, .. } => {
            Response::Verdict { id, verdict, cold_joint_mm2, void_mm3 }
        }
        Response::Detections { reports, .. } => Response::Detections { id, reports },
        Response::Sanitized { reports, .. } => Response::Sanitized { id, reports },
        Response::Error { error, message, .. } => Response::Error { id, error, message },
    }
}

/// A fleet whose retry policy suits in-process tests: fast backoff, a
/// generous per-call timeout.
#[cfg(test)]
fn test_fleet(endpoints: Vec<Endpoint>, policy: RoutePolicy) -> Fleet {
    use std::time::Duration;
    let retry = RetryPolicy {
        attempts: 2,
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(2),
        ..RetryPolicy::default()
    };
    Fleet::new(endpoints, 1, policy, 2, 4, retry)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn named_fleet(names: &[&str], policy: RoutePolicy) -> Fleet {
        test_fleet(
            names.iter().map(|n| Endpoint::Tcp((*n).to_string())).collect(),
            policy,
        )
    }

    fn key(n: u64) -> StageKey {
        StageKey::from_words([n, n.wrapping_mul(0x9e37_79b9_7f4a_7c15)])
    }

    #[test]
    fn rendezvous_order_is_deterministic_and_key_dependent() {
        let fleet = named_fleet(&["a:1", "b:1", "c:1", "d:1"], RoutePolicy::Affinity);
        for n in 0..64 {
            assert_eq!(
                fleet.order_for(Some(key(n))),
                fleet.order_for(Some(key(n))),
                "same key must give the same order"
            );
        }
        // Different keys spread across homes: with 4 backends and 64
        // keys, every backend should own at least one.
        let mut owners = [0u32; 4];
        for n in 0..64 {
            owners[fleet.order_for(Some(key(n)))[0]] += 1;
        }
        assert!(
            owners.iter().all(|&c| c > 0),
            "rendezvous left a backend with no keys: {owners:?}"
        );
    }

    #[test]
    fn removing_a_backend_only_moves_its_own_keys() {
        // The minimal-disruption property that justifies rendezvous over
        // a modulo ring: drop backend `d` and every key NOT homed on `d`
        // keeps its home.
        let full = named_fleet(&["a:1", "b:1", "c:1", "d:1"], RoutePolicy::Affinity);
        let reduced = named_fleet(&["a:1", "b:1", "c:1"], RoutePolicy::Affinity);
        for n in 0..128 {
            let home = full.order_for(Some(key(n)))[0];
            if home == 3 {
                continue; // owned by the removed backend; allowed to move
            }
            let kept = reduced.order_for(Some(key(n)))[0];
            assert_eq!(
                full.backends[home].name, reduced.backends[kept].name,
                "key {n} moved although its home backend survived"
            );
        }
    }

    #[test]
    fn failover_order_is_the_weight_order_tail() {
        let fleet = named_fleet(&["a:1", "b:1", "c:1"], RoutePolicy::Affinity);
        let order = fleet.order_for(Some(key(7)));
        assert_eq!(order.len(), 3);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2], "order must be a permutation");
        // Weights actually descend.
        let weights: Vec<u64> = order
            .iter()
            .map(|&i| Fleet::weight(key(7), &fleet.backends[i].name))
            .collect();
        assert!(weights.windows(2).all(|w| w[0] >= w[1]), "{weights:?}");
    }

    #[test]
    fn round_robin_rotates_evenly() {
        let fleet = named_fleet(&["a:1", "b:1", "c:1"], RoutePolicy::RoundRobin);
        let mut counts = [0u32; 3];
        for _ in 0..30 {
            counts[fleet.order_for(None)[0]] += 1;
        }
        assert_eq!(counts, [10, 10, 10]);
    }

    #[test]
    fn ejection_needs_threshold_and_probing_readmits() {
        let fleet = named_fleet(&["a:1", "b:1"], RoutePolicy::Affinity);
        let b = &fleet.backends[0];
        b.mark_failure(2);
        assert!(!b.ejected.load(Ordering::SeqCst), "one failure must not eject");
        b.mark_failure(2);
        assert!(b.ejected.load(Ordering::SeqCst), "threshold reached");
        assert_eq!(b.ejections.load(Ordering::SeqCst), 1);
        b.mark_ok();
        assert!(!b.ejected.load(Ordering::SeqCst), "success re-admits");
        assert_eq!(b.consecutive_failures.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn with_id_rewrites_every_variant() {
        let cases = [
            Response::Pong { id: 9 },
            Response::Stats { id: 9, metrics: Json::Null },
            Response::Bye { id: 9, completed: 3 },
            Response::Results { id: 9, results: vec![] },
            Response::Verdict {
                id: 9,
                verdict: "genuine".into(),
                cold_joint_mm2: 0.0,
                void_mm3: 0.0,
            },
            Response::Detections { id: 9, reports: vec![Json::Null] },
            Response::Sanitized { id: 9, reports: vec![] },
            Response::Error { id: 9, error: ServiceError::Job, message: "x".into() },
        ];
        for case in cases {
            assert_eq!(with_id(case, 42).id(), 42);
        }
    }

    #[test]
    fn fleet_stats_json_has_stable_shape() {
        let fleet = named_fleet(&["a:1", "b:1"], RoutePolicy::Affinity);
        fleet.backends[1].routed.fetch_add(5, Ordering::SeqCst);
        let json = fleet.stats_json().render();
        assert!(json.contains("\"policy\":\"affinity\""), "{json}");
        assert!(json.contains("\"backends\":2"), "{json}");
        assert!(json.contains("\"endpoint\":\"tcp:b:1\",\"routed\":5"), "{json}");
        let policy_at = json.find("\"policy\"").expect("policy");
        let routed_at = json.find("\"routed\"").expect("routed");
        let per_at = json.find("\"per_backend\"").expect("per_backend");
        assert!(policy_at < routed_at && routed_at < per_at);
    }
}
