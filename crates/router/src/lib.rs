//! **am-router** — the cache-affinity routing tier of the ObfusCADe
//! service.
//!
//! A [`Router`] is a standalone daemon that speaks the full am-service
//! wire protocol on its front socket — both codecs, the bounded queue,
//! typed admission errors, graceful drain —
//! and executes nothing locally. Every admitted `run`/`authenticate` is
//! handed to a [`Fleet`] of N backend obfuscation daemons, with the
//! backend chosen by **rendezvous hashing over the job's mesh→slice
//! stage-key prefix** ([`am_service::JobSpec::prefix_key`]): jobs that
//! share the expensive prefix land on the same backend and ride its warm
//! [`obfuscade::StageCache`], so a fleet of N daemons keeps the
//! single-node warm hit rate instead of collapsing toward 1/N under
//! naive round-robin spreading.
//!
//! The router-to-backend hop runs over small pools of persistent
//! connections that speak only the binary codec (a backend refusing the
//! hello counts as down; there is no JSON fallback) and **pipeline** many
//! in-flight requests per socket. Backends have per-node health: a run
//! of consecutive failures ejects a backend from routing, deterministic
//! periodic probes re-admit it once it answers again, and a job whose
//! home backend is down or draining **fails over** to the next backend
//! in its rendezvous order — byte-identical output either way, because
//! results are a pure function of the job spec (the determinism contract
//! the workspace enforces end to end).
//!
//! # Example
//!
//! ```no_run
//! use am_service::{Client, Endpoint, JobSpec, Server, ServerConfig};
//! use am_router::{Router, RouterConfig};
//!
//! // Two backend daemons…
//! let node1 = Server::start(ServerConfig::default())?;
//! let node2 = Server::start(ServerConfig::default())?;
//! // …behind one router.
//! let router = Router::start(RouterConfig {
//!     backends: vec![
//!         Endpoint::Tcp(node1.addr().to_string()),
//!         Endpoint::Tcp(node2.addr().to_string()),
//!     ],
//!     ..RouterConfig::default()
//! })?;
//! let mut client = Client::connect(&Endpoint::Tcp(router.addr().to_string()))?;
//! let response = client.run(vec![JobSpec::default()], Some(60_000));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod conn;
mod fleet;

use std::io;
use std::net::SocketAddr;
use std::sync::Arc;

use am_service::{Endpoint, Engine, RetryPolicy, Server, ServerConfig};
use obfuscade::metrics::MetricsSnapshot;

pub use fleet::{endpoint_name, Fleet, RoutePolicy};

/// Everything needed to boot a [`Router`].
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// The front-end server: socket addresses, worker count, queue
    /// width, shutdown policy — everything a plain daemon accepts.
    /// Its `engine` field is overwritten with the fleet; its `node`
    /// name defaults to `"router"` when left empty.
    pub front: ServerConfig,
    /// The backend daemons, in any order (placement depends only on the
    /// endpoint *names*, not their position).
    pub backends: Vec<Endpoint>,
    /// Persistent pipelined connections per backend. Bounds sockets,
    /// not concurrency — each connection carries many in-flight jobs.
    pub conns_per_backend: usize,
    /// How jobs pick their backend.
    pub policy: RoutePolicy,
    /// Consecutive failures that eject a backend from routing.
    pub fail_threshold: u32,
    /// Probe an ejected backend on every Nth decision that would skip
    /// it (0 = never probe).
    pub probe_every: u64,
    /// Per-backend retry policy: attempts and backoff for transient
    /// errors, and the per-call response timeout.
    pub retry: RetryPolicy,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            front: ServerConfig::default(),
            backends: Vec::new(),
            conns_per_backend: 2,
            policy: RoutePolicy::Affinity,
            fail_threshold: 3,
            probe_every: 8,
            retry: RetryPolicy::default(),
        }
    }
}

/// A running router daemon — an [`am_service::Server`] front end whose
/// execution engine is a routing [`Fleet`].
pub struct Router {
    server: Server,
    fleet: Arc<Fleet>,
}

impl Router {
    /// Boots the router: builds the fleet, plugs it into the front-end
    /// server as its forwarding engine, binds the front sockets.
    ///
    /// # Errors
    ///
    /// An empty backend list, or any front-end start failure (a bind
    /// error, or `Unsupported` off Linux, see [`Server::start`]). Backends
    /// are *not* contacted here — connections are established lazily on
    /// the first job, so the fleet may boot in any order.
    pub fn start(config: RouterConfig) -> io::Result<Router> {
        if config.backends.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "a router needs at least one backend endpoint",
            ));
        }
        let fleet = Arc::new(Fleet::new(
            config.backends,
            config.conns_per_backend,
            config.policy,
            config.fail_threshold,
            config.probe_every,
            config.retry,
        ));
        let mut front = config.front;
        if front.node.is_empty() {
            front.node = "router".to_string();
        }
        front.engine = Engine::Forward(Arc::clone(&fleet) as Arc<dyn am_service::Forwarder>);
        let server = Server::start(front)?;
        Ok(Router { server, fleet })
    }

    /// The bound front TCP address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// The routing fleet (live counters, stats).
    pub fn fleet(&self) -> &Fleet {
        &self.fleet
    }

    /// A metrics snapshot of the front end — its `fleet` section carries
    /// the per-backend routing and health counters.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.server.metrics()
    }

    /// Drains the front end: queued and in-flight jobs finish (their
    /// backend responses are delivered), then the listeners close.
    pub fn begin_shutdown(&self) {
        self.server.begin_shutdown();
    }

    /// Waits for every front-end thread to exit after a shutdown.
    pub fn join(self) {
        self.server.join();
    }
}
