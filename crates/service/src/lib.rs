//! **am-service** — the ObfusCADe obfuscation daemon and its client.
//!
//! Turns the batch pipeline engine ([`obfuscade::run_pipeline_jobs`])
//! into a long-running network service: a daemon speaking a
//! length-prefixed frame protocol over TCP (and a Unix-domain socket on
//! Unix) — JSON payloads by default, with a version-negotiated binary
//! spelling of the same messages ([`Codec`]) clients opt into via a
//! magic first frame — with a bounded job queue in front of a fixed
//! worker pool, one process-wide shared [`obfuscade::StageCache`], typed
//! `overloaded` admission rejections, per-request deadlines
//! (budget-checked between pipeline stages, so nothing half-computed is
//! ever cached), and drain-then-stop graceful shutdown.
//!
//! Connections are served by a non-blocking epoll **reactor**
//! ([`reactor`]): one event-loop thread multiplexing every socket, with
//! per-connection reassembly buffers, write backpressure, and
//! idle/slow-loris timeouts, built on the vendored `am-reactor` syscall
//! shim so this crate stays `forbid(unsafe_code)`. The daemon (and the
//! router built on it) runs on Linux only; elsewhere [`Server::start`]
//! returns an `Unsupported` error, and the client still compiles.
//!
//! The determinism contract carries over the wire: a served batch
//! renders byte-identically to the same batch run in-process — under
//! either codec — which the `wire_equivalence` suite and the load
//! generator both enforce.
//!
//! # Example
//!
//! ```no_run
//! use am_service::{Client, Endpoint, JobSpec, Server, ServerConfig};
//!
//! let server = Server::start(ServerConfig::default())?;
//! let endpoint = Endpoint::Tcp(server.addr().to_string());
//! let mut client = Client::connect(&endpoint)?;
//! let response = client.run(vec![JobSpec::default()], Some(5_000));
//! client.shutdown()?;
//! server.join();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod codec;
pub mod protocol;
pub mod reactor;
pub mod server;

pub use client::{
    expected_detections_wire, expected_results_wire, expected_sanitize_wire, run_load_with,
    Client, Endpoint, LoadReport, RetryPolicy, RetryingClient, Stream,
};
pub use codec::{
    decode_hello, encode_hello, is_binary_hello, negotiate_binary, Codec, BINARY_MAGIC,
    BINARY_VERSION,
};
pub use protocol::{
    encode_detect_outcome, encode_outcome, encode_sanitize_outcome, read_frame, write_frame,
    DetectSpec, JobSpec, Request, RequestBody, Response, SanitizeSpec, ServiceError, MAX_FRAME,
};
pub use server::{ChaosPlan, Engine, Forwarder, Server, ServerConfig};
