//! Pipelined persistent connections to one backend daemon.
//!
//! The router multiplexes many concurrent front-end jobs onto a small
//! pool of long-lived backend connections. Each [`PipelinedConn`] allows
//! **multiple requests in flight at once**: callers serialize their
//! frame writes under a mutex, a dedicated reader thread decodes every
//! response frame and hands it to the caller waiting on that request id,
//! and ids are process-unique so two router workers sharing one
//! connection can never collide. The connection negotiates the binary
//! codec on open and speaks nothing else, so the router-to-backend hop
//! carries floats as raw bits instead of formatting and parsing them as
//! text; a backend that refuses the hello fails the open like one that
//! refuses the connection.
//!
//! Death is explicit and sticky: a transport error, an undecodable
//! frame, a response timeout, or EOF marks the connection dead, wakes
//! the reader (socket shutdown), and drops every pending sender so all
//! stalled callers fail fast instead of waiting out their timeouts. The
//! pool replaces dead connections lazily on next checkout.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::Duration;

use am_service::{
    negotiate_binary, read_frame, write_frame, Codec, Endpoint, Request, Response, Stream,
};

/// How long codec negotiation on a fresh connection may take before the
/// open fails (a backend that accepts but never answers its hello).
const NEGOTIATE_TIMEOUT: Duration = Duration::from_secs(10);

/// Locks a mutex, recovering from poison (all guarded state here stays
/// consistent across a panicking holder).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Requests in flight on one connection: id → the waiting caller's
/// sender. Dropping a sender fails that caller's `recv` immediately.
type Pending = Arc<Mutex<HashMap<u64, Sender<Response>>>>;

/// One persistent backend connection carrying multiple concurrent
/// requests (see the module docs for the full protocol).
pub(crate) struct PipelinedConn {
    writer: Mutex<Stream>,
    /// Kept outside the writer mutex so `kill` can close the socket even
    /// while another caller holds the writer for a stalled write.
    ctrl: Stream,
    pending: Pending,
    dead: Arc<AtomicBool>,
}

impl PipelinedConn {
    /// Connects, negotiates the binary codec, and spawns the reader
    /// thread.
    pub(crate) fn open(endpoint: &Endpoint) -> Result<PipelinedConn, String> {
        let mut stream = Stream::connect(endpoint).map_err(|e| format!("connect failed: {e}"))?;
        stream
            .set_read_timeout(Some(NEGOTIATE_TIMEOUT))
            .map_err(|e| format!("socket setup failed: {e}"))?;
        negotiate_binary(&mut stream)?;
        stream
            .set_read_timeout(None)
            .map_err(|e| format!("socket setup failed: {e}"))?;

        let reader_half = stream.try_clone().map_err(|e| format!("socket clone failed: {e}"))?;
        let ctrl = stream.try_clone().map_err(|e| format!("socket clone failed: {e}"))?;
        let pending: Pending = Arc::new(Mutex::new(HashMap::new()));
        let dead = Arc::new(AtomicBool::new(false));
        {
            let pending = Arc::clone(&pending);
            let dead = Arc::clone(&dead);
            thread::spawn(move || reader_loop(reader_half, pending, dead));
        }
        Ok(PipelinedConn { writer: Mutex::new(stream), ctrl, pending, dead })
    }

    pub(crate) fn is_dead(&self) -> bool {
        self.dead.load(Ordering::SeqCst)
    }

    /// Marks the connection dead and closes the socket; the reader
    /// thread then exits and drops every pending sender.
    fn kill(&self) {
        if !self.dead.swap(true, Ordering::SeqCst) {
            self.ctrl.shutdown();
        }
    }

    /// Sends one request and waits up to `timeout` for its response.
    /// Safe to call from many threads at once — responses are matched by
    /// id, so interleaved completions go to the right callers.
    ///
    /// # Errors
    ///
    /// Transport failures, a dead connection, or the timeout expiring —
    /// all of which also kill the connection (a response that can no
    /// longer be matched to a waiter must not be reassigned to a later
    /// request reusing the slot).
    pub(crate) fn call(&self, request: Request, timeout: Duration) -> Result<Response, String> {
        if self.is_dead() {
            return Err("connection is dead".to_string());
        }
        let id = request.id;
        let (tx, rx) = mpsc::channel();
        lock(&self.pending).insert(id, tx);
        let payload = Codec::Binary.encode_request(&request);
        let written = {
            let mut writer = lock(&self.writer);
            write_frame(&mut *writer, &payload)
        };
        if let Err(e) = written {
            lock(&self.pending).remove(&id);
            self.kill();
            return Err(format!("send failed: {e}"));
        }
        match rx.recv_timeout(timeout) {
            Ok(response) => Ok(response),
            Err(RecvTimeoutError::Timeout) => {
                lock(&self.pending).remove(&id);
                self.kill();
                Err(format!("no response within {timeout:?}"))
            }
            Err(RecvTimeoutError::Disconnected) => {
                Err("the backend closed the connection".to_string())
            }
        }
    }
}

impl Drop for PipelinedConn {
    fn drop(&mut self) {
        self.kill();
    }
}

/// Reader thread: decode response frames, route each to its waiter. Any
/// failure (EOF, transport error, undecodable frame) ends the
/// connection; clearing the pending map drops every sender, failing all
/// stalled callers immediately.
fn reader_loop(mut stream: Stream, pending: Pending, dead: Arc<AtomicBool>) {
    while let Ok(Some(frame)) = read_frame(&mut stream) {
        let response = match Codec::Binary.decode_response(&frame) {
            Ok(response) => response,
            Err(_) => break,
        };
        if let Some(tx) = lock(&pending).remove(&response.id()) {
            let _ = tx.send(response);
        }
    }
    dead.store(true, Ordering::SeqCst);
    lock(&pending).clear();
}

/// A fixed-width pool of [`PipelinedConn`]s to one backend. Checkouts
/// rotate across slots; a dead slot is reconnected lazily. Because each
/// connection pipelines, pool width bounds socket count, not request
/// concurrency.
pub(crate) struct ConnPool {
    endpoint: Endpoint,
    slots: Vec<Mutex<Option<Arc<PipelinedConn>>>>,
    next: AtomicUsize,
}

impl ConnPool {
    pub(crate) fn new(endpoint: Endpoint, width: usize) -> ConnPool {
        let slots = (0..width.max(1)).map(|_| Mutex::new(None)).collect();
        ConnPool { endpoint, slots, next: AtomicUsize::new(0) }
    }

    /// Checks out a live connection from the next slot, reconnecting a
    /// missing or dead one.
    ///
    /// # Errors
    ///
    /// Connection or negotiation failure — the caller treats this as the
    /// backend being down and fails over.
    pub(crate) fn get(&self) -> Result<Arc<PipelinedConn>, String> {
        let i = self.next.fetch_add(1, Ordering::Relaxed) % self.slots.len();
        let mut slot = lock(&self.slots[i]);
        if let Some(conn) = slot.as_ref() {
            if !conn.is_dead() {
                return Ok(Arc::clone(conn));
            }
        }
        let fresh = Arc::new(PipelinedConn::open(&self.endpoint)?);
        *slot = Some(Arc::clone(&fresh));
        Ok(fresh)
    }
}
