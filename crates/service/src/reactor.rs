//! The epoll connection backend: one reactor thread multiplexing every
//! client socket (TCP and Unix-domain) through [`am_reactor::Poller`].
//!
//! Where the thread backend spends two OS threads per connection (a
//! reader and a writer), the reactor runs per-connection **state
//! machines**: each
//! `Conn` owns a read buffer that reassembles partial frames, a write
//! buffer with an explicit send offset, and a pending-job count. All
//! protocol logic is shared with the thread backend through
//! [`process_frame`](crate::server), so the two backends serve
//! byte-identical responses — the wire-equivalence suite holds across
//! both.
//!
//! Mechanics worth naming:
//!
//! * **Edge-triggered** readiness: every readable/writable event drains
//!   its direction until `WouldBlock`, as the poller's contract requires.
//! * **Write backpressure**: a `WouldBlock` mid-flush parks the unsent
//!   tail, bumps the `backpressure_stalls` counter and switches the
//!   interest to `ReadWrite`; the next writable edge resumes, and a
//!   fully drained buffer switches back to `Read`.
//! * **Worker hand-off**: queued jobs reply through the `Hub` — a
//!   mutex-guarded completion list plus a socketpair waker, so a worker
//!   finishing mid-`epoll_wait` wakes the reactor without blocking
//!   itself. Shutdown drains inside the reactor thread; worker replies
//!   pile into the hub meanwhile and are flushed before the thread
//!   exits.
//! * **Idle / slow-loris timeouts**: progress means *completing* a frame
//!   or moving response bytes, not merely dribbling single bytes — a
//!   peer that parks a half-frame, or never reads its responses, is cut
//!   after [`ServerConfig::idle_timeout`](crate::ServerConfig), unless
//!   its jobs are still in flight.
//!
//! Off Linux the module is a stub whose `spawn` reports `Unsupported`;
//! [`ConnBackend::Threads`](crate::ConnBackend) remains available there.

#[cfg(target_os = "linux")]
mod imp {
    use std::collections::HashMap;
    use std::io::{self, Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;
    use std::os::unix::net::{UnixListener, UnixStream};
    use std::path::PathBuf;
    use std::sync::atomic::Ordering;
    use std::sync::{Arc, Mutex};
    use std::thread::{self, JoinHandle};
    use std::time::{Duration, Instant};

    use am_reactor::{Event, Interest, Poller};

    use crate::protocol::MAX_FRAME;
    use crate::server::{
        chaos_drops_accept, lock, process_frame, ConnProto, FrameOutcome, ReplySink, Shared,
        STOPPED,
    };

    /// Token of the TCP listener.
    const TOK_TCP: u64 = 0;
    /// Token of the Unix-domain listener (when configured).
    const TOK_UNIX: u64 = 1;
    /// Token of the hub waker's read end.
    const TOK_WAKER: u64 = 2;
    /// First connection token; monotonically increasing, never reused.
    const FIRST_CONN: u64 = 3;

    /// Poll tick: idle-scan granularity and the completion-latency bound
    /// should a waker byte ever be coalesced away.
    const TICK: Duration = Duration::from_millis(25);

    /// Per-`read(2)` window.
    const READ_CHUNK: usize = 16 * 1024;

    /// Per-connection write timeout of the final post-shutdown flush.
    const FLUSH_GRACE: Duration = Duration::from_secs(1);

    /// How long the reactor keeps serving **existing** connections after
    /// the daemon stopped (listeners closed, admission refused with
    /// typed `shutting_down` errors) so peers can read their final
    /// responses — matching the thread backend, whose connection threads
    /// outlive the drain. Exits early once every peer hangs up.
    const LINGER: Duration = Duration::from_secs(1);

    /// Worker-to-reactor completion channel: finished jobs' encoded
    /// response payloads, keyed by connection token, plus a socketpair
    /// waker that interrupts `epoll_wait`. `push` never blocks.
    pub(crate) struct Hub {
        completions: Mutex<Vec<(u64, Vec<u8>)>>,
        waker: UnixStream,
    }

    impl Hub {
        /// Deposits one encoded response payload for `conn` and wakes
        /// the reactor.
        pub(crate) fn push(&self, conn: u64, payload: Vec<u8>) {
            lock(&self.completions).push((conn, payload));
            // One byte is enough; WouldBlock means wake bytes are
            // already pending, which wakes the reactor just the same.
            let mut waker: &UnixStream = &self.waker;
            let _ = waker.write(&[1]);
        }

        fn take(&self) -> Vec<(u64, Vec<u8>)> {
            std::mem::take(&mut *lock(&self.completions))
        }
    }

    /// A connected client socket, either transport behind one interface.
    enum Stream {
        Tcp(TcpStream),
        Unix(UnixStream),
    }

    impl Stream {
        fn fd(&self) -> i32 {
            match self {
                Stream::Tcp(s) => s.as_raw_fd(),
                Stream::Unix(s) => s.as_raw_fd(),
            }
        }

        /// Switches to blocking writes with a bounded timeout — only for
        /// the final post-shutdown flush, after the fd left the poller.
        fn make_blocking(&self, timeout: Duration) {
            match self {
                Stream::Tcp(s) => {
                    let _ = s.set_nonblocking(false);
                    let _ = s.set_write_timeout(Some(timeout));
                }
                Stream::Unix(s) => {
                    let _ = s.set_nonblocking(false);
                    let _ = s.set_write_timeout(Some(timeout));
                }
            }
        }
    }

    impl Read for Stream {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            match self {
                Stream::Tcp(s) => s.read(buf),
                Stream::Unix(s) => s.read(buf),
            }
        }
    }

    impl Write for Stream {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            match self {
                Stream::Tcp(s) => s.write(buf),
                Stream::Unix(s) => s.write(buf),
            }
        }

        fn flush(&mut self) -> io::Result<()> {
            match self {
                Stream::Tcp(s) => s.flush(),
                Stream::Unix(s) => s.flush(),
            }
        }
    }

    /// One connection's state machine.
    struct Conn {
        stream: Stream,
        proto: ConnProto,
        local_peer: bool,
        /// Partial-frame reassembly buffer (unparsed inbound bytes).
        inbuf: Vec<u8>,
        /// Framed outbound bytes; `sent` of them are already written.
        outbuf: Vec<u8>,
        sent: usize,
        /// Whether the poller interest currently includes `Write`.
        want_write: bool,
        /// Peer sent EOF; the connection lives on until every pending
        /// job replied and the write buffer drained.
        read_closed: bool,
        /// Jobs admitted for this connection whose replies are still in
        /// flight — exempts the connection from the idle kill.
        pending: u64,
        /// Last time a frame completed or response bytes moved. *Not*
        /// advanced by raw inbound bytes, so a slow-loris dribble cannot
        /// keep a connection alive.
        last_progress: Instant,
    }

    /// What a pump pass decided about the connection's fate.
    enum Pump {
        Open,
        Close,
    }

    /// Boots the reactor: binds the optional Unix listener, builds the
    /// poller and hub, registers the fixed tokens, then spawns the event
    /// loop thread. Bind/registration errors surface to `Server::start`.
    pub(crate) fn spawn(
        shared: Arc<Shared>,
        listener: TcpListener,
        unix_socket: Option<PathBuf>,
    ) -> io::Result<JoinHandle<()>> {
        let unix = match &unix_socket {
            Some(path) => {
                // A stale socket file from a previous run would fail the
                // bind.
                let _ = std::fs::remove_file(path);
                let unix = UnixListener::bind(path)?;
                unix.set_nonblocking(true)?;
                Some(unix)
            }
            None => None,
        };
        let mut poller = Poller::new(1024)?;
        let (waker_rx, waker_tx) = UnixStream::pair()?;
        waker_rx.set_nonblocking(true)?;
        waker_tx.set_nonblocking(true)?;
        let hub = Arc::new(Hub { completions: Mutex::new(Vec::new()), waker: waker_tx });
        poller.register(listener.as_raw_fd(), TOK_TCP, Interest::Read)?;
        if let Some(unix) = &unix {
            poller.register(unix.as_raw_fd(), TOK_UNIX, Interest::Read)?;
        }
        poller.register(waker_rx.as_raw_fd(), TOK_WAKER, Interest::Read)?;
        // Prove epoll works before committing to the backend: an empty
        // wait on a fresh instance must time out cleanly.
        poller.wait(Some(Duration::ZERO))?;
        Ok(thread::spawn(move || {
            event_loop(&shared, poller, &listener, unix.as_ref(), &hub, &waker_rx);
            drop(listener);
            drop(unix);
            if let Some(path) = &unix_socket {
                let _ = std::fs::remove_file(path);
            }
        }))
    }

    /// The reactor proper: waits, dispatches, delivers completions,
    /// scans for idle/finished connections — until the daemon stops,
    /// then flushes surviving write buffers with a bounded grace.
    fn event_loop(
        shared: &Arc<Shared>,
        mut poller: Poller,
        tcp: &TcpListener,
        unix: Option<&UnixListener>,
        hub: &Arc<Hub>,
        waker_rx: &UnixStream,
    ) {
        let mut conns: HashMap<u64, Conn> = HashMap::new();
        let mut next_token = FIRST_CONN;
        let mut linger_deadline: Option<Instant> = None;
        loop {
            if shared.phase() == STOPPED {
                // First pass after the stop: close the doors but keep
                // serving whoever is already inside, briefly.
                let deadline = *linger_deadline.get_or_insert_with(|| {
                    let _ = poller.deregister(tcp.as_raw_fd());
                    if let Some(unix) = unix {
                        let _ = poller.deregister(unix.as_raw_fd());
                    }
                    Instant::now() + LINGER
                });
                if conns.is_empty() || Instant::now() >= deadline {
                    break;
                }
            }
            let events: Vec<Event> = match poller.wait(Some(TICK)) {
                Ok(events) => events.to_vec(),
                Err(_) => {
                    // epoll_wait failing (beyond EINTR, retried inside)
                    // means something is deeply wrong with the fd set;
                    // back off instead of spinning.
                    thread::sleep(Duration::from_millis(5));
                    continue;
                }
            };
            let mut dead: Vec<u64> = Vec::new();
            for event in events {
                match event.token {
                    TOK_TCP => accept_tcp(shared, &poller, tcp, &mut conns, &mut next_token),
                    TOK_UNIX => {
                        if let Some(unix) = unix {
                            accept_unix(shared, &poller, unix, &mut conns, &mut next_token);
                        }
                    }
                    TOK_WAKER => drain_waker(waker_rx),
                    token => {
                        let Some(conn) = conns.get_mut(&token) else { continue };
                        let mut pump = Pump::Open;
                        if event.readable || event.closed {
                            pump = pump_read(shared, hub, token, conn);
                        }
                        if let Pump::Open = pump {
                            // Covers both fresh replies queued by the
                            // read pass and writable edges resuming a
                            // backpressured buffer.
                            pump = flush(shared, &poller, token, conn);
                        }
                        if matches!(pump, Pump::Close) {
                            dead.push(token);
                        }
                    }
                }
            }
            for (token, payload) in hub.take() {
                let Some(conn) = conns.get_mut(&token) else { continue };
                conn.pending = conn.pending.saturating_sub(1);
                conn.last_progress = Instant::now();
                queue_frame(conn, &payload);
                if matches!(flush(shared, &poller, token, conn), Pump::Close) {
                    dead.push(token);
                }
            }
            let now = Instant::now();
            for (token, conn) in &conns {
                let drained = conn.sent >= conn.outbuf.len();
                let finished = conn.read_closed && conn.pending == 0 && drained;
                let idle = conn.pending == 0
                    && now.duration_since(conn.last_progress) > shared.idle_timeout;
                if finished || idle {
                    dead.push(*token);
                }
            }
            for token in dead {
                if let Some(conn) = conns.remove(&token) {
                    let _ = poller.deregister(conn.stream.fd());
                }
            }
        }
        // Stopped: every job has completed (the drain guarantees it), so
        // the hub holds the last replies. Deliver them, then flush each
        // connection's tail with a blocking bounded write.
        for (token, payload) in hub.take() {
            if let Some(conn) = conns.get_mut(&token) {
                queue_frame(conn, &payload);
            }
        }
        for (_token, mut conn) in conns {
            if conn.sent < conn.outbuf.len() {
                conn.stream.make_blocking(FLUSH_GRACE);
                let tail = conn.outbuf.split_off(conn.sent);
                let _ = conn.stream.write_all(&tail);
                let _ = conn.stream.flush();
            }
        }
    }

    /// Accepts from the TCP listener until `WouldBlock`.
    fn accept_tcp(
        shared: &Arc<Shared>,
        poller: &Poller,
        listener: &TcpListener,
        conns: &mut HashMap<u64, Conn>,
        next_token: &mut u64,
    ) {
        while let Ok((stream, peer)) = listener.accept() {
            if chaos_drops_accept(shared) {
                drop(stream);
                continue;
            }
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let _ = stream.set_nodelay(true);
            let local_peer = peer.ip().is_loopback();
            install(shared, poller, conns, next_token, Stream::Tcp(stream), local_peer);
        }
    }

    /// Accepts from the Unix-domain listener until `WouldBlock`.
    fn accept_unix(
        shared: &Arc<Shared>,
        poller: &Poller,
        listener: &UnixListener,
        conns: &mut HashMap<u64, Conn>,
        next_token: &mut u64,
    ) {
        while let Ok((stream, _peer)) = listener.accept() {
            if chaos_drops_accept(shared) {
                drop(stream);
                continue;
            }
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            // A Unix-socket peer is local by construction.
            install(shared, poller, conns, next_token, Stream::Unix(stream), true);
        }
    }

    /// Registers a freshly accepted stream under a new token. EPOLLET
    /// reports readiness present at add time, so bytes that raced the
    /// registration still produce an edge.
    fn install(
        shared: &Arc<Shared>,
        poller: &Poller,
        conns: &mut HashMap<u64, Conn>,
        next_token: &mut u64,
        stream: Stream,
        local_peer: bool,
    ) {
        let token = *next_token;
        *next_token += 1;
        if poller.register(stream.fd(), token, Interest::Read).is_err() {
            return;
        }
        shared.connections.fetch_add(1, Ordering::SeqCst);
        conns.insert(
            token,
            Conn {
                stream,
                proto: ConnProto::new(),
                local_peer,
                inbuf: Vec::new(),
                outbuf: Vec::new(),
                sent: 0,
                want_write: false,
                read_closed: false,
                pending: 0,
                last_progress: Instant::now(),
            },
        );
    }

    /// Swallows pending waker bytes (their job was interrupting the
    /// wait; the hub itself is drained unconditionally every tick).
    fn drain_waker(waker_rx: &UnixStream) {
        let mut sink = [0u8; 256];
        let mut waker: &UnixStream = waker_rx;
        while matches!(waker.read(&mut sink), Ok(n) if n > 0) {}
    }

    /// Drains the socket until `WouldBlock`/EOF, then parses and
    /// dispatches every complete frame. Chaos faults mirror the thread
    /// backend's `ChaosReader`: an occasional ~1 ms stall and 1-byte
    /// read window per read decision.
    fn pump_read(shared: &Arc<Shared>, hub: &Arc<Hub>, token: u64, conn: &mut Conn) -> Pump {
        let mut chunk = [0u8; READ_CHUNK];
        loop {
            let (stall, chop) = shared.chaos_read_fault();
            if stall {
                thread::sleep(Duration::from_millis(1));
            }
            let window = if chop { 1 } else { READ_CHUNK };
            match conn.stream.read(&mut chunk[..window]) {
                Ok(0) => {
                    conn.read_closed = true;
                    break;
                }
                Ok(n) => conn.inbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return Pump::Close,
            }
        }
        dispatch_frames(shared, hub, token, conn)
    }

    /// Parses every complete frame out of the reassembly buffer and runs
    /// it through the shared protocol path. An oversized length prefix
    /// closes the connection before any allocation, same bound as the
    /// blocking `read_frame`.
    fn dispatch_frames(shared: &Arc<Shared>, hub: &Arc<Hub>, token: u64, conn: &mut Conn) -> Pump {
        // Detach the buffer so frames can borrow it while dispatch
        // mutates the rest of the connection.
        let buf = std::mem::take(&mut conn.inbuf);
        let mut consumed = 0;
        let mut kill = false;
        while buf.len() - consumed >= 4 {
            let mut head = [0u8; 4];
            head.copy_from_slice(&buf[consumed..consumed + 4]);
            let len = u32::from_be_bytes(head) as usize;
            if len > MAX_FRAME {
                kill = true;
                break;
            }
            if buf.len() - consumed < 4 + len {
                break;
            }
            let frame = &buf[consumed + 4..consumed + 4 + len];
            consumed += 4 + len;
            let sink = |codec| ReplySink::Reactor { conn: token, hub: Arc::clone(hub), codec };
            match process_frame(shared, &mut conn.proto, frame, conn.local_peer, &sink) {
                FrameOutcome::Reply(payload) => queue_frame(conn, &payload),
                FrameOutcome::Queued => conn.pending += 1,
            }
        }
        if consumed > 0 {
            // Progress = at least one frame *completed*; raw dribbled
            // bytes intentionally do not reset the idle clock.
            conn.last_progress = Instant::now();
        }
        conn.inbuf = buf;
        conn.inbuf.drain(..consumed);
        if kill {
            Pump::Close
        } else {
            Pump::Open
        }
    }

    /// Appends one length-prefixed frame to the write buffer.
    fn queue_frame(conn: &mut Conn, payload: &[u8]) {
        conn.outbuf.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        conn.outbuf.extend_from_slice(payload);
    }

    /// Writes buffered bytes until drained or `WouldBlock`. Backpressure
    /// widens the interest to `ReadWrite` (and counts the stall); a
    /// drained buffer narrows it back to `Read`.
    fn flush(shared: &Arc<Shared>, poller: &Poller, token: u64, conn: &mut Conn) -> Pump {
        while conn.sent < conn.outbuf.len() {
            match conn.stream.write(&conn.outbuf[conn.sent..]) {
                Ok(0) => return Pump::Close,
                Ok(n) => {
                    conn.sent += n;
                    conn.last_progress = Instant::now();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    shared.backpressure_stalls.fetch_add(1, Ordering::SeqCst);
                    if !conn.want_write {
                        conn.want_write = true;
                        if poller.modify(conn.stream.fd(), token, Interest::ReadWrite).is_err() {
                            return Pump::Close;
                        }
                    }
                    return Pump::Open;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return Pump::Close,
            }
        }
        conn.outbuf.clear();
        conn.sent = 0;
        if conn.want_write {
            conn.want_write = false;
            if poller.modify(conn.stream.fd(), token, Interest::Read).is_err() {
                return Pump::Close;
            }
        }
        Pump::Open
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    use std::io;
    use std::net::TcpListener;
    use std::path::PathBuf;
    use std::sync::Arc;
    use std::thread::JoinHandle;

    use crate::server::Shared;

    /// Stub hub: never constructed off Linux (spawn fails first), but
    /// keeps the worker reply plumbing compiling on every platform.
    pub(crate) struct Hub;

    impl Hub {
        pub(crate) fn push(&self, _conn: u64, _payload: Vec<u8>) {}
    }

    /// Off-Linux stub: selecting the reactor backend is a start error.
    pub(crate) fn spawn(
        _shared: Arc<Shared>,
        _listener: TcpListener,
        _unix_socket: Option<PathBuf>,
    ) -> io::Result<JoinHandle<()>> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "the reactor backend requires Linux epoll; use ConnBackend::Threads",
        ))
    }
}

pub(crate) use imp::{spawn, Hub};
