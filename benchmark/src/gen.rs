//! The open-loop load generator: one process holding one JSON and one
//! binary connection. Each connection has a writer thread that sends
//! every request at its due time whether or not earlier ones were
//! answered (requests pipeline on the connection), and a reader thread
//! that decodes responses as they arrive and matches them by id.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use am_service::{
    decode_hello, encode_hello, is_binary_hello, read_frame, Codec, Request, Response,
    BINARY_VERSION,
};

use crate::schedule::Schedule;

/// Connections the generator has opened in this process.
static CONNECTS: AtomicU64 = AtomicU64::new(0);

/// How many connections [`GenConn::connect`] has opened so far. The
/// generator never reconnects or re-sends: a request lost with its
/// connection counts as failed.
pub fn connects() -> u64 {
    CONNECTS.load(Ordering::Relaxed)
}

/// One generator connection, split into its write and read halves.
pub struct GenConn {
    codec: Codec,
    writer: TcpStream,
    reader: TcpStream,
}

impl GenConn {
    /// Connects to `addr` and, for [`Codec::Binary`], negotiates the
    /// binary codec before returning.
    ///
    /// # Errors
    ///
    /// Connection failures or a refused negotiation.
    pub fn connect(addr: &str, codec: Codec) -> io::Result<GenConn> {
        let mut writer = TcpStream::connect(addr)?;
        CONNECTS.fetch_add(1, Ordering::Relaxed);
        writer.set_nodelay(true)?;
        let mut reader = writer.try_clone()?;
        if codec == Codec::Binary {
            writer.write_all(&framed(&encode_hello(BINARY_VERSION)))?;
            let reply = read_frame(&mut reader)?.unwrap_or_default();
            if !is_binary_hello(&reply) || decode_hello(&reply).ok() != Some(BINARY_VERSION) {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "binary codec refused",
                ));
            }
        }
        Ok(GenConn {
            codec,
            writer,
            reader,
        })
    }
}

/// A length-prefixed frame, ready for one `write_all`.
pub fn framed(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 4);
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(payload);
    out
}

/// Every request of a schedule encoded for its connection, id = index + 1.
pub fn encode_frames(schedule: &Schedule, conns: &[GenConn]) -> Vec<Vec<u8>> {
    schedule
        .requests
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let request = Request {
                id: i as u64 + 1,
                body: p.body.clone(),
            };
            framed(&conns[p.conn].codec.encode_request(&request))
        })
        .collect()
}

/// What happened to one request.
#[derive(Debug, Clone)]
pub struct Exchange {
    /// When it was due.
    pub due: Instant,
    /// When its frame was written.
    pub sent: Instant,
    /// When its response was decoded, and the response; `None` if it
    /// never came back.
    pub done: Option<(Instant, Response)>,
}

/// Runs one rung of `schedule` starting at `start`: sends each of the
/// rung's requests at `start + due`, waits for their responses (giving
/// up on a connection after `idle` without a response), and returns
/// `(request index, exchange)` for every request of the rung.
pub fn run_rung(
    conns: &mut [GenConn],
    schedule: &Schedule,
    frames: &[Vec<u8>],
    rung: usize,
    start: Instant,
    idle: Duration,
) -> Vec<(usize, Exchange)> {
    let indices = schedule.rung_requests(rung);
    let mut out = Vec::with_capacity(indices.len());
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (c, conn) in conns.iter_mut().enumerate() {
            let mine: Vec<usize> = indices
                .iter()
                .copied()
                .filter(|&i| schedule.requests[i].conn == c)
                .collect();
            let codec = conn.codec;
            let _ = conn.reader.set_read_timeout(Some(idle));
            let (writer, reader) = (&mut conn.writer, &mut conn.reader);
            let due_list: Vec<(usize, Instant)> = mine
                .iter()
                .map(|&i| (i, start + Duration::from_nanos(schedule.requests[i].due_ns)))
                .collect();
            let expected = mine.len();
            let send = scope.spawn(move || {
                let mut sent = Vec::with_capacity(due_list.len());
                for (i, due) in due_list {
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    if writer.write_all(&frames[i]).is_err() {
                        break;
                    }
                    sent.push((i, due, Instant::now()));
                }
                sent
            });
            let recv = scope.spawn(move || {
                let mut got = Vec::with_capacity(expected);
                while got.len() < expected {
                    let frame = match read_frame(reader) {
                        Ok(Some(frame)) => frame,
                        _ => break,
                    };
                    let Ok(response) = codec.decode_response(&frame) else {
                        break;
                    };
                    let at = Instant::now();
                    got.push((response.id().saturating_sub(1) as usize, at, response));
                }
                got
            });
            handles.push((send, recv));
        }
        for (send, recv) in handles {
            let sent = send.join().unwrap_or_default();
            let mut got = recv.join().unwrap_or_default();
            got.sort_by_key(|g| g.0);
            for (i, due, at) in sent {
                let done = got
                    .binary_search_by_key(&i, |g| g.0)
                    .ok()
                    .map(|k| (got[k].1, got[k].2.clone()));
                out.push((
                    i,
                    Exchange {
                        due,
                        sent: at,
                        done,
                    },
                ));
            }
        }
    });
    out.sort_by_key(|(i, _)| *i);
    out
}

/// Closes the generator's connections: half-closes each, then reads
/// until the daemon hangs up.
pub fn close(conns: Vec<GenConn>) {
    for mut conn in conns {
        let _ = conn.writer.shutdown(std::net::Shutdown::Write);
        let _ = conn
            .reader
            .set_read_timeout(Some(Duration::from_millis(200)));
        let mut sink = [0u8; 4096];
        while matches!(conn.reader.read(&mut sink), Ok(n) if n > 0) {}
    }
}
