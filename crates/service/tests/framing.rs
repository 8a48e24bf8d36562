//! Adversarial framing: malformed and hostile byte streams must never
//! crash the daemon or wedge other connections. Covers zero-length
//! frames (typed `malformed`, connection survives), oversized length
//! prefixes (connection closed, daemon keeps serving), partial frames
//! interleaved across 100 concurrent sockets against the reactor, a
//! binary hello proposing a version the daemon does not speak (typed
//! `bad_codec`, connection continues in JSON), and an out-of-range
//! sanitize payload width or an integer from 2^53 up on both codecs
//! (typed `malformed`).

use am_service::{
    encode_hello, is_binary_hello, read_frame, write_frame, Client, Codec, Endpoint, JobSpec,
    Request, RequestBody, Response, SanitizeSpec, Server, ServerConfig, ServiceError,
    BINARY_VERSION, MAX_FRAME,
};
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

fn start() -> Server {
    Server::start(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    })
    .expect("server boots")
}

/// A raw TCP connection with a read timeout so a wedged daemon fails
/// the test instead of hanging it.
fn raw_connect(server: &Server) -> TcpStream {
    let stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    stream
}

fn ping_frame(id: u64) -> Vec<u8> {
    let payload = Request {
        id,
        body: RequestBody::Ping,
    }
    .encode();
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    frame.extend_from_slice(&payload);
    frame
}

/// Write a JSON ping on a raw stream and assert the pong echoes the id.
fn ping_on(stream: &mut TcpStream, id: u64, context: &str) {
    let payload = Request {
        id,
        body: RequestBody::Ping,
    }
    .encode();
    write_frame(stream, &payload).expect("write ping");
    let frame = read_frame(stream)
        .expect("read pong")
        .unwrap_or_else(|| panic!("{context}: connection closed instead of answering ping"));
    let response = Response::decode(&frame).expect("decode pong");
    assert!(
        matches!(response, Response::Pong { id: got } if got == id),
        "{context}: expected pong id {id}, got {response:?}"
    );
}

/// A zero-length frame is not a hello and not valid JSON: the daemon
/// must answer with a typed `malformed` error and keep the connection
/// usable.
#[test]
fn zero_length_frame_gets_typed_malformed_and_connection_survives() {
    let server = start();
    let mut stream = raw_connect(&server);

    write_frame(&mut stream, b"").expect("write empty frame");
    let frame = read_frame(&mut stream)
        .expect("read error reply")
        .expect("daemon closed the connection on an empty frame");
    let response = Response::decode(&frame).expect("decode error reply");
    let Response::Error { error, .. } = response else {
        panic!("expected a typed error, got {response:?}");
    };
    assert_eq!(error, ServiceError::Malformed, "empty frame must map to `malformed`");

    // The same connection keeps working.
    ping_on(&mut stream, 71, "after an empty frame");

    let endpoint = Endpoint::Tcp(server.addr().to_string());
    let mut client = Client::connect(&endpoint).expect("connect");
    client.shutdown().expect("shutdown");
    server.join();
}

/// A length prefix beyond `MAX_FRAME` is a protocol violation: that
/// connection is closed without ever buffering the advertised bytes,
/// and the daemon keeps serving fresh connections.
#[test]
fn oversized_length_prefix_closes_connection_but_daemon_survives() {
    let server = start();
    let mut stream = raw_connect(&server);

    let oversized = (MAX_FRAME as u32) + 1;
    stream
        .write_all(&oversized.to_be_bytes())
        .expect("write hostile prefix");
    // The daemon must hang up: read either errors (reset) or returns a
    // clean EOF — never a reply, never a stall.
    match read_frame(&mut stream) {
        Ok(None) | Err(_) => {}
        Ok(Some(frame)) => {
            panic!("daemon answered an oversized prefix with {} bytes", frame.len())
        }
    }

    // A fresh connection is served normally.
    let mut fresh = raw_connect(&server);
    ping_on(&mut fresh, 72, "after an oversized prefix");

    let endpoint = Endpoint::Tcp(server.addr().to_string());
    let mut client = Client::connect(&endpoint).expect("connect");
    client.shutdown().expect("shutdown");
    server.join();
}

/// 100 sockets each dribble one ping frame in single-digit-byte chunks,
/// interleaved round-robin: every partial frame must be reassembled
/// per-connection and every socket get exactly its own pong back — the
/// state the reactor's per-connection read buffers exist for.
#[test]
fn interleaved_partial_frames_on_100_sockets_reassemble_per_connection() {
    const SOCKETS: u64 = 100;
    const CHUNK: usize = 5;

    let server = start();
    let mut streams: Vec<TcpStream> = (0..SOCKETS).map(|_| raw_connect(&server)).collect();
    let frames: Vec<Vec<u8>> = (0..SOCKETS).map(|i| ping_frame(1000 + i)).collect();

    // Round-robin: each pass sends the next CHUNK bytes of every
    // socket's frame, so at any instant ~100 partial frames are in
    // flight across distinct connections.
    let mut offset = 0;
    let longest = frames.iter().map(Vec::len).max().unwrap_or(0);
    while offset < longest {
        for (stream, frame) in streams.iter_mut().zip(&frames) {
            if offset < frame.len() {
                let end = (offset + CHUNK).min(frame.len());
                stream.write_all(&frame[offset..end]).expect("write chunk");
                stream.flush().expect("flush chunk");
            }
        }
        offset += CHUNK;
        std::thread::sleep(Duration::from_millis(1));
    }

    for (i, stream) in streams.iter_mut().enumerate() {
        let frame = read_frame(stream)
            .expect("read pong")
            .unwrap_or_else(|| panic!("socket {i}: connection closed before its pong"));
        let response = Response::decode(&frame).expect("decode pong");
        assert!(
            matches!(response, Response::Pong { id } if id == 1000 + i as u64),
            "socket {i}: got someone else's reply: {response:?}"
        );
    }

    let endpoint = Endpoint::Tcp(server.addr().to_string());
    let mut client = Client::connect(&endpoint).expect("connect");
    client.shutdown().expect("shutdown");
    server.join();
}

/// A binary hello proposing a version the daemon does not speak — the
/// retired version 1 or a future one: the daemon answers with a typed
/// `bad_codec` error *in JSON*, the connection survives, and subsequent
/// JSON traffic on it works. The negotiating client surfaces a refusal
/// as a connect error.
#[test]
fn unknown_binary_version_gets_bad_codec_and_connection_survives() {
    let server = start();
    for version in [1, BINARY_VERSION + 1] {
        let mut stream = raw_connect(&server);
        write_frame(&mut stream, &encode_hello(version)).expect("write hello");
        let frame = read_frame(&mut stream)
            .expect("read refusal")
            .expect("daemon closed the connection on a binary hello");
        let response = Response::decode(&frame).expect("refusal must be JSON");
        let Response::Error { error, .. } = response else {
            panic!("expected a typed error, got {response:?}");
        };
        assert_eq!(
            error,
            ServiceError::BadCodec,
            "a hello of version {version} must map to `bad_codec`"
        );

        // The connection stays open and stays JSON.
        ping_on(&mut stream, 73, "after a refused hello");
    }

    // The negotiating client reports a refusal as an error instead of
    // silently downgrading. This thread plays a daemon that refuses the
    // hello.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let refusing = Endpoint::Tcp(listener.local_addr().expect("addr").to_string());
    let refuser = std::thread::spawn(move || {
        let (mut peer, _) = listener.accept().expect("accept");
        let hello = read_frame(&mut peer).expect("read hello").expect("a hello frame");
        assert!(is_binary_hello(&hello));
        let refusal = Response::Error {
            id: 0,
            error: ServiceError::BadCodec,
            message: "binary codec refused".into(),
        };
        write_frame(&mut peer, &refusal.encode()).expect("write refusal");
    });
    let Err(err) = Client::connect_with_codec(&refusing, None, Codec::Binary) else {
        panic!("negotiation against a refusing daemon must fail");
    };
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    assert!(err.to_string().contains("bad_codec"), "{err}");
    refuser.join().expect("refusing peer");

    let endpoint = Endpoint::Tcp(server.addr().to_string());
    let mut client = Client::connect(&endpoint).expect("connect");
    client.shutdown().expect("shutdown");
    server.join();
}

/// A sanitize payload width past one byte (257) once went out on the
/// binary codec truncated to 1 bit. Both codecs must now refuse it with
/// a typed `malformed` error.
#[test]
fn out_of_range_payload_bits_are_malformed_on_both_codecs() {
    let server = start();
    let endpoint = Endpoint::Tcp(server.addr().to_string());
    for codec in [Codec::Json, Codec::Binary] {
        let mut client = Client::connect_with_codec(&endpoint, None, codec).expect("connect");
        let spec = SanitizeSpec { payload_bits: 257, ..SanitizeSpec::default() };
        let response = client.sanitize(vec![spec], None).expect("an answer");
        assert!(
            matches!(response, Response::Error { error: ServiceError::Malformed, .. }),
            "{}: expected `malformed`, got {response:?}",
            codec.name()
        );
    }
    let mut client = Client::connect(&endpoint).expect("connect");
    client.shutdown().expect("shutdown");
    server.join();
}

/// A job seed of 2^53 + 1 once decoded as 2^53 on JSON and exactly on
/// binary, so the two codecs ran different jobs. An integer the wire's
/// `f64` may have rounded is now `malformed` on both codecs, whether a
/// client sends it or a JSON frame spells its exact digits.
#[test]
fn integers_from_2_pow_53_are_malformed_on_both_codecs() {
    let server = start();
    let endpoint = Endpoint::Tcp(server.addr().to_string());
    for codec in [Codec::Json, Codec::Binary] {
        let mut client = Client::connect_with_codec(&endpoint, None, codec).expect("connect");
        let job = JobSpec { seed: (1 << 53) + 1, ..JobSpec::default() };
        let response = client.run(vec![job], None).expect("an answer");
        assert!(
            matches!(response, Response::Error { error: ServiceError::Malformed, .. }),
            "{}: expected `malformed`, got {response:?}",
            codec.name()
        );
    }
    let mut client = Client::connect(&endpoint).expect("connect");
    let frame = br#"{"id":1,"kind":"run","jobs":[{"seed":9007199254740993}]}"#;
    let response = client.raw_call(frame).expect("an answer");
    let Response::Error { error: ServiceError::Malformed, message, .. } = response else {
        panic!("expected `malformed`, got {response:?}");
    };
    assert!(message.contains("`seed`"), "{message}");
    client.shutdown().expect("shutdown");
    server.join();
}
