//! The negotiated wire codecs: JSON text (the compatibility default) and
//! a binary spelling of the same JSON values that skips float rendering
//! and parsing on the hot serve path.
//!
//! # Negotiation
//!
//! Framing is codec-independent: both codecs ride the same 4-byte
//! big-endian length prefix ([`crate::protocol::read_frame`]). A legacy
//! client simply sends JSON request frames and is served JSON — nothing
//! changed for it. A binary-capable client sends, as the **first frame**
//! on the connection, a 5-byte hello: the magic [`BINARY_MAGIC`]
//! (`"OBFB"`) followed by the version byte it proposes. JSON payloads
//! always start with `{`, so the magic is unambiguous. The server
//! answers with the same 5 bytes carrying the version it accepted
//! ([`BINARY_VERSION`] today) and both sides switch to binary for every
//! subsequent frame; a malformed hello or a version the server does not
//! speak instead gets a typed `bad_codec` **JSON** error, and the
//! connection continues in JSON — negotiation failure is an answer,
//! never a hangup. [`negotiate_binary`] is the client side of this
//! exchange, shared by [`crate::Client`] and the router's backend
//! connections.
//!
//! # Binary encoding
//!
//! One message model, two spellings. [`crate::protocol`] defines every
//! message once, as a JSON value (`to_json` / `from_json`). A binary
//! payload is that value in a tagged syntax ([`put_json`]): one tag byte
//! per value, numbers as raw IEEE-754 bits, strings, arrays and objects
//! behind `u32` length prefixes, over the shared [`obfuscade::bytes`]
//! codec — see DESIGN.md §14. A binary frame decodes only through
//! [`read_json`] and the same `from_json` as a JSON frame, so the two
//! codecs accept the same messages, refuse the rest with the same
//! errors, and decode a request to the same value. The encoding is a
//! pure function of the value, so equal values produce byte-identical
//! frames. What binary still buys is exact floats with no formatting or
//! parsing, and strings with no escaping; field names travel in both
//! spellings, so binary requests are no smaller than JSON ones.

use std::io::{Read, Write};

use obfuscade::bytes::{ByteReader, ByteWriter};
use obfuscade::json::Json;

use crate::protocol::{read_frame, write_frame, Request, Response};

/// First four bytes of a binary hello/ack frame. `0x4F 0x42 0x46 0x42`.
pub const BINARY_MAGIC: [u8; 4] = *b"OBFB";

/// The binary codec version this build speaks. Version 2 carries each
/// message's JSON value; version 1's hand-laid structs are not spoken.
pub const BINARY_VERSION: u8 = 2;

/// A wire codec for request/response payloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Codec {
    /// Length-prefixed canonical JSON — the compatibility codec and the
    /// default for clients that never negotiate.
    #[default]
    Json,
    /// The negotiated binary spelling of the same JSON values.
    Binary,
}

impl Codec {
    /// Stable lowercase name (CLI flag value, metrics field).
    pub fn name(&self) -> &'static str {
        match self {
            Codec::Json => "json",
            Codec::Binary => "binary",
        }
    }

    /// Parses a CLI flag value.
    ///
    /// # Errors
    ///
    /// The unknown name.
    pub fn from_name(name: &str) -> Result<Codec, String> {
        match name {
            "json" => Ok(Codec::Json),
            "binary" => Ok(Codec::Binary),
            other => Err(format!("unknown codec `{other}` (json|binary)")),
        }
    }

    /// Encodes a request payload under this codec.
    pub fn encode_request(&self, request: &Request) -> Vec<u8> {
        match self {
            Codec::Json => request.encode(),
            Codec::Binary => encode_binary(&request.to_json()),
        }
    }

    /// Decodes a request payload under this codec.
    ///
    /// # Errors
    ///
    /// A description of the first malformed byte/field.
    pub fn decode_request(&self, payload: &[u8]) -> Result<Request, String> {
        match self {
            Codec::Json => Request::decode(payload),
            Codec::Binary => Request::from_json(decode_binary(payload)?),
        }
    }

    /// Encodes a response payload under this codec:
    /// [`Codec::encode_owned_response`] on a copy.
    pub fn encode_response(&self, response: &Response) -> Vec<u8> {
        self.encode_owned_response(response.clone())
    }

    /// Encodes a response payload under this codec, moving the response's
    /// arrays into the encoded value instead of copying them (the
    /// daemon's and router's reply path).
    pub fn encode_owned_response(&self, response: Response) -> Vec<u8> {
        let v = response.into_json();
        match self {
            Codec::Json => v.render().into_bytes(),
            Codec::Binary => encode_binary(&v),
        }
    }

    /// Decodes a response payload under this codec.
    ///
    /// # Errors
    ///
    /// A description of the first malformed byte/field.
    pub fn decode_response(&self, payload: &[u8]) -> Result<Response, String> {
        match self {
            Codec::Json => Response::decode(payload),
            Codec::Binary => Response::from_json(decode_binary(payload)?),
        }
    }
}

/// The 5-byte hello a binary-capable client sends as its first frame
/// (also the ack shape the server answers with).
pub fn encode_hello(version: u8) -> Vec<u8> {
    let mut payload = BINARY_MAGIC.to_vec();
    payload.push(version);
    payload
}

/// Does this first frame open a binary negotiation? (Any payload leading
/// with the magic — a malformed tail is still a negotiation attempt, it
/// just fails with `bad_codec` rather than being fed to the JSON parser.)
pub fn is_binary_hello(payload: &[u8]) -> bool {
    payload.starts_with(&BINARY_MAGIC)
}

/// Decodes a hello/ack frame to its proposed/accepted version.
///
/// # Errors
///
/// Missing magic or a malformed length.
pub fn decode_hello(payload: &[u8]) -> Result<u8, String> {
    if !is_binary_hello(payload) {
        return Err("not a binary hello frame (missing OBFB magic)".to_string());
    }
    if payload.len() != 5 {
        return Err(format!("binary hello must be 5 bytes, got {}", payload.len()));
    }
    Ok(payload[4])
}

/// The client side of binary negotiation on a fresh connection: sends
/// the hello and reads the answer. An echoed hello of [`BINARY_VERSION`]
/// means every later frame on `stream` is binary.
///
/// # Errors
///
/// Transport failures, a closed connection, an acknowledgement of
/// another version, or the peer's typed `bad_codec` refusal — an error
/// here because the caller asked for binary, though the refused
/// connection itself would carry on in JSON.
pub fn negotiate_binary(stream: &mut (impl Read + Write)) -> Result<(), String> {
    write_frame(stream, &encode_hello(BINARY_VERSION))
        .map_err(|e| format!("hello send failed: {e}"))?;
    let frame = read_frame(stream)
        .map_err(|e| format!("hello receive failed: {e}"))?
        .ok_or("the peer closed the connection during codec negotiation")?;
    if is_binary_hello(&frame) {
        return match decode_hello(&frame)? {
            BINARY_VERSION => Ok(()),
            version => Err(format!(
                "peer acknowledged binary version {version}, expected {BINARY_VERSION}"
            )),
        };
    }
    match Response::decode(&frame) {
        Ok(Response::Error { error, message, .. }) => {
            Err(format!("binary codec refused ({}): {message}", error.name()))
        }
        Ok(other) => Err(format!("expected a hello ack, got {other:?}")),
        Err(e) => Err(format!("undecodable negotiation reply: {e}")),
    }
}

// --- Json values --------------------------------------------------------

const J_NULL: u8 = 0;
const J_FALSE: u8 = 1;
const J_TRUE: u8 = 2;
const J_NUMBER: u8 = 3;
const J_STRING: u8 = 4;
const J_ARRAY: u8 = 5;
const J_OBJECT: u8 = 6;

/// Appends the binary encoding of a [`Json`] value (tag byte + payload).
pub fn put_json(w: &mut ByteWriter, v: &Json) {
    match v {
        Json::Null => w.u8(J_NULL),
        Json::Bool(false) => w.u8(J_FALSE),
        Json::Bool(true) => w.u8(J_TRUE),
        Json::Number(n) => {
            w.u8(J_NUMBER);
            w.f64(*n);
        }
        Json::String(s) => {
            w.u8(J_STRING);
            w.str(s);
        }
        Json::Array(items) => {
            w.u8(J_ARRAY);
            w.seq_len(items.len());
            for item in items {
                put_json(w, item);
            }
        }
        Json::Object(fields) => {
            w.u8(J_OBJECT);
            w.seq_len(fields.len());
            for (name, value) in fields {
                w.str(name);
                put_json(w, value);
            }
        }
    }
}

/// Reads one binary [`Json`] value.
///
/// # Errors
///
/// Truncation, an unknown tag, or a depth beyond the JSON parser's own
/// bound (128) — the two codecs accept the same value shapes.
pub fn read_json(r: &mut ByteReader<'_>) -> Result<Json, String> {
    read_json_at(r, 0)
}

fn read_json_at(r: &mut ByteReader<'_>, depth: u32) -> Result<Json, String> {
    if depth > 128 {
        return Err("binary JSON nests deeper than 128 levels".to_string());
    }
    match r.u8()? {
        J_NULL => Ok(Json::Null),
        J_FALSE => Ok(Json::Bool(false)),
        J_TRUE => Ok(Json::Bool(true)),
        J_NUMBER => Ok(Json::Number(r.f64()?)),
        J_STRING => Ok(Json::String(r.str_ref()?.to_string())),
        J_ARRAY => {
            let len = r.seq_len(1)?;
            let mut items = Vec::with_capacity(len);
            for _ in 0..len {
                items.push(read_json_at(r, depth + 1)?);
            }
            Ok(Json::Array(items))
        }
        J_OBJECT => {
            let len = r.seq_len(5)?;
            let mut fields = Vec::with_capacity(len);
            for _ in 0..len {
                let name = r.str_ref()?.to_string();
                fields.push((name, read_json_at(r, depth + 1)?));
            }
            Ok(Json::Object(fields))
        }
        other => Err(format!("unknown binary JSON tag {other}")),
    }
}

/// A whole binary payload: one message value.
fn encode_binary(v: &Json) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(256);
    put_json(&mut w, v);
    w.into_bytes()
}

/// Reads a whole binary payload as one message value.
///
/// # Errors
///
/// Whatever [`read_json`] refuses, or trailing bytes.
fn decode_binary(payload: &[u8]) -> Result<Json, String> {
    let mut r = ByteReader::new(payload);
    let v = read_json(&mut r)?;
    r.finish()?;
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{DetectSpec, JobSpec, RequestBody, SanitizeSpec, ServiceError};
    use am_mesh::Resolution;
    use am_slicer::Orientation;

    #[test]
    fn hello_frames_round_trip_and_reject_garbage() {
        let hello = encode_hello(BINARY_VERSION);
        assert_eq!(hello.len(), 5);
        assert!(is_binary_hello(&hello));
        assert_eq!(decode_hello(&hello).expect("hello"), BINARY_VERSION);
        assert!(!is_binary_hello(b"{\"id\":1}"));
        assert!(decode_hello(b"OBFB").is_err(), "truncated hello");
        assert!(decode_hello(b"OBFBxx").is_err(), "overlong hello");
        assert!(decode_hello(b"NOPE!").is_err());
    }

    #[test]
    fn binary_requests_round_trip_to_identical_values() {
        let job = JobSpec {
            part: "bar".into(),
            intact: true,
            resolution: Resolution::Fine,
            orientation: Orientation::Xz,
            seed: (1 << 53) - 1,
            tensile: true,
            layer: None,
            faults: "void-stl stl.degenerate=3".into(),
            fault_seed: 42,
        };
        for body in [
            RequestBody::Ping,
            RequestBody::Stats,
            RequestBody::Shutdown,
            RequestBody::Run { jobs: vec![job.clone(), JobSpec::default()], deadline_ms: Some(250) },
            RequestBody::Run { jobs: vec![], deadline_ms: None },
            RequestBody::Authenticate { job: job.clone(), deadline_ms: None },
            RequestBody::Detect {
                jobs: vec![
                    DetectSpec {
                        job: job.clone(),
                        quality: "room".into(),
                        jam_amplitude: 2.5,
                        trace_seed: (1 << 53) - 1,
                    },
                    DetectSpec::default(),
                ],
                deadline_ms: Some(750),
            },
            RequestBody::Sanitize {
                jobs: vec![SanitizeSpec { job: job.clone(), payload_seed: 99, payload_bits: 8 }],
                deadline_ms: None,
            },
        ] {
            let request = Request { id: 0xdead_beef, body };
            let payload = Codec::Binary.encode_request(&request);
            let decoded = Codec::Binary.decode_request(&payload).expect("decode");
            assert_eq!(decoded, request);
            // Pure function of the value: re-encoding is byte-identical.
            assert_eq!(Codec::Binary.encode_request(&decoded), payload);
        }
    }

    #[test]
    fn binary_responses_round_trip_including_exact_floats() {
        // Values chosen to be hostile to text round-trips: subnormals,
        // negative zero, and a number needing all 17 digits.
        let nasty = Json::Array(vec![
            Json::Number(f64::MIN_POSITIVE / 2.0),
            Json::Number(-0.0),
            Json::Number(0.123_456_789_012_345_67),
            Json::Object(vec![("k".into(), Json::Null)]),
        ]);
        for response in [
            Response::Pong { id: 1 },
            Response::Stats { id: 2, metrics: nasty.clone() },
            Response::Bye { id: 3, completed: (1 << 53) - 1 },
            Response::Results { id: 4, results: vec![nasty, Json::Bool(true)] },
            Response::Verdict {
                id: 5,
                verdict: "genuine".into(),
                cold_joint_mm2: 0.1 + 0.2,
                void_mm3: f64::EPSILON,
            },
            Response::Error { id: 6, error: ServiceError::BadCodec, message: "no".into() },
            Response::Detections {
                id: 7,
                reports: vec![Json::Object(vec![(
                    "ok".into(),
                    Json::Object(vec![("fused_score".into(), Json::Number(0.1 + 0.2))]),
                )])],
            },
            Response::Sanitized { id: 8, reports: vec![Json::Null, Json::Bool(false)] },
        ] {
            let payload = Codec::Binary.encode_response(&response);
            let decoded = Codec::Binary.decode_response(&payload).expect("decode");
            assert_eq!(decoded, response);
            assert_eq!(Codec::Binary.encode_response(&decoded), payload);
        }
    }

    #[test]
    fn truncated_and_oversized_binary_frames_fail_before_allocating() {
        let request = Request {
            id: 9,
            body: RequestBody::Run { jobs: vec![JobSpec::default()], deadline_ms: None },
        };
        let payload = Codec::Binary.encode_request(&request);
        for cut in [0, 1, 5, 9, 13, payload.len() - 1] {
            assert!(
                Codec::Binary.decode_request(&payload[..cut]).is_err(),
                "a {cut}-byte prefix must not decode"
            );
        }
        // Trailing bytes are rejected, not ignored.
        let mut padded = payload.clone();
        padded.push(0);
        assert!(Codec::Binary.decode_request(&padded).is_err());

        // A length prefix claiming 500M fields or elements in a 5-byte
        // frame dies on the seq_len bound, not in Vec::with_capacity.
        for tag in [J_OBJECT, J_ARRAY] {
            let mut bomb = vec![tag];
            bomb.extend_from_slice(&500_000_000u32.to_le_bytes());
            let err = Codec::Binary.decode_request(&bomb).expect_err("bomb");
            assert!(err.contains("elements"), "{err}");
        }
    }

    #[test]
    fn binary_bools_are_canonical() {
        // A job's `intact` and `tensile` flags are its bools, one tag byte
        // each. A null there, or any byte that is no tag, is a typed
        // error, never `true`.
        let job = JobSpec { part: "bar".into(), ..JobSpec::default() };
        let request = Request { id: 1, body: RequestBody::Authenticate { job, deadline_ms: None } };
        let payload = Codec::Binary.encode_request(&request);
        for key in ["intact", "tensile"] {
            let at = payload
                .windows(key.len())
                .position(|w| w == key.as_bytes())
                .expect("the key is on the wire")
                + key.len();
            assert_eq!(payload[at], J_FALSE, "{key} is a false flag");
            for byte in [J_NULL].into_iter().chain(J_OBJECT + 1..=u8::MAX) {
                let mut bad = payload.clone();
                bad[at] = byte;
                let err = Codec::Binary.decode_request(&bad).expect_err("not a bool");
                let expected = match byte {
                    J_NULL => format!("`{key}` must be a bool"),
                    _ => format!("unknown binary JSON tag {byte}"),
                };
                assert!(err.contains(&expected), "{key}, byte {byte}: {err}");
            }
        }
    }

    #[test]
    fn codec_dispatch_matches_the_underlying_encodings() {
        let request = Request { id: 1, body: RequestBody::Ping };
        assert_eq!(Codec::Json.encode_request(&request), request.encode());
        let mut w = ByteWriter::new();
        put_json(&mut w, &request.to_json());
        assert_eq!(Codec::Binary.encode_request(&request), w.into_bytes());
        for codec in [Codec::Json, Codec::Binary] {
            let decoded =
                codec.decode_request(&codec.encode_request(&request)).expect("round trip");
            assert_eq!(decoded, request);
            assert_eq!(Codec::from_name(codec.name()).expect("name"), codec);
        }
        assert!(Codec::from_name("msgpack").is_err());
    }
}
