//! The negotiated wire codecs: JSON (the compatibility default) and a
//! compact binary encoding that skips float rendering/parsing on the hot
//! serve path.
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
//! The shared [`obfuscade::bytes`] codec: fixed-width little-endian
//! scalars, strict 0/1 bools, `u32`-length-prefixed UTF-8 strings and
//! sequences, plus one leading tag byte per request/response kind and per
//! [`Json`] value — see DESIGN.md §14 for the byte-level layout. The
//! encoding is a pure function of the decoded value (like the canonical
//! JSON rendering), so equal values produce byte-identical frames and
//! the wire-equivalence suite can compare across codecs by comparing
//! decoded values. Floats travel as raw IEEE-754 bits (`f64::to_bits`),
//! which both avoids the shortest-round-trip formatting cost that
//! dominates JSON serve time and makes the round trip exact by
//! construction.
//!
//! Decoding is **zero-copy until ownership is needed**: [`ByteReader`]
//! hands out `&str`/`&[u8]` slices borrowed straight from the frame
//! payload (UTF-8 validated in place, every length prefix checked against
//! the remaining bytes before any allocation), and only the retained
//! fields of the final owned [`Request`]/[`Response`] are copied out of
//! the buffer.

use std::io::{Read, Write};

use obfuscade::bytes::{ByteReader, ByteWriter};
use obfuscade::json::Json;

use crate::protocol::{
    read_frame, write_frame, DetectSpec, JobSpec, Request, RequestBody, Response, SanitizeSpec,
    ServiceError, MAX_FRAME,
};
use am_mesh::Resolution;
use am_slicer::Orientation;

/// First four bytes of a binary hello/ack frame. `0x4F 0x42 0x46 0x42`.
pub const BINARY_MAGIC: [u8; 4] = *b"OBFB";

/// The binary codec version this build speaks.
pub const BINARY_VERSION: u8 = 1;

/// A wire codec for request/response payloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Codec {
    /// Length-prefixed canonical JSON — the compatibility codec and the
    /// default for clients that never negotiate.
    #[default]
    Json,
    /// The negotiated compact binary encoding.
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
            Codec::Binary => encode_request_binary(request),
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
            Codec::Binary => decode_request_binary(payload),
        }
    }

    /// Encodes a response payload under this codec.
    pub fn encode_response(&self, response: &Response) -> Vec<u8> {
        match self {
            Codec::Json => response.encode(),
            Codec::Binary => encode_response_binary(response),
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
            Codec::Binary => decode_response_binary(payload),
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

/// A length-prefixed sequence of binary [`Json`] values.
fn read_json_seq(r: &mut ByteReader<'_>) -> Result<Vec<Json>, String> {
    let n = r.seq_len(1)?;
    let mut items = Vec::with_capacity(n);
    for _ in 0..n {
        items.push(read_json(r)?);
    }
    Ok(items)
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

// --- JobSpec ------------------------------------------------------------

fn put_job(w: &mut ByteWriter, job: &JobSpec) {
    w.str(&job.part);
    w.bool(job.intact);
    w.u8(match job.resolution {
        Resolution::Coarse => 0,
        Resolution::Fine => 1,
        Resolution::Custom => 2,
    });
    w.u8(match job.orientation {
        Orientation::Xy => 0,
        Orientation::Xz => 1,
    });
    w.u64(job.seed);
    w.bool(job.tensile);
    w.str(job.solver.name());
    w.option(job.layer, ByteWriter::f64);
    w.str(&job.faults);
    w.u64(job.fault_seed);
}

fn read_job(r: &mut ByteReader<'_>) -> Result<JobSpec, String> {
    // Every string decodes as a borrowed slice first; only the retained
    // fields are copied into the owned spec.
    let part = r.str_ref()?;
    let intact = r.bool()?;
    let resolution = match r.u8()? {
        0 => Resolution::Coarse,
        1 => Resolution::Fine,
        2 => Resolution::Custom,
        other => return Err(format!("unknown resolution tag {other}")),
    };
    let orientation = match r.u8()? {
        0 => Orientation::Xy,
        1 => Orientation::Xz,
        other => return Err(format!("unknown orientation tag {other}")),
    };
    let seed = r.u64()?;
    let tensile = r.bool()?;
    let solver = r.str_ref()?.parse()?;
    let layer = r.option(ByteReader::f64)?;
    if layer.is_some_and(|v| !(v.is_finite() && v > 0.0)) {
        return Err("`layer` must be a positive finite number".to_string());
    }
    let faults = r.str_ref()?;
    let fault_seed = r.u64()?;
    Ok(JobSpec {
        part: part.to_string(),
        intact,
        resolution,
        orientation,
        seed,
        tensile,
        solver,
        layer,
        faults: faults.to_string(),
        fault_seed,
    })
}

fn put_detect_spec(w: &mut ByteWriter, spec: &DetectSpec) {
    put_job(w, &spec.job);
    w.str(&spec.quality);
    w.f64(spec.jam_amplitude);
    w.u64(spec.trace_seed);
}

fn read_detect_spec(r: &mut ByteReader<'_>) -> Result<DetectSpec, String> {
    let job = read_job(r)?;
    let quality = r.str_ref()?.to_string();
    let jam_amplitude = r.f64()?;
    if !(jam_amplitude.is_finite() && jam_amplitude >= 0.0) {
        return Err("`jam_amplitude` must be a non-negative number".to_string());
    }
    Ok(DetectSpec { job, quality, jam_amplitude, trace_seed: r.u64()? })
}

fn put_sanitize_spec(w: &mut ByteWriter, spec: &SanitizeSpec) {
    put_job(w, &spec.job);
    w.u64(spec.payload_seed);
    // One byte on the wire: a count past 255 saturates to 255, which the
    // decoder refuses like every other count outside 1..=8.
    w.u8(u8::try_from(spec.payload_bits).unwrap_or(u8::MAX));
}

fn read_sanitize_spec(r: &mut ByteReader<'_>) -> Result<SanitizeSpec, String> {
    let job = read_job(r)?;
    let payload_seed = r.u64()?;
    let payload_bits = u64::from(r.u8()?);
    if !(1..=8).contains(&payload_bits) {
        return Err("`payload_bits` must be an integer in 1..=8".to_string());
    }
    Ok(SanitizeSpec { job, payload_seed, payload_bits })
}

// --- requests -----------------------------------------------------------

const RQ_PING: u8 = 0;
const RQ_STATS: u8 = 1;
const RQ_SHUTDOWN: u8 = 2;
const RQ_RUN: u8 = 3;
const RQ_AUTHENTICATE: u8 = 4;
const RQ_DETECT: u8 = 5;
const RQ_SANITIZE: u8 = 6;

/// Binary request payload: kind tag, id, then the kind's fields.
pub fn encode_request_binary(request: &Request) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(64);
    w.u8(match &request.body {
        RequestBody::Ping => RQ_PING,
        RequestBody::Stats => RQ_STATS,
        RequestBody::Shutdown => RQ_SHUTDOWN,
        RequestBody::Run { .. } => RQ_RUN,
        RequestBody::Authenticate { .. } => RQ_AUTHENTICATE,
        RequestBody::Detect { .. } => RQ_DETECT,
        RequestBody::Sanitize { .. } => RQ_SANITIZE,
    });
    w.u64(request.id);
    match &request.body {
        RequestBody::Ping | RequestBody::Stats | RequestBody::Shutdown => {}
        RequestBody::Run { jobs, deadline_ms } => {
            w.seq_len(jobs.len());
            for job in jobs {
                put_job(&mut w, job);
            }
            w.option(*deadline_ms, ByteWriter::u64);
        }
        RequestBody::Authenticate { job, deadline_ms } => {
            put_job(&mut w, job);
            w.option(*deadline_ms, ByteWriter::u64);
        }
        RequestBody::Detect { jobs, deadline_ms } => {
            w.seq_len(jobs.len());
            for spec in jobs {
                put_detect_spec(&mut w, spec);
            }
            w.option(*deadline_ms, ByteWriter::u64);
        }
        RequestBody::Sanitize { jobs, deadline_ms } => {
            w.seq_len(jobs.len());
            for spec in jobs {
                put_sanitize_spec(&mut w, spec);
            }
            w.option(*deadline_ms, ByteWriter::u64);
        }
    }
    let out = w.into_bytes();
    debug_assert!(out.len() <= MAX_FRAME);
    out
}

/// Decodes a binary request payload.
///
/// # Errors
///
/// Truncation, unknown tags, malformed fields, or trailing bytes.
pub fn decode_request_binary(payload: &[u8]) -> Result<Request, String> {
    let mut r = ByteReader::new(payload);
    let kind = r.u8()?;
    let id = r.u64()?;
    let body = match kind {
        RQ_PING => RequestBody::Ping,
        RQ_STATS => RequestBody::Stats,
        RQ_SHUTDOWN => RequestBody::Shutdown,
        RQ_RUN => {
            // A job is ≥ 40 bytes even with empty strings.
            let n = r.seq_len(40)?;
            let mut jobs = Vec::with_capacity(n);
            for _ in 0..n {
                jobs.push(read_job(&mut r)?);
            }
            RequestBody::Run { jobs, deadline_ms: r.option(ByteReader::u64)? }
        }
        RQ_AUTHENTICATE => {
            let job = read_job(&mut r)?;
            RequestBody::Authenticate { job, deadline_ms: r.option(ByteReader::u64)? }
        }
        RQ_DETECT => {
            // A detect spec carries a job (≥ 40 bytes) plus its capture setup.
            let n = r.seq_len(60)?;
            let mut jobs = Vec::with_capacity(n);
            for _ in 0..n {
                jobs.push(read_detect_spec(&mut r)?);
            }
            RequestBody::Detect { jobs, deadline_ms: r.option(ByteReader::u64)? }
        }
        RQ_SANITIZE => {
            let n = r.seq_len(49)?;
            let mut jobs = Vec::with_capacity(n);
            for _ in 0..n {
                jobs.push(read_sanitize_spec(&mut r)?);
            }
            RequestBody::Sanitize { jobs, deadline_ms: r.option(ByteReader::u64)? }
        }
        other => return Err(format!("unknown binary request kind {other}")),
    };
    r.finish()?;
    Ok(Request { id, body })
}

// --- responses ----------------------------------------------------------

const RS_PONG: u8 = 0;
const RS_STATS: u8 = 1;
const RS_BYE: u8 = 2;
const RS_RESULTS: u8 = 3;
const RS_VERDICT: u8 = 4;
const RS_ERROR: u8 = 5;
const RS_DETECTIONS: u8 = 6;
const RS_SANITIZED: u8 = 7;

fn error_tag(error: ServiceError) -> u8 {
    match error {
        ServiceError::Overloaded => 0,
        ServiceError::ShuttingDown => 1,
        ServiceError::Malformed => 2,
        ServiceError::Forbidden => 3,
        ServiceError::Job => 4,
        ServiceError::Internal => 5,
        ServiceError::BadCodec => 6,
    }
}

fn error_from_tag(tag: u8) -> Result<ServiceError, String> {
    Ok(match tag {
        0 => ServiceError::Overloaded,
        1 => ServiceError::ShuttingDown,
        2 => ServiceError::Malformed,
        3 => ServiceError::Forbidden,
        4 => ServiceError::Job,
        5 => ServiceError::Internal,
        6 => ServiceError::BadCodec,
        other => return Err(format!("unknown binary error class {other}")),
    })
}

/// Binary response payload: kind tag, echoed id, then the kind's fields.
pub fn encode_response_binary(response: &Response) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(128);
    w.u8(match response {
        Response::Pong { .. } => RS_PONG,
        Response::Stats { .. } => RS_STATS,
        Response::Bye { .. } => RS_BYE,
        Response::Results { .. } => RS_RESULTS,
        Response::Verdict { .. } => RS_VERDICT,
        Response::Error { .. } => RS_ERROR,
        Response::Detections { .. } => RS_DETECTIONS,
        Response::Sanitized { .. } => RS_SANITIZED,
    });
    w.u64(response.id());
    match response {
        Response::Pong { .. } => {}
        Response::Stats { metrics, .. } => put_json(&mut w, metrics),
        Response::Bye { completed, .. } => w.u64(*completed),
        Response::Results { results: items, .. }
        | Response::Detections { reports: items, .. }
        | Response::Sanitized { reports: items, .. } => {
            w.seq_len(items.len());
            for item in items {
                put_json(&mut w, item);
            }
        }
        Response::Verdict { verdict, cold_joint_mm2, void_mm3, .. } => {
            w.str(verdict);
            w.f64(*cold_joint_mm2);
            w.f64(*void_mm3);
        }
        Response::Error { error, message, .. } => {
            w.u8(error_tag(*error));
            w.str(message);
        }
    }
    w.into_bytes()
}

/// Decodes a binary response payload.
///
/// # Errors
///
/// Truncation, unknown tags, malformed fields, or trailing bytes.
pub fn decode_response_binary(payload: &[u8]) -> Result<Response, String> {
    let mut r = ByteReader::new(payload);
    let kind = r.u8()?;
    let id = r.u64()?;
    let response = match kind {
        RS_PONG => Response::Pong { id },
        RS_STATS => Response::Stats { id, metrics: read_json(&mut r)? },
        RS_BYE => Response::Bye { id, completed: r.u64()? },
        RS_RESULTS => Response::Results { id, results: read_json_seq(&mut r)? },
        RS_VERDICT => Response::Verdict {
            id,
            verdict: r.str_ref()?.to_string(),
            cold_joint_mm2: r.f64()?,
            void_mm3: r.f64()?,
        },
        RS_ERROR => {
            let error = error_from_tag(r.u8()?)?;
            Response::Error { id, error, message: r.str_ref()?.to_string() }
        }
        RS_DETECTIONS => Response::Detections { id, reports: read_json_seq(&mut r)? },
        RS_SANITIZED => Response::Sanitized { id, reports: read_json_seq(&mut r)? },
        other => return Err(format!("unknown binary response kind {other}")),
    };
    r.finish()?;
    Ok(response)
}

#[cfg(test)]
mod tests {
    use super::*;

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
            seed: u64::MAX,
            tensile: true,
            layer: None,
            faults: "void-stl stl.degenerate=3".into(),
            fault_seed: 42,
            ..JobSpec::default()
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
                        trace_seed: u64::MAX,
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
            let payload = encode_request_binary(&request);
            let decoded = decode_request_binary(&payload).expect("decode");
            assert_eq!(decoded, request);
            // Pure function of the value: re-encoding is byte-identical.
            assert_eq!(encode_request_binary(&decoded), payload);
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
            Response::Bye { id: 3, completed: u64::MAX },
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
            let payload = encode_response_binary(&response);
            let decoded = decode_response_binary(&payload).expect("decode");
            assert_eq!(decoded, response);
            assert_eq!(encode_response_binary(&decoded), payload);
        }
    }

    #[test]
    fn every_error_class_survives_the_binary_tag_round_trip() {
        for error in [
            ServiceError::Overloaded,
            ServiceError::ShuttingDown,
            ServiceError::Malformed,
            ServiceError::Forbidden,
            ServiceError::Job,
            ServiceError::Internal,
            ServiceError::BadCodec,
        ] {
            assert_eq!(error_from_tag(error_tag(error)).expect("tag"), error);
        }
        assert!(error_from_tag(200).is_err());
    }

    #[test]
    fn truncated_and_oversized_binary_frames_fail_before_allocating() {
        let request = Request {
            id: 9,
            body: RequestBody::Run { jobs: vec![JobSpec::default()], deadline_ms: None },
        };
        let payload = encode_request_binary(&request);
        for cut in [0, 1, 5, 9, 13, payload.len() - 1] {
            assert!(
                decode_request_binary(&payload[..cut]).is_err(),
                "a {cut}-byte prefix must not decode"
            );
        }
        // Trailing bytes are rejected, not ignored.
        let mut padded = payload.clone();
        padded.push(0);
        assert!(decode_request_binary(&padded).is_err());

        // A length prefix claiming 500M jobs in a 20-byte frame dies on
        // the seq_len bound, not in Vec::with_capacity.
        let mut bomb = vec![RQ_RUN];
        bomb.extend_from_slice(&7u64.to_le_bytes());
        bomb.extend_from_slice(&500_000_000u32.to_le_bytes());
        let err = decode_request_binary(&bomb).expect_err("bomb");
        assert!(err.contains("elements"), "{err}");
    }

    #[test]
    fn binary_bools_are_canonical() {
        // A job's `intact` and `tensile` flags are its bools: any byte
        // other than 0 or 1 in either is a typed error, never `true`.
        let job = JobSpec { part: "bar".into(), ..JobSpec::default() };
        let request = Request { id: 1, body: RequestBody::Authenticate { job, deadline_ms: None } };
        let payload = encode_request_binary(&request);
        // Kind, id, then the part's prefix and 3 bytes: `intact`. Two
        // tags and the seed later: `tensile`.
        let intact = 1 + 8 + 4 + 3;
        let tensile = intact + 1 + 2 + 8;
        for at in [intact, tensile] {
            assert_eq!(payload[at], 0, "byte {at} is a false flag");
            let mut bad = payload.clone();
            bad[at] = 2;
            let err = decode_request_binary(&bad).expect_err("byte 2 is not a bool");
            assert!(err.contains("bad bool byte 2"), "{err}");
        }
    }

    #[test]
    fn codec_dispatch_matches_the_underlying_encodings() {
        let request = Request { id: 1, body: RequestBody::Ping };
        assert_eq!(Codec::Json.encode_request(&request), request.encode());
        assert_eq!(Codec::Binary.encode_request(&request), encode_request_binary(&request));
        for codec in [Codec::Json, Codec::Binary] {
            let decoded =
                codec.decode_request(&codec.encode_request(&request)).expect("round trip");
            assert_eq!(decoded, request);
            assert_eq!(Codec::from_name(codec.name()).expect("name"), codec);
        }
        assert!(Codec::from_name("msgpack").is_err());
        // The binary encoding is denser than JSON for a real batch.
        let run = Request {
            id: 2,
            body: RequestBody::Run { jobs: vec![JobSpec::default(); 4], deadline_ms: Some(100) },
        };
        assert!(Codec::Binary.encode_request(&run).len() < Codec::Json.encode_request(&run).len());
    }
}
