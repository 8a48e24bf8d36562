//! Recorded-byte pins for binary codec version 2, and the one-schema
//! contract between the two codecs.
//!
//! `codec.rs`'s own tests check that the binary codec round-trips and
//! re-encodes identically. These pins check that it still produces the
//! *recorded* bytes, so a reordered field, a widened length prefix or a
//! changed tag fails here even when encode and decode still agree with
//! each other. A peer built from an older commit speaks exactly these
//! bytes, and [`BINARY_VERSION`] 2 promises it keeps working.
//!
//! Covered: every request and response kind, both states of every
//! option and flag, every enum value a job carries, every error class,
//! nested `Json` with `-0.0`, NaN, subnormals and non-ASCII strings,
//! integers at the wire's 2^53 bound, and the hello frame. Each case is
//! pinned by its byte length and the FNV-1a 64-bit digest of its bytes.
//!
//! A binary payload is the message's JSON value in tagged syntax, and
//! both codecs decode through one `from_json`: every pinned request
//! decodes to the same value from either codec, and every refused
//! message is refused by both with the same error.

use am_mesh::Resolution;
use am_service::codec::{put_json, read_json};
use am_service::{
    encode_hello, Codec, DetectSpec, JobSpec, Request, RequestBody, Response, SanitizeSpec,
    ServiceError, BINARY_VERSION,
};
use am_slicer::Orientation;
use obfuscade::bytes::{ByteReader, ByteWriter};
use obfuscade::json::{parse_json, Json};

/// The largest integer the wire carries: 2^53 - 1.
const MAX_WIRE_INT: u64 = (1 << 53) - 1;

/// FNV-1a, 64-bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A job with every flag set and every option present.
fn job_a() -> JobSpec {
    JobSpec {
        part: "bar".into(),
        intact: true,
        resolution: Resolution::Fine,
        orientation: Orientation::Xz,
        seed: MAX_WIRE_INT,
        tensile: true,
        layer: Some(0.25),
        faults: "stl.degenerate=3 toolpath.drop=0.1 — ü".into(),
        fault_seed: 42,
    }
}

/// The other state of every flag and option.
fn job_b() -> JobSpec {
    JobSpec {
        part: "bracket".into(),
        intact: false,
        resolution: Resolution::Custom,
        orientation: Orientation::Xy,
        seed: 0,
        tensile: false,
        layer: None,
        faults: String::new(),
        fault_seed: 0,
    }
}

fn requests() -> Vec<(&'static str, Request)> {
    let request = |id, body| Request { id, body };
    let detect = DetectSpec {
        job: job_a(),
        quality: "room".into(),
        jam_amplitude: 2.5,
        trace_seed: MAX_WIRE_INT,
    };
    vec![
        ("ping", request(1, RequestBody::Ping)),
        ("stats", request(2, RequestBody::Stats)),
        ("shutdown", request(MAX_WIRE_INT, RequestBody::Shutdown)),
        (
            "run",
            request(
                3,
                RequestBody::Run {
                    jobs: vec![job_a(), job_b(), JobSpec::default()],
                    deadline_ms: Some(250),
                },
            ),
        ),
        ("run-empty", request(4, RequestBody::Run { jobs: vec![], deadline_ms: None })),
        (
            "authenticate",
            request(5, RequestBody::Authenticate { job: job_a(), deadline_ms: Some(0) }),
        ),
        (
            "authenticate-no-deadline",
            request(6, RequestBody::Authenticate { job: job_b(), deadline_ms: None }),
        ),
        (
            "detect",
            request(
                7,
                RequestBody::Detect {
                    jobs: vec![detect, DetectSpec::default()],
                    deadline_ms: Some(750),
                },
            ),
        ),
        ("detect-empty", request(8, RequestBody::Detect { jobs: vec![], deadline_ms: None })),
        (
            "sanitize",
            request(
                9,
                RequestBody::Sanitize {
                    jobs: vec![
                        SanitizeSpec { job: job_a(), payload_seed: 99, payload_bits: 1 },
                        SanitizeSpec { job: job_b(), payload_seed: 0, payload_bits: 8 },
                    ],
                    deadline_ms: None,
                },
            ),
        ),
        (
            "sanitize-deadline",
            request(
                10,
                RequestBody::Sanitize { jobs: vec![SanitizeSpec::default()], deadline_ms: Some(1) },
            ),
        ),
    ]
}

/// A tree hostile to text round trips: signed zero, quiet and
/// payload-carrying NaNs, subnormals, a 17-digit number, non-ASCII
/// strings and keys, and empty containers at depth.
fn nasty() -> Json {
    Json::Object(vec![
        ("zero".into(), Json::Number(0.0)),
        ("neg_zero".into(), Json::Number(-0.0)),
        ("nan".into(), Json::Number(f64::NAN)),
        ("nan_payload".into(), Json::Number(f64::from_bits(0x7ff8_0000_0000_0001))),
        ("subnormal".into(), Json::Number(f64::MIN_POSITIVE / 2.0)),
        ("tiny".into(), Json::Number(f64::from_bits(1))),
        ("digits".into(), Json::Number(0.123_456_789_012_345_67)),
        ("inf".into(), Json::Number(f64::NEG_INFINITY)),
        ("ünïcødé — 漢字".into(), Json::String("π ≈ 3.14159 🙂".into())),
        (
            "nested".into(),
            Json::Array(vec![
                Json::Null,
                Json::Bool(false),
                Json::Bool(true),
                Json::Array(vec![]),
                Json::Object(vec![]),
                Json::Array(vec![Json::Object(vec![("".into(), Json::String(String::new()))])]),
            ]),
        ),
    ])
}

fn responses() -> Vec<(&'static str, Response)> {
    let mut cases = vec![
        ("pong", Response::Pong { id: 1 }),
        ("stats", Response::Stats { id: 2, metrics: nasty() }),
        ("bye", Response::Bye { id: 3, completed: MAX_WIRE_INT }),
        ("results", Response::Results { id: 4, results: vec![nasty(), Json::Bool(true)] }),
        ("results-empty", Response::Results { id: 5, results: vec![] }),
        (
            "verdict",
            Response::Verdict {
                id: 6,
                verdict: "counterfeit — ü".into(),
                cold_joint_mm2: 0.1 + 0.2,
                void_mm3: -0.0,
            },
        ),
        (
            "detections",
            Response::Detections {
                id: 7,
                reports: vec![
                    Json::Object(vec![("fused_score".into(), Json::Number(0.1 + 0.2))]),
                    nasty(),
                ],
            },
        ),
        ("detections-empty", Response::Detections { id: 8, reports: vec![] }),
        ("sanitized", Response::Sanitized { id: 9, reports: vec![Json::Null, nasty()] }),
    ];
    let classes = [
        ("error-overloaded", ServiceError::Overloaded),
        ("error-shutting-down", ServiceError::ShuttingDown),
        ("error-malformed", ServiceError::Malformed),
        ("error-forbidden", ServiceError::Forbidden),
        ("error-job", ServiceError::Job),
        ("error-internal", ServiceError::Internal),
        ("error-bad-codec", ServiceError::BadCodec),
    ];
    for (i, (label, error)) in classes.into_iter().enumerate() {
        let message = format!("class {i}: {} — ü", error.name());
        cases.push((label, Response::Error { id: 100 + i as u64, error, message }));
    }
    cases
}

/// (label, byte length, FNV-1a digest) of every request case.
const REQUEST_PINS: &[(&str, usize, u64)] = &[
    ("ping", 37, 0xe402f3ab1cb669da),
    ("stats", 38, 0x1bb0c7f7480a6f57),
    ("shutdown", 41, 0xf51a2bdb09d12083),
    ("run", 602, 0xe86576c4763f46e5),
    ("run-empty", 49, 0xd3c27038249a031b),
    ("authenticate", 279, 0x22427bfca1b0bff6),
    ("authenticate-no-deadline", 212, 0xc619080b6b33d1e7),
    ("detect", 613, 0x3973b183527286bc),
    ("detect-empty", 52, 0xf826ccc3ddd9f46c),
    ("sanitize", 541, 0x05f75b55dd07cf0c),
    ("sanitize-deadline", 306, 0x54156768ac083c1d),
];

/// (label, byte length, FNV-1a digest) of every response case.
const RESPONSE_PINS: &[(&str, usize, u64)] = &[
    ("pong", 37, 0xae64ddaafde0c258),
    ("stats", 303, 0xa561fd6b1e37b9a8),
    ("bye", 58, 0xd5b5a909e78077be),
    ("results", 311, 0xbc4b77de4337992b),
    ("results-empty", 56, 0x5193c3d350b570e1),
    ("verdict", 122, 0x23f6f5cc317a5880),
    ("detections", 342, 0xa88ee777b17f8443),
    ("detections-empty", 59, 0x3de96baf7830d96b),
    ("sanitized", 313, 0x7ae68c4c3c696ee5),
    ("error-overloaded", 104, 0x673669948d6289f1),
    ("error-shutting-down", 110, 0x46e519fd48a0c206),
    ("error-malformed", 102, 0x0bdf7390fb04dd3f),
    ("error-forbidden", 102, 0x035965c28e52657c),
    ("error-job", 90, 0x7f7c3fd465436022),
    ("error-internal", 100, 0x9670623ec7c56fc3),
    ("error-bad-codec", 102, 0x0dbd718a04281bbc),
];

/// Compares every case with its pin and reports all differences at once,
/// each as a line in the pin tables' own format.
fn check(kind: &str, actual: Vec<(&'static str, Vec<u8>)>, pins: &[(&str, usize, u64)]) {
    let rows: Vec<(&str, usize, u64)> =
        actual.iter().map(|(label, bytes)| (*label, bytes.len(), fnv1a(bytes))).collect();
    if rows != pins {
        let table: String = rows
            .iter()
            .map(|(label, len, digest)| format!("    (\"{label}\", {len}, 0x{digest:016x}),\n"))
            .collect();
        panic!("binary {kind} bytes differ from the recorded pins; actual:\n{table}");
    }
}

#[test]
fn binary_requests_match_the_recorded_bytes() {
    let actual = requests()
        .into_iter()
        .map(|(label, r)| (label, Codec::Binary.encode_request(&r)))
        .collect();
    check("request", actual, REQUEST_PINS);
}

#[test]
fn binary_responses_match_the_recorded_bytes() {
    let actual = responses()
        .into_iter()
        .map(|(label, r)| (label, Codec::Binary.encode_response(&r)))
        .collect();
    check("response", actual, RESPONSE_PINS);
}

#[test]
fn hello_frame_matches_the_recorded_bytes() {
    assert_eq!(BINARY_VERSION, 2);
    assert_eq!(encode_hello(BINARY_VERSION), b"OBFB\x02");
}

#[test]
fn every_pinned_case_decodes_back_to_its_value() {
    for (label, request) in requests() {
        let bytes = Codec::Binary.encode_request(&request);
        assert_eq!(Codec::Binary.decode_request(&bytes).as_ref(), Ok(&request), "{label}");
    }
    for (label, response) in responses() {
        let bytes = Codec::Binary.encode_response(&response);
        let back = Codec::Binary.decode_response(&bytes).expect(label);
        // NaN != NaN, so compare re-encodings: equal bytes, equal bits.
        assert_eq!(Codec::Binary.encode_response(&back), bytes, "{label}");
    }
}

#[test]
fn json_and_binary_decode_every_pinned_request_to_the_same_value() {
    for (label, request) in requests() {
        let text = Codec::Json.encode_request(&request);
        let bytes = Codec::Binary.encode_request(&request);
        // The binary payload is the JSON payload's value, tag by tag.
        let mut r = ByteReader::new(&bytes);
        let value = read_json(&mut r).expect(label);
        assert_eq!(r.finish(), Ok(()), "{label}");
        let text = std::str::from_utf8(&text).expect(label);
        assert_eq!(value, parse_json(text).expect(label), "{label}");
        let from_json = Codec::Json.decode_request(text.as_bytes()).expect(label);
        let from_binary = Codec::Binary.decode_request(&bytes).expect(label);
        assert_eq!(from_json, from_binary, "{label}");
        assert_eq!(from_binary, request, "{label}");
    }
}

/// (label, JSON text, a part of the error) of requests both codecs
/// must refuse: integers from 2^53 up, which an `f64` may have rounded,
/// and envelopes or specs with a repeated or unknown field.
const REQUEST_REFUSALS: &[(&str, &str, &str)] = &[
    ("seed-2^53+1", r#"{"id":1,"kind":"run","jobs":[{"seed":9007199254740993}]}"#, "`seed`"),
    ("seed-2^53", r#"{"id":1,"kind":"run","jobs":[{"seed":9007199254740992}]}"#, "`seed`"),
    ("id-u64-max", r#"{"id":18446744073709551615,"kind":"ping"}"#, "`id`"),
    (
        "trace-seed-2^64",
        r#"{"id":1,"kind":"detect","jobs":[{"trace_seed":18446744073709551616}]}"#,
        "`trace_seed`",
    ),
    (
        "payload-seed-2^53",
        r#"{"id":1,"kind":"sanitize","jobs":[{"payload_seed":9007199254740992}]}"#,
        "`payload_seed`",
    ),
    (
        "deadline-2^53",
        r#"{"id":1,"kind":"authenticate","deadline_ms":9007199254740992}"#,
        "`deadline_ms`",
    ),
    ("unknown-envelope-field", r#"{"id":5,"kind":"ping","bogus":1}"#, "unknown request field"),
    ("field-of-another-kind", r#"{"id":5,"kind":"ping","jobs":[]}"#, "`jobs`"),
    ("repeated-kind", r#"{"id":5,"kind":"ping","kind":"shutdown"}"#, "repeated request field"),
    ("repeated-id", r#"{"id":5,"id":6,"kind":"ping"}"#, "repeated request field `id`"),
    (
        "repeated-job-seed",
        r#"{"id":5,"kind":"run","jobs":[{"seed":1,"seed":2}]}"#,
        "repeated job spec field `seed`",
    ),
    (
        "repeated-detect-field",
        r#"{"id":5,"kind":"detect","jobs":[{"quality":"lab","quality":"room"}]}"#,
        "repeated detect spec field `quality`",
    ),
    (
        "retired-solver",
        r#"{"id":5,"kind":"run","jobs":[{"solver":"relaxation"}]}"#,
        "unknown job spec field `solver`",
    ),
];

/// (label, JSON text, a part of the error) of responses both codecs
/// must refuse.
const RESPONSE_REFUSALS: &[(&str, &str, &str)] = &[
    ("unknown-response-field", r#"{"id":1,"kind":"pong","extra":0}"#, "unknown response field"),
    (
        "repeated-results",
        r#"{"id":1,"kind":"results","results":[],"results":[1]}"#,
        "repeated response field `results`",
    ),
    ("bye-2^53", r#"{"id":1,"kind":"bye","completed":9007199254740992}"#, "`completed`"),
];

/// The binary payload of the message a JSON text spells.
fn binary_of(text: &str) -> Vec<u8> {
    let mut w = ByteWriter::new();
    put_json(&mut w, &parse_json(text).expect("the refusal case parses"));
    w.into_bytes()
}

#[test]
fn refused_messages_get_the_same_error_on_both_codecs() {
    for (label, text, expected) in REQUEST_REFUSALS {
        let json = Codec::Json.decode_request(text.as_bytes()).expect_err(label);
        let binary = Codec::Binary.decode_request(&binary_of(text)).expect_err(label);
        assert_eq!(json, binary, "{label}");
        assert!(json.contains(expected), "{label}: {json}");
    }
    for (label, text, expected) in RESPONSE_REFUSALS {
        let json = Codec::Json.decode_response(text.as_bytes()).expect_err(label);
        let binary = Codec::Binary.decode_response(&binary_of(text)).expect_err(label);
        assert_eq!(json, binary, "{label}");
        assert!(json.contains(expected), "{label}: {json}");
    }
}
