//! Recorded-byte pins for binary codec version 1.
//!
//! `codec.rs`'s own tests check that the binary codec round-trips and
//! re-encodes identically. These pins check that it still produces the
//! *recorded* bytes, so a reordered field, a widened length prefix or a
//! changed tag fails here even when encode and decode still agree with
//! each other. A peer built from an older commit speaks exactly these
//! bytes, and [`BINARY_VERSION`] 1 promises it keeps working.
//!
//! Covered: every request and response kind, both states of every
//! option and flag, every enum value a job carries, every error class,
//! nested `Json` with `-0.0`, NaN, subnormals and non-ASCII strings, and
//! the hello frame. Each case is pinned by its byte length and the
//! FNV-1a 64-bit digest of its bytes.

use am_mesh::Resolution;
use am_service::{
    encode_hello, Codec, DetectSpec, JobSpec, Request, RequestBody, Response, SanitizeSpec,
    ServiceError, BINARY_VERSION,
};
use am_slicer::Orientation;
use obfuscade::json::Json;

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
        seed: u64::MAX,
        tensile: true,
        solver: "relaxation".parse().expect("solver name"),
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
        solver: "newton-pcg".parse().expect("solver name"),
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
        trace_seed: u64::MAX,
    };
    vec![
        ("ping", request(1, RequestBody::Ping)),
        ("stats", request(2, RequestBody::Stats)),
        ("shutdown", request(u64::MAX, RequestBody::Shutdown)),
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
        ("bye", Response::Bye { id: 3, completed: u64::MAX }),
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
    ("ping", 9, 0xc709bb3119a0df9e),
    ("stats", 9, 0x908fbaeea5d3c7ee),
    ("shutdown", 9, 0xaf94b0dfc57cce5d),
    ("run", 223, 0xa4064e15ec3d9176),
    ("run-empty", 14, 0xcf2a3d8e04519542),
    ("authenticate", 113, 0x163a8f1f70c978fd),
    ("authenticate-no-deadline", 60, 0x47fb34cff361b40a),
    ("detect", 227, 0x2a71c01d0ace611f),
    ("detect-empty", 14, 0x0646a29821e6bc38),
    ("sanitize", 177, 0x947e31735d4d79e7),
    ("sanitize-deadline", 87, 0xe91866f6c618cd96),
];

/// (label, byte length, FNV-1a digest) of every response case.
const RESPONSE_PINS: &[(&str, usize, u64)] = &[
    ("pong", 9, 0xc709bb3119a0df9e),
    ("stats", 263, 0xd7d6fbb5dede9dfa),
    ("bye", 17, 0x193023ee5cb97d3e),
    ("results", 268, 0xbd7629f3de758512),
    ("results-empty", 13, 0xd6d9043b754c5967),
    ("verdict", 47, 0x454244c173c4d00d),
    ("detections", 296, 0x9b3c5248cce99908),
    ("detections-empty", 13, 0xb29745a7f3947a21),
    ("sanitized", 268, 0x914e4d9191f7590b),
    ("error-overloaded", 40, 0xa1d7549a4003763c),
    ("error-shutting-down", 43, 0x06cafec4628dcbe2),
    ("error-malformed", 39, 0x6e3c56789a08eb79),
    ("error-forbidden", 39, 0x9f997c634d560672),
    ("error-job", 33, 0xd7ffc8f5baa694cb),
    ("error-internal", 38, 0x2a7fda0002ce21cd),
    ("error-bad-codec", 39, 0x881dcf7cea9083b0),
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
    assert_eq!(BINARY_VERSION, 1);
    assert_eq!(encode_hello(BINARY_VERSION), b"OBFB\x01");
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
