//! The service's core contract: a batch served over the wire is
//! **byte-identical** to the same batch run in-process through
//! `obfuscade::run_pipeline_jobs` — for clean jobs, seeded
//! fault-injection jobs, and jobs whose fault plans make the pipeline
//! abort with a typed error — across server worker counts {1, 2, 4},
//! across connections sharing the daemon's stage cache, and across both
//! wire codecs: decoded results must render to the same canonical JSON
//! whichever codec carried them. The in-process `expected_*_wire` runs
//! are the oracle.

use am_service::{
    expected_detections_wire, expected_results_wire, expected_sanitize_wire, ChaosPlan, Client,
    Codec, DetectSpec, Endpoint, JobSpec, Response, RetryPolicy, RetryingClient, SanitizeSpec,
    Server, ServerConfig,
};
use obfuscade::json::Json;
use proptest::prelude::*;

/// Fault specs spanning the catalog (mirrors the core determinism
/// suite). `firmware.feed=1.5` makes the firmware stage reject the part
/// program, so its jobs exercise the error-carrying wire path.
const FAULT_SPECS: &[&str] = &[
    "",
    "stl.degenerate=3",
    "toolpath.dup=0.5 toolpath.drop=0.2",
    "firmware.feed=1.5",
];

const WORKER_COUNTS: &[usize] = &[1, 2, 4];

/// The wire codecs every equivalence case sweeps.
const CODECS: &[Codec] = &[Codec::Json, Codec::Binary];

/// A small mixed batch over one fault spec: both orientations × two
/// seeds, the odd jobs faulted — so the served batch carries both clean
/// and (possibly erroring) faulted outcomes and genuinely shares stage
/// prefixes.
fn mixed_batch(spec: &str, fault_seed: u64, seed: u64) -> Vec<JobSpec> {
    let mut jobs = Vec::new();
    for (i, orientation) in ["xy", "xz", "xy", "xz"].iter().enumerate() {
        let job = JobSpec {
            orientation: match *orientation {
                "xz" => am_slicer::Orientation::Xz,
                _ => am_slicer::Orientation::Xy,
            },
            seed: seed + (i as u64) / 2,
            faults: if i % 2 == 1 { spec.to_string() } else { String::new() },
            fault_seed,
            ..JobSpec::default()
        };
        jobs.push(job);
    }
    jobs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn served_batches_are_byte_identical_to_in_process_runs(
        spec_idx in 0..FAULT_SPECS.len(),
        fault_seed in 1..10_000u64,
        seed in 1..1_000u64,
        workers_idx in 0..WORKER_COUNTS.len(),
        codec_idx in 0..CODECS.len(),
    ) {
        let codec = CODECS[codec_idx];
        let jobs = mixed_batch(FAULT_SPECS[spec_idx], fault_seed, seed);
        let expected = expected_results_wire(&jobs).expect("in-process reference run");

        let server = Server::start(ServerConfig {
            workers: WORKER_COUNTS[workers_idx],
            ..ServerConfig::default()
        })
        .expect("server boots");
        let endpoint = Endpoint::Tcp(server.addr().to_string());

        // Two separate connections submit the same batch: both must get
        // the exact reference bytes, and the second ride the cache the
        // first warmed.
        for round in 0..2 {
            let mut client =
                Client::connect_with_codec(&endpoint, None, codec).expect("connect");
            let response = client.run(jobs.clone(), None).expect("run");
            let Response::Results { results, .. } = response else {
                panic!("round {round}: expected results, got {response:?}");
            };
            prop_assert_eq!(
                Json::Array(results).render(),
                expected.clone(),
                "served bytes diverged from the in-process run (round {}, workers {}, spec `{}`, codec {})",
                round,
                WORKER_COUNTS[workers_idx],
                FAULT_SPECS[spec_idx],
                codec.name()
            );
        }

        let mut client = Client::connect(&endpoint).expect("connect");
        let metrics = client.stats().expect("stats");
        let hits = metrics
            .get("cache")
            .and_then(|c| c.get("hits"))
            .and_then(Json::as_u64)
            .expect("cache.hits");
        prop_assert!(hits > 0, "identical batches across connections produced no cache hits");

        client.shutdown().expect("shutdown");
        server.join();
    }

    /// PR 10: detection and sanitization batches served through the
    /// daemon are byte-identical to the in-process `am-detect` reference
    /// run — under both codecs, including a faulted
    /// suspect, a jammed capture, and a blocked-upstream fault plan. The
    /// second round must ride the stage cache the first round warmed
    /// (detection reports cache exactly like pipeline stages).
    #[test]
    fn detect_and_sanitize_batches_are_byte_identical(
        fault_idx in 0..FAULT_SPECS.len(),
        trace_seed in 1..10_000u64,
        payload_seed in 1..10_000u64,
        codec_idx in 0..CODECS.len(),
    ) {
        let codec = CODECS[codec_idx];
        let detect_jobs = vec![
            DetectSpec {
                job: JobSpec {
                    faults: FAULT_SPECS[fault_idx].to_string(),
                    ..JobSpec::default()
                },
                quality: "smartphone".into(),
                jam_amplitude: 0.0,
                trace_seed,
            },
            DetectSpec {
                job: JobSpec::default(),
                quality: "lab".into(),
                jam_amplitude: 1.5,
                trace_seed: trace_seed + 1,
            },
        ];
        let sanitize_jobs = vec![SanitizeSpec {
            job: JobSpec::default(),
            payload_seed,
            payload_bits: 4,
        }];
        let expected_detect =
            expected_detections_wire(&detect_jobs).expect("in-process detect reference");
        let expected_sanitize =
            expected_sanitize_wire(&sanitize_jobs).expect("in-process sanitize reference");

        let server = Server::start(ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        })
        .expect("server boots");
        let endpoint = Endpoint::Tcp(server.addr().to_string());

        for round in 0..2 {
            let mut client =
                Client::connect_with_codec(&endpoint, None, codec).expect("connect");
            let response = client.detect(detect_jobs.clone(), None).expect("detect");
            let Response::Detections { reports, .. } = response else {
                panic!("round {round}: expected detections, got {response:?}");
            };
            prop_assert_eq!(
                Json::Array(reports).render(),
                expected_detect.clone(),
                "served detection bytes diverged (round {}, codec {})",
                round,
                codec.name()
            );
            let response = client.sanitize(sanitize_jobs.clone(), None).expect("sanitize");
            let Response::Sanitized { reports, .. } = response else {
                panic!("round {round}: expected sanitized, got {response:?}");
            };
            prop_assert_eq!(
                Json::Array(reports).render(),
                expected_sanitize.clone(),
                "served sanitize bytes diverged (round {}, codec {})",
                round,
                codec.name()
            );
        }

        let mut client = Client::connect(&endpoint).expect("connect");
        let metrics = client.stats().expect("stats");
        let hits = metrics
            .get("cache")
            .and_then(|c| c.get("hits"))
            .and_then(Json::as_u64)
            .expect("cache.hits");
        prop_assert!(hits > 0, "repeated detect/sanitize batches produced no cache hits");
        client.shutdown().expect("shutdown");
        server.join();
    }

    /// PR 6: the determinism contract must survive chaos. With seeded
    /// connection drops, short/stalled reads, and worker panics active,
    /// a retrying client's accepted-and-completed batches still come
    /// back byte-identical to the in-process run — across worker counts
    /// {1, 2, 4}. Transient failures are absorbed by reconnect + retry;
    /// they must never surface as different bytes.
    #[test]
    fn chaos_injected_batches_stay_byte_identical(
        chaos_seed in 1..10_000u64,
        fault_seed in 1..10_000u64,
        seed in 1..1_000u64,
        workers_idx in 0..WORKER_COUNTS.len(),
        codec_idx in 0..CODECS.len(),
    ) {
        let codec = CODECS[codec_idx];
        let jobs = mixed_batch(FAULT_SPECS[1], fault_seed, seed);
        let expected = expected_results_wire(&jobs).expect("in-process reference run");

        let server = Server::start(ServerConfig {
            workers: WORKER_COUNTS[workers_idx],
            chaos: Some(ChaosPlan {
                // Aggressive transport chaos plus worker panics; spill
                // faults are irrelevant here (no spill dir).
                accept_drop_one_in: 3,
                read_chop_one_in: 2,
                read_stall_one_in: 16,
                worker_panic_one_in: 5,
                ..ChaosPlan::from_seed(chaos_seed)
            }),
            ..ServerConfig::default()
        })
        .expect("server boots");
        let endpoint = Endpoint::Tcp(server.addr().to_string());

        let policy = RetryPolicy {
            attempts: 24,
            base_backoff: std::time::Duration::from_millis(1),
            max_backoff: std::time::Duration::from_millis(8),
            ..RetryPolicy::default()
        };
        for round in 0..2 {
            let mut client = RetryingClient::new_with_codec(&endpoint, policy, codec);
            let response = client.run(&jobs, None).expect("retries outlast the chaos");
            let Response::Results { results, .. } = response else {
                panic!("round {round}: expected results, got {response:?}");
            };
            prop_assert_eq!(
                Json::Array(results).render(),
                expected.clone(),
                "chaos broke the determinism contract (round {}, workers {}, chaos seed {}, codec {})",
                round,
                WORKER_COUNTS[workers_idx],
                chaos_seed,
                codec.name()
            );
        }

        // Shutdown must come from a plain client (never retried), and
        // even reaching the daemon may take a few tries under accept
        // drops.
        for attempt in 0..16 {
            let Ok(mut client) = Client::connect(&endpoint) else {
                std::thread::sleep(std::time::Duration::from_millis(2));
                continue;
            };
            match client.shutdown() {
                Ok(_) => break,
                Err(err) => {
                    prop_assert!(attempt < 15, "shutdown never got through: {}", err);
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
            }
        }
        server.join();
    }
}
