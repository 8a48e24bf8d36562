//! Output checks. Every served response is compared byte for byte with
//! the in-process reference encoders (`expected_results_wire`,
//! `expected_detections_wire`) or, for `authenticate`, with a verdict
//! derived in-process from the same pipeline outcome. References are
//! computed after the timed region and outside set-up.

use am_service::{
    expected_detections_wire, expected_results_wire, DetectSpec, JobSpec, RequestBody, Response,
};
use obfuscade::json::{parse_json, Json};

/// What one served request must come back as.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expected {
    /// The rendered results (`run`) or reports (`detect`) array.
    Wire(String),
    /// An `authenticate` verdict, floats as IEEE-754 bits.
    Verdict {
        verdict: String,
        cold_joint_bits: u64,
        void_bits: u64,
    },
}

/// Whether `response` is exactly what `expected` says.
pub fn matches(expected: &Expected, response: &Response) -> bool {
    match (expected, response) {
        (Expected::Wire(wire), Response::Results { results, .. }) => {
            Json::Array(results.clone()).render() == *wire
        }
        (Expected::Wire(wire), Response::Detections { reports, .. }) => {
            Json::Array(reports.clone()).render() == *wire
        }
        (
            Expected::Verdict {
                verdict,
                cold_joint_bits,
                void_bits,
            },
            Response::Verdict {
                verdict: got,
                cold_joint_mm2,
                void_mm3,
                ..
            },
        ) => {
            got == verdict
                && cold_joint_mm2.to_bits() == *cold_joint_bits
                && void_mm3.to_bits() == *void_bits
        }
        _ => false,
    }
}

/// The daemon's authenticate verdict rule: absolute thresholds on
/// cold-joint area (mm²) and void volume (mm³), the same the
/// `authenticate` CLI command uses.
pub fn verdict_rule(cold_joint_mm2: f64, void_mm3: f64) -> &'static str {
    if cold_joint_mm2 > 10.0 || void_mm3 > 20.0 {
        "counterfeit"
    } else {
        "genuine"
    }
}

/// The verdict a reference outcome must come back as.
fn verdict_of(outcome: &Json) -> Result<Expected, String> {
    let ok = outcome
        .get("ok")
        .ok_or("reference authenticate job failed")?;
    let number = |field: &str| {
        ok.get(field)
            .and_then(Json::as_number)
            .ok_or(format!("reference lacks `{field}`"))
    };
    let (cold, voids) = (number("cold_joint_mm2")?, number("void_mm3")?);
    Ok(Expected::Verdict {
        verdict: verdict_rule(cold, voids).to_string(),
        cold_joint_bits: cold.to_bits(),
        void_bits: voids.to_bits(),
    })
}

/// Splits a rendered reference array into one-element arrays, one per
/// request.
fn split_array(wire: &str) -> Result<Vec<Json>, String> {
    match parse_json(wire)? {
        Json::Array(items) => Ok(items),
        _ => Err("reference is not an array".to_string()),
    }
}

/// References for every body, in order. Each request carries one job;
/// bodies of one kind are batched into one reference call per chunk, and
/// `threads` chunks run side by side.
///
/// # Errors
///
/// A body kind the benchmark never sends, or a reference failure.
pub fn references(bodies: &[RequestBody], threads: usize) -> Result<Vec<Expected>, String> {
    let mut out: Vec<Option<Expected>> = vec![None; bodies.len()];
    let mut runs: Vec<(usize, JobSpec)> = Vec::new();
    let mut auths: Vec<(usize, JobSpec)> = Vec::new();
    let mut detects: Vec<(usize, DetectSpec)> = Vec::new();
    for (i, body) in bodies.iter().enumerate() {
        match body {
            RequestBody::Run { jobs, .. } if jobs.len() == 1 => runs.push((i, jobs[0].clone())),
            RequestBody::Authenticate { job, .. } => auths.push((i, job.clone())),
            RequestBody::Detect { jobs, .. } if jobs.len() == 1 => {
                detects.push((i, jobs[0].clone()))
            }
            other => return Err(format!("no reference for {other:?}")),
        }
    }
    let threads = threads.max(1);
    let results: Vec<Result<Vec<(usize, Expected)>, String>> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for t in 0..threads {
            let pick = |all: &[(usize, JobSpec)]| -> Vec<(usize, JobSpec)> {
                all.iter().skip(t).step_by(threads).cloned().collect()
            };
            let (runs, auths) = (pick(&runs), pick(&auths));
            let detects: Vec<(usize, DetectSpec)> =
                detects.iter().skip(t).step_by(threads).cloned().collect();
            handles.push(scope.spawn(move || {
                let mut out = Vec::new();
                let specs: Vec<JobSpec> = runs.iter().map(|(_, s)| s.clone()).collect();
                if !specs.is_empty() {
                    let items = split_array(&expected_results_wire(&specs)?)?;
                    for ((i, _), item) in runs.iter().zip(items) {
                        out.push((*i, Expected::Wire(Json::Array(vec![item]).render())));
                    }
                }
                let specs: Vec<JobSpec> = auths.iter().map(|(_, s)| s.clone()).collect();
                if !specs.is_empty() {
                    let items = split_array(&expected_results_wire(&specs)?)?;
                    for ((i, _), item) in auths.iter().zip(items) {
                        out.push((*i, verdict_of(&item)?));
                    }
                }
                let specs: Vec<DetectSpec> = detects.iter().map(|(_, s)| s.clone()).collect();
                if !specs.is_empty() {
                    let items = split_array(&expected_detections_wire(&specs)?)?;
                    for ((i, _), item) in detects.iter().zip(items) {
                        out.push((*i, Expected::Wire(Json::Array(vec![item]).render())));
                    }
                }
                Ok(out)
            }));
        }
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("reference thread panicked".into()))
            })
            .collect()
    });
    for chunk in results {
        for (i, expected) in chunk? {
            out[i] = Some(expected);
        }
    }
    out.into_iter()
        .enumerate()
        .map(|(i, e)| e.ok_or(format!("no reference computed for request {i}")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::RunResult;
    use crate::sweep::{output_bits, SweepJobs};
    use am_service::Codec;

    /// A corrupted served response and a perturbed sweep output each land
    /// in `failed` and make the command exit nonzero.
    #[test]
    fn corrupted_outputs_count_as_failed_and_fail_the_command() {
        // Served side: a genuine response matches; one flipped byte in a
        // result does not.
        let job = JobSpec {
            part: "bar".into(),
            seed: 3,
            ..JobSpec::default()
        };
        let body = RequestBody::Run {
            jobs: vec![job],
            deadline_ms: None,
        };
        let expected = references(std::slice::from_ref(&body), 1).expect("reference");
        let Expected::Wire(wire) = &expected[0] else {
            panic!("run gives a wire reference")
        };
        let served = Response::Results {
            id: 1,
            results: split_array(wire).expect("array"),
        };
        for codec in [Codec::Json, Codec::Binary] {
            let decoded = codec
                .decode_response(&codec.encode_response(&served))
                .expect("decode");
            assert!(
                matches(&expected[0], &decoded),
                "{codec:?} round trip must match"
            );
        }
        let corrupted_text = wire.replacen("\"triangles\":", "\"triangles\":1", 1);
        let corrupted = Response::Results {
            id: 1,
            results: split_array(&corrupted_text).expect("array"),
        };
        assert!(!matches(&expected[0], &corrupted));
        let refused = Response::Error {
            id: 1,
            error: am_service::ServiceError::Overloaded,
            message: "full".into(),
        };
        assert!(!matches(&expected[0], &refused), "a refusal is a failure");

        // Sweep side: one tensile bit flipped.
        let jobs = SweepJobs::build(1);
        let last = jobs.len() - 1;
        let (part, plan) = jobs.job(last);
        let outcome = obfuscade::run_pipeline(part, plan);
        let reference = output_bits(&outcome);
        let mut perturbed = outcome.clone().expect("bar job runs");
        let t = perturbed.tensile.as_mut().expect("tensile job");
        t.uts_mpa = f64::from_bits(t.uts_mpa.to_bits() ^ 1);
        assert_ne!(output_bits(&Ok(perturbed)), reference);

        // Either failure makes the result incorrect and the exit nonzero.
        let mut result = RunResult::new(2);
        assert_eq!(result.exit_code(), 0);
        result.fail("served response 1 differs from its reference");
        result.fail("sweep job 27 differs from its reference");
        assert_eq!(result.failed, 2);
        assert!(!result.correct);
        assert_ne!(result.exit_code(), 0);
        assert!(result
            .render_json()
            .starts_with("{\"correct\":false,\"attempted\":2,\"failed\":2"));
    }
}
