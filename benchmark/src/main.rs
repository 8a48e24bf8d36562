//! The repository benchmark. One command runs one named workload:
//!
//! ```text
//! obfuscade-benchmark --workload <paper-sweep|serve-hot|serve-routed>
//!     --seed <n> --seconds <s> --trace <0|1> --cli <path to obfuscade>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` is the separate traced run that reports the per-layer
//! metrics. Every output is checked. A readable table goes to standard
//! output first; the last line is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. The exit status is nonzero when
//! any output is wrong or the run is invalid. See `README.md` beside
//! this crate.

mod gen;
mod report;
mod schedule;
mod serve;
mod sweep;
mod trace;
mod verify;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use report::RunResult;

/// End-to-end metrics, printed by every `--trace 0` run.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("jobs_per_s", "jobs/s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("max_rate_rps", "req/s"),
    ("rss_peak_mb", "MiB"),
];

/// Per-layer metrics, printed by every `--trace 1` run. A layer the
/// workload does not exercise reads 0.
const PER_LAYER: [(&str, &str); 54] = [
    ("mesh.tessellate_ms", "ms"),
    ("mesh.triangles", "count"),
    ("slicer.slice_ms", "ms"),
    ("slicer.layers", "count"),
    ("slicer.diagnose_ms", "ms"),
    ("slicer.toolpath_ms", "ms"),
    ("printer.deposit_ms", "ms"),
    ("printer.scan_ms", "ms"),
    ("printer.spans_planned", "count"),
    ("printer.span_fill_voxels", "count"),
    ("fea.lattice_ms", "ms"),
    ("fea.solve_ms", "ms"),
    ("fea.newton_iters", "count"),
    ("fea.pcg_iters", "count"),
    ("fea.force_evals", "count"),
    ("fea.pool_reuse_ratio", "ratio"),
    ("detect.judge_ms", "ms"),
    ("cache.hit_ratio", "ratio"),
    ("cache.insertions", "count"),
    ("cache.evictions", "count"),
    ("cache.resident_mb", "MiB"),
    ("core.unattributed_ms", "ms"),
    ("par.efficiency", "ratio"),
    ("codec.json.encode_req_us", "us"),
    ("codec.json.decode_req_us", "us"),
    ("codec.json.encode_resp_us", "us"),
    ("codec.json.decode_resp_us", "us"),
    ("codec.binary.encode_req_us", "us"),
    ("codec.binary.decode_req_us", "us"),
    ("codec.binary.encode_resp_us", "us"),
    ("codec.binary.decode_resp_us", "us"),
    ("codec.json.req_bytes", "bytes"),
    ("codec.json.resp_bytes", "bytes"),
    ("codec.binary.req_bytes", "bytes"),
    ("codec.binary.resp_bytes", "bytes"),
    ("protocol.render_us", "us"),
    ("server.wait_p50_ms", "ms"),
    ("server.wait_p99_ms", "ms"),
    ("server.exec_p50_ms", "ms"),
    ("server.exec_p99_ms", "ms"),
    ("server.return_p50_ms", "ms"),
    ("server.rejected", "count"),
    ("server.expired", "count"),
    ("server.backpressure_stalls", "count"),
    ("client.retries", "count"),
    ("client.connects", "count"),
    ("router.hop_ms", "ms"),
    ("router.routed", "count"),
    ("router.failovers", "count"),
    ("router.imbalance", "ratio"),
    ("gen.offered_rps", "req/s"),
    ("gen.late_p99_ms", "ms"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    cli: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: schedule::DEFAULT_SEED,
        seconds: 12.0,
        trace: false,
        cli: PathBuf::from("target/release/obfuscade"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad --seed `{value}`"))?,
            "--seconds" => {
                args.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && s.is_finite())
                    .ok_or(format!("bad --seconds `{value}`"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace `{value}` (0|1)")),
                }
            }
            "--cli" => args.cli = PathBuf::from(value),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(args)
}

fn run(args: &Args) -> Result<RunResult, String> {
    let trace_path =
        Path::new(".bench_trace").join(format!("{}-{}.jsonl", args.workload, args.seed));
    let spec = match args.workload.as_str() {
        "paper-sweep" => {
            return if args.trace {
                sweep::run_traced(args.seed, &trace_path)
            } else {
                Ok(sweep::run_untraced(args.seed, args.seconds))
            };
        }
        "serve-hot" => &serve::HOT,
        "serve-routed" => &serve::ROUTED,
        other => {
            return Err(format!(
                "unknown workload `{other}` (paper-sweep|serve-hot|serve-routed)"
            ))
        }
    };
    if args.trace {
        serve::run_traced(spec, args.seed, args.seconds, &trace_path)
    } else {
        if !args.cli.is_file() {
            return Err(format!("obfuscade CLI not found at {}", args.cli.display()));
        }
        serve::run_untraced(spec, args.seed, args.seconds, &args.cli)
    }
}

/// Orders the run's metrics by the published list; a metric the run did
/// not produce reads 0.
fn published(result: &RunResult, list: &[(&str, &'static str)]) -> RunResult {
    let mut out = RunResult {
        metrics: Vec::new(),
        ..result.clone()
    };
    for &(name, unit) in list {
        let value = result
            .metrics
            .iter()
            .find(|m| m.0 == name)
            .map_or(0.0, |m| m.1);
        out.metric(name, value, unit);
    }
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}");
            eprintln!(
                "usage: obfuscade-benchmark --workload <paper-sweep|serve-hot|serve-routed> \
                 --seed <n> --seconds <s> --trace <0|1> [--cli <obfuscade binary>]\n\
                 default seed {}, held-out seed {} (reserved for confirming claims)",
                schedule::DEFAULT_SEED,
                schedule::HELD_OUT_SEED
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(result) => {
            let list: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
            let result = published(&result, list);
            print!("{}", result.render_table());
            println!("{}", result.render_json());
            ExitCode::from(result.exit_code() as u8)
        }
        Err(e) => {
            eprintln!("benchmark: {} failed: {e}", args.workload);
            ExitCode::from(1)
        }
    }
}
