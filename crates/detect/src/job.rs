//! The two batch-job entry points the daemon serves: counterfeit
//! detection and stego sanitization.
//!
//! Both are **stage-shaped**: they key their result off the tool-path
//! stage key the pipeline itself computed (via
//! [`obfuscade::plan_toolpath`]), look the result up in the shared
//! [`StageCache`] before doing any work, and insert it afterwards — so
//! detection reports cache, spill, and route across a fleet exactly like
//! mesh/slice/print artifacts do.

use std::sync::Arc;

use am_cad::Part;
use am_sidechannel::{CapturePlan, CaptureQuality};
use obfuscade::{
    plan_toolpath, print_toolpath, Deadline, DetectionReport, FaultPlan, PipelineError,
    ProcessPlan, SanitizeReport, StageCache, StageHasher, StageKey,
};

use crate::detector::Calibration;
use crate::stego::{
    embed_payload, mechanical_quantize, sanitize_coords, scan_channel, BASE_QUANTUM_MM,
};

/// How a detection job captures and judges its traces.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectConfig {
    /// Capture-quality preset name: `lab`, `smartphone`, or `room`.
    pub quality: String,
    /// Relative amplitude of the defender's noise emitter over the
    /// acoustic capture (0 = off).
    pub jam_amplitude: f64,
    /// Seed of every capture-noise draw the job makes.
    pub trace_seed: u64,
    /// Nominal false-positive rate the thresholds are calibrated to.
    pub fpr_target: f64,
    /// Genuine-recapture replicates used to calibrate the thresholds.
    pub null_replicates: usize,
}

impl Default for DetectConfig {
    fn default() -> Self {
        DetectConfig {
            quality: "smartphone".to_string(),
            jam_amplitude: 0.0,
            trace_seed: 1,
            fpr_target: 0.05,
            null_replicates: 24,
        }
    }
}

/// Resolves a capture-quality preset name.
///
/// # Errors
///
/// A message listing the valid names.
pub fn capture_quality(name: &str) -> Result<CaptureQuality, String> {
    match name {
        "lab" => Ok(CaptureQuality::lab_grade()),
        "smartphone" => Ok(CaptureQuality::smartphone()),
        "room" => Ok(CaptureQuality::across_the_room()),
        other => Err(format!(
            "unknown capture quality `{other}` (expected `lab`, `smartphone`, or `room`)"
        )),
    }
}

/// The content address of one detection result: chains the golden tool
/// path's stage key with the canonical fault-plan rendering and every
/// capture parameter. Pure — nothing is traced to compute it.
pub fn detection_key(golden: StageKey, faults: &FaultPlan, config: &DetectConfig) -> StageKey {
    let mut h = StageHasher::new("obfuscade/detect/v1");
    h.write_key(golden);
    h.write_str(&faults.to_string());
    h.write_u64(faults.seed);
    h.write_str(&config.quality);
    h.write_f64(config.jam_amplitude);
    h.write_u64(config.trace_seed);
    h.write_f64(config.fpr_target);
    h.write_u64(config.null_replicates as u64);
    h.finish()
}

/// Runs one counterfeit-detection job: plans the golden and suspect tool
/// paths through the shared cache, synthesizes acoustic + power captures,
/// and scores the suspect against the calibrated detector bank.
///
/// `fault_spec` is the job's fault spec as the caller wrote it, echoed
/// into the report. The result is cached under [`detection_key`], which
/// hashes the canonical fault plan, so a cache hit echoes the caller's
/// spelling too, not the spelling of the request that computed it.
///
/// A suspect whose tool-path stage key equals the golden one is the
/// golden tool path itself; it is scored against the calibration's
/// golden plan instead of being planned again.
///
/// Suspects whose injected faults trip a typed process guard before the
/// tool-path stage are reported as blocked (see
/// [`DetectionReport::blocked_by`]) with saturated scores, not as
/// errors — a part program that cannot even be planned is the easiest
/// counterfeit to catch.
///
/// # Errors
///
/// [`DetectError::Config`] for an unknown [`DetectConfig::quality`]
/// name; [`DetectError::Pipeline`] for any failure of the *golden*
/// chain (the genuine design must plan cleanly) and for
/// [`PipelineError::DeadlineExceeded`] from either chain.
pub fn detect_counterfeit(
    part: &Part,
    plan: &ProcessPlan,
    faults: &FaultPlan,
    fault_spec: &str,
    config: &DetectConfig,
    cache: &StageCache,
    deadline: Deadline,
) -> Result<DetectionReport, DetectError> {
    let quality = capture_quality(&config.quality).map_err(DetectError::Config)?;
    let golden = plan_toolpath(part, plan, &FaultPlan::none(), cache, deadline)
        .map_err(DetectError::Pipeline)?;
    let key = detection_key(golden.key, faults, config);
    if let Some(report) = cache.get_detection(key) {
        return Ok(DetectionReport { fault_spec: fault_spec.to_string(), ..(*report).clone() });
    }
    let suspect = match plan_toolpath(part, plan, faults, cache, deadline) {
        Ok(suspect) => Ok(suspect),
        Err(PipelineError::DeadlineExceeded { stage }) => {
            return Err(DetectError::Pipeline(PipelineError::DeadlineExceeded { stage }))
        }
        Err(blocked) => Err(blocked.stage().name().to_string()),
    };
    let cal = Calibration::calibrate(
        &golden.toolpath,
        plan.printer.feed_mm_per_s,
        quality,
        config.jam_amplitude,
        config.trace_seed,
        config.null_replicates,
        config.fpr_target,
    );
    let (scores, blocked_by) = match &suspect {
        Ok(suspect) if suspect.key == golden.key => {
            (cal.score(cal.golden_plan(), config.trace_seed), None)
        }
        Ok(suspect) => {
            let suspect = CapturePlan::new(&suspect.toolpath, plan.printer.feed_mm_per_s);
            (cal.score(&suspect, config.trace_seed), None)
        }
        Err(stage) => (cal.score_blocked(), Some(stage.clone())),
    };
    let report = DetectionReport {
        fault_spec: fault_spec.to_string(),
        quality: config.quality.clone(),
        jam_amplitude: config.jam_amplitude,
        trace_seed: config.trace_seed,
        blocked_by,
        audio_score: scores.audio,
        power_score: scores.power,
        fused_score: scores.fused,
        audio_threshold: cal.audio_threshold,
        power_threshold: cal.power_threshold,
        fused_threshold: cal.fused_threshold,
        audio_flagged: scores.audio_flagged,
        power_flagged: scores.power_flagged,
        fused_flagged: scores.fused_flagged,
        suspect_frames: scores.suspect_frames,
        golden_frames: cal.golden_frames,
    };
    cache.insert_detection(key, Arc::new(report.clone()));
    Ok(report)
}

/// What a sanitization job should scan for and strip.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SanitizeConfig {
    /// Seed of a payload to embed before sanitizing (0 = none: the job
    /// scans and strips its own clean tool path — the round-trip the ci
    /// stage byte-verifies).
    pub payload_seed: u64,
    /// Width of the scanned/stripped channel (bits per coordinate).
    pub payload_bits: u32,
}

impl Default for SanitizeConfig {
    fn default() -> Self {
        SanitizeConfig { payload_seed: 0, payload_bits: crate::stego::DEFAULT_PAYLOAD_BITS }
    }
}

/// The content address of one sanitization result.
pub fn sanitize_key(toolpath: StageKey, config: &SanitizeConfig) -> StageKey {
    let mut h = StageHasher::new("obfuscade/sanitize/v1");
    h.write_key(toolpath);
    h.write_u64(config.payload_seed);
    h.write_u64(u64::from(config.payload_bits));
    h.finish()
}

/// Grid quanta the sanitizer tries, coarsest first. Each halving halves
/// the worst coordinate displacement; by the last rung the strip moves
/// coordinates by fractions of a nanometre, far inside one mechanical
/// step, so the fingerprint ladder converges for any real tool path.
const QUANTUM_LADDER: usize = 16;

/// Runs one stego-sanitization job: plans the tool path through the
/// shared cache, optionally embeds a payload (the attack being
/// exercised), scans the channel, strips it, and proves the strip
/// print-preserving by stage-key identity over the voxel-grid digests of
/// the original and sanitized prints.
///
/// # Errors
///
/// Any [`PipelineError`] of the planning chain (a sanitization job for a
/// fault plan that cannot produce a part program is an error — there is
/// nothing to sanitize), or a print failure from the fingerprint oracle.
pub fn sanitize_toolpath(
    part: &Part,
    plan: &ProcessPlan,
    faults: &FaultPlan,
    config: &SanitizeConfig,
    cache: &StageCache,
    deadline: Deadline,
) -> Result<SanitizeReport, DetectError> {
    let planned =
        plan_toolpath(part, plan, faults, cache, deadline).map_err(DetectError::Pipeline)?;
    let key = sanitize_key(planned.key, config);
    if let Some(report) = cache.get_sanitize(key) {
        return Ok((*report).clone());
    }
    let bits = config.payload_bits;
    let input = if config.payload_seed != 0 {
        embed_payload(&planned.toolpath, config.payload_seed, bits, BASE_QUANTUM_MM)
    } else {
        planned.toolpath.clone()
    };
    let suspicious_before = scan_channel(&input, bits, BASE_QUANTUM_MM);
    // The fingerprint oracle prints the *mechanically quantized* paths:
    // the stepper grid (1/STEPS_PER_MM) is the machine's true positional
    // resolution, so digest equality over these prints is exactly the
    // claim "the strip changed nothing the printer can execute".
    let original_print = print_toolpath(&mechanical_quantize(&input), plan, planned.to_build)
        .map_err(DetectError::Pipeline)?;
    let original_fp = fingerprint(&original_print);

    let mut quantum = BASE_QUANTUM_MM;
    let mut outcome = None;
    for rung in 0..QUANTUM_LADDER {
        let (stripped, residual) = sanitize_coords(&input, bits, quantum);
        let stripped_print =
            print_toolpath(&mechanical_quantize(&stripped), plan, planned.to_build)
                .map_err(DetectError::Pipeline)?;
        let fp = fingerprint(&stripped_print);
        let preserved = fp == original_fp;
        if preserved || rung == QUANTUM_LADDER - 1 {
            outcome = Some((stripped, residual, fp, preserved, quantum));
            break;
        }
        quantum /= 2.0;
    }
    let (stripped, residual_mm, sanitized_fp, fingerprint_preserved, quantum_mm) =
        outcome.expect("the quantum ladder always yields an outcome");
    let report = SanitizeReport {
        payload_seed: config.payload_seed,
        payload_bits: u64::from(bits),
        roads: planned.toolpath.roads.len() as u64,
        suspicious_before,
        suspicious_after: scan_channel(&stripped, bits, quantum_mm),
        quantum_mm,
        residual_mm,
        fingerprint_preserved,
        original_fingerprint: original_fp.to_string(),
        sanitized_fingerprint: sanitized_fp.to_string(),
    };
    cache.insert_sanitize(key, Arc::new(report.clone()));
    Ok(report)
}

/// The print-fingerprint stage key: the deposited voxel grid's digest
/// under its own hash domain. Two prints share this key exactly when
/// their voxel grids are byte-identical.
pub fn fingerprint(printed: &am_printer::PrintedPart) -> StageKey {
    let digest = printed.grid_digest();
    let mut h = StageHasher::new("obfuscade/printfp/v1");
    h.write_u64((digest >> 64) as u64);
    h.write_u64(digest as u64);
    h.finish()
}

/// Errors of the detection subsystem's job entry points.
#[derive(Debug, Clone)]
pub enum DetectError {
    /// The manufacturing chain itself failed (same taxonomy as a `run`
    /// job — deadline expiry included).
    Pipeline(PipelineError),
    /// The detection configuration was rejected (unknown quality
    /// preset).
    Config(String),
}

impl std::fmt::Display for DetectError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DetectError::Pipeline(e) => write!(f, "{e}"),
            DetectError::Config(msg) => write!(f, "invalid detect config: {msg}"),
        }
    }
}

impl std::error::Error for DetectError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DetectError::Pipeline(e) => Some(e),
            DetectError::Config(_) => None,
        }
    }
}

impl From<PipelineError> for DetectError {
    fn from(e: PipelineError) -> Self {
        DetectError::Pipeline(e)
    }
}
