//! The ROC benchmark sweep: detector × fault catalog × capture setup.
//!
//! For every capture setup (quality preset × jamming amplitude) the
//! sweep calibrates one detector bank against the golden master, then
//! measures, per fault-catalog entry, the catch rate of each detector
//! over independent capture replicates — and, per setup, the *measured*
//! false-positive rate over held-out genuine recaptures (seeds disjoint
//! from the calibration set). This is the experiment table behind
//! `obfuscade detect-roc`, `obfuscade report detect` and EXPERIMENTS.md.

use am_cad::Part;
use am_sidechannel::CapturePlan;
use obfuscade::json::Json;
use obfuscade::{plan_toolpath, Deadline, FaultPlan, ProcessPlan, StageCache};

use crate::detector::{mix, Calibration};
use crate::job::{capture_quality, DetectConfig, DetectError};

/// Salt for per-replicate suspect capture seeds.
const REPLICATE_SALT: u64 = 0x5245_504c;
/// Salt for held-out null capture seeds (disjoint from calibration's).
const HOLDOUT_SALT: u64 = 0x484f_4c44;

/// Shape of one ROC sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct RocConfig {
    /// Capture-quality preset names to sweep.
    pub qualities: Vec<String>,
    /// Jamming amplitudes to sweep (0 = countermeasure off).
    pub jam_amplitudes: Vec<f64>,
    /// Suspect capture replicates per fault entry.
    pub replicates: usize,
    /// Held-out genuine recaptures per setup for the measured FPR.
    pub holdout_nulls: usize,
    /// Base detect configuration (seed, nominal FPR, calibration size).
    pub detect: DetectConfig,
}

impl Default for RocConfig {
    fn default() -> Self {
        RocConfig {
            qualities: vec!["lab".into(), "smartphone".into(), "room".into()],
            jam_amplitudes: vec![0.0, 2.5],
            replicates: 5,
            holdout_nulls: 40,
            detect: DetectConfig::default(),
        }
    }
}

impl RocConfig {
    /// A cheap sweep for smoke tests: one quality, no jamming axis, few
    /// replicates.
    pub fn smoke() -> Self {
        RocConfig {
            qualities: vec!["smartphone".into()],
            jam_amplitudes: vec![0.0],
            replicates: 2,
            holdout_nulls: 10,
            detect: DetectConfig { null_replicates: 12, ..DetectConfig::default() },
        }
    }
}

/// Catch rates of one (fault, quality, jam) cell.
#[derive(Debug, Clone, PartialEq)]
pub struct RocCell {
    /// Fault-catalog entry name.
    pub fault: String,
    /// Capture-quality preset name.
    pub quality: String,
    /// Jamming amplitude.
    pub jam_amplitude: f64,
    /// Did the fault trip a process guard before tool-path planning?
    pub blocked: bool,
    /// Fraction of replicates the audio detector flagged.
    pub audio_catch: f64,
    /// Fraction of replicates the power detector flagged.
    pub power_catch: f64,
    /// Fraction of replicates the fused detector flagged.
    pub fused_catch: f64,
}

/// Per-setup aggregate: measured FPR and mean catch rate per detector.
#[derive(Debug, Clone, PartialEq)]
pub struct RocSetup {
    /// Capture-quality preset name.
    pub quality: String,
    /// Jamming amplitude.
    pub jam_amplitude: f64,
    /// Measured audio FPR over held-out genuine recaptures.
    pub audio_fpr: f64,
    /// Measured power FPR.
    pub power_fpr: f64,
    /// Measured fused FPR.
    pub fused_fpr: f64,
    /// Mean audio catch rate over the fault catalog.
    pub audio_catch: f64,
    /// Mean power catch rate.
    pub power_catch: f64,
    /// Mean fused catch rate.
    pub fused_catch: f64,
}

/// The full sweep result.
#[derive(Debug, Clone, PartialEq)]
pub struct RocTable {
    /// One cell per fault × quality × jam.
    pub cells: Vec<RocCell>,
    /// One aggregate row per quality × jam.
    pub setups: Vec<RocSetup>,
    /// Fault-catalog entries covered (a coverage pin: must be 15).
    pub faults_covered: usize,
}

impl RocTable {
    /// Canonical JSON rendering (`obfuscade detect-roc --json`).
    pub fn to_json(&self) -> Json {
        let cell = |c: &RocCell| {
            Json::Object(vec![
                ("fault".into(), Json::String(c.fault.clone())),
                ("quality".into(), Json::String(c.quality.clone())),
                ("jam_amplitude".into(), Json::Number(c.jam_amplitude)),
                ("blocked".into(), Json::Bool(c.blocked)),
                ("audio_catch".into(), Json::Number(c.audio_catch)),
                ("power_catch".into(), Json::Number(c.power_catch)),
                ("fused_catch".into(), Json::Number(c.fused_catch)),
            ])
        };
        let setup = |s: &RocSetup| {
            Json::Object(vec![
                ("quality".into(), Json::String(s.quality.clone())),
                ("jam_amplitude".into(), Json::Number(s.jam_amplitude)),
                ("audio_fpr".into(), Json::Number(s.audio_fpr)),
                ("power_fpr".into(), Json::Number(s.power_fpr)),
                ("fused_fpr".into(), Json::Number(s.fused_fpr)),
                ("audio_catch".into(), Json::Number(s.audio_catch)),
                ("power_catch".into(), Json::Number(s.power_catch)),
                ("fused_catch".into(), Json::Number(s.fused_catch)),
            ])
        };
        Json::Object(vec![
            ("faults_covered".into(), Json::u64(self.faults_covered as u64)),
            ("cells".into(), Json::Array(self.cells.iter().map(cell).collect())),
            ("setups".into(), Json::Array(self.setups.iter().map(setup).collect())),
        ])
    }
}

/// Runs the sweep over the complete single-fault catalog.
///
/// Suspect tool paths are planned once through the shared `cache`, and
/// their captures once per sweep: every setup and replicate replays the
/// same [`CapturePlan`], and the held-out nulls replay the calibration's
/// golden plan. The sweep's cost is the seeded noise draws and their
/// deciles, linear in road count.
///
/// # Errors
///
/// [`DetectError::Config`] for an unknown quality name;
/// [`DetectError::Pipeline`] when the golden chain fails or the
/// deadline expires.
pub fn run_roc_sweep(
    part: &Part,
    plan: &ProcessPlan,
    config: &RocConfig,
    cache: &StageCache,
    deadline: Deadline,
) -> Result<RocTable, DetectError> {
    let golden = plan_toolpath(part, plan, &FaultPlan::none(), cache, deadline)
        .map_err(DetectError::Pipeline)?;
    let feed = plan.printer.feed_mm_per_s;
    let catalog = FaultPlan::catalog();
    // Plan every suspect and its captures once, up front (shared by all
    // setups).
    let mut suspects = Vec::with_capacity(catalog.len());
    for (name, faults) in &catalog {
        match plan_toolpath(part, plan, faults, cache, deadline) {
            Ok(planned) => suspects.push((*name, Some(CapturePlan::new(&planned.toolpath, feed)))),
            Err(obfuscade::PipelineError::DeadlineExceeded { stage }) => {
                return Err(DetectError::Pipeline(
                    obfuscade::PipelineError::DeadlineExceeded { stage },
                ))
            }
            Err(_blocked) => suspects.push((*name, None)),
        }
    }

    let mut cells = Vec::new();
    let mut setups = Vec::new();
    for quality_name in &config.qualities {
        let quality = capture_quality(quality_name).map_err(DetectError::Config)?;
        for &jam in &config.jam_amplitudes {
            let cal = Calibration::calibrate(
                &golden.toolpath,
                feed,
                quality,
                jam,
                config.detect.trace_seed,
                config.detect.null_replicates,
                config.detect.fpr_target,
            );
            // Measured FPR: held-out genuine recaptures, seeds disjoint
            // from both calibration and suspect replicates.
            let (mut a_fp, mut p_fp, mut f_fp) = (0usize, 0usize, 0usize);
            for i in 0..config.holdout_nulls {
                let seed = mix(config.detect.trace_seed, HOLDOUT_SALT.wrapping_add(i as u64));
                let s = cal.score(cal.golden_plan(), seed);
                a_fp += usize::from(s.audio_flagged);
                p_fp += usize::from(s.power_flagged);
                f_fp += usize::from(s.fused_flagged);
            }
            let nulls = config.holdout_nulls.max(1) as f64;

            let (mut a_sum, mut p_sum, mut f_sum) = (0.0, 0.0, 0.0);
            for (fault_idx, (name, capture)) in suspects.iter().enumerate() {
                let (audio_catch, power_catch, fused_catch) = match capture {
                    // Blocked upstream: trivially caught on every
                    // channel — a part program the guards reject never
                    // reaches the floor.
                    None => (1.0, 1.0, 1.0),
                    Some(capture) => {
                        let (mut a, mut p, mut f) = (0usize, 0usize, 0usize);
                        for r in 0..config.replicates {
                            let seed = mix(
                                config.detect.trace_seed,
                                REPLICATE_SALT
                                    .wrapping_add((fault_idx * 1024 + r) as u64),
                            );
                            let s = cal.score(capture, seed);
                            a += usize::from(s.audio_flagged);
                            p += usize::from(s.power_flagged);
                            f += usize::from(s.fused_flagged);
                        }
                        let n = config.replicates.max(1) as f64;
                        (a as f64 / n, p as f64 / n, f as f64 / n)
                    }
                };
                a_sum += audio_catch;
                p_sum += power_catch;
                f_sum += fused_catch;
                cells.push(RocCell {
                    fault: (*name).to_string(),
                    quality: quality_name.clone(),
                    jam_amplitude: jam,
                    blocked: capture.is_none(),
                    audio_catch,
                    power_catch,
                    fused_catch,
                });
            }
            let faults = suspects.len().max(1) as f64;
            setups.push(RocSetup {
                quality: quality_name.clone(),
                jam_amplitude: jam,
                audio_fpr: a_fp as f64 / nulls,
                power_fpr: p_fp as f64 / nulls,
                fused_fpr: f_fp as f64 / nulls,
                audio_catch: a_sum / faults,
                power_catch: p_sum / faults,
                fused_catch: f_sum / faults,
            });
        }
    }
    Ok(RocTable { cells, setups, faults_covered: catalog.len() })
}
