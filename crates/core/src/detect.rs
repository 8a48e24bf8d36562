//! Typed results of the defensive workload suite (`am-detect`).
//!
//! The detection subsystem lives in the `am-detect` crate (it needs the
//! side-channel simulator, which this crate must not depend on), but its
//! *results* are first-class stage artifacts: they are cached under
//! content-addressed [`crate::StageKey`]s, spill to disk through the same
//! CRC-checked codec as pipeline stages, and travel the service wire.
//! The report types therefore live here, next to the cache and the spill
//! codec that store them.
//!
//! Both reports are plain data with a canonical JSON rendering (stable
//! field order — the service and CLI render responses from it, and the
//! byte-identity checks in the wire suites compare those renderings) and
//! a closed-world parser that rejects unknown fields, like every other
//! wire-facing type in the workspace.

use crate::json::Json;

/// What one side-channel detection job concluded.
///
/// Produced by `am_detect::detect_counterfeit`: the suspect job's planned
/// tool path is synthesized into acoustic and power traces and compared
/// against the golden master (the same job with an empty fault plan).
/// Scores are normalized distances; a score above its calibrated
/// threshold flags the job on that channel.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectionReport {
    /// The suspect job's fault spec, echoed as the caller wrote it (empty
    /// = the null hypothesis). Spellings of one canonical fault plan share
    /// a cached result but each get their own echo.
    pub fault_spec: String,
    /// Capture-quality preset the traces were recorded at
    /// (`lab` / `smartphone` / `room`).
    pub quality: String,
    /// Relative amplitude of the defender's noise emitter applied to the
    /// *acoustic* capture (0 = jamming off).
    pub jam_amplitude: f64,
    /// Seed of the trace-synthesis noise draw.
    pub trace_seed: u64,
    /// When the suspect job could not even reach tool-path planning (the
    /// pipeline's typed process guards rejected it), the stage that
    /// stopped it. Such jobs are trivially caught: every detector flags
    /// them with a saturated score.
    pub blocked_by: Option<String>,
    /// Audio-signature distance from the golden master trace.
    pub audio_score: f64,
    /// Power-envelope distance from the golden master trace.
    pub power_score: f64,
    /// Fused score (max of the per-channel scores, each normalized by
    /// its own null calibration).
    pub fused_score: f64,
    /// Calibrated audio decision threshold (null-distribution quantile).
    pub audio_threshold: f64,
    /// Calibrated power decision threshold.
    pub power_threshold: f64,
    /// Calibrated fused decision threshold.
    pub fused_threshold: f64,
    /// Did the audio detector flag the job?
    pub audio_flagged: bool,
    /// Did the power detector flag the job?
    pub power_flagged: bool,
    /// Did the fused detector flag the job?
    pub fused_flagged: bool,
    /// Frames in the suspect's captured trace (0 when blocked upstream).
    pub suspect_frames: u64,
    /// Frames in the golden master trace.
    pub golden_frames: u64,
}

impl DetectionReport {
    /// Approximate heap cost for cache accounting.
    pub fn cost_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.fault_spec.len()
            + self.quality.len()
            + self.blocked_by.as_ref().map_or(0, String::len)
    }

    /// Canonical JSON rendering (stable field order).
    pub fn to_json(&self) -> Json {
        Json::Object(vec![
            ("fault_spec".into(), Json::String(self.fault_spec.clone())),
            ("quality".into(), Json::String(self.quality.clone())),
            ("jam_amplitude".into(), Json::Number(self.jam_amplitude)),
            ("trace_seed".into(), Json::u64(self.trace_seed)),
            (
                "blocked_by".into(),
                match &self.blocked_by {
                    Some(stage) => Json::String(stage.clone()),
                    None => Json::Null,
                },
            ),
            ("audio_score".into(), Json::Number(self.audio_score)),
            ("power_score".into(), Json::Number(self.power_score)),
            ("fused_score".into(), Json::Number(self.fused_score)),
            ("audio_threshold".into(), Json::Number(self.audio_threshold)),
            ("power_threshold".into(), Json::Number(self.power_threshold)),
            ("fused_threshold".into(), Json::Number(self.fused_threshold)),
            ("audio_flagged".into(), Json::Bool(self.audio_flagged)),
            ("power_flagged".into(), Json::Bool(self.power_flagged)),
            ("fused_flagged".into(), Json::Bool(self.fused_flagged)),
            ("suspect_frames".into(), Json::u64(self.suspect_frames)),
            ("golden_frames".into(), Json::u64(self.golden_frames)),
        ])
    }

    /// Parses the canonical JSON form. Closed world: unknown fields are
    /// an error, as are missing ones.
    ///
    /// # Errors
    ///
    /// A message naming the offending field.
    pub fn from_json(json: &Json) -> Result<DetectionReport, String> {
        let fields = match json {
            Json::Object(fields) => fields,
            _ => return Err("a detection report must be a JSON object".to_string()),
        };
        let mut report = DetectionReport::placeholder();
        let mut seen = 0u32;
        for (name, value) in fields {
            let bit = match name.as_str() {
                "fault_spec" => {
                    report.fault_spec = parse_string(value, "fault_spec")?;
                    1 << 0
                }
                "quality" => {
                    report.quality = parse_string(value, "quality")?;
                    1 << 1
                }
                "jam_amplitude" => {
                    report.jam_amplitude = parse_number(value, "jam_amplitude")?;
                    1 << 2
                }
                "trace_seed" => {
                    report.trace_seed = parse_u64(value, "trace_seed")?;
                    1 << 3
                }
                "blocked_by" => {
                    report.blocked_by = match value {
                        Json::Null => None,
                        other => Some(parse_string(other, "blocked_by")?),
                    };
                    1 << 4
                }
                "audio_score" => {
                    report.audio_score = parse_number(value, "audio_score")?;
                    1 << 5
                }
                "power_score" => {
                    report.power_score = parse_number(value, "power_score")?;
                    1 << 6
                }
                "fused_score" => {
                    report.fused_score = parse_number(value, "fused_score")?;
                    1 << 7
                }
                "audio_threshold" => {
                    report.audio_threshold = parse_number(value, "audio_threshold")?;
                    1 << 8
                }
                "power_threshold" => {
                    report.power_threshold = parse_number(value, "power_threshold")?;
                    1 << 9
                }
                "fused_threshold" => {
                    report.fused_threshold = parse_number(value, "fused_threshold")?;
                    1 << 10
                }
                "audio_flagged" => {
                    report.audio_flagged = parse_bool(value, "audio_flagged")?;
                    1 << 11
                }
                "power_flagged" => {
                    report.power_flagged = parse_bool(value, "power_flagged")?;
                    1 << 12
                }
                "fused_flagged" => {
                    report.fused_flagged = parse_bool(value, "fused_flagged")?;
                    1 << 13
                }
                "suspect_frames" => {
                    report.suspect_frames = parse_u64(value, "suspect_frames")?;
                    1 << 14
                }
                "golden_frames" => {
                    report.golden_frames = parse_u64(value, "golden_frames")?;
                    1 << 15
                }
                other => return Err(format!("unknown detection-report field `{other}`")),
            };
            if seen & bit != 0 {
                return Err(format!("duplicate detection-report field `{name}`"));
            }
            seen |= bit;
        }
        if seen != (1 << 16) - 1 {
            return Err("incomplete detection report".to_string());
        }
        Ok(report)
    }

    fn placeholder() -> DetectionReport {
        DetectionReport {
            fault_spec: String::new(),
            quality: String::new(),
            jam_amplitude: 0.0,
            trace_seed: 0,
            blocked_by: None,
            audio_score: 0.0,
            power_score: 0.0,
            fused_score: 0.0,
            audio_threshold: 0.0,
            power_threshold: 0.0,
            fused_threshold: 0.0,
            audio_flagged: false,
            power_flagged: false,
            fused_flagged: false,
            suspect_frames: 0,
            golden_frames: 0,
        }
    }
}

/// What one stego-channel scan/sanitize job concluded.
///
/// Produced by `am_detect::sanitize_toolpath`: the job's planned tool
/// path is scanned for low-order coordinate payload channels, the
/// channel is stripped by snapping coordinates to a quantization grid,
/// and the *printed* artifact of the sanitized path is proven identical
/// to the original by stage-key identity over the voxel-grid digest.
#[derive(Debug, Clone, PartialEq)]
pub struct SanitizeReport {
    /// Seed of the payload embedded before sanitization (0 = none: the
    /// job scanned its own clean tool path).
    pub payload_seed: u64,
    /// Width of the scanned/stripped low-order channel, in bits per
    /// coordinate.
    pub payload_bits: u64,
    /// Roads in the tool path.
    pub roads: u64,
    /// Fraction of coordinates carrying sub-quantum energy before
    /// sanitization (the scanner's detection statistic).
    pub suspicious_before: f64,
    /// The same fraction after sanitization (0 for a clean strip).
    pub suspicious_after: f64,
    /// The quantization grid the sanitizer settled on (mm).
    pub quantum_mm: f64,
    /// Worst coordinate displacement the strip introduced (mm).
    pub residual_mm: f64,
    /// Did the sanitized path print to the byte-identical voxel grid?
    /// (Stage-key identity over [`am_printer::PrintedPart::grid_digest`].)
    pub fingerprint_preserved: bool,
    /// Print fingerprint stage key of the original path (hex).
    pub original_fingerprint: String,
    /// Print fingerprint stage key of the sanitized path (hex).
    pub sanitized_fingerprint: String,
}

impl SanitizeReport {
    /// Approximate heap cost for cache accounting.
    pub fn cost_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.original_fingerprint.len()
            + self.sanitized_fingerprint.len()
    }

    /// Canonical JSON rendering (stable field order).
    pub fn to_json(&self) -> Json {
        Json::Object(vec![
            ("payload_seed".into(), Json::u64(self.payload_seed)),
            ("payload_bits".into(), Json::u64(self.payload_bits)),
            ("roads".into(), Json::u64(self.roads)),
            ("suspicious_before".into(), Json::Number(self.suspicious_before)),
            ("suspicious_after".into(), Json::Number(self.suspicious_after)),
            ("quantum_mm".into(), Json::Number(self.quantum_mm)),
            ("residual_mm".into(), Json::Number(self.residual_mm)),
            ("fingerprint_preserved".into(), Json::Bool(self.fingerprint_preserved)),
            ("original_fingerprint".into(), Json::String(self.original_fingerprint.clone())),
            ("sanitized_fingerprint".into(), Json::String(self.sanitized_fingerprint.clone())),
        ])
    }

    /// Parses the canonical JSON form (closed world).
    ///
    /// # Errors
    ///
    /// A message naming the offending field.
    pub fn from_json(json: &Json) -> Result<SanitizeReport, String> {
        let fields = match json {
            Json::Object(fields) => fields,
            _ => return Err("a sanitize report must be a JSON object".to_string()),
        };
        let mut report = SanitizeReport {
            payload_seed: 0,
            payload_bits: 0,
            roads: 0,
            suspicious_before: 0.0,
            suspicious_after: 0.0,
            quantum_mm: 0.0,
            residual_mm: 0.0,
            fingerprint_preserved: false,
            original_fingerprint: String::new(),
            sanitized_fingerprint: String::new(),
        };
        let mut seen = 0u32;
        for (name, value) in fields {
            let bit = match name.as_str() {
                "payload_seed" => {
                    report.payload_seed = parse_u64(value, "payload_seed")?;
                    1 << 0
                }
                "payload_bits" => {
                    report.payload_bits = parse_u64(value, "payload_bits")?;
                    1 << 1
                }
                "roads" => {
                    report.roads = parse_u64(value, "roads")?;
                    1 << 2
                }
                "suspicious_before" => {
                    report.suspicious_before = parse_number(value, "suspicious_before")?;
                    1 << 3
                }
                "suspicious_after" => {
                    report.suspicious_after = parse_number(value, "suspicious_after")?;
                    1 << 4
                }
                "quantum_mm" => {
                    report.quantum_mm = parse_number(value, "quantum_mm")?;
                    1 << 5
                }
                "residual_mm" => {
                    report.residual_mm = parse_number(value, "residual_mm")?;
                    1 << 6
                }
                "fingerprint_preserved" => {
                    report.fingerprint_preserved = parse_bool(value, "fingerprint_preserved")?;
                    1 << 7
                }
                "original_fingerprint" => {
                    report.original_fingerprint = parse_string(value, "original_fingerprint")?;
                    1 << 8
                }
                "sanitized_fingerprint" => {
                    report.sanitized_fingerprint =
                        parse_string(value, "sanitized_fingerprint")?;
                    1 << 9
                }
                other => return Err(format!("unknown sanitize-report field `{other}`")),
            };
            if seen & bit != 0 {
                return Err(format!("duplicate sanitize-report field `{name}`"));
            }
            seen |= bit;
        }
        if seen != (1 << 10) - 1 {
            return Err("incomplete sanitize report".to_string());
        }
        Ok(report)
    }
}

fn parse_string(value: &Json, field: &str) -> Result<String, String> {
    match value {
        Json::String(s) => Ok(s.clone()),
        _ => Err(format!("`{field}` must be a string")),
    }
}

fn parse_number(value: &Json, field: &str) -> Result<f64, String> {
    match value {
        Json::Number(n) => Ok(*n),
        _ => Err(format!("`{field}` must be a number")),
    }
}

fn parse_bool(value: &Json, field: &str) -> Result<bool, String> {
    match value {
        Json::Bool(b) => Ok(*b),
        _ => Err(format!("`{field}` must be a boolean")),
    }
}

fn parse_u64(value: &Json, field: &str) -> Result<u64, String> {
    match value {
        Json::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
            Ok(*n as u64)
        }
        _ => Err(format!("`{field}` must be a non-negative integer")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample_detection() -> DetectionReport {
        DetectionReport {
            fault_spec: "toolpath.drop=0.2".to_string(),
            quality: "smartphone".to_string(),
            jam_amplitude: 0.0,
            trace_seed: 7,
            blocked_by: None,
            audio_score: 3.5,
            power_score: 1.25,
            fused_score: 2.75,
            audio_threshold: 1.0,
            power_threshold: 1.0,
            fused_threshold: 1.0,
            audio_flagged: true,
            power_flagged: true,
            fused_flagged: true,
            suspect_frames: 812,
            golden_frames: 1024,
        }
    }

    pub(crate) fn sample_sanitize() -> SanitizeReport {
        SanitizeReport {
            payload_seed: 3,
            payload_bits: 2,
            roads: 512,
            suspicious_before: 0.97,
            suspicious_after: 0.0,
            quantum_mm: 1.0 / 1024.0,
            residual_mm: 0.0005,
            fingerprint_preserved: true,
            original_fingerprint: "0123456789abcdef0123456789abcdef".to_string(),
            sanitized_fingerprint: "0123456789abcdef0123456789abcdef".to_string(),
        }
    }

    #[test]
    fn detection_report_round_trips_through_json() {
        for report in [
            sample_detection(),
            DetectionReport {
                blocked_by: Some("slice".to_string()),
                suspect_frames: 0,
                ..sample_detection()
            },
        ] {
            let json = report.to_json();
            let back = DetectionReport::from_json(&json).expect("round trip");
            assert_eq!(back, report);
            // The rendering is canonical: render → parse → render is a
            // fixed point.
            let rendered = json.render();
            let reparsed = crate::json::parse_json(&rendered).expect("self-rendered JSON");
            assert_eq!(reparsed.render(), rendered);
        }
    }

    #[test]
    fn sanitize_report_round_trips_through_json() {
        let report = sample_sanitize();
        let back = SanitizeReport::from_json(&report.to_json()).expect("round trip");
        assert_eq!(back, report);
    }

    #[test]
    fn parsers_are_closed_world() {
        let mut with_extra = match sample_detection().to_json() {
            Json::Object(fields) => fields,
            _ => unreachable!(),
        };
        with_extra.push(("surprise".into(), Json::Null));
        let err = DetectionReport::from_json(&Json::Object(with_extra)).unwrap_err();
        assert!(err.contains("unknown"), "{err}");

        let mut missing = match sample_sanitize().to_json() {
            Json::Object(fields) => fields,
            _ => unreachable!(),
        };
        missing.pop();
        let err = SanitizeReport::from_json(&Json::Object(missing)).unwrap_err();
        assert!(err.contains("incomplete"), "{err}");

        let mut duplicated = match sample_sanitize().to_json() {
            Json::Object(fields) => fields,
            _ => unreachable!(),
        };
        duplicated.push(("roads".into(), Json::u64(1)));
        let err = SanitizeReport::from_json(&Json::Object(duplicated)).unwrap_err();
        assert!(err.contains("duplicate"), "{err}");
    }
}
