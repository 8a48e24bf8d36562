//! Simulated mains-side power trace of an FDM printer.
//!
//! The power side channel (Moore et al., arXiv:1709.01822) is the
//! defender-friendly dual of the acoustic channel: a current clamp on the
//! printer's supply sees the stepper drivers, the extruder motor, and the
//! acceleration transients of every commanded move — without needing a
//! microphone near the machine. Both channels replay one
//! [`CapturePlan`], so the two captures of one print line up frame for
//! frame.

use am_slicer::ToolPath;

use crate::emission::CaptureQuality;
use crate::plan::CapturePlan;

/// Baseline electronics + heater duty draw while the machine is up (W).
pub const IDLE_WATTS: f64 = 55.0;

/// Per-axis stepper draw per mm/s of commanded axis speed (W·s/mm).
pub const AXIS_WATTS_PER_MM_S: f64 = 0.35;

/// Extruder motor draw while depositing (W).
pub const EXTRUDE_WATTS: f64 = 12.0;

/// Energy of a velocity transient per mm/s of velocity change (J·s/mm) —
/// the acceleration spikes that make road boundaries visible on the
/// clamp.
pub const ACCEL_JOULES_PER_MM_S: f64 = 0.9;

/// One power-trace sample: the average draw over a single head move.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerSample {
    /// Sample duration (s) — the move duration.
    pub duration_s: f64,
    /// Mean supply draw over the move (W), noisy.
    pub watts: f64,
    /// Whether the extruder was engaged (deposition vs. travel move).
    pub extruding: bool,
}

/// Records the power trace of a tool path at the given feed rate: the
/// tool path's [`CapturePlan`] plus one seeded draw of its supply draw
/// (see [`CapturePlan::draw_power`]).
///
/// Mirrors the frame structure of [`record_emissions`]: one sample per
/// deposition road plus one per implied travel move between roads.
///
/// # Panics
///
/// Panics if `feed_mm_per_s` is not positive — same contract as the
/// acoustic recorder.
///
/// [`record_emissions`]: crate::record_emissions
pub fn record_power(
    toolpath: &ToolPath,
    feed_mm_per_s: f64,
    quality: CaptureQuality,
    seed: u64,
) -> Vec<PowerSample> {
    let plan = CapturePlan::new(toolpath, feed_mm_per_s);
    let mut watts = Vec::new();
    plan.draw_power(quality, seed, &mut watts);
    plan.frames()
        .iter()
        .zip(watts)
        .map(|(f, watts)| PowerSample { duration_s: f.duration_s, watts, extruding: f.extruding })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use am_geom::Point2;
    use am_slicer::{Road, RoadKind, ToolMaterial};

    fn two_roads() -> ToolPath {
        let road = |x0: f64, y0: f64, x1: f64, y1: f64| Road {
            from: Point2::new(x0, y0),
            to: Point2::new(x1, y1),
            z: 0.2,
            material: ToolMaterial::Model,
            kind: RoadKind::Infill,
            body: None,
        };
        ToolPath {
            roads: vec![road(0.0, 0.0, 30.0, 0.0), road(30.0, 2.0, 0.0, 2.0)],
            layer_height: 0.2,
            road_width: 0.5,
        }
    }

    #[test]
    fn trace_mirrors_the_acoustic_frame_structure() {
        let tp = two_roads();
        let power = record_power(&tp, 30.0, CaptureQuality::lab_grade(), 1);
        let audio = crate::record_emissions(&tp, 30.0, CaptureQuality::lab_grade(), 1);
        assert_eq!(power.len(), audio.len());
        for (p, a) in power.iter().zip(&audio) {
            assert_eq!(p.extruding, a.extruding);
            assert!((p.duration_s - a.duration_s).abs() < 1e-12);
        }
    }

    #[test]
    fn extrusion_and_reversal_raise_the_draw() {
        let tp = two_roads();
        let trace = record_power(&tp, 30.0, CaptureQuality::lab_grade(), 1);
        // Sample order: road 1 (extrude), travel hop, road 2 (extrude,
        // full reversal — biggest transient).
        assert_eq!(trace.len(), 3);
        assert!(trace[0].watts > IDLE_WATTS + EXTRUDE_WATTS);
        assert!(!trace[1].extruding);
        assert!(
            trace[2].watts > trace[0].watts,
            "reversal transient missing: {} vs {}",
            trace[2].watts,
            trace[0].watts
        );
    }

    #[test]
    fn deterministic_per_seed_and_noise_scales_with_quality() {
        let tp = two_roads();
        let a = record_power(&tp, 30.0, CaptureQuality::smartphone(), 9);
        let b = record_power(&tp, 30.0, CaptureQuality::smartphone(), 9);
        assert_eq!(a, b);
        let lab = record_power(&tp, 30.0, CaptureQuality::lab_grade(), 9);
        let room = record_power(&tp, 30.0, CaptureQuality::across_the_room(), 9);
        let dev = |t: &[PowerSample], r: &[PowerSample]| -> f64 {
            t.iter().zip(r).map(|(x, y)| (x.watts - y.watts).abs()).sum()
        };
        let clean = record_power(&tp, 30.0, CaptureQuality { cycle_noise: 0.0, sign_error_rate: 0.0 }, 9);
        assert!(dev(&room, &clean) > dev(&lab, &clean));
    }
}
