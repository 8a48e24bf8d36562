//! Simulated acoustic/magnetic emissions of an FDM printer.
//!
//! The printer's stepper motors emit tones whose frequencies track the
//! commanded axis velocities; a smartphone near the machine can record them
//! (paper refs [4, 16]). This module turns a tool path into the emission
//! trace such an attacker would capture.

use am_slicer::ToolPath;

use crate::plan::{CapturePlan, EmissionDraw};

/// Stepper micro-steps per millimetre of axis travel (typical FDM
/// kinematics).
pub const STEPS_PER_MM: f64 = 80.0;

/// One recorded emission frame: what the attacker's microphone and
/// magnetometer capture during a single head move.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EmissionFrame {
    /// Frame duration (s).
    pub duration_s: f64,
    /// Dominant acoustic frequency of the x stepper (Hz), noisy.
    pub fx_hz: f64,
    /// Dominant acoustic frequency of the y stepper (Hz), noisy.
    pub fy_hz: f64,
    /// Sign of the x velocity as read from the magnetic channel — may be
    /// flipped by noise.
    pub x_positive: bool,
    /// Sign of the y velocity as read from the magnetic channel.
    pub y_positive: bool,
    /// Whether the extruder motor was audible (deposition vs. travel).
    pub extruding: bool,
    /// Z level inferred from the (loud, distinctive) layer change events.
    pub z: f64,
}

/// Capture-quality parameters of the attacker's recording setup.
///
/// The acoustic channel is modeled as **cycle counting**: the attacker
/// integrates the stepper tone over the move and miscounts by a few cycles
/// (spectral noise averages out over the move duration, so the error is
/// absolute in steps, not relative in frequency — this is what makes the
/// published smartphone attacks so accurate).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CaptureQuality {
    /// 1σ miscount of stepper cycles per move per axis.
    pub cycle_noise: f64,
    /// Probability that a magnetic sign reading is flipped.
    pub sign_error_rate: f64,
}

impl CaptureQuality {
    /// A smartphone on the table next to the printer (the paper's threat
    /// scenario): a few cycles of miscount; the magnetic sign channel is
    /// reliable at these distances.
    pub fn smartphone() -> Self {
        CaptureQuality { cycle_noise: 3.0, sign_error_rate: 0.0 }
    }

    /// A contact microphone + lab magnetometer: near-perfect capture.
    pub fn lab_grade() -> Self {
        CaptureQuality { cycle_noise: 0.5, sign_error_rate: 0.0 }
    }

    /// A phone across the room: noisy capture with frequent sign losses.
    pub fn across_the_room() -> Self {
        CaptureQuality { cycle_noise: 40.0, sign_error_rate: 0.02 }
    }
}

/// Records the emission trace of a tool path at the given feed rate: the
/// tool path's [`CapturePlan`] plus one seeded draw of its readings.
///
/// # Panics
///
/// Panics if `feed_mm_per_s` is not positive.
///
/// # Examples
///
/// ```
/// use am_sidechannel::{record_emissions, CaptureQuality};
/// use am_slicer::ToolPath;
///
/// let trace = record_emissions(&ToolPath::default(), 30.0, CaptureQuality::smartphone(), 1);
/// assert!(trace.is_empty());
/// ```
pub fn record_emissions(
    toolpath: &ToolPath,
    feed_mm_per_s: f64,
    quality: CaptureQuality,
    seed: u64,
) -> Vec<EmissionFrame> {
    let plan = CapturePlan::new(toolpath, feed_mm_per_s);
    let mut draw = EmissionDraw::default();
    plan.draw_emissions(quality, seed, &mut draw);
    plan.frames()
        .iter()
        .enumerate()
        .map(|(i, f)| EmissionFrame {
            duration_s: f.duration_s,
            fx_hz: draw.fx_hz[i],
            fy_hz: draw.fy_hz[i],
            x_positive: draw.x_positive[i],
            y_positive: draw.y_positive[i],
            extruding: f.extruding,
            z: f.z,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use am_geom::Point2;
    use am_slicer::{Road, RoadKind, ToolMaterial};

    fn straight_road(dx: f64, dy: f64) -> ToolPath {
        ToolPath {
            roads: vec![Road {
                from: Point2::ZERO,
                to: Point2::new(dx, dy),
                z: 0.1,
                material: ToolMaterial::Model,
                kind: RoadKind::Infill,
                body: None,
            }],
            layer_height: 0.2,
            road_width: 0.5,
        }
    }

    #[test]
    fn frequencies_track_axis_velocities() {
        let tp = straight_road(30.0, 0.0); // pure x move at 30 mm/s feed
        let frames = record_emissions(&tp, 30.0, CaptureQuality::lab_grade(), 1);
        assert_eq!(frames.len(), 1);
        let f = frames[0];
        assert!((f.duration_s - 1.0).abs() < 1e-9);
        assert!((f.fx_hz - 30.0 * STEPS_PER_MM).abs() / (30.0 * STEPS_PER_MM) < 0.01);
        assert!(f.fy_hz < 10.0, "y stepper silent, got {}", f.fy_hz);
        assert!(f.x_positive);
    }

    #[test]
    fn diagonal_move_splits_frequency() {
        let tp = straight_road(10.0, -10.0);
        let frames = record_emissions(&tp, 20.0, CaptureQuality::lab_grade(), 1);
        let f = frames[0];
        assert!((f.fx_hz - f.fy_hz).abs() / f.fx_hz < 0.01);
        assert!(f.x_positive);
        assert!(!f.y_positive);
    }

    #[test]
    fn noise_perturbs_but_preserves_scale() {
        let tp = straight_road(30.0, 0.0);
        let clean = record_emissions(&tp, 30.0, CaptureQuality::lab_grade(), 1)[0].fx_hz;
        let noisy = record_emissions(&tp, 30.0, CaptureQuality::across_the_room(), 1)[0].fx_hz;
        assert!((noisy - clean).abs() / clean < 0.2);
        assert_ne!(noisy, clean);
    }

    #[test]
    fn deterministic_per_seed() {
        let tp = straight_road(10.0, 5.0);
        let a = record_emissions(&tp, 30.0, CaptureQuality::smartphone(), 9);
        let b = record_emissions(&tp, 30.0, CaptureQuality::smartphone(), 9);
        assert_eq!(a, b);
    }
}
