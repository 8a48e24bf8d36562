//! The seed-free half of a capture.
//!
//! Both side channels see a print as the same frame list: one frame per
//! road, plus one per travel hop between roads. Everything about a frame
//! except the sensor noise is fixed by the tool path and the feed rate,
//! so a [`CapturePlan`] computes it once and every capture of the same
//! tool path replays it, drawing only the seeded noise into reused
//! buffers. `record_emissions` and `record_power` are a plan plus one
//! draw; a detector calibrating against many recaptures of one golden
//! tool path plans once and draws many times.

use am_geom::Point2;
use am_slicer::ToolPath;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::emission::{CaptureQuality, STEPS_PER_MM};
use crate::power::{ACCEL_JOULES_PER_MM_S, AXIS_WATTS_PER_MM_S, EXTRUDE_WATTS, IDLE_WATTS};

/// Salt mixed into the power channel's noise seed, so its draws are
/// independent of the acoustic channel's at the same capture seed.
const POWER_SALT: u64 = 0x504f_5752;

/// The seed-free values of one captured frame (one head move).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlannedFrame {
    /// Frame duration (s).
    pub duration_s: f64,
    /// Stepper cycles of the x axis over the move: |Δx|·[`STEPS_PER_MM`].
    pub steps_x: f64,
    /// Stepper cycles of the y axis over the move: |Δy|·[`STEPS_PER_MM`].
    pub steps_y: f64,
    /// True sign of the x velocity (Δx ≥ 0).
    pub x_positive: bool,
    /// True sign of the y velocity (Δy ≥ 0).
    pub y_positive: bool,
    /// Deposition (true) or travel move.
    pub extruding: bool,
    /// Layer height of the move.
    pub z: f64,
    /// Noise-free mean supply draw over the move (W): idle, axis, extruder
    /// and velocity-transient terms of the power model.
    pub watts: f64,
}

/// The frame list of one tool path at one feed rate, with every value
/// that does not depend on the capture seed.
#[derive(Debug, Clone, PartialEq)]
pub struct CapturePlan {
    frames: Vec<PlannedFrame>,
    extruding: usize,
    total_s: f64,
}

/// The seeded readings of one acoustic capture, per frame in plan order.
/// Each draw overwrites every field.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EmissionDraw {
    /// Dominant acoustic frequency of the x stepper (Hz), noisy.
    pub fx_hz: Vec<f64>,
    /// Dominant acoustic frequency of the y stepper (Hz), noisy.
    pub fy_hz: Vec<f64>,
    /// x velocity sign as read from the magnetic channel.
    pub x_positive: Vec<bool>,
    /// y velocity sign as read from the magnetic channel.
    pub y_positive: Vec<bool>,
}

impl CapturePlan {
    /// Plans the captures of `toolpath` at the given feed rate.
    ///
    /// # Panics
    ///
    /// Panics if `feed_mm_per_s` is not positive.
    ///
    /// # Examples
    ///
    /// ```
    /// use am_sidechannel::CapturePlan;
    /// use am_slicer::ToolPath;
    ///
    /// let plan = CapturePlan::new(&ToolPath::default(), 30.0);
    /// assert!(plan.is_empty());
    /// ```
    pub fn new(toolpath: &ToolPath, feed_mm_per_s: f64) -> CapturePlan {
        assert!(feed_mm_per_s > 0.0, "feed rate must be positive");
        let mut frames = Vec::with_capacity(toolpath.roads.len() * 2);
        let mut head: Option<Point2> = None;
        let mut prev_v = (0.0f64, 0.0f64);
        for road in &toolpath.roads {
            // The steppers also hum, and draw power, during the
            // non-extruding travel moves between roads — the attacker
            // records those too, which is what keeps the dead-reckoned
            // position from drifting at every road boundary.
            if let Some(p) = head {
                if p.distance(road.from) > 1e-9 {
                    let hop = plan_frame(p, road.from, road.z, false, feed_mm_per_s, &mut prev_v);
                    frames.push(hop);
                }
            }
            frames.push(plan_frame(road.from, road.to, road.z, true, feed_mm_per_s, &mut prev_v));
            head = Some(road.to);
        }
        let extruding = frames.iter().filter(|f| f.extruding).count();
        let total_s = frames.iter().map(|f| f.duration_s).sum();
        CapturePlan { frames, extruding, total_s }
    }

    /// The planned frames, in capture order.
    pub fn frames(&self) -> &[PlannedFrame] {
        &self.frames
    }

    /// Number of frames.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// `true` for a tool path with no roads.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Number of deposition (extruding) frames.
    pub fn extruding(&self) -> usize {
        self.extruding
    }

    /// Capture duration: the frame durations summed in frame order (s).
    pub fn total_s(&self) -> f64 {
        self.total_s
    }

    /// Draws the acoustic readings of one capture at `seed` into `out`,
    /// resized to one reading per frame and overwritten in place.
    ///
    /// The acoustic channel is modeled as cycle counting: per axis, the
    /// attacker miscounts the move's stepper cycles by up to
    /// [`CaptureQuality::cycle_noise`], and each magnetic sign reading
    /// flips with probability [`CaptureQuality::sign_error_rate`]. Per
    /// frame the draws are x count, y count, x flip, y flip.
    pub fn draw_emissions(&self, quality: CaptureQuality, seed: u64, out: &mut EmissionDraw) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = self.frames.len();
        out.fx_hz.resize(n, 0.0);
        out.fy_hz.resize(n, 0.0);
        out.x_positive.resize(n, false);
        out.y_positive.resize(n, false);
        let cycles = |steps: f64, rng: &mut StdRng| {
            (steps + quality.cycle_noise * rng.gen_range(-1.0..1.0f64)).max(0.0)
        };
        let readings = out
            .fx_hz
            .iter_mut()
            .zip(&mut out.fy_hz)
            .zip(&mut out.x_positive)
            .zip(&mut out.y_positive);
        for (f, (((fx, fy), x_positive), y_positive)) in self.frames.iter().zip(readings) {
            *fx = cycles(f.steps_x, &mut rng) / f.duration_s;
            *fy = cycles(f.steps_y, &mut rng) / f.duration_s;
            *x_positive = f.x_positive != rng.gen_bool(quality.sign_error_rate);
            *y_positive = f.y_positive != rng.gen_bool(quality.sign_error_rate);
        }
    }

    /// Draws the supply draw (W) of every frame of one power capture at
    /// `seed` into `watts`, resized to the frame count and overwritten in
    /// place. Sensor noise reuses [`CaptureQuality::cycle_noise`] as a
    /// 1σ-equivalent scale (a lab clamp is quiet, an across-the-room
    /// inductive pickup is not).
    pub fn draw_power(&self, quality: CaptureQuality, seed: u64, watts: &mut Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed ^ POWER_SALT);
        let noise_w = 0.25 * quality.cycle_noise;
        watts.resize(self.frames.len(), 0.0);
        for (w, f) in watts.iter_mut().zip(&self.frames) {
            *w = (f.watts + noise_w * rng.gen_range(-1.0..1.0f64)).max(0.0);
        }
    }
}

/// Plans one head move from `from` to `to`; `prev_v` carries the previous
/// move's velocity for the power model's transient term.
fn plan_frame(
    from: Point2,
    to: Point2,
    z: f64,
    extruding: bool,
    feed: f64,
    prev_v: &mut (f64, f64),
) -> PlannedFrame {
    let d = to - from;
    let len = d.length().max(1e-9);
    let duration_s = len / feed;
    let (ux, uy) = (d.x / len, d.y / len);
    let v = (feed * ux, feed * uy);
    let dv = ((v.0 - prev_v.0).powi(2) + (v.1 - prev_v.1).powi(2)).sqrt();
    *prev_v = v;
    let watts = IDLE_WATTS
        + AXIS_WATTS_PER_MM_S * feed * (ux.abs() + uy.abs())
        + if extruding { EXTRUDE_WATTS } else { 0.0 }
        + ACCEL_JOULES_PER_MM_S * dv / duration_s;
    PlannedFrame {
        duration_s,
        steps_x: d.x.abs() * STEPS_PER_MM,
        steps_y: d.y.abs() * STEPS_PER_MM,
        x_positive: d.x >= 0.0,
        y_positive: d.y >= 0.0,
        extruding,
        z,
        watts,
    }
}
