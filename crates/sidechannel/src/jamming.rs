//! Side-channel countermeasures (Table 1: "side-channel shielding, noise
//! emission").
//!
//! The defender's options against emission capture are physical shielding
//! (attenuates the signal — modeled as a capture-quality downgrade) and
//! active **noise emission**: a speaker near the printer plays synthesized
//! stepper-like tones that corrupt the attacker's frequency estimates.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{EmissionDraw, EmissionFrame};

/// An active noise source deployed next to the printer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseEmitter {
    /// Amplitude of the decoy tones relative to the true stepper signal
    /// (1.0 = equal loudness).
    pub relative_amplitude: f64,
}

impl NoiseEmitter {
    /// A modest off-the-shelf speaker setup.
    pub fn speaker() -> Self {
        NoiseEmitter { relative_amplitude: 0.8 }
    }

    /// A purpose-built jammer matched to the stepper band.
    pub fn matched_jammer() -> Self {
        NoiseEmitter { relative_amplitude: 2.5 }
    }

    /// Applies the jammer to a captured trace: with probability rising in
    /// the decoy amplitude, each frame's frequency estimates lock onto a
    /// decoy tone instead of the true stepper, and sign reads scramble.
    ///
    /// # Examples
    ///
    /// ```
    /// use am_sidechannel::NoiseEmitter;
    ///
    /// let jammer = NoiseEmitter::matched_jammer();
    /// let jammed = jammer.apply(&[], 1);
    /// assert!(jammed.is_empty());
    /// ```
    pub fn apply(&self, trace: &[EmissionFrame], seed: u64) -> Vec<EmissionFrame> {
        let mut decoys = self.decoys(seed);
        let mut out = trace.to_vec();
        for f in &mut out {
            decoys.frame(&mut f.fx_hz, &mut f.fy_hz, &mut f.x_positive, &mut f.y_positive);
        }
        out
    }

    /// [`NoiseEmitter::apply`] on the readings of a planned capture, in
    /// place: the same per-frame decoy stream, frame for frame.
    pub fn jam(&self, draw: &mut EmissionDraw, seed: u64) {
        let mut decoys = self.decoys(seed);
        let frames = draw
            .fx_hz
            .iter_mut()
            .zip(&mut draw.fy_hz)
            .zip(&mut draw.x_positive)
            .zip(&mut draw.y_positive);
        for (((fx, fy), x_positive), y_positive) in frames {
            decoys.frame(fx, fy, x_positive, y_positive);
        }
    }

    fn decoys(&self, seed: u64) -> Decoys {
        // Capture-lock probability saturates: equal loudness corrupts about
        // half the frames; a matched jammer nearly all of them.
        let p_lock = (self.relative_amplitude / (1.0 + self.relative_amplitude)).clamp(0.0, 0.95);
        Decoys { rng: StdRng::seed_from_u64(seed ^ 0x4a4d), p_lock }
    }
}

/// The jammer's seeded per-frame stream.
struct Decoys {
    rng: StdRng,
    p_lock: f64,
}

impl Decoys {
    /// Draws whether this frame locks onto a decoy and, if so, the decoy's
    /// readings.
    fn frame(
        &mut self,
        fx_hz: &mut f64,
        fy_hz: &mut f64,
        x_positive: &mut bool,
        y_positive: &mut bool,
    ) {
        if self.rng.gen_bool(self.p_lock) {
            // The attacker's peak picker locks onto a decoy tone.
            *fx_hz = self.rng.gen_range(200.0..4000.0);
            *fy_hz = self.rng.gen_range(200.0..4000.0);
            *x_positive = self.rng.gen_bool(0.5);
            *y_positive = self.rng.gen_bool(0.5);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compare_toolpaths, record_emissions, reconstruct_toolpath, CaptureQuality};
    use am_geom::Point2;
    use am_slicer::{Road, RoadKind, ToolMaterial, ToolPath};

    fn serpentine(rows: usize) -> ToolPath {
        let mut roads = Vec::new();
        for j in 0..rows {
            let y = j as f64 * 0.5;
            let (x0, x1) = if j % 2 == 0 { (0.0, 40.0) } else { (40.0, 0.0) };
            roads.push(Road {
                from: Point2::new(x0, y),
                to: Point2::new(x1, y),
                z: 0.2,
                material: ToolMaterial::Model,
                kind: RoadKind::Infill,
                body: None,
            });
        }
        ToolPath { roads, layer_height: 0.2, road_width: 0.5 }
    }

    #[test]
    fn jamming_degrades_reconstruction() {
        let tp = serpentine(60);
        let trace = record_emissions(&tp, 30.0, CaptureQuality::smartphone(), 4);
        let clean = compare_toolpaths(&tp, &reconstruct_toolpath(&trace));

        let jammed_trace = NoiseEmitter::matched_jammer().apply(&trace, 4);
        let jammed = compare_toolpaths(&tp, &reconstruct_toolpath(&jammed_trace));
        assert!(
            jammed.per_layer_error_mm > 10.0 * clean.per_layer_error_mm.max(0.01),
            "clean {} vs jammed {}",
            clean.per_layer_error_mm,
            jammed.per_layer_error_mm
        );
        assert!(jammed.length_error_ratio > 0.2, "{}", jammed.length_error_ratio);
    }

    #[test]
    fn stronger_jammers_corrupt_more_frames() {
        let tp = serpentine(200);
        let trace = record_emissions(&tp, 30.0, CaptureQuality::smartphone(), 4);
        let corrupted = |e: NoiseEmitter| {
            e.apply(&trace, 4)
                .iter()
                .zip(&trace)
                .filter(|(a, b)| a != b)
                .count()
        };
        let weak = corrupted(NoiseEmitter { relative_amplitude: 0.2 });
        let mid = corrupted(NoiseEmitter::speaker());
        let strong = corrupted(NoiseEmitter::matched_jammer());
        assert!(weak < mid && mid < strong, "{weak} < {mid} < {strong}");
        // Rates track the capture-lock model: a/(1+a).
        let n = trace.len() as f64;
        assert!((weak as f64 / n - 0.2 / 1.2).abs() < 0.08);
        assert!((strong as f64 / n - 2.5 / 3.5).abs() < 0.08);
    }

    #[test]
    fn jamming_is_deterministic_per_seed() {
        let tp = serpentine(10);
        let trace = record_emissions(&tp, 30.0, CaptureQuality::smartphone(), 4);
        let a = NoiseEmitter::speaker().apply(&trace, 9);
        let b = NoiseEmitter::speaker().apply(&trace, 9);
        assert_eq!(a, b);
    }
}
