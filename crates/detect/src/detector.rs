//! The three counterfeit detectors: audio signature, power envelope, and
//! the fused score, each calibrated against a null distribution of
//! genuine-print captures.
//!
//! Detection compares *distributions*, not frame sequences: an injected
//! fault changes the road set, so the suspect trace has a different frame
//! count than the golden master. Each capture is summarized by a feature
//! vector of decile order statistics — the [`quantile_rank`]-th smallest
//! reading per probe, the rank rule the service latency histograms use —
//! plus scalar invariants, and a detector score is the normalized distance
//! between the suspect's features and the golden master's.
//!
//! Thresholds are not magic numbers: [`Calibration::calibrate`] replays
//! the *golden* tool path through the capture channel at independent
//! noise seeds (jamming included — the defender's own jammer degrades
//! their monitoring too) and takes the `1 - fpr_target` quantile of those
//! null scores. All three detectors are therefore calibrated to the same
//! nominal false-positive rate, which is what makes their catch rates
//! comparable. The fused null pairs the two *sorted* channel nulls, so the
//! fused detector flags whenever either channel does, and its measured
//! false-positive rate sits above the nominal one until the fused null is
//! rebuilt (ROADMAP.md item 1; DESIGN.md §16).
//!
//! Every capture of one tool path shares one [`CapturePlan`]: calibration
//! plans the golden path once and replays it for the golden master and
//! each null, drawing only the seeded noise into reused buffers, and the
//! features are read straight off those buffers. The deciles are selected
//! on order keys in a reused key buffer, so the readings keep their frame
//! order.

use am_sidechannel::{CapturePlan, CaptureQuality, EmissionDraw, NoiseEmitter};
use am_slicer::ToolPath;
use obfuscade::metrics::{quantile, quantile_rank};

/// Score reported for suspects that never reached tool-path planning (a
/// typed process guard rejected them upstream). Far above any calibrated
/// threshold: such jobs are trivially caught.
pub const BLOCKED_SCORE: f64 = 1.0e6;

/// Feature-vector quantile probes (deciles).
const PROBES: [f64; 9] = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9];

/// Salt mixed into the golden master's capture seed.
const GOLDEN_SALT: u64 = 0x474f_4c44;
/// Salt mixed into calibration-replicate capture seeds.
const NULL_SALT: u64 = 0x4e55_4c4c;
/// Salt mixed into the jammer's seed so jam noise is independent of
/// capture noise.
const JAM_SALT: u64 = 0x4a41_4d21;

/// splitmix64 — the workspace's standard cheap seed mixer.
pub(crate) fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Decile feature vector of one scalar distribution: per probe, the
/// [`quantile_rank`]-th smallest value under [`f64::total_cmp`] (all zero
/// when empty). The readings are copied into `keys` as [`order_key`]s,
/// where one [`select_ranks`] places all nine ranks; `values` keeps its
/// order.
fn deciles(values: &[f64], keys: &mut Vec<u64>) -> [f64; 9] {
    if values.is_empty() {
        return [0.0; 9];
    }
    let ranks = PROBES.map(|p| quantile_rank(p, values.len()) - 1);
    keys.clear();
    keys.extend(values.iter().map(|&v| order_key(v)));
    select_ranks(keys, 0, &ranks);
    ranks.map(|rank| from_order_key(keys[rank]))
}

/// A reading's order key: unsigned order on keys is [`f64::total_cmp`]'s
/// order on readings. A negative reading has every bit flipped, a
/// non-negative one its sign bit set.
fn order_key(v: f64) -> u64 {
    let bits = v.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// The reading whose [`order_key`] is `key`.
fn from_order_key(key: u64) -> f64 {
    f64::from_bits(if key >> 63 == 1 { key & !(1 << 63) } else { !key })
}

/// Moves the key of every rank in `ranks` (ascending, repeats allowed,
/// counted from `offset`, the position of `keys[0]` in the whole buffer)
/// to the slot a full sort would give it. Selects the middle rank, then
/// recurses into each side with only the ranks strictly on that side.
fn select_ranks(keys: &mut [u64], offset: usize, ranks: &[usize]) {
    let Some(&rank) = ranks.get(ranks.len() / 2) else {
        return;
    };
    let (below, _, above) = keys.select_nth_unstable(rank - offset);
    select_ranks(below, offset, &ranks[..ranks.partition_point(|&r| r < rank)]);
    select_ranks(above, rank + 1, &ranks[ranks.partition_point(|&r| r <= rank)..]);
}

/// Acoustic-capture features: stepper-tone deciles per axis plus the
/// scalar shape invariants of the capture.
#[derive(Debug, Clone, PartialEq)]
struct AudioFeatures {
    frames: f64,
    total_s: f64,
    extrude_fraction: f64,
    fx_q: [f64; 9],
    fy_q: [f64; 9],
}

impl AudioFeatures {
    /// Normalized distance to another capture of (nominally) the same
    /// print. Quantile terms are relative to the golden tone scale so
    /// the score is unit-free.
    fn distance(&self, other: &AudioFeatures) -> f64 {
        let scale = self
            .fx_q
            .iter()
            .chain(&self.fy_q)
            .fold(0.0f64, |m, v| m.max(*v))
            .max(1.0);
        let mut d = 0.0;
        for i in 0..PROBES.len() {
            d += (self.fx_q[i] - other.fx_q[i]).abs() / scale;
            d += (self.fy_q[i] - other.fy_q[i]).abs() / scale;
        }
        d /= (2 * PROBES.len()) as f64;
        d += rel_gap(self.frames, other.frames);
        d += rel_gap(self.total_s, other.total_s);
        d += (self.extrude_fraction - other.extrude_fraction).abs();
        d
    }
}

/// Power-capture features: draw deciles plus total energy and duration.
#[derive(Debug, Clone, PartialEq)]
struct PowerFeatures {
    samples: f64,
    total_s: f64,
    energy_j: f64,
    watts_q: [f64; 9],
}

impl PowerFeatures {
    fn distance(&self, other: &PowerFeatures) -> f64 {
        let scale = self.watts_q.iter().fold(0.0f64, |m, v| m.max(*v)).max(1.0);
        let mut d = 0.0;
        for i in 0..PROBES.len() {
            d += (self.watts_q[i] - other.watts_q[i]).abs() / scale;
        }
        d /= PROBES.len() as f64;
        d += rel_gap(self.samples, other.samples);
        d += rel_gap(self.total_s, other.total_s);
        d += rel_gap(self.energy_j, other.energy_j);
        d
    }
}

/// Symmetric relative gap `|a-b| / max(|a|,|b|,1)` — bounded, unit-free.
fn rel_gap(a: f64, b: f64) -> f64 {
    (a - b).abs() / a.abs().max(b.abs()).max(1.0)
}

/// The noise buffers of one field capture, and the order keys its
/// deciles are selected on, reused across captures.
#[derive(Debug, Default)]
struct Capture {
    tones: EmissionDraw,
    watts: Vec<f64>,
    keys: Vec<u64>,
}

impl Capture {
    /// Draws one capture of `plan` at `seed` — the acoustic readings,
    /// jammed when `jam` is set, and the power draw — and summarizes it.
    fn features(
        &mut self,
        plan: &CapturePlan,
        quality: CaptureQuality,
        jam: Option<NoiseEmitter>,
        seed: u64,
    ) -> (AudioFeatures, PowerFeatures) {
        plan.draw_emissions(quality, seed, &mut self.tones);
        if let Some(jam) = jam {
            // The jammer pollutes the *acoustic* field capture — the
            // defender's monitoring microphone hears its own decoys. The
            // supply-side power clamp is immune.
            jam.jam(&mut self.tones, mix(seed, JAM_SALT));
        }
        plan.draw_power(quality, seed, &mut self.watts);
        let frames = plan.len() as f64;
        let audio = AudioFeatures {
            frames,
            total_s: plan.total_s(),
            extrude_fraction: plan.extruding() as f64 / (plan.len().max(1)) as f64,
            fx_q: deciles(&self.tones.fx_hz, &mut self.keys),
            fy_q: deciles(&self.tones.fy_hz, &mut self.keys),
        };
        let power = PowerFeatures {
            samples: frames,
            total_s: plan.total_s(),
            energy_j: self.watts.iter().zip(plan.frames()).map(|(w, f)| w * f.duration_s).sum(),
            watts_q: deciles(&self.watts, &mut self.keys),
        };
        (audio, power)
    }
}

/// The three scores (and verdicts) of one suspect capture.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChannelScores {
    /// Audio-signature distance from the golden master.
    pub audio: f64,
    /// Power-envelope distance from the golden master.
    pub power: f64,
    /// Fused score: max of the per-channel scores, each normalized by
    /// its calibrated threshold.
    pub fused: f64,
    /// Audio score above its calibrated threshold?
    pub audio_flagged: bool,
    /// Power score above its calibrated threshold?
    pub power_flagged: bool,
    /// Fused score above its calibrated threshold?
    pub fused_flagged: bool,
    /// Frames in the suspect's acoustic capture.
    pub suspect_frames: u64,
}

/// A calibrated detector bank for one golden master under one capture
/// setup (quality preset + optional defender jamming).
#[derive(Debug, Clone)]
pub struct Calibration {
    /// Audio decision threshold (null-distribution quantile).
    pub audio_threshold: f64,
    /// Power decision threshold.
    pub power_threshold: f64,
    /// Fused decision threshold.
    pub fused_threshold: f64,
    /// Frames in the golden master's acoustic capture.
    pub golden_frames: u64,
    golden_plan: CapturePlan,
    golden_audio: AudioFeatures,
    golden_power: PowerFeatures,
    quality: CaptureQuality,
    jam: Option<NoiseEmitter>,
}

impl Calibration {
    /// Builds the detector bank: plans the golden tool path's captures
    /// once, records the golden master from that plan, then replays it
    /// through the (jammed) capture channel `null_replicates` times at
    /// independent seeds and sets each threshold to the `1 - fpr_target`
    /// quantile of the null scores.
    ///
    /// # Panics
    ///
    /// Panics if `feed_mm_per_s` is not positive, if
    /// `null_replicates == 0`, or if `fpr_target` is outside `(0, 1)`.
    pub fn calibrate(
        golden: &ToolPath,
        feed_mm_per_s: f64,
        quality: CaptureQuality,
        jam_amplitude: f64,
        trace_seed: u64,
        null_replicates: usize,
        fpr_target: f64,
    ) -> Calibration {
        assert!(null_replicates > 0, "calibration needs at least one null replicate");
        assert!(
            fpr_target > 0.0 && fpr_target < 1.0,
            "fpr target must be in (0, 1), got {fpr_target}"
        );
        let jam = (jam_amplitude > 0.0)
            .then_some(NoiseEmitter { relative_amplitude: jam_amplitude });
        let golden_plan = CapturePlan::new(golden, feed_mm_per_s);
        let mut capture = Capture::default();
        // The golden master is captured pre-deployment in a controlled
        // setup: no jamming, but the same sensor quality.
        let (golden_audio, golden_power) =
            capture.features(&golden_plan, quality, None, mix(trace_seed, GOLDEN_SALT));
        let mut audio_null = Vec::with_capacity(null_replicates);
        let mut power_null = Vec::with_capacity(null_replicates);
        for i in 0..null_replicates {
            let seed = mix(trace_seed, NULL_SALT.wrapping_add(i as u64));
            let (audio, power) = capture.features(&golden_plan, quality, jam, seed);
            audio_null.push(golden_audio.distance(&audio));
            power_null.push(golden_power.distance(&power));
        }
        audio_null.sort_by(f64::total_cmp);
        power_null.sort_by(f64::total_cmp);
        let p = 1.0 - fpr_target;
        let audio_threshold = quantile(&audio_null, p).max(f64::MIN_POSITIVE);
        let power_threshold = quantile(&power_null, p).max(f64::MIN_POSITIVE);
        // The fused null pairs the two sorted nulls rank by rank, not
        // replicate by replicate (see DESIGN.md §16).
        let mut fused_null: Vec<f64> = audio_null
            .iter()
            .zip(&power_null)
            .map(|(a, w)| (a / audio_threshold).max(w / power_threshold))
            .collect();
        fused_null.sort_by(f64::total_cmp);
        Calibration {
            audio_threshold,
            power_threshold,
            fused_threshold: quantile(&fused_null, p).max(f64::MIN_POSITIVE),
            golden_frames: golden_plan.len() as u64,
            golden_plan,
            golden_audio,
            golden_power,
            quality,
            jam,
        }
    }

    /// The golden tool path's capture plan: held-out genuine recaptures
    /// score against it without planning the golden path again.
    pub fn golden_plan(&self) -> &CapturePlan {
        &self.golden_plan
    }

    /// Scores one field capture of `suspect` (seeded by `capture_seed`)
    /// against the golden master and the calibrated thresholds. The plan
    /// must be made at the golden master's feed rate.
    pub fn score(&self, suspect: &CapturePlan, capture_seed: u64) -> ChannelScores {
        let (audio_features, power_features) =
            Capture::default().features(suspect, self.quality, self.jam, capture_seed);
        let audio = self.golden_audio.distance(&audio_features);
        let power = self.golden_power.distance(&power_features);
        let fused = (audio / self.audio_threshold).max(power / self.power_threshold);
        ChannelScores {
            audio,
            power,
            fused,
            audio_flagged: audio > self.audio_threshold,
            power_flagged: power > self.power_threshold,
            fused_flagged: fused > self.fused_threshold,
            suspect_frames: suspect.len() as u64,
        }
    }

    /// The saturated verdict for a suspect the process guards stopped
    /// before tool-path planning: every detector flags it.
    pub fn score_blocked(&self) -> ChannelScores {
        ChannelScores {
            audio: BLOCKED_SCORE,
            power: BLOCKED_SCORE,
            fused: BLOCKED_SCORE,
            audio_flagged: true,
            power_flagged: true,
            fused_flagged: true,
            suspect_frames: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use am_geom::Point2;
    use am_slicer::{Road, RoadKind, ToolMaterial};
    use proptest::prelude::*;

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

    fn dropped(tp: &ToolPath, keep_every: usize) -> ToolPath {
        ToolPath {
            roads: tp
                .roads
                .iter()
                .enumerate()
                .filter(|(i, _)| i % keep_every != 0)
                .map(|(_, r)| *r)
                .collect(),
            ..tp.clone()
        }
    }

    fn cal(tp: &ToolPath, jam: f64) -> Calibration {
        Calibration::calibrate(tp, 30.0, CaptureQuality::smartphone(), jam, 11, 16, 0.05)
    }

    fn plan(tp: &ToolPath) -> CapturePlan {
        CapturePlan::new(tp, 30.0)
    }

    #[test]
    fn genuine_recaptures_mostly_pass() {
        let tp = serpentine(80);
        let c = cal(&tp, 0.0);
        let flags = (0..20)
            .filter(|i| c.score(c.golden_plan(), mix(77, 300 + i)).fused_flagged)
            .count();
        assert!(flags <= 4, "null fused flags: {flags}/20");
    }

    #[test]
    fn dropped_roads_are_caught_on_every_channel() {
        let tp = serpentine(80);
        let c = cal(&tp, 0.0);
        let s = c.score(&plan(&dropped(&tp, 10)), mix(77, 12345));
        assert!(s.audio_flagged, "audio {} thr {}", s.audio, c.audio_threshold);
        assert!(s.power_flagged, "power {} thr {}", s.power, c.power_threshold);
        assert!(s.fused_flagged, "fused {} thr {}", s.fused, c.fused_threshold);
    }

    #[test]
    fn jamming_raises_the_audio_threshold_but_not_the_power_one() {
        let tp = serpentine(80);
        let quiet = cal(&tp, 0.0);
        let jammed = cal(&tp, 2.5);
        assert!(
            jammed.audio_threshold > 3.0 * quiet.audio_threshold,
            "jammed {} vs quiet {}",
            jammed.audio_threshold,
            quiet.audio_threshold
        );
        let ratio = jammed.power_threshold / quiet.power_threshold;
        assert!((0.5..2.0).contains(&ratio), "power thresholds drifted: {ratio}");
    }

    #[test]
    fn calibration_is_deterministic() {
        let tp = serpentine(20);
        let a = cal(&tp, 0.8);
        let b = cal(&tp, 0.8);
        assert_eq!(a.audio_threshold, b.audio_threshold);
        assert_eq!(a.power_threshold, b.power_threshold);
        assert_eq!(a.fused_threshold, b.fused_threshold);
        assert_eq!(a.score(&plan(&tp), 5), b.score(&plan(&tp), 5));
    }

    #[test]
    fn blocked_scores_saturate() {
        let tp = serpentine(10);
        let c = cal(&tp, 0.0);
        let s = c.score_blocked();
        assert!(s.audio_flagged && s.power_flagged && s.fused_flagged);
        assert_eq!(s.audio, BLOCKED_SCORE);
        assert_eq!(s.suspect_frames, 0);
    }

    /// The deciles as the seed computed them: a full sort, then
    /// [`quantile`] at each probe.
    fn sorted_deciles(values: &[f64]) -> [f64; 9] {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        PROBES.map(|p| quantile(&sorted, p))
    }

    fn assert_same_bits(values: &[f64]) {
        let expected = sorted_deciles(values).map(f64::to_bits);
        let selected = deciles(values, &mut Vec::new()).map(f64::to_bits);
        assert_eq!(selected, expected, "deciles of {values:?}");
    }

    /// One feature reading, biased toward the cases selection must get
    /// bit-exact: heavy duplicates, ±0.0, subnormals, and arbitrary bit
    /// patterns (infinities and NaNs included — `total_cmp` orders them).
    fn reading() -> impl Strategy<Value = f64> {
        (0u8..8, 0..u64::MAX).prop_map(|(kind, bits)| match kind {
            0 => 0.0,
            1 => -0.0,
            2 => f64::from_bits(bits % (1 << 52)),
            3 => -f64::from_bits(bits % (1 << 52)),
            4 | 5 => (bits % 4) as f64 * 0.5,
            6 => f64::from_bits(bits),
            _ => (bits >> 11) as f64 / (1u64 << 53) as f64 * 4000.0,
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn selected_deciles_match_sorted_deciles(values in collection::vec(reading(), 0..65)) {
            assert_same_bits(&values);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        #[test]
        fn selected_deciles_match_sorted_deciles_on_long_traces(
            values in collection::vec(reading(), 1000..6000),
        ) {
            assert_same_bits(&values);
        }
    }

    #[test]
    fn selected_deciles_of_short_and_empty_traces() {
        assert_eq!(deciles(&[], &mut Vec::new()).map(f64::to_bits), [0.0f64.to_bits(); 9]);
        for n in 1..10 {
            // Repeated ranks (n < 10) and ties at every rank.
            let values: Vec<f64> = (0..n).map(|i| ((i * 7) % 3) as f64 - 1.0).collect();
            assert_same_bits(&values);
            let mut ascending: Vec<f64> = (0..n).map(|i| i as f64).collect();
            assert_same_bits(&ascending);
            ascending.reverse();
            assert_same_bits(&ascending);
        }
    }
}
