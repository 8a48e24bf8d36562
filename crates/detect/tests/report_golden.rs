//! Recorded-value pins for counterfeit detection.
//!
//! The other detect and side-channel tests check determinism (two runs
//! agree) and ranges. These pins check that a run agrees with the
//! *recorded* values, so a reordered noise draw, a changed summation
//! order or a different decile rule fails here even when every run is
//! still deterministic:
//!
//! * every numeric field and flag of [`DetectionReport`], as IEEE-754
//!   bits, for two part families × three capture setups;
//! * the calibration of an empty tool path;
//! * a 64-bit digest over every field of the acoustic, jammed acoustic
//!   and power traces of one planned tool path per capture preset.
//!
//! The pins were recorded before the capture synthesis was split into a
//! plan and an execute step, and must hold unchanged across that split.

use am_cad::parts::{bracket_with_spline, prism_with_sphere, BracketDims, PrismDims};
use am_cad::{BodyKind, MaterialRemoval, Part};
use am_detect::{capture_quality, detect_counterfeit, record_power, Calibration, DetectConfig};
use am_mesh::Resolution;
use am_sidechannel::{record_emissions, NoiseEmitter};
use am_slicer::{Orientation, SlicerConfig, ToolPath};
use obfuscade::{Deadline, DetectionReport, FaultPlan, ProcessPlan, StageCache};

/// The served families' coarse slicing (0.7 mm layers and roads), which
/// keeps every case here as cheap as one served `detect` request.
fn served_plan(resolution: Resolution, orientation: Orientation) -> ProcessPlan {
    let mut plan = ProcessPlan::fdm(resolution, orientation);
    plan.slicer = SlicerConfig {
        layer_height: 0.7,
        road_width: 0.7,
        analysis_cell: 0.35,
        ..SlicerConfig::default()
    };
    plan
}

fn prism() -> Part {
    prism_with_sphere(
        &PrismDims::default(),
        BodyKind::Solid,
        MaterialRemoval::Without,
    )
    .expect("prism resolves")
}

fn bracket() -> Part {
    bracket_with_spline(&BracketDims::default()).expect("bracket resolves")
}

/// Every numeric field and flag of a report, as bits: scores, thresholds,
/// the flags packed as `audio << 2 | power << 1 | fused`, frame counts,
/// and the echoed jam amplitude and trace seed.
fn report_bits(r: &DetectionReport) -> [u64; 11] {
    [
        r.audio_score.to_bits(),
        r.power_score.to_bits(),
        r.fused_score.to_bits(),
        r.audio_threshold.to_bits(),
        r.power_threshold.to_bits(),
        r.fused_threshold.to_bits(),
        u64::from(r.audio_flagged) << 2
            | u64::from(r.power_flagged) << 1
            | u64::from(r.fused_flagged),
        r.suspect_frames,
        r.golden_frames,
        r.jam_amplitude.to_bits(),
        r.trace_seed,
    ]
}

/// (faults, quality, jam amplitude, trace seed) of each pinned setup. A
/// 50× feed spike trips the firmware guard, so the third setup pins the
/// `room` calibration under jamming and the saturated blocked verdict.
const SETUPS: [(&str, &str, f64, u64); 3] = [
    ("", "smartphone", 0.0, 1),
    ("toolpath.drop=0.1", "lab", 2.5, 7),
    ("firmware.feed=50", "room", 0.8, 3),
];

/// Per setup: the stage that blocked the suspect, and [`report_bits`].
type Pins = [(Option<&'static str>, [u64; 11]); 3];

const PRISM_COARSE_XY: Pins = [
    (
        None,
        [
            0x3f48ceb40e0c9c83,
            0x3f3a1b5915229dd8,
            0x3fec4b854376e2a7,
            0x3f5c0cd178b3ed8b,
            0x3f3d867a389571b6,
            0x3ff0000000000000,
            0b000,
            1622,
            1622,
            0x0,
            1,
        ],
    ),
    (
        None,
        [
            0x3fdd4b961904007e,
            0x3fd2c2d7ceda5bdc,
            0x40aff0260da752fb,
            0x3fd1110b7bcdc7c5,
            0x3f12cc27882a4510,
            0x3ff0000000000000,
            0b111,
            1480,
            1622,
            0x4004000000000000,
            7,
        ],
    ),
    (
        Some("firmware"),
        [
            0x412e848000000000,
            0x412e848000000000,
            0x412e848000000000,
            0x3fc551dccb61c622,
            0x3f71ed1ef8bf615b,
            0x3ff0000000000000,
            0b111,
            0,
            1622,
            0x3fe999999999999a,
            3,
        ],
    ),
];

const BRACKET_FINE_XZ: Pins = [
    (
        None,
        [
            0x3f4581f209ddd51c,
            0x3f173da7b8e9f701,
            0x3fe6ac9a83ac5e8d,
            0x3f59ae422a50351c,
            0x3f20665aee06be64,
            0x3ff0000000000000,
            0b000,
            10576,
            10576,
            0x0,
            1,
        ],
    ),
    (
        None,
        [
            0x3fd8fdc74604635e,
            0x3fcacbd5d52e1d72,
            0x40c30234a5a863a5,
            0x3fcfb55455f6f865,
            0x3ef68e15c606b5ff,
            0x3ff0000000000000,
            0b111,
            9849,
            10576,
            0x4004000000000000,
            7,
        ],
    ),
    (
        Some("firmware"),
        [
            0x412e848000000000,
            0x412e848000000000,
            0x412e848000000000,
            0x3fb85c50e2114ae7,
            0x3f525a5bcb580ff9,
            0x3ff0000000000000,
            0b111,
            0,
            10576,
            0x3fe999999999999a,
            3,
        ],
    ),
];

fn check_family(name: &str, part: &Part, plan: &ProcessPlan, pins: &Pins) {
    let cache = StageCache::with_budget(256 << 20);
    let actual: Vec<(Option<&str>, [u64; 11])> = SETUPS
        .iter()
        .map(|&(spec, quality, jam, seed)| {
            let faults = spec.parse::<FaultPlan>().expect("pinned fault spec parses");
            let config = DetectConfig {
                quality: quality.to_string(),
                jam_amplitude: jam,
                trace_seed: seed,
                ..DetectConfig::default()
            };
            let report =
                detect_counterfeit(part, plan, &faults, spec, &config, &cache, Deadline::none())
                    .expect("pinned detection runs");
            let blocked_by = report.blocked_by.as_deref().map(|stage| match stage {
                "firmware" => "firmware",
                other => panic!("unexpected blocking stage `{other}`"),
            });
            (blocked_by, report_bits(&report))
        })
        .collect();
    assert_eq!(
        actual, pins,
        "{name}: detection reports moved; recorded now: {actual:#x?}"
    );
}

#[test]
fn prism_coarse_xy_reports_match_the_recorded_bits() {
    check_family(
        "prism coarse x-y",
        &prism(),
        &served_plan(Resolution::Coarse, Orientation::Xy),
        &PRISM_COARSE_XY,
    );
}

#[test]
fn bracket_fine_xz_reports_match_the_recorded_bits() {
    check_family(
        "bracket fine x-z",
        &bracket(),
        &served_plan(Resolution::Fine, Orientation::Xz),
        &BRACKET_FINE_XZ,
    );
}

/// An empty golden tool path calibrates to all-zero features: every
/// threshold clamps to `f64::MIN_POSITIVE`.
#[test]
fn empty_toolpath_calibration_matches_the_recorded_bits() {
    let quality = capture_quality("smartphone").expect("preset");
    let cal = Calibration::calibrate(&ToolPath::default(), 30.0, quality, 0.8, 1, 24, 0.05);
    let actual = [
        cal.audio_threshold.to_bits(),
        cal.power_threshold.to_bits(),
        cal.fused_threshold.to_bits(),
        cal.golden_frames,
    ];
    let min_positive = f64::MIN_POSITIVE.to_bits();
    assert_eq!(
        actual,
        [min_positive, min_positive, min_positive, 0],
        "recorded now: {actual:#x?}"
    );
}

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

fn emissions_digest(trace: &[am_sidechannel::EmissionFrame]) -> u64 {
    let mut d = Digest::new();
    d.word(trace.len() as u64);
    for f in trace {
        d.word(f.duration_s.to_bits());
        d.word(f.fx_hz.to_bits());
        d.word(f.fy_hz.to_bits());
        d.word(
            u64::from(f.x_positive) << 2 | u64::from(f.y_positive) << 1 | u64::from(f.extruding),
        );
        d.word(f.z.to_bits());
    }
    d.0
}

fn power_digest(trace: &[am_detect::PowerSample]) -> u64 {
    let mut d = Digest::new();
    d.word(trace.len() as u64);
    for s in trace {
        d.word(s.duration_s.to_bits());
        d.word(s.watts.to_bits());
        d.word(u64::from(s.extruding));
    }
    d.0
}

/// Per preset: (acoustic, acoustic under the speaker jammer, power).
const TRACE_DIGESTS: [(&str, [u64; 3]); 3] = [
    (
        "lab",
        [0xbdbe243bee2dfcd0, 0x9141b63723496f92, 0x2ca3ac22ff164319],
    ),
    (
        "smartphone",
        [0xe37c9068c7c9fc36, 0xbf6f2c7b4ddd9fa8, 0xe374fa23157212fc],
    ),
    (
        "room",
        [0x9c8c1b638b407284, 0x91cf2b4eab22efae, 0x37556dbb56d2231b],
    ),
];

#[test]
fn capture_traces_match_the_recorded_digests() {
    let plan = served_plan(Resolution::Coarse, Orientation::Xy);
    let cache = StageCache::with_budget(256 << 20);
    let toolpath = obfuscade::plan_toolpath(
        &prism(),
        &plan,
        &FaultPlan::none(),
        &cache,
        Deadline::none(),
    )
    .expect("prism plans")
    .toolpath;
    let feed = plan.printer.feed_mm_per_s;
    let actual: Vec<(&str, [u64; 3])> = TRACE_DIGESTS
        .iter()
        .map(|&(name, _)| {
            let quality = capture_quality(name).expect("preset");
            let audio = record_emissions(&toolpath, feed, quality, 5);
            let jammed = NoiseEmitter::speaker().apply(&audio, 6);
            let power = record_power(&toolpath, feed, quality, 5);
            (
                name,
                [
                    emissions_digest(&audio),
                    emissions_digest(&jammed),
                    power_digest(&power),
                ],
            )
        })
        .collect();
    assert_eq!(
        actual, TRACE_DIGESTS,
        "capture traces moved; recorded now: {actual:#x?}"
    );
}
