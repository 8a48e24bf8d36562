//! The side channel's round-trip contract, pinned for the detection
//! subsystem that consumes it: recording and reconstructing a
//! pipeline-planned tool path must land within a pinned error envelope
//! per `CaptureQuality` preset — the envelopes the detectors'
//! calibration margins are built on. (The trace bits themselves are
//! pinned by the capture-trace digests in `am-detect`'s
//! `report_golden.rs`.)

use am_cad::parts::{tensile_bar_with_spline, TensileBarDims};
use am_sidechannel::{compare_toolpaths, record_emissions, reconstruct_toolpath, CaptureQuality};
use am_slicer::ToolPath;
use obfuscade::{plan_toolpath, Deadline, FaultPlan, ProcessPlan, StageCache};

/// The capture presets under test, by the names the detection job layer
/// uses on the wire.
fn qualities() -> [(&'static str, CaptureQuality); 3] {
    [
        ("lab", CaptureQuality::lab_grade()),
        ("smartphone", CaptureQuality::smartphone()),
        ("room", CaptureQuality::across_the_room()),
    ]
}

/// Plans the spline-bar tool path through the real pipeline stages.
fn planned_toolpath() -> ToolPath {
    let part = tensile_bar_with_spline(&TensileBarDims::default()).expect("bar");
    let plan = ProcessPlan::fdm(am_mesh::Resolution::Coarse, am_slicer::Orientation::Xy);
    let cache = StageCache::with_budget(StageCache::DEFAULT_BUDGET);
    plan_toolpath(&part, &plan, &FaultPlan::none(), &cache, Deadline::none())
        .expect("plan")
        .toolpath
}

/// Round-trip error envelopes per capture preset, on the real
/// pipeline-planned tool path. The bounds are deliberately loose enough
/// to hold for every seed (spot-checked across several) while still
/// pinning the ordering the detectors rely on: a better capture never
/// reconstructs worse.
#[test]
fn round_trip_error_stays_within_per_quality_envelopes() {
    // (preset, per-layer shape error mm, global mean error mm, length error
    // ratio). Room-grade capture flips step signs, so its dead-reckoned
    // global drift is orders of magnitude above the per-layer shape error —
    // the pins below sit ~3x above the worst observed seed for each preset.
    let envelopes = [
        ("lab", 0.5, 8.0, 0.01),
        ("smartphone", 3.0, 48.0, 0.01),
        ("room", 150.0, 3000.0, 0.05),
    ];
    let toolpath = planned_toolpath();
    for seed in [3u64, 17, 1009] {
        let mut last_layer_err = 0.0f64;
        // Presets are iterated best-to-worst within each seed.
        for &(name, layer_mm, global_mm, len_ratio) in &envelopes {
            let quality = qualities()
                .into_iter()
                .find(|(n, _)| *n == name)
                .map(|(_, q)| q)
                .expect("preset");
            let trace = record_emissions(&toolpath, 30.0, quality, seed);
            let report = compare_toolpaths(&toolpath, &reconstruct_toolpath(&trace));
            assert!(report.moves > 100, "degenerate workload: {} moves", report.moves);
            assert!(
                report.per_layer_error_mm < layer_mm,
                "{name} seed {seed}: per-layer error {} above the {layer_mm} mm envelope",
                report.per_layer_error_mm
            );
            assert!(
                report.mean_position_error_mm < global_mm,
                "{name} seed {seed}: global error {} above the {global_mm} mm envelope",
                report.mean_position_error_mm
            );
            assert!(
                report.length_error_ratio < len_ratio,
                "{name} seed {seed}: length error {} above the {len_ratio} envelope",
                report.length_error_ratio
            );
            assert!(
                report.per_layer_error_mm + 1e-12 >= last_layer_err,
                "{name} seed {seed}: better preset reconstructed worse"
            );
            last_layer_err = report.per_layer_error_mm;
        }
    }
}
