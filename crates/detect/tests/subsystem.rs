//! End-to-end coverage of the detection subsystem against real parts:
//! stage-shaped caching, the sanitizer's fingerprint proof, and the ROC
//! sweep's coverage + fusion guarantees.

use am_detect::{
    detect_counterfeit, run_roc_sweep, sanitize_toolpath, DetectConfig, RocConfig,
    SanitizeConfig,
};
use am_mesh::Resolution;
use am_slicer::Orientation;
use obfuscade::{Deadline, FaultPlan, ProcessPlan, SplineSplitScheme, StageCache};

fn part() -> am_cad::Part {
    SplineSplitScheme::default().protected_part().expect("protected part resolves")
}

fn plan() -> ProcessPlan {
    ProcessPlan::fdm(Resolution::Coarse, Orientation::Xy)
}

fn toolpath_drop() -> (&'static str, FaultPlan) {
    FaultPlan::catalog()
        .into_iter()
        .find(|(name, _)| *name == "toolpath-drop")
        .expect("catalog names toolpath-drop")
}

#[test]
fn detection_reports_cache_like_pipeline_stages() {
    let part = part();
    let plan = plan();
    let (_, faults) = toolpath_drop();
    let cache = StageCache::with_budget(256 << 20);
    let config = DetectConfig { null_replicates: 8, ..DetectConfig::default() };
    let first = detect_counterfeit(
        &part,
        &plan,
        &faults,
        "toolpath.drop=0.1",
        &config,
        &cache,
        Deadline::none(),
    )
    .expect("detect runs");
    let hits_before = cache.stats().hits;
    let second = detect_counterfeit(
        &part,
        &plan,
        &faults,
        "toolpath.drop=0.1",
        &config,
        &cache,
        Deadline::none(),
    )
    .expect("detect replays");
    assert_eq!(first, second);
    assert!(
        cache.stats().hits > hits_before,
        "second detection must be served from the stage cache"
    );
    assert!(first.fused_flagged, "a 10% road drop must be caught: {first:?}");
    assert!(first.blocked_by.is_none());
    assert!(first.suspect_frames > 0 && first.golden_frames > 0);
}

#[test]
fn cached_detections_echo_the_callers_fault_spelling() {
    // Three spellings of one canonical plan, `seed=1 toolpath.drop=0.1`
    // (the job's fault seed overrides a spelled one): one detection key.
    let part = part();
    let plan = plan();
    let config = DetectConfig { null_replicates: 8, ..DetectConfig::default() };
    let shared = StageCache::with_budget(256 << 20);
    let spellings = ["toolpath.drop=0.1", "toolpath.drop=0.10", "seed=9 toolpath.drop=0.1"];
    for spelling in spellings {
        let faults = spelling.parse::<FaultPlan>().expect("fault spec parses").with_seed(1);
        assert_eq!(faults.to_string(), "seed=1 toolpath.drop=0.1");
        let detect = |cache: &StageCache| {
            detect_counterfeit(&part, &plan, &faults, spelling, &config, cache, Deadline::none())
                .expect("detect runs")
        };
        let served = detect(&shared);
        assert_eq!(served.fault_spec, spelling);
        assert_eq!(served, detect(&StageCache::with_budget(256 << 20)), "{spelling}");
    }
}

#[test]
fn blocked_faults_are_reported_not_errored() {
    let part = part();
    let plan = plan();
    let faults = FaultPlan::catalog()
        .into_iter()
        .find(|(name, _)| *name == "slicer-zero-layer")
        .expect("catalog names slicer-zero-layer")
        .1;
    let cache = StageCache::with_budget(256 << 20);
    let config = DetectConfig { null_replicates: 4, ..DetectConfig::default() };
    let report = detect_counterfeit(
        &part,
        &plan,
        &faults,
        "slicer.zero_layer",
        &config,
        &cache,
        Deadline::none(),
    )
    .expect("blocked suspects are reports, not errors");
    assert_eq!(report.blocked_by.as_deref(), Some("slice"));
    assert!(report.audio_flagged && report.power_flagged && report.fused_flagged);
    assert_eq!(report.suspect_frames, 0);
}

#[test]
fn sanitizer_strips_the_payload_and_preserves_the_print_fingerprint() {
    let part = part();
    let plan = plan();
    let cache = StageCache::with_budget(256 << 20);
    let config = SanitizeConfig { payload_seed: 99, ..SanitizeConfig::default() };
    let report =
        sanitize_toolpath(&part, &plan, &FaultPlan::none(), &config, &cache, Deadline::none())
            .expect("sanitize runs");
    assert!(
        report.suspicious_before > 0.8,
        "embedded payload must light up the scanner: {report:?}"
    );
    assert_eq!(report.suspicious_after, 0.0, "{report:?}");
    assert!(report.fingerprint_preserved, "{report:?}");
    assert_eq!(report.original_fingerprint, report.sanitized_fingerprint);
    assert!(report.residual_mm <= report.quantum_mm);
    assert!(report.roads > 0);

    // Stage-shaped caching, same as detection.
    let hits_before = cache.stats().hits;
    let replay =
        sanitize_toolpath(&part, &plan, &FaultPlan::none(), &config, &cache, Deadline::none())
            .expect("sanitize replays");
    assert_eq!(replay, report);
    assert!(cache.stats().hits > hits_before);
}

#[test]
fn clean_toolpaths_scan_below_the_payload_signature() {
    let part = part();
    let plan = plan();
    let cache = StageCache::with_budget(256 << 20);
    let clean = sanitize_toolpath(
        &part,
        &plan,
        &FaultPlan::none(),
        &SanitizeConfig::default(),
        &cache,
        Deadline::none(),
    )
    .expect("clean sanitize runs");
    assert!(
        clean.suspicious_before < 0.5,
        "clean geometry must not read as a payload: {clean:?}"
    );
    assert!(clean.fingerprint_preserved, "{clean:?}");
}

#[test]
fn roc_sweep_covers_the_whole_catalog_and_fusion_dominates() {
    let part = part();
    let plan = plan();
    let cache = StageCache::with_budget(256 << 20);
    let table = run_roc_sweep(&part, &plan, &RocConfig::smoke(), &cache, Deadline::none())
        .expect("roc sweep runs");
    assert_eq!(table.faults_covered, 15);
    assert_eq!(table.cells.len(), 15);
    for cell in &table.cells {
        if cell.blocked {
            assert_eq!((cell.audio_catch, cell.power_catch, cell.fused_catch), (1.0, 1.0, 1.0));
        }
    }
    for setup in &table.setups {
        assert!(
            setup.fused_catch + 1e-9 >= setup.audio_catch.max(setup.power_catch),
            "fusion must dominate each single channel at equal nominal FPR: {setup:?}"
        );
        assert!(setup.fused_fpr <= 0.25, "holdout FPR implausibly high: {setup:?}");
        assert!(setup.fused_catch > 0.5, "catalog-wide catch too weak: {setup:?}");
    }
}
