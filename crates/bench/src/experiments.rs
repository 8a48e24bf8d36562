//! One function per paper table/figure: builds the workload, runs the
//! toolchain, and renders the rows the paper reports.

use std::fmt::Write as _;
use std::sync::OnceLock;

use am_cad::parts::{
    prism_with_sphere, standard_split_spline, tensile_bar, tensile_bar_with_spline, PrismDims,
    TensileBarDims,
};
use am_cad::{cad_file_size, BodyKind, MaterialRemoval, Part};
use am_fea::{Stat, TensileResult, TensileSummary};
use am_mesh::{seam_report, tessellate_part, Resolution};
use am_par::Parallelism;
use am_printer::Material;
use am_sidechannel::{
    compare_toolpaths, record_emissions, reconstruct_toolpath, CaptureQuality,
};
use am_slicer::Orientation;
use obfuscade::{
    assess_quality, repair_attack, run_pipeline_batch_with, run_pipeline_cached,
    run_pipeline_jobs, search_sphere_scheme, Authenticity, BatchJob, CadRecipe,
    EmbeddedSphereScheme, FaultPlan, PipelineError, PipelineOutput, ProcessPlan,
    QualityThresholds, SplineSplitScheme, StageCache, Verdict,
};

/// The process-wide stage cache every experiment section shares: the same
/// parts and plans recur across sections (the spline bar at each
/// resolution, the sphere prism under the genuine recipe, …), so later
/// sections find their stage prefixes already hot.
fn experiment_cache() -> &'static StageCache {
    static CACHE: OnceLock<StageCache> = OnceLock::new();
    CACHE.get_or_init(StageCache::default)
}

/// A clean (fault-free) pipeline run served from [`experiment_cache`].
fn run_pipeline(part: &Part, plan: &ProcessPlan) -> Result<PipelineOutput, PipelineError> {
    run_pipeline_cached(part, plan, &FaultPlan::none(), experiment_cache())
}

/// Fig. 3 — the artifact stages: one part walked through the whole chain,
/// reporting each intermediate representation's vital signs.
pub fn fig3_stages() -> String {
    let mut out = String::from("Fig. 3 — artifact stages of the AM process chain\n\n");
    let dims = TensileBarDims::default();
    let part = tensile_bar_with_spline(&dims).expect("standard bar");
    let plan = ProcessPlan::fdm(Resolution::Fine, Orientation::Xy);
    let output = run_pipeline(&part, &plan).expect("pipeline");
    let _ = writeln!(out, "CAD model     : {} ({} features)", part.name(), part.features().len());
    let _ = writeln!(out, "CAD file size : {} bytes (modeled)", cad_file_size(&part));
    let _ = writeln!(out, "STL export    : {} triangles, {} bytes", output.mesh_triangles, output.stl_bytes);
    let _ = writeln!(out, "Sliced layers : {}", output.slice_report.layers);
    let _ = writeln!(
        out,
        "Tool path     : {:.0} mm model roads, {:.0} mm support roads, {} layers, ~{:.0} s print",
        output.toolpath.model_mm, output.toolpath.support_mm, output.toolpath.layers, output.toolpath.time_s
    );
    let _ = writeln!(
        out,
        "Printed part  : {:.2} g, {:.0} mm³ model material",
        output.printed.weight_g(),
        output.printed.material_volume(Material::Model)
    );
    let _ = writeln!(
        out,
        "Inspection    : {:.1} mm³ internal voids, {:.1} mm² cold-joint area",
        output.scan.internal_void_volume, output.scan.cold_joint_area
    );
    out
}

/// Fig. 4 — tessellation-induced gaps along the spline per STL resolution.
pub fn fig4_gaps() -> String {
    let mut out = String::from(
        "Fig. 4 — tessellation-induced gaps along the spline split\n\
         (two bodies tessellate the shared spline independently)\n\n",
    );
    let dims = TensileBarDims::default();
    let part = tensile_bar_with_spline(&dims).expect("bar").resolve().expect("resolve");
    let _ = writeln!(
        out,
        "{:<8} {:>10} {:>14} {:>14} {:>12}",
        "STL", "chain pts", "gap width mm", "T-junction mm", "conforming"
    );
    for res in Resolution::ALL {
        let seam = seam_report(&part, &res.params()).expect("split part has a seam");
        let _ = writeln!(
            out,
            "{:<8} {:>10} {:>14.4} {:>14.4} {:>12}",
            res.to_string(),
            seam.chain_a_points,
            seam.chain_mismatch,
            seam.vertex_mismatch,
            seam.conforming
        );
    }
    out.push_str("\ngap profile along the seam (Coarse), normalized arc position vs gap (mm):\n");
    let seam = seam_report(&part, &Resolution::Coarse.params()).expect("seam");
    for (t, g) in seam.profile.iter().step_by(8) {
        let bar = "#".repeat((g * 400.0).round() as usize);
        let _ = writeln!(out, "  t={t:4.2}  {g:7.4}  {bar}");
    }
    out
}

/// Fig. 5 — the STL resolution presets and their effect on export size.
pub fn fig5_resolution() -> String {
    let mut out = String::from("Fig. 5 — STL export resolution settings\n\n");
    let _ = writeln!(
        out,
        "{:<8} {:>10} {:>14} | {:>12} {:>12} | {:>12} {:>12}",
        "preset", "angle deg", "deviation mm", "bar tris", "bar bytes", "prism tris", "prism bytes"
    );
    let bar = tensile_bar_with_spline(&TensileBarDims::default())
        .expect("bar")
        .resolve()
        .expect("resolve");
    let prism = prism_with_sphere(&PrismDims::default(), BodyKind::Solid, MaterialRemoval::Without)
        .expect("prism")
        .resolve()
        .expect("resolve");
    for res in Resolution::ALL {
        let m1 = tessellate_part(&bar, &res.params());
        let m2 = tessellate_part(&prism, &res.params());
        let _ = writeln!(
            out,
            "{:<8} {:>10.1} {:>14.3} | {:>12} {:>12} | {:>12} {:>12}",
            res.to_string(),
            res.angle_degrees(),
            res.deviation_mm(),
            m1.triangle_count(),
            am_mesh::binary_stl_size(m1.triangle_count()),
            m2.triangle_count(),
            am_mesh::binary_stl_size(m2.triangle_count()),
        );
    }
    out
}

/// Fig. 7a — slicing the spline-split bar: discontinuity matrix over
/// orientation × resolution.
pub fn fig7_slicing() -> String {
    let mut out = String::from(
        "Fig. 7a — sliced spline-split model: discontinuity by orientation and resolution\n\n",
    );
    let part = tensile_bar_with_spline(&TensileBarDims::default()).expect("bar");
    let _ = writeln!(
        out,
        "{:<8} {:<6} {:>14} {:>12} {:>12} {:>16}",
        "STL", "orient", "discontinuity", "disc layers", "void cells", "seam shift mm/ly"
    );
    let mut plans = Vec::new();
    for res in Resolution::ALL {
        for orientation in Orientation::ALL {
            plans.push(ProcessPlan::fdm(res, orientation));
        }
    }
    // One batch: the three meshes are shared across both orientations.
    let outputs = run_pipeline_batch_with(
        &part,
        &plans,
        &FaultPlan::none(),
        experiment_cache(),
        Parallelism::auto(),
    );
    for (plan, output) in plans.iter().zip(outputs) {
        let output = output.expect("pipeline");
        let r = &output.slice_report;
        let shift = r.seam.as_ref().map_or(0.0, |s| s.mean_shift);
        let _ = writeln!(
            out,
            "{:<8} {:<6} {:>14} {:>12} {:>12} {:>16.3}",
            plan.resolution.to_string(),
            plan.orientation.to_string(),
            if r.has_discontinuity() { "YES" } else { "no" },
            r.discontinuous_layers,
            r.internal_void_cells,
            shift
        );
    }
    out.push_str(
        "\npaper: discontinuity in x-z at ALL resolutions; none in x-y at any resolution.\n",
    );
    // Render one gauge layer of the Coarse x-z slice, seam highlighted —
    // the textual version of the paper's Fig. 7a screenshot.
    let resolved = part.resolve().expect("resolve");
    let shells = am_mesh::tessellate_shells(&resolved, &Resolution::Coarse.params());
    let oriented = am_slicer::orient_shells(&shells, Orientation::Xz);
    let sliced = am_slicer::slice_shells(&oriented, 0.1778);
    let bounds = am_geom::Aabb2::new(
        am_geom::Point2::new(sliced.bounds.min.x, sliced.bounds.min.y),
        am_geom::Point2::new(sliced.bounds.max.x, sliced.bounds.max.y),
    )
    .inflated(0.5);
    // Pick the gauge layer whose rendering shows the widest seam gap.
    let best = sliced
        .layers
        .iter()
        .filter(|l| l.loops.len() >= 2)
        .map(|l| {
            let raster = am_slicer::rasterize_layer(l, bounds, 0.1, true);
            let art = am_slicer::render_layer_with_seam(&raster, 100, 1.0);
            let marks = art.chars().filter(|&c| c == '!').count();
            (marks, l.z, art)
        })
        .max_by_key(|(marks, _, _)| *marks);
    if let Some((marks, z, art)) = best {
        if marks > 0 {
            let _ = writeln!(
                out,
                "\nCoarse x-z, layer at z = {z:.2} mm ('#' model, '!' seam gap):\n{art}"
            );
        }
    }
    out
}

/// Fig. 7b / Fig. 8 — printed-part surface quality: seam visibility matrix.
pub fn fig8_surface() -> String {
    let mut out = String::from(
        "Fig. 7b/8 — printed spline-split bar: surface seam visibility\n\
         (visible if the in-plane mismatch exceeds the 0.05 mm feature size,\n\
          or the seam staircase shifts across layers in x-z)\n\n",
    );
    let part = tensile_bar_with_spline(&TensileBarDims::default()).expect("bar");
    let intact = tensile_bar(&TensileBarDims::default()).expect("bar");
    let _ = writeln!(
        out,
        "{:<8} {:<6} {:>14} {:>14} {:>10} | {:>14}",
        "STL", "orient", "mismatch mm", "stair mm/ly", "visible", "intact ref"
    );
    // Both parts × all six plans in one job batch: each part's meshes and
    // slices are shared across the table rows.
    let mut jobs = Vec::new();
    for res in Resolution::ALL {
        for orientation in Orientation::ALL {
            let plan = ProcessPlan::fdm(res, orientation);
            jobs.push(BatchJob { part: &part, plan: plan.clone(), faults: FaultPlan::none() });
            jobs.push(BatchJob { part: &intact, plan, faults: FaultPlan::none() });
        }
    }
    let mut results =
        run_pipeline_jobs(&jobs, experiment_cache(), Parallelism::auto()).into_iter();
    for res in Resolution::ALL {
        for orientation in Orientation::ALL {
            let output = results.next().expect("one result per job").expect("run");
            let reference = results.next().expect("one result per job").expect("run");
            let mismatch = output.seam.as_ref().map_or(0.0, |s| s.chain_mismatch);
            let stair = output
                .slice_report
                .seam
                .as_ref()
                .map_or(0.0, |s| if s.median_span < 4.0 { s.mean_shift } else { 0.0 });
            let visible = match orientation {
                Orientation::Xy => mismatch > 0.05,
                Orientation::Xz => stair > 0.05 || mismatch > 0.05,
            };
            let _ = writeln!(
                out,
                "{:<8} {:<6} {:>14.4} {:>14.3} {:>10} | {:>14}",
                res.to_string(),
                orientation.to_string(),
                mismatch,
                stair,
                if visible { "YES" } else { "no" },
                if reference.slice_report.has_discontinuity() { "defective!" } else { "clean" },
            );
        }
    }
    out.push_str("\npaper: x-y visible at Coarse only; x-z visible at all resolutions.\n");
    out
}

/// One Table 2 group: protected/intact × orientation, n seeded replicates.
///
/// Replicates differ only in the print seed, so the batch engine computes
/// the mesh/slice/tool-path prefix exactly once and fans the replicates out
/// on the shared [`am_par`] pool ([`Parallelism::auto`], so
/// `AM_PAR_THREADS` configures the budget centrally) for the print + FEA
/// suffix only.
fn tensile_group(split: bool, orientation: Orientation, replicates: usize) -> TensileSummary {
    let dims = TensileBarDims::default();
    let part = if split {
        tensile_bar_with_spline(&dims).expect("bar")
    } else {
        tensile_bar(&dims).expect("bar")
    };
    let plans: Vec<ProcessPlan> = (0..replicates as u64)
        .map(|i| {
            ProcessPlan::fdm(Resolution::Coarse, orientation)
                .with_seed(100 + i)
                .with_tensile(true)
        })
        .collect();
    let results: Vec<TensileResult> = run_pipeline_batch_with(
        &part,
        &plans,
        &FaultPlan::none(),
        experiment_cache(),
        Parallelism::auto(),
    )
    .into_iter()
    .map(|r| r.expect("pipeline").tensile.expect("tensile requested"))
    .collect();
    TensileSummary::from_results(&results)
}

/// Table 2 — tensile properties of spline-split and intact specimens in
/// both orientations (mean ± sd over seeded replicates), with the paper's
/// measured values alongside.
pub fn table2_tensile(replicates: usize) -> String {
    let mut out = String::from(
        "Table 2 — tensile properties (simulated FDM ABS, Coarse STL, n replicates)\n\n",
    );
    let groups: [(&str, bool, Orientation, [&str; 4]); 4] = [
        ("Spline x-y", true, Orientation::Xy, ["1.89±0.04", "24±1.1", "0.015±0.001", "295±94"]),
        ("Spline x-z", true, Orientation::Xz, ["2.10±0.05", "31.5±0.5", "0.021±0.001", "454±30"]),
        ("Intact x-y", false, Orientation::Xy, ["1.98±0.05", "30±0.2", "0.029±0.001", "632±33"]),
        ("Intact x-z", false, Orientation::Xz, ["2.05±0.03", "32.5±0.3", "0.077±0.041", "3367±903"]),
    ];
    let _ = writeln!(
        out,
        "{:<12} | {:>12} {:>12} | {:>12} {:>12} | {:>14} {:>14} | {:>12} {:>12}",
        "specimen", "E GPa", "paper", "UTS MPa", "paper", "fail strain", "paper", "U kJ/m³", "paper"
    );
    let fmt = |s: &Stat, prec: usize| crate::pm(s.mean, s.std, prec);
    for (name, split, orientation, paper) in groups {
        let s = tensile_group(split, orientation, replicates);
        let _ = writeln!(
            out,
            "{:<12} | {:>12} {:>12} | {:>12} {:>12} | {:>14} {:>14} | {:>12} {:>12}",
            name,
            fmt(&s.young_modulus_gpa, 2),
            paper[0],
            fmt(&s.uts_mpa, 1),
            paper[1],
            fmt(&s.failure_strain, 4),
            paper[2],
            crate::pm(s.toughness_kj_m3.mean, s.toughness_kj_m3.std, 0),
            paper[3],
        );
    }
    out.push_str(
        "\nshape criteria: E comparable everywhere; spline failure strain ≤ ~50-60% of intact;\n\
         spline toughness ≤ half of intact; intact x-z by far the toughest.\n",
    );
    out
}

/// Fig. 9 — fracture origin: the crack starts at the spline tip.
pub fn fig9_fracture() -> String {
    let mut out = String::from("Fig. 9 — fracture initiates at the tip of the spline\n\n");
    let dims = TensileBarDims::default();
    let part = tensile_bar_with_spline(&dims).expect("bar");
    let spline = standard_split_spline(&dims).expect("spline");
    for orientation in Orientation::ALL {
        let plan = ProcessPlan::fdm(Resolution::Coarse, orientation).with_tensile(true);
        let output = run_pipeline(&part, &plan).expect("pipeline");
        let tensile = output.tensile.expect("tensile requested");
        let origin = tensile.fracture_origin.expect("specimen fractures");
        let d_seam = (0..=128)
            .map(|i| spline.point_at(i as f64 / 128.0).distance(origin))
            .fold(f64::INFINITY, f64::min);
        let d_tip = spline
            .through_points()
            .first()
            .map(|p| p.distance(origin))
            .unwrap_or(f64::INFINITY)
            .min(spline.through_points().last().map(|p| p.distance(origin)).unwrap_or(f64::INFINITY));
        // Crack-path tracking: how much of the crack runs along the seam.
        let on_seam = tensile
            .fracture_path
            .iter()
            .filter(|p| {
                (0..=32)
                    .map(|i| spline.point_at(i as f64 / 32.0).distance(**p))
                    .fold(f64::INFINITY, f64::min)
                    < 1.0
            })
            .count();
        let _ = writeln!(
            out,
            "{orientation}: fracture origin ({:6.2}, {:5.2}) mm — {:.2} mm from the seam, {:.2} mm from its nearest tip; {}/{} crack segments within 1 mm of the seam",
            origin.x, origin.y, d_seam, d_tip, on_seam, tensile.fracture_path.len()
        );
    }
    out.push_str("\npaper: failure originates at the spline tip (stress concentration).\n");
    out
}

/// Table 1 — the per-stage risk/mitigation catalogue, plus the Fig. 2
/// attack taxonomy.
pub fn table1_risks() -> String {
    let mut out = String::from("Table 1 — cybersecurity risks in the AM supply chain\n\n");
    out.push_str(&obfuscade::risk::render_risk_table());
    out.push_str("\nFig. 2 — attack taxonomy\n\n");
    for a in obfuscade::risk::attack_taxonomy() {
        let _ = writeln!(out, "  [{:<18}] {:<45} goal: {}", a.level.to_string(), a.name, a.goal);
    }
    out
}

/// Table 3 (+ §3.2 file-size observations) — the four embedded-sphere
/// recipes through the full pipeline.
pub fn table3_printing() -> String {
    let mut out = String::from(
        "Table 3 — printing results for the four embedded-sphere CAD recipes (Fine STL)\n\n",
    );
    let scheme = EmbeddedSphereScheme::default();
    let dims = *scheme.dims();
    let sphere_vol = 4.0 / 3.0 * std::f64::consts::PI * dims.sphere_radius.powi(3);
    let _ = writeln!(
        out,
        "{:<38} {:>10} {:>10} | {:>12} {:>14} | {:>14}",
        "CAD recipe", "CAD bytes", "STL bytes", "centre", "void mm³", "authenticity"
    );
    let parts: Vec<(CadRecipe, Part)> = CadRecipe::ALL
        .into_iter()
        .map(|recipe| (recipe, scheme.part_for_recipe(recipe).expect("recipe part")))
        .collect();
    let plan = ProcessPlan::fdm(Resolution::Fine, Orientation::Xy);
    let jobs: Vec<BatchJob> = parts
        .iter()
        .map(|(_, part)| BatchJob { part, plan: plan.clone(), faults: FaultPlan::none() })
        .collect();
    let outputs = run_pipeline_jobs(&jobs, experiment_cache(), Parallelism::auto());
    for ((recipe, part), output) in parts.iter().zip(outputs) {
        let output = output.expect("pipeline");
        let center = dims.size * 0.5;
        let material = output.printed.material_at_model(center);
        let auth = scheme.authenticate(&output.scan);
        let _ = writeln!(
            out,
            "{:<38} {:>10} {:>10} | {:>12} {:>14.1} | {:>14}",
            recipe.to_string(),
            cad_file_size(part),
            output.stl_bytes,
            // After dissolution the support-filled sphere reads as empty.
            match material {
                Material::Model => "model",
                Material::Support => "support",
                Material::Empty => "support*",
            },
            output.scan.internal_void_volume,
            format!("{auth:?}"),
        );
    }
    let _ = writeln!(
        out,
        "\n(*support material, dissolved in post-processing; sphere volume = {sphere_vol:.1} mm³)\n\
         paper Table 3: support / support / MODEL / support — only removal+solid prints solid.\n\
         paper §3.2: CAD sizes differ between solid and surface; STL sizes identical;\n\
         with-removal files larger than without."
    );
    out
}

/// §2 information-leakage — acoustic side-channel tool-path reconstruction.
pub fn sidechannel_recon() -> String {
    let mut out = String::from(
        "§2 information leakage — smartphone acoustic/magnetic reconstruction of tool paths\n\n",
    );
    let part = tensile_bar_with_spline(&TensileBarDims::default()).expect("bar");
    let plan = ProcessPlan::fdm(Resolution::Coarse, Orientation::Xy);
    // Rebuild the tool path exactly as the pipeline does.
    let resolved = part.resolve().expect("resolve");
    let shells = am_mesh::tessellate_shells(&resolved, &plan.resolution.params());
    let oriented = am_slicer::orient_shells(&shells, plan.orientation);
    let sliced = am_slicer::slice_shells(&oriented, plan.slicer.layer_height);
    let toolpath = am_slicer::generate_toolpath(&sliced, &plan.slicer);

    let _ = writeln!(
        out,
        "{:<18} {:>12} {:>16} {:>16} {:>14}",
        "capture", "moves", "per-layer mm", "global mm", "length err %"
    );
    for (name, quality) in [
        ("lab grade", CaptureQuality::lab_grade()),
        ("smartphone", CaptureQuality::smartphone()),
        ("across the room", CaptureQuality::across_the_room()),
    ] {
        let trace = record_emissions(&toolpath, plan.printer.feed_mm_per_s, quality, 5);
        let rebuilt = reconstruct_toolpath(&trace);
        let report = compare_toolpaths(&toolpath, &rebuilt);
        let _ = writeln!(
            out,
            "{:<18} {:>12} {:>16.3} {:>16.2} {:>14.4}",
            name,
            report.moves,
            report.per_layer_error_mm,
            report.mean_position_error_mm,
            report.length_error_ratio * 100.0
        );
    }
    // The defender's countermeasure (Table 1: "noise emission").
    let trace = record_emissions(
        &toolpath,
        plan.printer.feed_mm_per_s,
        CaptureQuality::smartphone(),
        5,
    );
    let jammed = am_sidechannel::NoiseEmitter::matched_jammer().apply(&trace, 5);
    let report = compare_toolpaths(&toolpath, &reconstruct_toolpath(&jammed));
    let _ = writeln!(
        out,
        "{:<18} {:>12} {:>16.3} {:>16.2} {:>14.4}   ← defender jamming",
        "smartphone+jam",
        report.moves,
        report.per_layer_error_mm,
        report.mean_position_error_mm,
        report.length_error_ratio * 100.0
    );
    out.push_str(
        "\nObfusCADe note: the reconstructed tool path inherits the planted seam\n\
         (the roads still terminate at the body boundary), so even side-channel\n\
         theft yields the sabotaged design. Active noise emission (last row)\n\
         destroys the channel outright.\n",
    );
    out
}

/// §16 attack detection — the ROC sweep over the full fault catalog.
///
/// The defender's view of the side channel: audio-signature, power-
/// envelope, and fused detectors against every Table 1 attack, across
/// capture qualities and with the NoiseEmitter countermeasure on and
/// off. Rendered from the same [`am_detect::run_roc_sweep`] table the
/// v9 bench report commits, so `report detect` and `BENCH_PR10.json`
/// can never disagree about the rates.
pub fn detection_roc() -> String {
    let mut out = String::from(
        "§16 attack detection — side-channel ROC sweep over the fault catalog\n\n",
    );
    let part =
        prism_with_sphere(&PrismDims::default(), BodyKind::Solid, MaterialRemoval::Without)
            .expect("prism");
    let plan = ProcessPlan::fdm(Resolution::Coarse, Orientation::Xy);
    let config = am_detect::RocConfig::default();
    let table = am_detect::run_roc_sweep(
        &part,
        &plan,
        &config,
        experiment_cache(),
        obfuscade::Deadline::none(),
    )
    .expect("ROC sweep");

    let _ = writeln!(
        out,
        "{:<12} {:>5}  {:>11} {:>11} {:>11}  {:>9} {:>9} {:>9}",
        "quality", "jam", "audio catch", "power catch", "fused catch", "audio fpr", "power fpr",
        "fused fpr"
    );
    for s in &table.setups {
        let _ = writeln!(
            out,
            "{:<12} {:>5.2}  {:>11.3} {:>11.3} {:>11.3}  {:>9.3} {:>9.3} {:>9.3}",
            s.quality,
            s.jam_amplitude,
            s.audio_catch,
            s.power_catch,
            s.fused_catch,
            s.audio_fpr,
            s.power_fpr,
            s.fused_fpr
        );
    }
    let _ = writeln!(
        out,
        "\nper-fault fused catch rate ({} catalog attacks, min over {} setups):",
        table.faults_covered,
        table.setups.len()
    );
    let mut faults: Vec<&str> = Vec::new();
    for c in &table.cells {
        if !faults.contains(&c.fault.as_str()) {
            faults.push(&c.fault);
        }
    }
    for fault in faults {
        let worst = table
            .cells
            .iter()
            .filter(|c| c.fault == fault)
            .map(|c| c.fused_catch)
            .fold(f64::INFINITY, f64::min);
        let blocked = table.cells.iter().any(|c| c.fault == fault && c.blocked);
        let _ = writeln!(
            out,
            "  {fault:<24} {worst:>6.3}{}",
            if blocked { "  (blocked upstream of the printer)" } else { "" }
        );
    }
    out.push_str(
        "\nObfusCADe note: fusing the acoustic and power channels never loses to\n\
         either channel alone at the same calibrated false-positive budget, and\n\
         the defender's own jamming (nonzero jam rows) degrades the acoustic\n\
         channel while the power envelope keeps the catch rate up.\n",
    );
    out
}

/// Ablation — the counterfeiter's key-space search (the logic-locking
/// analogy quantified).
pub fn ablation_keyspace() -> String {
    let mut out = String::from("Ablation — counterfeiter key-space search\n\n");
    let thresholds = QualityThresholds::default();

    out.push_str("Embedded-sphere scheme (adversary has the CAD, tries recipes × orientations):\n");
    let outcome = search_sphere_scheme(&EmbeddedSphereScheme::default(), &thresholds, 11)
        .expect("search");
    for attempt in &outcome.attempts {
        let _ = writeln!(out, "  {:<55} → {}", attempt.key.to_string(), attempt.verdict);
    }
    let _ = writeln!(
        out,
        "  success rate {:.0}%, prints until first good part: {:?}\n",
        outcome.success_rate() * 100.0,
        outcome.prints_to_success
    );

    out.push_str("Spline-split scheme (adversary has the STL, tries resolutions × orientations,\nfull inspection incl. destructive testing):\n");
    let scheme = SplineSplitScheme::default();
    let reference = obfuscade::genuine_production(&scheme, 21, true).expect("genuine");
    let protected = scheme.protected_part().expect("part");
    let mut good = 0usize;
    let mut total = 0usize;
    let mut trial_plans = Vec::new();
    for resolution in Resolution::ALL {
        for orientation in Orientation::ALL {
            trial_plans
                .push(ProcessPlan::fdm(resolution, orientation).with_seed(33).with_tensile(true));
        }
    }
    let trial_outputs = run_pipeline_batch_with(
        &protected,
        &trial_plans,
        &FaultPlan::none(),
        experiment_cache(),
        Parallelism::auto(),
    );
    for (plan, output) in trial_plans.iter().zip(trial_outputs) {
        let output = output.expect("pipeline");
        let report = assess_quality(&output, &reference, &thresholds);
        let _ = writeln!(
            out,
            "  {:<8} {:<6} → {:<10} {}",
            plan.resolution.to_string(),
            plan.orientation.to_string(),
            report.verdict.to_string(),
            report.findings.first().map(String::as_str).unwrap_or("")
        );
        total += 1;
        if report.verdict == Verdict::Good {
            good += 1;
        }
    }
    let rate = 100.0 * good as f64 / total as f64;
    if good == 0 {
        let _ = writeln!(
            out,
            "  success rate {rate:.0}% — no resolution/orientation restores the stolen file's quality."
        );
    } else {
        let _ = writeln!(out, "  success rate {rate:.0}%");
    }
    out
}

/// Ablation — key-space scaling with multiple planted features (the
/// logic-locking analogy, quantified: n features → 4ⁿ keys).
pub fn ablation_multikey() -> String {
    use obfuscade::MultiSphereScheme;
    let mut out = String::from(
        "Ablation — key-space scaling with multiple embedded features\n\n",
    );
    let _ = writeln!(
        out,
        "{:>2} {:>10} {:>18} | {:>14} {:>18}",
        "n", "key space", "expected prints", "genuine print", "random guesses OK"
    );
    let plan = ProcessPlan::fdm(Resolution::Fine, Orientation::Xy);
    for n in 1..=3usize {
        let scheme = MultiSphereScheme::new(n).expect("scheme");
        let genuine = scheme.part_for_recipes(&scheme.genuine_recipes()).expect("part");
        // Empirical counterfeiter success over 8 random recipe guesses; the
        // genuine print and all guesses go through one job batch (random
        // guesses often repeat a recipe, so their prefixes alias).
        let trials = 8;
        let guesses: Vec<Part> = (0..trials)
            .map(|seed| {
                let recipes = scheme.random_recipes(seed as u64 * 7 + 1);
                scheme.part_for_recipes(&recipes).expect("part")
            })
            .collect();
        let mut jobs =
            vec![BatchJob { part: &genuine, plan: plan.clone(), faults: FaultPlan::none() }];
        jobs.extend(
            guesses
                .iter()
                .map(|part| BatchJob { part, plan: plan.clone(), faults: FaultPlan::none() }),
        );
        let mut results =
            run_pipeline_jobs(&jobs, experiment_cache(), Parallelism::auto()).into_iter();
        let output = results.next().expect("one result per job").expect("pipeline");
        let genuine_ok = scheme.authenticate(&output.scan) == Authenticity::Genuine;
        let mut wins = 0;
        for result in results {
            let output = result.expect("pipeline");
            if scheme.authenticate(&output.scan) == Authenticity::Genuine {
                wins += 1;
            }
        }
        let _ = writeln!(
            out,
            "{:>2} {:>10} {:>18.0} | {:>14} {:>15}/{trials}",
            n,
            scheme.key_space_size(),
            scheme.expected_prints_to_success(),
            if genuine_ok { "solid ✓" } else { "FAILED" },
            wins,
        );
    }
    out.push_str(
        "\neach extra feature multiplies the key space by 4; a random counterfeiter\n\
         succeeds with probability 4⁻ⁿ per print (cf. logic locking key bits).\n",
    );
    out
}

/// Ablation — the mesh-repair (vertex welding) attack.
pub fn ablation_repair() -> String {
    let mut out = String::from("Ablation — STL repair attack (vertex welding before reprint)\n\n");
    let scheme = SplineSplitScheme::default();
    let _ = writeln!(
        out,
        "{:<14} {:>16} {:>14} {:>16} {:>14}",
        "weld tol mm", "verts merged", "tris dropped", "watertight after", "backfired"
    );
    for tol in [1e-9, 1e-4, 0.01, 0.1, 0.5] {
        let outcome = repair_attack(&scheme, Resolution::Coarse, tol).expect("repair");
        let _ = writeln!(
            out,
            "{:<14e} {:>16} {:>14} {:>16} {:>14}",
            tol,
            outcome.vertices_merged,
            outcome.triangles_dropped,
            outcome.watertight_after,
            outcome.repair_backfired()
        );
    }
    out.push_str(
        "\nwelding fuses boundary vertices but cannot remove the interior separation\n\
         wall: every setting either changes nothing or leaves non-manifold scars.\n",
    );
    out
}

/// Ablation — the corner-cutting counterfeiter: right key, sparse infill.
/// The Table 1 weight/density inspection catches what geometry checks miss.
pub fn ablation_sparse_infill() -> String {
    use am_slicer::InfillStyle;
    let mut out = String::from(
        "Ablation — sparse-infill corner cutting vs the weight/density check\n\n",
    );
    let scheme = EmbeddedSphereScheme::default();
    let genuine_part = scheme.part_for_recipe(scheme.genuine_recipe()).expect("part");
    let reference = run_pipeline(
        &genuine_part,
        &ProcessPlan::fdm(Resolution::Fine, Orientation::Xy),
    )
    .expect("pipeline");
    let _ = writeln!(
        out,
        "{:<14} {:>10} {:>12} {:>12} {:>12}",
        "infill", "weight g", "ratio", "verdict", "finding"
    );
    for (name, infill) in [
        ("solid", InfillStyle::Solid),
        ("sparse 50%", InfillStyle::Sparse { density: 0.5 }),
        ("sparse 25%", InfillStyle::Sparse { density: 0.25 }),
    ] {
        let mut plan = ProcessPlan::fdm(Resolution::Fine, Orientation::Xy);
        plan.slicer.infill = infill;
        let output = run_pipeline(&genuine_part, &plan).expect("pipeline");
        let report = assess_quality(&output, &reference, &QualityThresholds::default());
        let _ = writeln!(
            out,
            "{:<14} {:>10.2} {:>12.2} {:>12} {:>12}",
            name,
            output.printed.weight_g(),
            output.printed.weight_g() / reference.printed.weight_g(),
            report.verdict.to_string(),
            report.findings.first().map(String::as_str).unwrap_or(""),
        );
    }
    out.push_str(
        "\neven with the correct process key, skimping on infill fails the\n\
         defender's weight measurement (Table 1, printer-stage mitigation).\n",
    );
    out
}

/// Authentication demonstration (the paper's genuine-part identification
/// claim).
pub fn authentication_demo() -> String {
    let mut out = String::from("Authentication — genuine-part identification by CT signature\n\n");
    let scheme = SplineSplitScheme::default();
    let plan = ProcessPlan::fdm(Resolution::Fine, Orientation::Xy);
    let genuine = run_pipeline(&scheme.genuine_part().expect("part"), &plan).expect("run");
    let counterfeit = run_pipeline(&scheme.protected_part().expect("part"), &plan).expect("run");
    for (name, output) in [("licensed print", &genuine), ("counterfeit print", &counterfeit)] {
        let auth = scheme.authenticate(&output.scan);
        let _ = writeln!(
            out,
            "{name:<18}: cold-joint area {:7.1} mm² → {:?}",
            output.scan.cold_joint_area, auth
        );
        assert!(matches!(auth, Authenticity::Genuine | Authenticity::Counterfeit));
    }
    out
}
