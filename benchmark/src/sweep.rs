//! `paper-sweep`: the paper's evaluation (Tables 2–3) run the way a
//! designer runs it — one `run_pipeline_jobs` call on a fresh
//! `StageCache` at the default thread budget — plus the traced
//! stage-by-stage replay that splits its time into layers.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use am_cad::Part;
use am_fea::{Lattice, SolverPool, TensileConfig, TensileResult};
use am_geom::{Tolerance, Transform3, Vec3};
use am_mesh::{
    binary_stl_size, fingerprint, seam_report, tessellate_shells, weld_vertices, Resolution,
    SeamReport, TriMesh,
};
use am_par::{Parallelism, Pool};
use am_printer::{check_limits_at_feed, scan, BuildEnvelope, PrintedPart, Process, ScanReport};
use am_slicer::{
    build_transform, diagnose_slices, orient_shells, try_generate_toolpath, try_slice_shells_with,
    Orientation, SliceReport, SlicedModel, ToolMaterial, ToolPath,
};
use obfuscade::{
    run_pipeline, run_pipeline_jobs, BatchJob, EmbeddedSphereScheme, FaultPlan, PipelineError,
    PipelineOutput, ProcessKey, ProcessPlan, SplineSplitScheme, StageCache, ToolPathStats,
};

use crate::report::{median, peak_rss_mb, quantile, RunResult};
use crate::schedule::derive_seed;
use crate::trace::{SpanId, SpanStore, TraceSummary};

/// Process seeds every sweep job runs under (S in the benchmark doc).
pub const SWEEP_SEEDS: usize = 1;

/// The sweep's parts and jobs. Table-3 jobs cover the 24-key process
/// space on the embedded-sphere prism at native FDM slicer settings;
/// Table-2 jobs are the spline-split and intact bars, x-y and x-z,
/// Coarse, with the tensile test on. Every job runs under each of the
/// [`SWEEP_SEEDS`] process seeds drawn from the workload seed.
pub struct SweepJobs {
    parts: Vec<Part>,
    jobs: Vec<(usize, ProcessPlan)>,
}

impl SweepJobs {
    /// Builds the job list for `seed`.
    ///
    /// # Panics
    ///
    /// If a demo part fails to build, which would be a defect in `am-cad`.
    pub fn build(seed: u64) -> SweepJobs {
        let sphere = EmbeddedSphereScheme::default();
        let bars = SplineSplitScheme::default();
        let keys = ProcessKey::key_space();
        let mut parts: Vec<Part> = Vec::new();
        let mut recipe_part = Vec::new();
        for key in &keys {
            if !recipe_part.iter().any(|(r, _)| *r == key.recipe) {
                parts.push(sphere.part_for_recipe(key.recipe).expect("sphere part"));
                recipe_part.push((key.recipe, parts.len() - 1));
            }
        }
        parts.push(bars.protected_part().expect("spline-split bar"));
        parts.push(bars.genuine_part().expect("intact bar"));
        let (split_bar, intact_bar) = (parts.len() - 2, parts.len() - 1);

        let mut jobs = Vec::new();
        for s in 0..SWEEP_SEEDS {
            let process_seed = derive_seed(seed, "sweep.process", s as u64);
            for key in &keys {
                let part = recipe_part
                    .iter()
                    .find(|(r, _)| *r == key.recipe)
                    .map(|&(_, i)| i)
                    .expect("every recipe has a part");
                let plan =
                    ProcessPlan::fdm(key.resolution, key.orientation).with_seed(process_seed);
                jobs.push((part, plan));
            }
            for part in [split_bar, intact_bar] {
                for orientation in Orientation::ALL {
                    let plan = ProcessPlan::fdm(Resolution::Coarse, orientation)
                        .with_tensile(true)
                        .with_seed(process_seed);
                    jobs.push((part, plan));
                }
            }
        }
        SweepJobs { parts, jobs }
    }

    /// Number of jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// The jobs as clean batch jobs.
    pub fn batch(&self) -> Vec<BatchJob<'_>> {
        self.jobs
            .iter()
            .map(|(p, plan)| BatchJob {
                part: &self.parts[*p],
                plan: plan.clone(),
                faults: FaultPlan::none(),
            })
            .collect()
    }

    /// Part and plan of job `i`.
    pub fn job(&self, i: usize) -> (&Part, &ProcessPlan) {
        let (p, plan) = &self.jobs[i];
        (&self.parts[*p], plan)
    }
}

/// Everything the correctness checks compare, as exact bits: the canonical
/// wire rendering of the outcome, the printed grid digest, the scan
/// report and the tensile result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutputBits {
    /// `encode_outcome(..).render()` — every field the service returns.
    pub wire: String,
    /// [`PrintedPart::grid_digest`] of the printed part (0 on error).
    pub grid: u128,
    /// [`ScanReport`] fields, floats as IEEE-754 bits.
    pub scan: [u64; 4],
    /// [`TensileResult`] fields, floats as IEEE-754 bits.
    pub tensile: Option<Vec<u64>>,
}

fn scan_bits(s: &ScanReport) -> [u64; 4] {
    [
        s.internal_void_voxels as u64,
        s.internal_support_voxels as u64,
        s.internal_void_volume.to_bits(),
        s.cold_joint_area.to_bits(),
    ]
}

fn tensile_bits(t: &TensileResult) -> Vec<u64> {
    let mut bits = vec![
        t.young_modulus_gpa.to_bits(),
        t.uts_mpa.to_bits(),
        t.failure_strain.to_bits(),
        t.toughness_kj_m3.to_bits(),
        u64::from(t.ruptured),
    ];
    for (strain, stress) in &t.curve {
        bits.extend([strain.to_bits(), stress.to_bits()]);
    }
    for p in t.fracture_origin.iter().chain(&t.fracture_path) {
        bits.extend([p.x.to_bits(), p.y.to_bits()]);
    }
    bits
}

/// The comparable bits of one pipeline outcome.
pub fn output_bits(outcome: &Result<PipelineOutput, PipelineError>) -> OutputBits {
    let wire = am_service::encode_outcome(outcome).render();
    match outcome {
        Ok(o) => OutputBits {
            wire,
            grid: o.printed.grid_digest(),
            scan: scan_bits(&o.scan),
            tensile: o.tensile.as_ref().map(tensile_bits),
        },
        Err(_) => OutputBits {
            wire,
            grid: 0,
            scan: [0; 4],
            tensile: None,
        },
    }
}

/// One job's result from the stage replay.
#[derive(Debug, Clone)]
pub struct ReplayOutput {
    pub mesh_triangles: usize,
    pub stl_bytes: u64,
    pub slice_report: SliceReport,
    pub toolpath: ToolPathStats,
    pub grid: u128,
    pub scan: ScanReport,
    pub tensile: Option<TensileResult>,
    pub joint_contact: f64,
}

impl ReplayOutput {
    /// Compares the replay with the pipeline's own output for the same
    /// job; `Err` names the first field that differs.
    pub fn matches(&self, pipeline: &Result<PipelineOutput, PipelineError>) -> Result<(), String> {
        let o = pipeline
            .as_ref()
            .map_err(|e| format!("pipeline failed: {e}"))?;
        let checks = [
            ("mesh_triangles", self.mesh_triangles == o.mesh_triangles),
            ("stl_bytes", self.stl_bytes == o.stl_bytes),
            ("slice_report", self.slice_report == o.slice_report),
            ("toolpath", self.toolpath == o.toolpath),
            ("grid_digest", self.grid == o.printed.grid_digest()),
            ("scan", scan_bits(&self.scan) == scan_bits(&o.scan)),
            (
                "tensile",
                self.tensile.as_ref().map(tensile_bits) == o.tensile.as_ref().map(tensile_bits),
            ),
            (
                "joint_contact",
                self.joint_contact.to_bits() == o.joint_contact.to_bits(),
            ),
        ];
        match checks.iter().find(|(_, ok)| !ok) {
            Some((field, _)) => Err(format!("replay differs from the pipeline in {field}")),
            None => Ok(()),
        }
    }
}

/// Work counters read at the replay's stage boundaries.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplayCounts {
    pub triangles: u64,
    pub layers: u64,
    pub spans_planned: u64,
    pub span_fill_voxels: u64,
    pub newton_iters: u64,
    pub pcg_iters: u64,
    pub force_evals: u64,
}

struct MeshStep {
    shells: Vec<TriMesh>,
    triangles: usize,
    stl_bytes: u64,
    seam: Option<SeamReport>,
}

struct SliceStep {
    sliced: SlicedModel,
    report: SliceReport,
    to_build: Transform3,
}

struct ToolpathStep {
    toolpath: ToolPath,
    stats: ToolPathStats,
}

/// Replays `jobs` serially through each crate's public stage entry
/// points, in the pipeline's stage order, computing each unique mesh,
/// slice and tool-path prefix once as the batch engine does. Every job
/// gets one `core.job` root span (id = job index) whose children are the
/// stage spans it paid for.
///
/// Every sweep job is clean (no faults) and shares one slicer and
/// printer configuration, so a prefix is identified by part, resolution
/// and orientation.
///
/// # Errors
///
/// The first stage failure, naming the job.
pub fn replay(
    jobs: &SweepJobs,
    store: &SpanStore,
    pool: &SolverPool,
) -> Result<(Vec<ReplayOutput>, ReplayCounts), String> {
    let mut meshes: HashMap<(usize, Resolution), Arc<MeshStep>> = HashMap::new();
    let mut slices: HashMap<(usize, Resolution, Orientation), Arc<SliceStep>> = HashMap::new();
    let mut toolpaths: HashMap<(usize, Resolution, Orientation), Arc<ToolpathStep>> =
        HashMap::new();
    let mut counts = ReplayCounts::default();
    let mut outputs = Vec::with_capacity(jobs.len());
    for (i, (p, plan)) in jobs.jobs.iter().enumerate() {
        let id = i as u64;
        let part = &jobs.parts[*p];
        let out = store.in_span("core.job", id, None, |root| {
            let mesh_key = (*p, plan.resolution);
            let mesh = match meshes.get(&mesh_key) {
                Some(m) => Arc::clone(m),
                None => {
                    let m = Arc::new(mesh_step(part, plan, store, id, root)?);
                    counts.triangles += m.triangles as u64;
                    meshes.insert(mesh_key, Arc::clone(&m));
                    m
                }
            };
            let slice_key = (*p, plan.resolution, plan.orientation);
            let slice = match slices.get(&slice_key) {
                Some(s) => Arc::clone(s),
                None => {
                    let s = Arc::new(slice_step(&mesh, plan, store, id, root)?);
                    counts.layers += s.report.layers as u64;
                    slices.insert(slice_key, Arc::clone(&s));
                    s
                }
            };
            let toolpath = match toolpaths.get(&slice_key) {
                Some(t) => Arc::clone(t),
                None => {
                    let t = Arc::new(toolpath_step(&slice, plan, store, id, root)?);
                    toolpaths.insert(slice_key, Arc::clone(&t));
                    t
                }
            };
            print_and_test(
                &mesh,
                &slice,
                &toolpath,
                plan,
                store,
                pool,
                &mut counts,
                id,
                root,
            )
        });
        outputs.push(out.map_err(|e| format!("replay job {i}: {e}"))?);
    }
    Ok((outputs, counts))
}

fn mesh_step(
    part: &Part,
    plan: &ProcessPlan,
    store: &SpanStore,
    id: u64,
    root: SpanId,
) -> Result<MeshStep, String> {
    let resolved = store
        .in_span("cad.resolve", id, Some(root), |_| part.resolve())
        .map_err(|e| e.to_string())?;
    store.in_span("mesh.tessellate", id, Some(root), |_| {
        let params = plan.resolution.params();
        let mut shells = tessellate_shells(&resolved, &params);
        // The pipeline fingerprints every exported shell before its STL
        // audit, faulted or not.
        let _pristine: Vec<_> = shells.iter().map(fingerprint).collect();
        let triangles: usize = shells.iter().map(TriMesh::triangle_count).sum();
        if triangles == 0 {
            return Err("empty build".to_string());
        }
        let stl_bytes = binary_stl_size(triangles);
        let seam = seam_report(&resolved, &params);
        let sliver = Tolerance::new(1e-9);
        if shells.iter().any(|s| s.degenerate_count(sliver) > 0) {
            for shell in &mut shells {
                *shell = weld_vertices(shell, sliver).0;
            }
        }
        Ok(MeshStep {
            shells,
            triangles,
            stl_bytes,
            seam,
        })
    })
}

fn slice_step(
    mesh: &MeshStep,
    plan: &ProcessPlan,
    store: &SpanStore,
    id: u64,
    root: SpanId,
) -> Result<SliceStep, String> {
    let (sliced, to_build) = store.in_span("slicer.slice", id, Some(root), |_| {
        let bed_margin = Transform3::translation(Vec3::new(5.0, 5.0, 0.0));
        let oriented: Vec<TriMesh> = orient_shells(&mesh.shells, plan.orientation)
            .iter()
            .map(|m| m.transformed(&bed_margin))
            .collect();
        let to_build = build_transform(&mesh.shells, plan.orientation).then(&bed_margin);
        try_slice_shells_with(&oriented, plan.slicer.layer_height, Parallelism::serial())
            .map(|sliced| (sliced, to_build))
            .map_err(|e| e.to_string())
    })?;
    let report = store.in_span("slicer.diagnose", id, Some(root), |_| {
        diagnose_slices(&sliced, plan.slicer.analysis_cell)
    });
    Ok(SliceStep {
        sliced,
        report,
        to_build,
    })
}

fn toolpath_step(
    slice: &SliceStep,
    plan: &ProcessPlan,
    store: &SpanStore,
    id: u64,
    root: SpanId,
) -> Result<ToolpathStep, String> {
    store.in_span("slicer.toolpath", id, Some(root), |_| {
        let toolpath =
            try_generate_toolpath(&slice.sliced, &plan.slicer).map_err(|e| e.to_string())?;
        let feed = plan.printer.feed_mm_per_s;
        let stats = ToolPathStats {
            model_mm: toolpath.total_length(ToolMaterial::Model),
            support_mm: toolpath.total_length(ToolMaterial::Support),
            layers: toolpath.layer_count(),
            time_s: toolpath.try_print_time_estimate(feed).unwrap_or(0.0),
        };
        let envelope = match plan.printer.process {
            Process::Fdm => BuildEnvelope::dimension_elite(),
            Process::PolyJet => BuildEnvelope::objet30_pro(),
        };
        let violations = check_limits_at_feed(&toolpath, &envelope, Some(feed));
        if !violations.is_empty() {
            return Err(format!("firmware rejected {} moves", violations.len()));
        }
        Ok(ToolpathStep { toolpath, stats })
    })
}

#[allow(clippy::too_many_arguments)]
fn print_and_test(
    mesh: &MeshStep,
    slice: &SliceStep,
    toolpath: &ToolpathStep,
    plan: &ProcessPlan,
    store: &SpanStore,
    pool: &SolverPool,
    counts: &mut ReplayCounts,
    id: u64,
    root: SpanId,
) -> Result<ReplayOutput, String> {
    let stamp_before = am_printer::stamp_counters();
    let printed = store.in_span("printer.deposit", id, Some(root), |_| {
        let mut printed = PrintedPart::try_from_toolpath_planned(
            &toolpath.toolpath,
            &plan.printer,
            slice.to_build,
            plan.seed,
            Parallelism::serial(),
        )
        .map_err(|e| e.to_string())?;
        printed.dissolve_support();
        Ok::<PrintedPart, String>(printed)
    })?;
    let stamp_after = am_printer::stamp_counters();
    counts.spans_planned += stamp_after.spans_planned - stamp_before.spans_planned;
    counts.span_fill_voxels += stamp_after.span_fill_voxels - stamp_before.span_fill_voxels;
    let scan_report = store.in_span("printer.scan", id, Some(root), |_| scan(&printed));

    // The pipeline's cold-joint contact model (x-y: in-plane chord
    // mismatch; x-z: share of discontinuous layers).
    let report = &slice.report;
    let joint_contact = match (&mesh.seam, plan.orientation) {
        (Some(s), Orientation::Xy) => {
            (1.0 - 1.5 * s.chain_mismatch / plan.slicer.road_width).clamp(0.3, 1.0)
        }
        (Some(_), Orientation::Xz) => {
            let frac = if report.layers == 0 {
                0.0
            } else {
                report.discontinuous_layers as f64 / report.layers as f64
            };
            (1.0 - 0.5 * frac).clamp(0.3, 1.0)
        }
        (None, _) => 1.0,
    };

    let tensile = if plan.tensile {
        let config = TensileConfig {
            joint_contact,
            solver: plan.fea_solver,
            ..TensileConfig::fdm(plan.orientation)
        };
        let mut lattice = store
            .in_span("fea.lattice", id, Some(root), |_| {
                Lattice::try_from_printed(&printed, &config, plan.seed)
            })
            .map_err(|e| e.to_string())?;
        let before = am_fea::solver_counters();
        let result = store
            .in_span("fea.solve", id, Some(root), |_| {
                pool.run(&mut lattice, &config, Parallelism::serial())
            })
            .map_err(|e| e.to_string())?;
        let after = am_fea::solver_counters();
        counts.newton_iters += after.newton_iters - before.newton_iters;
        counts.pcg_iters += after.pcg_iters - before.pcg_iters;
        counts.force_evals += after.force_evals - before.force_evals;
        Some(result)
    } else {
        None
    };

    Ok(ReplayOutput {
        mesh_triangles: mesh.triangles,
        stl_bytes: mesh.stl_bytes,
        slice_report: slice.report.clone(),
        toolpath: toolpath.stats,
        grid: printed.grid_digest(),
        scan: scan_report,
        tensile,
        joint_contact,
    })
}

/// Set-ups per round; `setup_s` is the median over every round.
const SETUP_REPEATS: usize = 21;

/// Times one round of set-ups (building the job list) into `setups`.
fn time_setups(seed: u64, setups: &mut Vec<f64>) {
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        let jobs = std::hint::black_box(SweepJobs::build(seed));
        std::hint::black_box(jobs.batch());
        setups.push(t.elapsed().as_secs_f64());
    }
}

/// The untraced run: repeated sweeps for `seconds`, each one
/// `run_pipeline_jobs` call on a fresh cache at the default thread
/// budget, every output checked against an uncached serial
/// `run_pipeline` of the same job.
pub fn run_untraced(seed: u64, seconds: f64) -> RunResult {
    // The set-up takes microseconds, so one round samples the shared
    // host's speed at one instant. A round before timing and one after
    // every sweep (outside its timed call) sample it across the run, as
    // the sweeps do.
    let mut setups = Vec::new();
    time_setups(seed, &mut setups);
    let jobs = SweepJobs::build(seed);
    let batch = jobs.batch();
    let parallelism = Parallelism::auto();

    let mut walls = Vec::new();
    let mut outputs: Vec<Vec<OutputBits>> = Vec::new();
    let started = Instant::now();
    loop {
        let cache = StageCache::default();
        let t = Instant::now();
        let results = run_pipeline_jobs(&batch, &cache, parallelism);
        walls.push(t.elapsed().as_secs_f64());
        outputs.push(results.iter().map(output_bits).collect());
        time_setups(seed, &mut setups);
        let last = walls[walls.len() - 1];
        if started.elapsed().as_secs_f64() + last > seconds {
            break;
        }
    }
    let rss = peak_rss_mb(std::process::id());

    // References: every job alone through the uncached pipeline, serial
    // inside the job, jobs side by side.
    let indices: Vec<usize> = (0..jobs.len()).collect();
    let references = Pool::new(parallelism).par_map(&indices, |&i| {
        let (part, plan) = jobs.job(i);
        output_bits(&run_pipeline(part, plan))
    });
    let mut result = RunResult::new((jobs.len() * walls.len()) as u64);
    for (call, outs) in outputs.iter().enumerate() {
        for (i, (got, want)) in outs.iter().zip(&references).enumerate() {
            if got.wire.starts_with("{\"err\"") {
                result.fail(format!("sweep {call} job {i} failed: {}", got.wire));
            } else if got != want {
                result.fail(format!(
                    "sweep {call} job {i} differs from its uncached serial run"
                ));
            }
        }
    }
    let n = jobs.len() as f64;
    eprintln!(
        "paper-sweep: {} jobs x {} sweep(s) at {}, walls {:?} s",
        jobs.len(),
        walls.len(),
        parallelism,
        walls
    );
    result.metric("setup_s", median(&setups), "s");
    // The median sweep's rate: one call slowed by the shared host does
    // not move it.
    result.metric("jobs_per_s", n / median(&walls), "jobs/s");
    result.metric("p50_ms", 1e3 * median(&walls), "ms");
    result.metric("p99_ms", 1e3 * quantile(&walls, 0.99), "ms");
    // A closed loop's highest sustained rate is its throughput over the
    // whole measured window, sweeps back to back.
    result.metric(
        "max_rate_rps",
        n * walls.len() as f64 / walls.iter().sum::<f64>(),
        "req/s",
    );
    result.metric("rss_peak_mb", rss, "MiB");
    result
}

/// The traced run: one untraced sweep at the default thread budget, one
/// serial `run_pipeline_jobs` span, then the stage replay of the same
/// jobs. Replayed outputs must be bit-identical to the untraced sweep's.
pub fn run_traced(seed: u64, trace_path: &Path) -> Result<RunResult, String> {
    let jobs = SweepJobs::build(seed);
    let batch = jobs.batch();
    let parallelism = Parallelism::auto();
    let n = jobs.len();

    let cache = StageCache::default();
    let t = Instant::now();
    let untraced = run_pipeline_jobs(&batch, &cache, parallelism);
    let wall_par = t.elapsed().as_secs_f64();
    drop(cache);

    let store = SpanStore::new();
    let cache = StageCache::default();
    let pool_before = obfuscade::fea_solver_pool_stats();
    let serial = store.in_span("core.batch", u64::MAX, None, |_| {
        run_pipeline_jobs(&batch, &cache, Parallelism::serial())
    });
    let pool_after = obfuscade::fea_solver_pool_stats();
    let stats = cache.stats();
    drop(cache);

    let pool = SolverPool::new();
    let replay_start = store.now_ns();
    let replayed = replay(&jobs, &store, &pool);
    let replay_ns = store.now_ns() - replay_start;
    let summary = TraceSummary::new(store.finish(trace_path).map_err(|e| e.to_string())?);
    let (replayed, counts) = replayed?;

    let mut result = RunResult::new(2 * n as u64);
    for i in 0..n {
        if let Err(e) = replayed[i].matches(&untraced[i]) {
            result.fail(format!("job {i}: {e}"));
        }
        if output_bits(&serial[i]) != output_bits(&untraced[i]) {
            result.fail(format!(
                "job {i}: the serial batch differs from the parallel one"
            ));
        }
    }

    let wall_serial_ms = summary.durations_ms("core.batch").iter().sum::<f64>();
    let replay_ms = replay_ns as f64 / 1e6;
    let stage_ms = summary.self_ms_where(|s| STAGES.contains(&s.name));
    let builds = pool_after.builds - pool_before.builds;
    let reuses = pool_after.reuses - pool_before.reuses;
    result.metric(
        "mesh.tessellate_ms",
        summary.self_ms("mesh.tessellate"),
        "ms",
    );
    result.metric("mesh.triangles", counts.triangles as f64, "count");
    result.metric("slicer.slice_ms", summary.self_ms("slicer.slice"), "ms");
    result.metric("slicer.layers", counts.layers as f64, "count");
    result.metric(
        "slicer.diagnose_ms",
        summary.self_ms("slicer.diagnose"),
        "ms",
    );
    result.metric(
        "slicer.toolpath_ms",
        summary.self_ms("slicer.toolpath"),
        "ms",
    );
    result.metric(
        "printer.deposit_ms",
        summary.self_ms("printer.deposit"),
        "ms",
    );
    result.metric("printer.scan_ms", summary.self_ms("printer.scan"), "ms");
    result.metric(
        "printer.spans_planned",
        counts.spans_planned as f64,
        "count",
    );
    result.metric(
        "printer.span_fill_voxels",
        counts.span_fill_voxels as f64,
        "count",
    );
    result.metric("fea.lattice_ms", summary.self_ms("fea.lattice"), "ms");
    result.metric("fea.solve_ms", summary.self_ms("fea.solve"), "ms");
    result.metric("fea.newton_iters", counts.newton_iters as f64, "count");
    result.metric("fea.pcg_iters", counts.pcg_iters as f64, "count");
    result.metric("fea.force_evals", counts.force_evals as f64, "count");
    result.metric(
        "fea.pool_reuse_ratio",
        reuses as f64 / (builds + reuses).max(1) as f64,
        "ratio",
    );
    result.metric(
        "cache.hit_ratio",
        stats.hits as f64 / (stats.hits + stats.misses).max(1) as f64,
        "ratio",
    );
    result.metric("cache.insertions", stats.insertions as f64, "count");
    result.metric("cache.evictions", stats.evictions as f64, "count");
    result.metric(
        "cache.resident_mb",
        stats.bytes as f64 / (1u64 << 20) as f64,
        "MiB",
    );
    result.metric("core.unattributed_ms", wall_serial_ms - stage_ms, "ms");
    result.metric(
        "par.efficiency",
        replay_ms / 1e3 / (parallelism.thread_count() as f64 * wall_par),
        "ratio",
    );
    result.metric("trace.coverage", stage_ms / replay_ms, "ratio");
    result.metric(
        "trace.overhead_frac",
        replay_ms / wall_serial_ms - 1.0,
        "ratio",
    );
    eprintln!(
        "paper-sweep traced: {n} jobs; untraced {wall_par:.3} s at {parallelism}, serial batch {:.3} s, replay {:.3} s",
        wall_serial_ms / 1e3,
        replay_ms / 1e3
    );
    Ok(result)
}

/// Spans that are a layer's own work (everything but the job roots).
const STAGES: [&str; 9] = [
    "cad.resolve",
    "mesh.tessellate",
    "slicer.slice",
    "slicer.diagnose",
    "slicer.toolpath",
    "printer.deposit",
    "printer.scan",
    "fea.lattice",
    "fea.solve",
];

#[cfg(test)]
mod tests {
    use super::*;

    /// The traced replay computes exactly what the pipeline computes: one
    /// Table-3 key and one tensile bar through `run_pipeline_jobs` and
    /// through the stage replay give equal grid digests, scan reports and
    /// tensile results, bit for bit. If the pipeline's stage order or
    /// stage inputs drift, the per-layer split fails here first.
    #[test]
    fn replay_is_bit_identical_to_the_pipeline() {
        let all = SweepJobs::build(3);
        let table3 = 0; // the first key of the 24-key space
        let bar = all.len() - 1; // the intact bar in x-z, tensile on
        assert!(!all.jobs[table3].1.tensile);
        assert!(all.jobs[bar].1.tensile);
        let jobs = SweepJobs {
            parts: all.parts.clone(),
            jobs: vec![all.jobs[table3].clone(), all.jobs[bar].clone()],
        };
        let cache = StageCache::default();
        let pipeline = run_pipeline_jobs(&jobs.batch(), &cache, Parallelism::threads(2));
        let store = SpanStore::new();
        let (replayed, counts) = replay(&jobs, &store, &SolverPool::new()).expect("replay");
        for (r, p) in replayed.iter().zip(&pipeline) {
            let p = p.as_ref().expect("pipeline job runs");
            assert_eq!(r.grid, p.printed.grid_digest(), "grid digest");
            assert_eq!(scan_bits(&r.scan), scan_bits(&p.scan), "scan report");
            assert_eq!(
                r.tensile.as_ref().map(tensile_bits),
                p.tensile.as_ref().map(tensile_bits),
                "tensile result"
            );
            r.matches(&Ok(p.clone())).expect("every compared field");
        }
        assert!(replayed[1].tensile.is_some());
        assert!(counts.newton_iters > 0 && counts.spans_planned > 0);
        let names: Vec<&str> = store.finish_in_memory().iter().map(|s| s.name).collect();
        for stage in STAGES {
            assert!(names.contains(&stage), "{stage} was traced");
        }
    }
}
