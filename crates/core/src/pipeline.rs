//! The end-to-end AM process chain (Fig. 1/3 of the paper): CAD → STL →
//! slice → tool path → print → post-process → inspect → test.
//!
//! The chain runs as an explicit sequence of [`Stage`]s. Every stage either
//! completes (possibly *degraded*, with the damage recorded as
//! [`Diagnostic`]s in the output) or aborts with a typed [`PipelineError`]
//! naming the stage — library code never panics on bad input. The staged
//! structure is what lets [`run_pipeline_with_faults`] inject the Table 1
//! attack catalog at the exact boundary where each attack lives.
//!
//! Since PR 3 the chain is built from **stage artifacts** — immutable
//! value objects ([`MeshArtifact`], [`SliceArtifact`], [`ToolpathArtifact`],
//! [`PrintArtifact`]) each carrying its stage outcomes and diagnostics —
//! so [`run_pipeline_cached`] can serve any prefix of the chain from a
//! content-addressed [`StageCache`] and replay a bit-identical
//! [`PipelineOutput`] without recomputation. See [`crate::cache`] for the
//! key-derivation and fault-poisoning rules, and [`crate::batch`] for the
//! shared-prefix batch front end.

use std::error::Error;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use am_cad::{CadError, Part};
use am_fea::{
    FeaConfigError, FeaSolver, Lattice, SolverPool, SolverPoolStats, TensileConfig, TensileResult,
};
use am_geom::Tolerance;
use am_par::Parallelism;
use am_mesh::{
    binary_stl_size, fingerprint, seam_report, tessellate_shells, verify_fingerprint,
    weld_vertices, Resolution, SeamReport, StlError, TriMesh,
};
use am_printer::{
    check_limits_at_feed, scan, BuildEnvelope, PrintError, PrintedPart, PrinterProfile, Process,
    ScanReport,
};
use am_slicer::{
    build_transform, diagnose_slices, orient_shells, try_generate_toolpath, try_slice_shells_with,
    ConfigError, GcodeError, Orientation, SliceError, SliceReport, SlicerConfig, ToolMaterial,
    ToolPath, ToolpathError,
};

use crate::cache::{StageArtifact, StageCache, StageHasher, StageKey};
use crate::fault::FaultPlan;

/// A complete manufacturing plan: every processing choice from STL export
/// to the machine. Together with the CAD recipe (applied at part
/// construction) this realizes one [`crate::ProcessKey`].
#[derive(Debug, Clone)]
pub struct ProcessPlan {
    /// STL export resolution.
    pub resolution: Resolution,
    /// Build orientation.
    pub orientation: Orientation,
    /// Slicer settings.
    pub slicer: SlicerConfig,
    /// Printer machine profile.
    pub printer: PrinterProfile,
    /// Process-noise / specimen seed.
    pub seed: u64,
    /// Whether to run the (comparatively costly) virtual tensile test.
    pub tensile: bool,
    /// Equilibrium solver for the tensile kernel.
    pub fea_solver: FeaSolver,
    /// Thread budget for the parallel kernels (slicing, deposition, FEA
    /// relaxation). Every budget produces bit-identical output; the default
    /// is serial.
    pub parallelism: Parallelism,
}

impl ProcessPlan {
    /// The paper's default chain: CatalystEX settings on the Dimension
    /// Elite FDM printer.
    pub fn fdm(resolution: Resolution, orientation: Orientation) -> Self {
        ProcessPlan {
            resolution,
            orientation,
            slicer: SlicerConfig::default(),
            printer: PrinterProfile::dimension_elite(),
            seed: 1,
            tensile: false,
            fea_solver: FeaSolver::default(),
            parallelism: Parallelism::serial(),
        }
    }

    /// The PolyJet chain: Objet30 Pro with matching layer height.
    ///
    /// The 16 µm native layer would make simulation needlessly slow for
    /// most experiments, so the slicer runs at a 89 µm "draft" setting
    /// (still 2× finer than FDM); pass a custom [`SlicerConfig`] for the
    /// native resolution.
    pub fn polyjet(resolution: Resolution, orientation: Orientation) -> Self {
        let printer = PrinterProfile::objet30_pro();
        ProcessPlan {
            resolution,
            orientation,
            slicer: SlicerConfig {
                layer_height: 0.0889,
                road_width: printer.road_width,
                analysis_cell: 0.05,
                ..SlicerConfig::default()
            },
            printer,
            seed: 1,
            tensile: false,
            fea_solver: FeaSolver::default(),
            parallelism: Parallelism::serial(),
        }
    }

    /// Builder-style seed override.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style tensile-test toggle.
    pub fn with_tensile(mut self, tensile: bool) -> Self {
        self.tensile = tensile;
        self
    }

    /// Builder-style thread-budget override.
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Builder-style tensile equilibrium-solver override.
    pub fn with_fea_solver(mut self, fea_solver: FeaSolver) -> Self {
        self.fea_solver = fea_solver;
        self
    }
}

/// A cooperative per-request compute budget, checked at stage boundaries.
///
/// The pipeline stages themselves never poll the clock — a stage that has
/// started runs to completion (so nothing half-computed can be observed or
/// cached). Between stages the runner checks the deadline and aborts with
/// [`PipelineError::DeadlineExceeded`] naming the first stage that was not
/// allowed to start. [`Deadline::none`] (the default) never expires, and a
/// run under it is bit-identical to one without deadline plumbing.
#[derive(Debug, Clone, Copy, Default)]
pub struct Deadline(Option<Instant>);

impl Deadline {
    /// No deadline: the run can never be cancelled.
    pub fn none() -> Self {
        Deadline(None)
    }

    /// Expires at `instant`.
    pub fn at(instant: Instant) -> Self {
        Deadline(Some(instant))
    }

    /// Expires `budget` from now.
    pub fn within(budget: Duration) -> Self {
        Deadline(Some(Instant::now() + budget))
    }

    /// Whether the deadline has passed.
    pub fn expired(&self) -> bool {
        self.0.is_some_and(|t| Instant::now() >= t)
    }

    /// Gate before starting `stage`.
    pub(crate) fn check(&self, stage: Stage) -> Result<(), PipelineError> {
        if self.expired() {
            Err(PipelineError::DeadlineExceeded { stage })
        } else {
            Ok(())
        }
    }
}

/// The process-wide [`SolverPool`] behind every optimized tensile stage:
/// replicate sweeps and repeated pipeline runs recycle the same solver
/// scratches (CSR incidence, packed bond parameters, PCG vectors) instead
/// of re-allocating them per specimen. Results are bit-identical to
/// fresh-scratch runs — the pool only reuses allocations, never state.
fn fea_solver_pool() -> &'static SolverPool {
    static POOL: std::sync::OnceLock<SolverPool> = std::sync::OnceLock::new();
    POOL.get_or_init(SolverPool::new)
}

/// Build/reuse statistics of the process-wide tensile solver pool (see
/// [`fea_solver_pool_stats`] re-export; the CLI sweep summary prints it).
pub fn fea_solver_pool_stats() -> SolverPoolStats {
    fea_solver_pool().stats()
}

/// One stage of the manufacturing chain, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Stage {
    /// Feature-history resolution (CAD kernel).
    Cad,
    /// Tessellation / STL export, including integrity verification.
    Stl,
    /// Mesh repair (vertex welding) when the STL audit found damage.
    Repair,
    /// Orientation, placement and plane slicing.
    Slice,
    /// Tool-path planning and G-code serialization.
    ToolPath,
    /// Firmware limit-switch vetting of the part program.
    Firmware,
    /// Voxel deposition and support dissolution.
    Print,
    /// Artifact inspection (simulated CT scan).
    Inspect,
    /// Virtual tensile testing.
    Test,
}

impl Stage {
    /// Short lowercase stage name (stable, used in error messages).
    pub fn name(&self) -> &'static str {
        match self {
            Stage::Cad => "cad",
            Stage::Stl => "stl",
            Stage::Repair => "repair",
            Stage::Slice => "slice",
            Stage::ToolPath => "toolpath",
            Stage::Firmware => "firmware",
            Stage::Print => "print",
            Stage::Inspect => "inspect",
            Stage::Test => "test",
        }
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// How a stage finished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageStatus {
    /// Completed with no anomalies.
    Clean,
    /// Completed, but damage was injected, detected, or repaired — see the
    /// run's [`Diagnostic`]s.
    Degraded,
    /// Not executed (e.g. the tensile test when the plan does not request
    /// it, or repair when the STL audit found nothing to fix).
    Skipped,
}

/// The record of one executed stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageOutcome {
    /// Which stage.
    pub stage: Stage,
    /// How it finished.
    pub status: StageStatus,
}

/// One recorded anomaly: an injected fault, a detection, or a repair.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// The stage that recorded the anomaly.
    pub stage: Stage,
    /// Human-readable description.
    pub message: String,
    /// `true` if the pipeline repaired or tolerated the anomaly (the run
    /// degrades gracefully); `false` for pure observations such as
    /// injected-fault records and tamper evidence.
    pub recovered: bool,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.stage, self.message)?;
        if self.recovered {
            write!(f, " (recovered)")?;
        }
        Ok(())
    }
}

/// Errors from the manufacturing pipeline. Every variant names its failing
/// [`Stage`] via [`PipelineError::stage`].
///
/// `Clone` lets the batch engine replay one deterministic prefix failure
/// to every plan sharing that prefix without recomputing it; a clone
/// renders identically to the original (the `StlError::Io` payload, which
/// cannot occur in the in-memory pipeline, is the one variant cloned by
/// kind + message rather than structurally).
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum PipelineError {
    /// The CAD stage failed.
    Cad(CadError),
    /// The part produced no printable geometry.
    EmptyBuild {
        /// Name of the offending part.
        part: String,
    },
    /// The STL byte stream was rejected by the reader (truncation, facet
    /// bombs, non-finite vertices).
    Stl(StlError),
    /// The slicer configuration failed validation.
    InvalidConfig(ConfigError),
    /// The slicing stage rejected its input.
    Slice(SliceError),
    /// Tool-path planning rejected its input.
    Toolpath(ToolpathError),
    /// The machine-side G-code parser rejected the part program.
    Gcode(GcodeError),
    /// The printer firmware rejected the part program (limit switch).
    FirmwareRejected {
        /// Number of limit violations found.
        violations: usize,
        /// The first violation, rendered.
        first: String,
    },
    /// The deposition stage rejected the part program or machine profile.
    Print(PrintError),
    /// The virtual tensile test rejected its configuration.
    Tensile(FeaConfigError),
    /// The request's [`Deadline`] expired before this stage could start
    /// (cooperative cancellation between stages; nothing partial runs or
    /// is cached).
    DeadlineExceeded {
        /// The first stage the deadline prevented from starting.
        stage: Stage,
    },
}

impl PipelineError {
    /// The stage the error names.
    pub fn stage(&self) -> Stage {
        match self {
            PipelineError::Cad(_) => Stage::Cad,
            PipelineError::EmptyBuild { .. } | PipelineError::Stl(_) => Stage::Stl,
            PipelineError::InvalidConfig(_) | PipelineError::Slice(_) => Stage::Slice,
            PipelineError::Toolpath(_) | PipelineError::Gcode(_) => Stage::ToolPath,
            PipelineError::FirmwareRejected { .. } => Stage::Firmware,
            PipelineError::Print(_) => Stage::Print,
            PipelineError::Tensile(_) => Stage::Test,
            PipelineError::DeadlineExceeded { stage } => *stage,
        }
    }
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Cad(e) => write!(f, "cad stage failed: {e}"),
            PipelineError::EmptyBuild { part } => {
                write!(f, "part {part} produced no printable geometry")
            }
            PipelineError::Stl(e) => write!(f, "stl stage failed: {e}"),
            PipelineError::InvalidConfig(e) => write!(f, "slice stage failed: {e}"),
            PipelineError::Slice(e) => write!(f, "slice stage failed: {e}"),
            PipelineError::Toolpath(e) => write!(f, "toolpath stage failed: {e}"),
            PipelineError::Gcode(e) => write!(f, "toolpath stage failed: {e}"),
            PipelineError::FirmwareRejected { violations, first } => {
                write!(f, "printer firmware rejected the part program ({violations} violations; first: {first})")
            }
            PipelineError::Print(e) => write!(f, "print stage failed: {e}"),
            PipelineError::Tensile(e) => write!(f, "test stage failed: {e}"),
            PipelineError::DeadlineExceeded { stage } => {
                write!(f, "deadline exceeded before the {stage} stage")
            }
        }
    }
}

impl Error for PipelineError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PipelineError::Cad(e) => Some(e),
            PipelineError::Stl(e) => Some(e),
            PipelineError::InvalidConfig(e) => Some(e),
            PipelineError::Slice(e) => Some(e),
            PipelineError::Toolpath(e) => Some(e),
            PipelineError::Gcode(e) => Some(e),
            PipelineError::Print(e) => Some(e),
            PipelineError::Tensile(e) => Some(e),
            PipelineError::EmptyBuild { .. }
            | PipelineError::FirmwareRejected { .. }
            | PipelineError::DeadlineExceeded { .. } => None,
        }
    }
}

impl From<CadError> for PipelineError {
    fn from(e: CadError) -> Self {
        PipelineError::Cad(e)
    }
}

/// Tool-path statistics recorded by the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ToolPathStats {
    /// Model road length (mm).
    pub model_mm: f64,
    /// Support road length (mm).
    pub support_mm: f64,
    /// Layer count.
    pub layers: usize,
    /// Print-time estimate (s).
    pub time_s: f64,
}

/// Everything one pipeline run produces.
#[derive(Debug, Clone)]
pub struct PipelineOutput {
    /// Name of the manufactured part.
    pub part_name: String,
    /// Triangles in the exported STL.
    pub mesh_triangles: usize,
    /// Exact binary STL size (bytes).
    pub stl_bytes: u64,
    /// Seam tessellation-mismatch report (split parts only).
    pub seam: Option<SeamReport>,
    /// Slicing defect diagnosis (Fig. 7a observables).
    pub slice_report: SliceReport,
    /// Tool-path statistics.
    pub toolpath: ToolPathStats,
    /// The printed artifact, support already dissolved. Shared (`Arc`) so
    /// cached pipeline runs can return the voxel grid without copying it;
    /// all read access goes through `Deref` exactly as before.
    pub printed: Arc<PrintedPart>,
    /// Internal-structure scan of the finished part.
    pub scan: ScanReport,
    /// Virtual tensile test (if requested in the plan).
    pub tensile: Option<TensileResult>,
    /// The cold-joint contact fraction used for the tensile model.
    pub joint_contact: f64,
    /// Per-stage outcomes, in execution order.
    pub stages: Vec<StageOutcome>,
    /// Anomalies recorded along the way (injected faults, tamper evidence,
    /// repairs). Empty for a clean run.
    pub diagnostics: Vec<Diagnostic>,
}

impl PipelineOutput {
    /// `true` if any executed stage finished degraded.
    pub fn is_degraded(&self) -> bool {
        self.stages.iter().any(|s| s.status == StageStatus::Degraded)
    }
}

/// Runs the full manufacturing chain on a part.
///
/// Equivalent to [`run_pipeline_with_faults`] with [`FaultPlan::none`]:
/// bit-identical output, no injected damage.
///
/// # Errors
///
/// Returns [`PipelineError::Cad`] if the feature history fails to resolve
/// and [`PipelineError::EmptyBuild`] if no geometry reaches the printer.
///
/// # Examples
///
/// ```no_run
/// use am_cad::parts::{tensile_bar_with_spline, TensileBarDims};
/// use am_mesh::Resolution;
/// use am_slicer::Orientation;
/// use obfuscade::{run_pipeline, ProcessPlan};
///
/// let part = tensile_bar_with_spline(&TensileBarDims::default())?;
/// let plan = ProcessPlan::fdm(Resolution::Coarse, Orientation::Xz).with_tensile(true);
/// let output = run_pipeline(&part, &plan)?;
/// assert!(output.slice_report.has_discontinuity()); // the planted seam shows
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn run_pipeline(part: &Part, plan: &ProcessPlan) -> Result<PipelineOutput, PipelineError> {
    run_pipeline_with_faults(part, plan, &FaultPlan::none())
}

/// Derives the per-fault RNG seed: deterministic in the plan seed, the
/// stage, and the fault's position, so two faults at one stage damage
/// different facets.
fn fault_seed(plan_seed: u64, stage: Stage, index: usize) -> u64 {
    plan_seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add((stage as u64) << 32)
        .wrapping_add(index as u64 + 1)
}

/// Runs the full manufacturing chain with a [`FaultPlan`] injected at the
/// stage boundaries.
///
/// Recoverable faults degrade the run: damage is repaired (vertex welding)
/// or tolerated, and every anomaly lands in
/// [`PipelineOutput::diagnostics`]. Unrecoverable faults abort with a typed
/// [`PipelineError`] whose [`PipelineError::stage`] names where the chain
/// stopped. Same part, plan and fault plan ⇒ identical result.
///
/// # Errors
///
/// Any [`PipelineError`] variant, depending on the injected faults.
pub fn run_pipeline_with_faults(
    part: &Part,
    plan: &ProcessPlan,
    faults: &FaultPlan,
) -> Result<PipelineOutput, PipelineError> {
    run_pipeline_inner(part, plan, faults, None, Deadline::none())
}

/// [`run_pipeline_with_faults`], serving immutable stage artifacts from a
/// content-addressed [`StageCache`].
///
/// Output is **bit-identical** to the uncached run (pinned by
/// `batch_determinism.rs`): the cache stores exactly what each stage
/// computes, keyed over that stage's complete input set, and errors are
/// never cached. Only wall-clock time changes.
///
/// # Errors
///
/// Same as [`run_pipeline_with_faults`].
pub fn run_pipeline_cached(
    part: &Part,
    plan: &ProcessPlan,
    faults: &FaultPlan,
    cache: &StageCache,
) -> Result<PipelineOutput, PipelineError> {
    run_pipeline_inner(part, plan, faults, Some(cache), Deadline::none())
}

/// [`run_pipeline_cached`] under a cooperative [`Deadline`].
///
/// The deadline is checked **between** stages only: a stage that has
/// started runs to completion and is cached normally, so an expired
/// deadline can never poison the shared cache with partial artifacts. If
/// the deadline never expires during the run, the output is bit-identical
/// to [`run_pipeline_cached`].
///
/// # Errors
///
/// Same as [`run_pipeline_with_faults`], plus
/// [`PipelineError::DeadlineExceeded`] naming the first stage the expired
/// deadline prevented from starting.
pub fn run_pipeline_cached_deadline(
    part: &Part,
    plan: &ProcessPlan,
    faults: &FaultPlan,
    cache: &StageCache,
    deadline: Deadline,
) -> Result<PipelineOutput, PipelineError> {
    run_pipeline_inner(part, plan, faults, Some(cache), deadline)
}

/// The planned tool path of one `(part, plan, fault plan)` evaluation,
/// with the content-addressed identity the chain assigned it.
///
/// This is the hand-off point to the detection subsystem (`am-detect`):
/// side-channel trace synthesis consumes the planned tool path, and the
/// detect/sanitize stage keys chain off [`ToolpathPlan::key`] exactly as
/// the print key does — so detection results cache and route like
/// pipeline stages.
#[derive(Debug, Clone)]
pub struct ToolpathPlan {
    /// The planned (fault-injected, firmware-vetted) tool path.
    pub toolpath: ToolPath,
    /// Tool-path statistics (road lengths, layer count, time estimate).
    pub stats: ToolPathStats,
    /// The slice-stage build transform — what the deposition kernel needs
    /// to print this tool path (see [`print_toolpath`]).
    pub to_build: am_geom::Transform3,
    /// The tool-path stage key: chained mesh → slice → toolpath hash of
    /// the complete input set, fault-poisoned at the striking stage.
    pub key: StageKey,
}

/// Evaluates (and caches) the chain through the tool-path stage and
/// returns the planned tool path plus its stage key.
///
/// Runs exactly the pipeline's own mesh → slice → tool-path stages
/// against `cache` — a warm prefix is served without recomputation, and
/// a cold one is warmed for every later caller (the batch engine, a
/// `run` job for the same spec, another detect job).
///
/// # Errors
///
/// Any [`PipelineError`] the chain raises through the tool-path stage —
/// including the typed process-guard rejections injected faults provoke
/// (these are what the detection suite records as *blocked upstream*) —
/// plus [`PipelineError::DeadlineExceeded`] between stages.
pub fn plan_toolpath(
    part: &Part,
    plan: &ProcessPlan,
    faults: &FaultPlan,
    cache: &StageCache,
    deadline: Deadline,
) -> Result<ToolpathPlan, PipelineError> {
    plan.slicer.validate().map_err(PipelineError::InvalidConfig)?;
    plan.printer.validate().map_err(|e| PipelineError::Print(PrintError::Profile(e)))?;
    let keys = plan_keys(part, plan, faults);
    deadline.check(Stage::Cad)?;
    let mesh = obtain_mesh(part, plan, faults, Some((cache, keys.mesh)))?;
    deadline.check(Stage::Slice)?;
    let slice = obtain_slice(&mesh, plan, faults, Some((cache, keys.slice)))?;
    deadline.check(Stage::ToolPath)?;
    let toolpath = obtain_toolpath(&slice, plan, faults, Some((cache, keys.toolpath)))?;
    Ok(ToolpathPlan {
        toolpath: toolpath.toolpath.clone(),
        stats: toolpath.stats,
        to_build: slice.to_build,
        key: keys.toolpath,
    })
}

/// Prints an arbitrary tool path under `plan`'s machine profile and
/// process-noise seed with the span-plan deposition kernel
/// ([`PrintedPart::try_from_toolpath_planned`]), and returns the deposited
/// part with support dissolved. The pipeline's print stage deposits
/// through this function, so it is the one production deposition path.
///
/// This is the sanitizer's fingerprint oracle: printing the original and
/// the sanitized tool path through one code path makes
/// [`am_printer::PrintedPart::grid_digest`] equality a proof that the
/// strip changed nothing the printer can see. Results are **not**
/// cached — the tool path is caller-modified, so it has no stage key.
///
/// # Errors
///
/// [`PipelineError::Print`] when deposition fails (empty build, voxel
/// caps).
pub fn print_toolpath(
    toolpath: &ToolPath,
    plan: &ProcessPlan,
    to_build: am_geom::Transform3,
) -> Result<PrintedPart, PipelineError> {
    let mut printed = PrintedPart::try_from_toolpath_planned(
        toolpath,
        &plan.printer,
        to_build,
        plan.seed,
        plan.parallelism,
    )
    .map_err(PipelineError::Print)?;
    printed.dissolve_support();
    Ok(printed)
}

// --- Stage artifacts ----------------------------------------------------

/// CAD + STL export + integrity audit + repair, as one immutable artifact.
#[derive(Debug)]
pub(crate) struct MeshArtifact {
    pub(crate) shells: Vec<TriMesh>,
    pub(crate) mesh_triangles: usize,
    pub(crate) stl_bytes: u64,
    pub(crate) seam: Option<SeamReport>,
    pub(crate) outcomes: Vec<StageOutcome>,
    pub(crate) diagnostics: Vec<Diagnostic>,
}

impl MeshArtifact {
    pub(crate) fn cost_bytes(&self) -> usize {
        let geometry: usize = self
            .shells
            .iter()
            .map(|s| s.vertex_count() * 24 + s.triangle_count() * 12)
            .sum();
        geometry + diagnostics_cost(&self.diagnostics) + 512
    }
}

/// Orientation, bed placement and plane slicing.
#[derive(Debug)]
pub(crate) struct SliceArtifact {
    pub(crate) sliced: am_slicer::SlicedModel,
    pub(crate) slice_report: SliceReport,
    /// Model→build transform (orientation + bed margin).
    pub(crate) to_build: am_geom::Transform3,
    /// The *effective* slicer configuration: the plan's, after any
    /// injected slicer faults mutated it.
    pub(crate) config: SlicerConfig,
    pub(crate) outcomes: Vec<StageOutcome>,
    pub(crate) diagnostics: Vec<Diagnostic>,
}

impl SliceArtifact {
    pub(crate) fn cost_bytes(&self) -> usize {
        let geometry: usize = self
            .sliced
            .layers
            .iter()
            .map(|l| {
                let loops: usize = l.loops.iter().map(|c| c.polygon.len() * 16 + 48).sum();
                let open: usize = l.open_paths.iter().map(|p| p.len() * 16 + 48).sum();
                64 + loops + open
            })
            .sum();
        geometry + diagnostics_cost(&self.diagnostics) + 512
    }
}

/// Tool-path planning plus firmware vetting (the part program as the
/// machine will actually run it — firmware faults already applied).
#[derive(Debug)]
pub(crate) struct ToolpathArtifact {
    pub(crate) toolpath: ToolPath,
    pub(crate) stats: ToolPathStats,
    pub(crate) outcomes: Vec<StageOutcome>,
    pub(crate) diagnostics: Vec<Diagnostic>,
}

impl ToolpathArtifact {
    pub(crate) fn cost_bytes(&self) -> usize {
        self.toolpath.roads.len() * 64 + diagnostics_cost(&self.diagnostics) + 512
    }
}

/// Deposition (support already dissolved) plus the CT inspection scan.
#[derive(Debug)]
pub(crate) struct PrintArtifact {
    pub(crate) printed: Arc<PrintedPart>,
    pub(crate) scan: ScanReport,
    pub(crate) outcomes: Vec<StageOutcome>,
}

impl PrintArtifact {
    pub(crate) fn cost_bytes(&self) -> usize {
        let (nx, ny, nz) = self.printed.dims();
        nx * ny * nz * 3 + 512
    }
}

fn diagnostics_cost(diagnostics: &[Diagnostic]) -> usize {
    diagnostics.iter().map(|d| d.message.len() + 48).sum()
}

fn tensile_cost(result: &TensileResult) -> usize {
    result.curve.len() * 16 + result.fracture_path.len() * 16 + 256
}

// --- Canonical input hashing ---------------------------------------------
//
// Every foreign input type a stage key absorbs is hashed field by field:
// enum variants write an explicit tag byte, floats go in as IEEE-754 bits
// via `write_f64`, and collections are length-prefixed. No `Debug`
// rendering is ever hashed — a future custom formatting impl that rounds
// or omits a geometry-relevant field could silently alias two distinct
// inputs, and the cache would serve wrong artifacts. (Fault entries are
// the one `Display`-based exception: `FaultPlan` is crate-local and its
// renderings round-trip through `FromStr`, so they are injective by
// construction.) `key_schema_is_field_sensitive` in the tests below pins
// the property: perturbing any single input field changes the derived key.

fn hash_point2(h: &mut StageHasher, p: am_geom::Point2) {
    h.write_f64(p.x);
    h.write_f64(p.y);
}

fn hash_point3(h: &mut StageHasher, p: am_geom::Point3) {
    h.write_f64(p.x);
    h.write_f64(p.y);
    h.write_f64(p.z);
}

fn hash_spline(h: &mut StageHasher, spline: &am_geom::CatmullRom) {
    let points = spline.through_points();
    h.write_u64(points.len() as u64);
    for &p in points {
        hash_point2(h, p);
    }
}

fn hash_profile(h: &mut StageHasher, profile: &am_cad::Profile) {
    let edges = profile.edges();
    h.write_u64(edges.len() as u64);
    for edge in edges {
        match edge {
            am_cad::ProfileEdge::Line(seg) => {
                h.write_u8(0);
                hash_point2(h, seg.start);
                hash_point2(h, seg.end);
            }
            am_cad::ProfileEdge::Spline(spline) => {
                h.write_u8(1);
                hash_spline(h, spline);
            }
        }
    }
}

fn hash_solid(h: &mut StageHasher, shape: &am_cad::SolidShape) {
    match shape {
        am_cad::SolidShape::Extrusion { profile, z_min, z_max } => {
            h.write_u8(0);
            hash_profile(h, profile);
            h.write_f64(*z_min);
            h.write_f64(*z_max);
        }
        am_cad::SolidShape::Cuboid(aabb) => {
            h.write_u8(1);
            hash_point3(h, aabb.min);
            hash_point3(h, aabb.max);
        }
        am_cad::SolidShape::Sphere { center, radius } => {
            h.write_u8(2);
            hash_point3(h, *center);
            h.write_f64(*radius);
        }
    }
}

fn hash_feature(h: &mut StageHasher, feature: &am_cad::Feature) {
    use am_cad::{BodyKind, Feature, MaterialRemoval};
    match feature {
        Feature::Base(shape) => {
            h.write_u8(0);
            hash_solid(h, shape);
        }
        Feature::SplineSplit { spline } => {
            h.write_u8(1);
            hash_spline(h, spline);
        }
        Feature::EmbedSphere { center, radius, kind, removal } => {
            h.write_u8(2);
            hash_point3(h, *center);
            h.write_f64(*radius);
            h.write_u8(match kind {
                BodyKind::Solid => 0,
                BodyKind::Surface => 1,
            });
            h.write_u8(match removal {
                MaterialRemoval::With => 0,
                MaterialRemoval::Without => 1,
            });
        }
        Feature::CutHole { profile } => {
            h.write_u8(3);
            hash_profile(h, profile);
        }
    }
}

fn hash_part(h: &mut StageHasher, part: &Part) {
    h.write_str(part.name());
    h.write_u64(part.features().len() as u64);
    for feature in part.features() {
        hash_feature(h, feature);
    }
}

fn hash_resolution(h: &mut StageHasher, resolution: Resolution) {
    h.write_u8(match resolution {
        Resolution::Coarse => 0,
        Resolution::Fine => 1,
        Resolution::Custom => 2,
    });
}

fn hash_orientation(h: &mut StageHasher, orientation: Orientation) {
    h.write_u8(match orientation {
        Orientation::Xy => 0,
        Orientation::Xz => 1,
    });
}

fn hash_slicer_config(h: &mut StageHasher, config: &SlicerConfig) {
    h.write_f64(config.layer_height);
    h.write_f64(config.road_width);
    h.write_f64(config.analysis_cell);
    h.write_u8(config.support as u8);
    match config.infill {
        am_slicer::InfillStyle::Solid => h.write_u8(0),
        am_slicer::InfillStyle::Sparse { density } => {
            h.write_u8(1);
            h.write_f64(density);
        }
    }
}

fn hash_printer_profile(h: &mut StageHasher, profile: &PrinterProfile) {
    h.write_str(profile.name);
    h.write_u8(match profile.process {
        Process::Fdm => 0,
        Process::PolyJet => 1,
    });
    h.write_f64(profile.layer_height);
    h.write_f64(profile.road_width);
    h.write_f64(profile.feed_mm_per_s);
    let m = &profile.model_material;
    h.write_str(m.name);
    h.write_f64(m.young_modulus_gpa);
    h.write_f64(m.tensile_strength_mpa);
    h.write_f64(m.elongation_at_break);
    h.write_f64(m.density_g_cm3);
    h.write_u8(profile.soluble_support as u8);
    h.write_f64(profile.road_bond);
    h.write_f64(profile.layer_bond);
    h.write_f64(profile.joint_bond);
    h.write_f64(profile.joint_ductility);
    h.write_f64(profile.noise_sigma);
}

// --- Stage keys ---------------------------------------------------------

/// The chained stage keys of one `(part, plan, fault plan)` evaluation.
///
/// Derivation is pure input hashing — no stage runs — so the batch engine
/// can group plans by shared prefix before doing any work. The tensile key
/// is not here: it depends on the joint-contact fraction, which is only
/// known after slicing.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PlanKeys {
    pub(crate) mesh: StageKey,
    pub(crate) slice: StageKey,
    pub(crate) toolpath: StageKey,
    pub(crate) print: StageKey,
}

pub(crate) fn plan_keys(part: &Part, plan: &ProcessPlan, faults: &FaultPlan) -> PlanKeys {
    let mesh = mesh_key(part, plan, faults);
    let slice = slice_key(mesh, plan, faults);
    let toolpath = toolpath_key(slice, plan, faults);
    let print = print_key(toolpath, plan);
    PlanKeys { mesh, slice, toolpath, print }
}

/// Mesh-stage key: part recipe (the full feature history, hashed field by
/// field) + STL export resolution, poisoned by any STL faults (entries +
/// the fault seed the stage draws from).
fn mesh_key(part: &Part, plan: &ProcessPlan, faults: &FaultPlan) -> StageKey {
    let mut h = StageHasher::new("obfuscade/mesh/v2");
    hash_part(&mut h, part);
    hash_resolution(&mut h, plan.resolution);
    h.write_u64(faults.stl.len() as u64);
    if !faults.stl.is_empty() {
        h.write_u64(faults.seed);
        for fault in &faults.stl {
            h.write_str(&fault.to_string());
        }
    }
    h.finish()
}

/// Slice-stage key: mesh key + orientation + the plan's slicer config,
/// poisoned by slicer faults.
fn slice_key(mesh: StageKey, plan: &ProcessPlan, faults: &FaultPlan) -> StageKey {
    let mut h = StageHasher::new("obfuscade/slice/v2");
    h.write_key(mesh);
    hash_orientation(&mut h, plan.orientation);
    hash_slicer_config(&mut h, &plan.slicer);
    h.write_u64(faults.slicer.len() as u64);
    for fault in &faults.slicer {
        h.write_str(&fault.to_string());
    }
    h.write_u8(SLICE_KEY_KERNEL_BYTE);
    h.finish()
}

/// The constant byte [`slice_key`] hashes last: the discriminant the
/// span-plan kernels had when a process-global mode chose among kernels.
/// It stays so every key keeps its value — the slice key (and each key
/// chained from it) names spill-tier segment records and is the router's
/// placement key, so dropping it would cold-miss every spilled record and
/// move routed job families to other nodes.
const SLICE_KEY_KERNEL_BYTE: u8 = 2;

/// Tool-path-stage key: slice key + printer profile (road planning and the
/// firmware envelope both read it), poisoned by tool-path faults (entries
/// + fault seed) and firmware faults.
fn toolpath_key(slice: StageKey, plan: &ProcessPlan, faults: &FaultPlan) -> StageKey {
    let mut h = StageHasher::new("obfuscade/toolpath/v2");
    h.write_key(slice);
    hash_printer_profile(&mut h, &plan.printer);
    h.write_u64(faults.toolpath.len() as u64);
    if !faults.toolpath.is_empty() {
        h.write_u64(faults.seed);
    }
    for fault in &faults.toolpath {
        h.write_str(&fault.to_string());
    }
    h.write_u64(faults.firmware.len() as u64);
    for fault in &faults.firmware {
        h.write_str(&fault.to_string());
    }
    h.finish()
}

/// Print-stage key: tool-path key + the plan's process-noise seed.
fn print_key(toolpath: StageKey, plan: &ProcessPlan) -> StageKey {
    let mut h = StageHasher::new("obfuscade/print/v2");
    h.write_key(toolpath);
    h.write_u64(plan.seed);
    h.finish()
}

/// Tensile-stage key: print key + orientation (selects the bond model) +
/// the equilibrium solver + the joint-contact fraction, exact to the bit.
/// The solver enters the key because the two solvers agree only to solver
/// tolerance, not to the bit — a cache shared between them must never
/// alias their results (v3 bumps the domain for the added field).
fn tensile_key(print: StageKey, plan: &ProcessPlan, joint_contact: f64) -> StageKey {
    let mut h = StageHasher::new("obfuscade/tensile/v3");
    h.write_key(print);
    hash_orientation(&mut h, plan.orientation);
    h.write_u8(match plan.fea_solver {
        FeaSolver::NewtonPcg => 0,
        FeaSolver::Relaxation => 1,
    });
    h.write_f64(joint_contact);
    h.finish()
}

// --- Stage implementations ----------------------------------------------

/// CAD resolve, tessellation, STL fault injection + fingerprint audit,
/// and repair welding. Everything the monolithic runner did up to the
/// slicer, verbatim.
fn mesh_stage(
    part: &Part,
    plan: &ProcessPlan,
    faults: &FaultPlan,
) -> Result<MeshArtifact, PipelineError> {
    let mut outcomes: Vec<StageOutcome> = Vec::new();
    let mut diagnostics: Vec<Diagnostic> = Vec::new();

    // --- CAD -------------------------------------------------------------
    let resolved = part.resolve()?;
    outcomes.push(StageOutcome { stage: Stage::Cad, status: StageStatus::Clean });

    // --- STL export + integrity audit ------------------------------------
    let params = plan.resolution.params();
    let mut shells: Vec<TriMesh> = tessellate_shells(&resolved, &params);
    let pristine: Vec<_> = shells.iter().map(fingerprint).collect();

    for (i, fault) in faults.stl.iter().enumerate() {
        let seed = fault_seed(faults.seed, Stage::Stl, i);
        for shell in &mut shells {
            *shell = fault.apply(shell, seed).map_err(PipelineError::Stl)?;
        }
        diagnostics.push(Diagnostic {
            stage: Stage::Stl,
            message: format!("injected {fault}"),
            recovered: false,
        });
    }
    // The Table 1 mitigation: verify the received file against the
    // registered fingerprint. Evidence is recorded, not fatal — the
    // counterfeiter prints anyway; the defender reads the diagnostics.
    if !faults.stl.is_empty() {
        for (body, (shell, fp)) in shells.iter().zip(&pristine).enumerate() {
            for evidence in verify_fingerprint(shell, fp) {
                diagnostics.push(Diagnostic {
                    stage: Stage::Stl,
                    message: format!("fingerprint mismatch on body {body}: {evidence:?}"),
                    recovered: false,
                });
            }
        }
    }
    let mesh_triangles: usize = shells.iter().map(TriMesh::triangle_count).sum();
    if mesh_triangles == 0 {
        return Err(PipelineError::EmptyBuild { part: part.name().to_string() });
    }
    let stl_bytes = binary_stl_size(mesh_triangles);
    let seam = seam_report(&resolved, &params);
    outcomes.push(StageOutcome {
        stage: Stage::Stl,
        status: if faults.stl.is_empty() { StageStatus::Clean } else { StageStatus::Degraded },
    });

    // --- Repair ----------------------------------------------------------
    // Weld only when the audit found sliver damage: an unfaulted run must
    // stay bit-identical to the historical pipeline.
    let sliver_tol = Tolerance::new(1e-9);
    let damaged = shells.iter().any(|s| s.degenerate_count(sliver_tol) > 0);
    if damaged {
        let mut dropped = 0usize;
        for shell in &mut shells {
            let (welded, report) = weld_vertices(shell, sliver_tol);
            dropped += report.triangles_dropped;
            *shell = welded;
        }
        diagnostics.push(Diagnostic {
            stage: Stage::Repair,
            message: format!("welded shells, dropped {dropped} degenerate triangles"),
            recovered: true,
        });
        if shells.iter().map(TriMesh::triangle_count).sum::<usize>() == 0 {
            return Err(PipelineError::EmptyBuild { part: part.name().to_string() });
        }
        outcomes.push(StageOutcome { stage: Stage::Repair, status: StageStatus::Degraded });
    } else {
        outcomes.push(StageOutcome { stage: Stage::Repair, status: StageStatus::Skipped });
    }

    Ok(MeshArtifact { shells, mesh_triangles, stl_bytes, seam, outcomes, diagnostics })
}

/// Slicer fault application, orientation, bed placement and slicing.
fn slice_stage(
    mesh: &MeshArtifact,
    plan: &ProcessPlan,
    faults: &FaultPlan,
) -> Result<SliceArtifact, PipelineError> {
    let mut outcomes: Vec<StageOutcome> = Vec::new();
    let mut diagnostics: Vec<Diagnostic> = Vec::new();

    let mut config = plan.slicer;
    for fault in &faults.slicer {
        fault.apply(&mut config);
        diagnostics.push(Diagnostic {
            stage: Stage::Slice,
            message: format!("injected {fault}"),
            recovered: false,
        });
    }
    if !faults.slicer.is_empty() {
        // Re-vet the effective (possibly sabotaged) configuration.
        config.validate().map_err(PipelineError::InvalidConfig)?;
    }

    // Orient, place on the bed (away from the corner — perimeter insets
    // may overshoot the footprint by a fraction of a road width), slice.
    let bed_margin = am_geom::Transform3::translation(am_geom::Vec3::new(5.0, 5.0, 0.0));
    let oriented: Vec<TriMesh> = orient_shells(&mesh.shells, plan.orientation)
        .iter()
        .map(|m| m.transformed(&bed_margin))
        .collect();
    let to_build = build_transform(&mesh.shells, plan.orientation).then(&bed_margin);
    let sliced = try_slice_shells_with(&oriented, config.layer_height, plan.parallelism)
        .map_err(PipelineError::Slice)?;
    let slice_report = diagnose_slices(&sliced, config.analysis_cell);
    let open_paths: usize = sliced.layers.iter().map(|l| l.open_paths.len()).sum();
    if open_paths > 0 {
        diagnostics.push(Diagnostic {
            stage: Stage::Slice,
            message: format!("{open_paths} open contour chains tolerated (damaged mesh)"),
            recovered: true,
        });
    }
    outcomes.push(StageOutcome {
        stage: Stage::Slice,
        status: if open_paths > 0 || !faults.slicer.is_empty() {
            StageStatus::Degraded
        } else {
            StageStatus::Clean
        },
    });

    Ok(SliceArtifact { sliced, slice_report, to_build, config, outcomes, diagnostics })
}

/// Tool-path planning, tool-path fault injection, and firmware vetting.
fn toolpath_stage(
    slice: &SliceArtifact,
    plan: &ProcessPlan,
    faults: &FaultPlan,
) -> Result<ToolpathArtifact, PipelineError> {
    let mut outcomes: Vec<StageOutcome> = Vec::new();
    let mut diagnostics: Vec<Diagnostic> = Vec::new();
    let config = &slice.config;

    let mut toolpath =
        try_generate_toolpath(&slice.sliced, config).map_err(PipelineError::Toolpath)?;
    for (i, fault) in faults.toolpath.iter().enumerate() {
        let seed = fault_seed(faults.seed, Stage::ToolPath, i);
        let note = fault.apply(&mut toolpath, seed).map_err(PipelineError::Gcode)?;
        diagnostics.push(Diagnostic {
            stage: Stage::ToolPath,
            message: format!("injected {fault}: {note}"),
            recovered: true,
        });
    }
    let stats = ToolPathStats {
        model_mm: toolpath.total_length(ToolMaterial::Model),
        support_mm: toolpath.total_length(ToolMaterial::Support),
        layers: toolpath.layer_count(),
        // The profile was validated up front, so the feed is positive.
        time_s: toolpath.try_print_time_estimate(plan.printer.feed_mm_per_s).unwrap_or(0.0),
    };
    outcomes.push(StageOutcome {
        stage: Stage::ToolPath,
        status: if faults.toolpath.is_empty() { StageStatus::Clean } else { StageStatus::Degraded },
    });

    // --- Firmware vetting (the Table 1 limit-switch mitigation) ----------
    let mut effective_feed = plan.printer.feed_mm_per_s;
    for fault in &faults.firmware {
        fault.apply(&mut toolpath, &mut effective_feed);
        diagnostics.push(Diagnostic {
            stage: Stage::Firmware,
            message: format!("injected {fault}"),
            recovered: false,
        });
    }
    let envelope = match plan.printer.process {
        Process::Fdm => BuildEnvelope::dimension_elite(),
        Process::PolyJet => BuildEnvelope::objet30_pro(),
    };
    let violations = check_limits_at_feed(&toolpath, &envelope, Some(effective_feed));
    if !violations.is_empty() {
        return Err(PipelineError::FirmwareRejected {
            violations: violations.len(),
            first: violations[0].to_string(),
        });
    }
    outcomes.push(StageOutcome {
        stage: Stage::Firmware,
        status: if faults.firmware.is_empty() { StageStatus::Clean } else { StageStatus::Degraded },
    });

    Ok(ToolpathArtifact { toolpath, stats, outcomes, diagnostics })
}

/// Deposition, support dissolution and the CT inspection scan.
fn print_stage(
    toolpath: &ToolpathArtifact,
    slice: &SliceArtifact,
    plan: &ProcessPlan,
) -> Result<PrintArtifact, PipelineError> {
    let mut outcomes: Vec<StageOutcome> = Vec::new();

    let printed = print_toolpath(&toolpath.toolpath, plan, slice.to_build)?;
    outcomes.push(StageOutcome { stage: Stage::Print, status: StageStatus::Clean });

    let scan_report = scan(&printed);
    outcomes.push(StageOutcome { stage: Stage::Inspect, status: StageStatus::Clean });

    Ok(PrintArtifact { printed: Arc::new(printed), scan: scan_report, outcomes })
}

/// The virtual tensile test: runs the plan's [`FeaSolver`] through the
/// process-wide [`SolverPool`], so replicate sweeps recycle solver state
/// across specimens.
fn tensile_stage(
    print: &PrintArtifact,
    plan: &ProcessPlan,
    joint_contact: f64,
) -> Result<TensileResult, PipelineError> {
    let tensile_config = TensileConfig {
        joint_contact,
        solver: plan.fea_solver,
        ..TensileConfig::fdm(plan.orientation)
    };
    let mut lattice = Lattice::try_from_printed(&print.printed, &tensile_config, plan.seed)
        .map_err(PipelineError::Tensile)?;
    fea_solver_pool()
        .run(&mut lattice, &tensile_config, plan.parallelism)
        .map_err(PipelineError::Tensile)
}

// --- Cached stage lookup ------------------------------------------------

fn obtain_mesh(
    part: &Part,
    plan: &ProcessPlan,
    faults: &FaultPlan,
    cache: Option<(&StageCache, StageKey)>,
) -> Result<Arc<MeshArtifact>, PipelineError> {
    if let Some((cache, key)) = cache {
        if let Some(hit) = cache.get(key).and_then(StageArtifact::into_mesh) {
            return Ok(hit);
        }
        let built = Arc::new(mesh_stage(part, plan, faults)?);
        cache.insert(key, StageArtifact::Mesh(Arc::clone(&built)), built.cost_bytes());
        Ok(built)
    } else {
        Ok(Arc::new(mesh_stage(part, plan, faults)?))
    }
}

fn obtain_slice(
    mesh: &MeshArtifact,
    plan: &ProcessPlan,
    faults: &FaultPlan,
    cache: Option<(&StageCache, StageKey)>,
) -> Result<Arc<SliceArtifact>, PipelineError> {
    if let Some((cache, key)) = cache {
        if let Some(hit) = cache.get(key).and_then(StageArtifact::into_slice) {
            return Ok(hit);
        }
        let built = Arc::new(slice_stage(mesh, plan, faults)?);
        cache.insert(key, StageArtifact::Slice(Arc::clone(&built)), built.cost_bytes());
        Ok(built)
    } else {
        Ok(Arc::new(slice_stage(mesh, plan, faults)?))
    }
}

fn obtain_toolpath(
    slice: &SliceArtifact,
    plan: &ProcessPlan,
    faults: &FaultPlan,
    cache: Option<(&StageCache, StageKey)>,
) -> Result<Arc<ToolpathArtifact>, PipelineError> {
    if let Some((cache, key)) = cache {
        if let Some(hit) = cache.get(key).and_then(StageArtifact::into_toolpath) {
            return Ok(hit);
        }
        let built = Arc::new(toolpath_stage(slice, plan, faults)?);
        cache.insert(key, StageArtifact::Toolpath(Arc::clone(&built)), built.cost_bytes());
        Ok(built)
    } else {
        Ok(Arc::new(toolpath_stage(slice, plan, faults)?))
    }
}

fn obtain_print(
    toolpath: &ToolpathArtifact,
    slice: &SliceArtifact,
    plan: &ProcessPlan,
    cache: Option<(&StageCache, StageKey)>,
) -> Result<Arc<PrintArtifact>, PipelineError> {
    if let Some((cache, key)) = cache {
        if let Some(hit) = cache.get(key).and_then(StageArtifact::into_print) {
            return Ok(hit);
        }
        let built = Arc::new(print_stage(toolpath, slice, plan)?);
        cache.insert(key, StageArtifact::Print(Arc::clone(&built)), built.cost_bytes());
        Ok(built)
    } else {
        Ok(Arc::new(print_stage(toolpath, slice, plan)?))
    }
}

/// How deep [`warm_prefix`] evaluates the chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum PrefixDepth {
    Mesh,
    Slice,
    Toolpath,
}

/// Evaluates (and caches) the chain's shared prefix up to `depth`,
/// without printing or testing. The batch engine calls this once per
/// *unique* prefix key so divergent suffixes find their prefix hot.
///
/// Errors are returned but never enter the [`StageCache`]; the batch
/// engine records them in a per-batch side map instead (see
/// [`crate::batch`]), so an erroring prefix — which can fail *after*
/// substantial work, e.g. a tessellation allocation cap — is still only
/// computed once per batch.
pub(crate) fn warm_prefix(
    part: &Part,
    plan: &ProcessPlan,
    faults: &FaultPlan,
    cache: &StageCache,
    depth: PrefixDepth,
    deadline: Deadline,
) -> Result<(), PipelineError> {
    plan.slicer.validate().map_err(PipelineError::InvalidConfig)?;
    plan.printer.validate().map_err(|e| PipelineError::Print(PrintError::Profile(e)))?;
    let keys = plan_keys(part, plan, faults);
    deadline.check(Stage::Cad)?;
    let mesh = obtain_mesh(part, plan, faults, Some((cache, keys.mesh)))?;
    if depth < PrefixDepth::Slice {
        return Ok(());
    }
    deadline.check(Stage::Slice)?;
    let slice = obtain_slice(&mesh, plan, faults, Some((cache, keys.slice)))?;
    if depth < PrefixDepth::Toolpath {
        return Ok(());
    }
    deadline.check(Stage::ToolPath)?;
    obtain_toolpath(&slice, plan, faults, Some((cache, keys.toolpath)))?;
    Ok(())
}

/// The staged runner behind both [`run_pipeline_with_faults`] (no cache)
/// and [`run_pipeline_cached`]: identical control flow, so the two paths
/// cannot drift apart.
fn run_pipeline_inner(
    part: &Part,
    plan: &ProcessPlan,
    faults: &FaultPlan,
    cache: Option<&StageCache>,
    deadline: Deadline,
) -> Result<PipelineOutput, PipelineError> {
    // The plan itself must be coherent before anything runs: a bad slicer
    // config or machine profile is a caller error, not a fault.
    plan.slicer.validate().map_err(PipelineError::InvalidConfig)?;
    plan.printer.validate().map_err(|e| PipelineError::Print(PrintError::Profile(e)))?;

    let keys = cache.map(|_| plan_keys(part, plan, faults));
    let with_key = |key: fn(&PlanKeys) -> StageKey| {
        cache.zip(keys.as_ref().map(key))
    };

    let mut stages: Vec<StageOutcome> = Vec::new();
    let mut diagnostics: Vec<Diagnostic> = Vec::new();

    deadline.check(Stage::Cad)?;
    let mesh = obtain_mesh(part, plan, faults, with_key(|k| k.mesh))?;
    stages.extend_from_slice(&mesh.outcomes);
    diagnostics.extend_from_slice(&mesh.diagnostics);

    deadline.check(Stage::Slice)?;
    let slice = obtain_slice(&mesh, plan, faults, with_key(|k| k.slice))?;
    stages.extend_from_slice(&slice.outcomes);
    diagnostics.extend_from_slice(&slice.diagnostics);

    deadline.check(Stage::ToolPath)?;
    let toolpath = obtain_toolpath(&slice, plan, faults, with_key(|k| k.toolpath))?;
    stages.extend_from_slice(&toolpath.outcomes);
    diagnostics.extend_from_slice(&toolpath.diagnostics);

    deadline.check(Stage::Print)?;
    let print = obtain_print(&toolpath, &slice, plan, with_key(|k| k.print))?;
    stages.extend_from_slice(&print.outcomes);

    // Cold-joint contact: in x-y the seam's in-plane tessellation gaps
    // reduce the bonded area (fraction of the seam left open by the chord
    // mismatch); in x-z the gap opens across layers instead, measured by
    // the fraction of discontinuous layers.
    let slice_report = &slice.slice_report;
    let joint_contact = match (&mesh.seam, plan.orientation) {
        (Some(s), Orientation::Xy) => {
            (1.0 - 1.5 * s.chain_mismatch / slice.config.road_width).clamp(0.3, 1.0)
        }
        (Some(_), Orientation::Xz) => {
            let frac = if slice_report.layers == 0 {
                0.0
            } else {
                slice_report.discontinuous_layers as f64 / slice_report.layers as f64
            };
            (1.0 - 0.5 * frac).clamp(0.3, 1.0)
        }
        (None, _) => 1.0,
    };

    // --- Virtual tensile test --------------------------------------------
    let tensile = if plan.tensile {
        deadline.check(Stage::Test)?;
        stages.push(StageOutcome { stage: Stage::Test, status: StageStatus::Clean });
        let result: Arc<TensileResult> = if let Some((cache, keys)) = cache.zip(keys) {
            let key = tensile_key(keys.print, plan, joint_contact);
            match cache.get(key).and_then(StageArtifact::into_tensile) {
                Some(hit) => hit,
                None => {
                    let built = Arc::new(tensile_stage(&print, plan, joint_contact)?);
                    cache.insert(key, StageArtifact::Tensile(Arc::clone(&built)), tensile_cost(&built));
                    built
                }
            }
        } else {
            Arc::new(tensile_stage(&print, plan, joint_contact)?)
        };
        Some((*result).clone())
    } else {
        stages.push(StageOutcome { stage: Stage::Test, status: StageStatus::Skipped });
        None
    };

    Ok(PipelineOutput {
        part_name: part.name().to_string(),
        mesh_triangles: mesh.mesh_triangles,
        stl_bytes: mesh.stl_bytes,
        seam: mesh.seam.clone(),
        slice_report: slice.slice_report.clone(),
        toolpath: toolpath.stats,
        printed: Arc::clone(&print.printed),
        scan: print.scan,
        tensile,
        joint_contact,
        stages,
        diagnostics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use am_cad::parts::{prism_with_sphere, tensile_bar_with_spline, PrismDims, TensileBarDims};
    use am_cad::{BodyKind, MaterialRemoval};
    use am_geom::Point3;

    fn base_part() -> Part {
        let dims = PrismDims { size: Point3::new(25.4, 12.7, 12.7), sphere_radius: 3.0 };
        prism_with_sphere(&dims, BodyKind::Solid, MaterialRemoval::Without).expect("part")
    }

    fn keys_for(part: &Part, plan: &ProcessPlan) -> PlanKeys {
        plan_keys(part, plan, &FaultPlan::none())
    }

    /// Pin for the router tier (PR 9): the public
    /// [`crate::prefix_key_for_job`] must equal — byte for byte — the key
    /// the pipeline actually caches the slice artifact under, for clean
    /// and faulted plans alike. If the two ever drift, affinity routing
    /// would hash jobs to a node whose cache files them elsewhere.
    #[test]
    fn prefix_key_is_the_slice_stage_cache_key() {
        let part = base_part();
        let plan = ProcessPlan::fdm(Resolution::Coarse, Orientation::Xy);
        let faulted = "stl.degenerate=3"
            .parse::<FaultPlan>()
            .expect("fault plan")
            .with_seed(7);
        for faults in [FaultPlan::none(), faulted] {
            let public = crate::cache::prefix_key_for_job(&part, &plan, &faults);
            assert_eq!(
                public,
                plan_keys(&part, &plan, &faults).slice,
                "public prefix key drifted from the slice-stage plan key"
            );
            let cache = StageCache::with_budget(64 << 20);
            if run_pipeline_cached(&part, &plan, &faults, &cache).is_ok() {
                let cached =
                    cache.get(public).and_then(crate::cache::StageArtifact::into_slice);
                assert!(
                    cached.is_some(),
                    "cached run left no slice artifact under the public prefix key"
                );
            }
        }
    }

    /// The cache-correctness pin the hashing scheme rests on: perturbing
    /// any single field of any keyed input must change the stage key that
    /// absorbs it. A lossy encoding (e.g. a `Debug` rendering that omits
    /// or rounds a field) would make two distinct inputs alias and the
    /// cache would serve wrong artifacts.
    #[test]
    fn key_schema_is_field_sensitive() {
        let part = base_part();
        let plan = ProcessPlan::fdm(Resolution::Coarse, Orientation::Xy);
        let base = keys_for(&part, &plan);

        // --- Part recipe → mesh key --------------------------------------
        let part_perturbations: Vec<(&str, Part)> = vec![
            ("prism size.x", {
                let dims = PrismDims { size: Point3::new(25.5, 12.7, 12.7), sphere_radius: 3.0 };
                prism_with_sphere(&dims, BodyKind::Solid, MaterialRemoval::Without).expect("part")
            }),
            ("prism size.z", {
                let dims = PrismDims { size: Point3::new(25.4, 12.7, 12.8), sphere_radius: 3.0 };
                prism_with_sphere(&dims, BodyKind::Solid, MaterialRemoval::Without).expect("part")
            }),
            ("sphere radius", {
                let dims = PrismDims { size: Point3::new(25.4, 12.7, 12.7), sphere_radius: 3.1 };
                prism_with_sphere(&dims, BodyKind::Solid, MaterialRemoval::Without).expect("part")
            }),
            ("body kind", {
                let dims = PrismDims { size: Point3::new(25.4, 12.7, 12.7), sphere_radius: 3.0 };
                prism_with_sphere(&dims, BodyKind::Surface, MaterialRemoval::Without).expect("part")
            }),
            ("material removal", {
                let dims = PrismDims { size: Point3::new(25.4, 12.7, 12.7), sphere_radius: 3.0 };
                prism_with_sphere(&dims, BodyKind::Solid, MaterialRemoval::With).expect("part")
            }),
            ("feature set (spline split)", {
                tensile_bar_with_spline(&TensileBarDims::default()).expect("bar")
            }),
        ];
        for (what, perturbed) in &part_perturbations {
            assert_ne!(
                keys_for(perturbed, &plan).mesh,
                base.mesh,
                "mesh key insensitive to {what}"
            );
        }

        // Spline through-point: two bars differing in one control point.
        let spline_bar = |dy: f64| {
            let dims = TensileBarDims::default();
            let mut pts = am_cad::parts::standard_split_spline(&dims)
                .expect("spline")
                .through_points()
                .to_vec();
            pts[2].y += dy;
            let spline = am_geom::CatmullRom::new(pts).expect("six points");
            am_cad::parts::tensile_bar(&dims)
                .expect("bar")
                .with_feature(am_cad::Feature::SplineSplit { spline })
                .expect("split")
        };
        assert_ne!(
            keys_for(&spline_bar(0.0), &plan).mesh,
            keys_for(&spline_bar(0.25), &plan).mesh,
            "mesh key insensitive to a spline control point"
        );

        // --- Resolution → mesh key ---------------------------------------
        for resolution in [Resolution::Fine, Resolution::Custom] {
            let changed = ProcessPlan { resolution, ..plan.clone() };
            assert_ne!(
                keys_for(&part, &changed).mesh,
                base.mesh,
                "mesh key insensitive to resolution {resolution:?}"
            );
        }

        // --- Orientation → slice key (mesh key unchanged) ----------------
        let turned = ProcessPlan { orientation: Orientation::Xz, ..plan.clone() };
        let turned_keys = keys_for(&part, &turned);
        assert_eq!(turned_keys.mesh, base.mesh, "orientation must not re-key the mesh");
        assert_ne!(turned_keys.slice, base.slice, "slice key insensitive to orientation");

        // --- SlicerConfig, field by field → slice key ---------------------
        let slicer_perturbations: Vec<(&str, SlicerConfig)> = vec![
            ("layer_height", SlicerConfig { layer_height: 0.2, ..plan.slicer }),
            ("road_width", SlicerConfig { road_width: 0.51, ..plan.slicer }),
            ("analysis_cell", SlicerConfig { analysis_cell: 0.06, ..plan.slicer }),
            ("support", SlicerConfig { support: !plan.slicer.support, ..plan.slicer }),
            (
                "infill style",
                SlicerConfig {
                    infill: am_slicer::InfillStyle::Sparse { density: 0.5 },
                    ..plan.slicer
                },
            ),
        ];
        for (what, slicer) in slicer_perturbations {
            let changed = ProcessPlan { slicer, ..plan.clone() };
            let keys = keys_for(&part, &changed);
            assert_eq!(keys.mesh, base.mesh, "slicer {what} must not re-key the mesh");
            assert_ne!(keys.slice, base.slice, "slice key insensitive to slicer {what}");
        }
        // Sparse density is a field of its own inside the infill variant.
        let sparse = |density| ProcessPlan {
            slicer: SlicerConfig { infill: am_slicer::InfillStyle::Sparse { density }, ..plan.slicer },
            ..plan.clone()
        };
        assert_ne!(
            keys_for(&part, &sparse(0.5)).slice,
            keys_for(&part, &sparse(0.6)).slice,
            "slice key insensitive to sparse-infill density"
        );

        // --- PrinterProfile, field by field → toolpath key ----------------
        let profile_perturbations: Vec<(&str, PrinterProfile)> = vec![
            ("name", PrinterProfile { name: "Other Machine", ..plan.printer.clone() }),
            ("process", PrinterProfile { process: Process::PolyJet, ..plan.printer.clone() }),
            ("layer_height", PrinterProfile { layer_height: 0.2, ..plan.printer.clone() }),
            ("road_width", PrinterProfile { road_width: 0.51, ..plan.printer.clone() }),
            ("feed_mm_per_s", PrinterProfile { feed_mm_per_s: 31.0, ..plan.printer.clone() }),
            (
                "model_material.young_modulus_gpa",
                PrinterProfile {
                    model_material: am_printer::MaterialSpec {
                        young_modulus_gpa: 2.2,
                        ..plan.printer.model_material.clone()
                    },
                    ..plan.printer.clone()
                },
            ),
            (
                "model_material.tensile_strength_mpa",
                PrinterProfile {
                    model_material: am_printer::MaterialSpec {
                        tensile_strength_mpa: 34.0,
                        ..plan.printer.model_material.clone()
                    },
                    ..plan.printer.clone()
                },
            ),
            (
                "model_material.elongation_at_break",
                PrinterProfile {
                    model_material: am_printer::MaterialSpec {
                        elongation_at_break: 0.11,
                        ..plan.printer.model_material.clone()
                    },
                    ..plan.printer.clone()
                },
            ),
            (
                "model_material.density_g_cm3",
                PrinterProfile {
                    model_material: am_printer::MaterialSpec {
                        density_g_cm3: 1.1,
                        ..plan.printer.model_material.clone()
                    },
                    ..plan.printer.clone()
                },
            ),
            (
                "soluble_support",
                PrinterProfile { soluble_support: !plan.printer.soluble_support, ..plan.printer.clone() },
            ),
            ("road_bond", PrinterProfile { road_bond: 0.93, ..plan.printer.clone() }),
            ("layer_bond", PrinterProfile { layer_bond: 0.81, ..plan.printer.clone() }),
            ("joint_bond", PrinterProfile { joint_bond: 0.5, ..plan.printer.clone() }),
            ("joint_ductility", PrinterProfile { joint_ductility: 0.5, ..plan.printer.clone() }),
            ("noise_sigma", PrinterProfile { noise_sigma: 0.07, ..plan.printer.clone() }),
        ];
        for (what, printer) in profile_perturbations {
            let changed = ProcessPlan { printer, ..plan.clone() };
            let keys = keys_for(&part, &changed);
            assert_eq!(keys.slice, base.slice, "printer {what} must not re-key the slice");
            assert_ne!(
                keys.toolpath, base.toolpath,
                "toolpath key insensitive to printer {what}"
            );
        }

        // --- Seed → print key (toolpath key unchanged) --------------------
        let reseeded = plan.clone().with_seed(plan.seed + 1);
        let reseeded_keys = keys_for(&part, &reseeded);
        assert_eq!(reseeded_keys.toolpath, base.toolpath, "seed must not re-key the toolpath");
        assert_ne!(reseeded_keys.print, base.print, "print key insensitive to seed");

        // --- Joint contact, orientation and solver → tensile key ----------
        let t0 = tensile_key(base.print, &plan, 0.9);
        assert_ne!(t0, tensile_key(base.print, &plan, 0.90001), "tensile key insensitive to joint contact");
        assert_ne!(t0, tensile_key(base.print, &turned, 0.9), "tensile key insensitive to orientation");

        // The equilibrium solver re-keys the tensile stage and nothing
        // upstream of it: the two solvers agree only to solver tolerance,
        // so a shared cache must never serve one solver's curve for the
        // other.
        let other_solver = plan.clone().with_fea_solver(FeaSolver::Relaxation);
        let solver_keys = keys_for(&part, &other_solver);
        assert_eq!(solver_keys.print, base.print, "fea solver must not re-key the print stage");
        assert_ne!(
            tensile_key(base.print, &plan, 0.9),
            tensile_key(base.print, &other_solver, 0.9),
            "tensile key insensitive to the fea solver"
        );
    }

    /// Literal pins of the mesh, slice, tool-path and print keys. The
    /// stage key names spill-tier segment records, and the slice key is
    /// also the router's placement key ([`crate::prefix_key_for_job`]),
    /// so any change to the hashed byte stream — including dropping the
    /// constant kernel byte at the end of [`slice_key`] — would cold-miss
    /// every spilled record and re-home routed job families. A schema
    /// change that is meant to re-key must re-pin these in the same commit.
    #[test]
    fn stage_keys_match_recorded_literals() {
        let bar = tensile_bar_with_spline(&TensileBarDims::default()).expect("bar");
        let degenerate = "stl.degenerate=3".parse::<FaultPlan>().expect("spec").with_seed(7);
        let coarse_xy = ProcessPlan::fdm(Resolution::Coarse, Orientation::Xy);
        let cases = [
            (
                "prism coarse xy",
                keys_for(&base_part(), &coarse_xy),
                [
                    [0x13dcbfb20b97bd0e, 0xbfd5655b272433f1],
                    [0x6ce3241a2e4fddfc, 0xa5bd596d97f72b0a],
                    [0x75f6d0778484e642, 0xf9c54575e6b1289b],
                    [0x4478e4eb056d5ed1, 0x5eab7936beeeb9de],
                ],
            ),
            (
                "prism coarse xy, stl.degenerate=3 seed 7",
                plan_keys(&base_part(), &coarse_xy, &degenerate),
                [
                    [0xb9a36b735a9db9df, 0xced951ce3d776bca],
                    [0xa449a6bd03d89bcf, 0xa8c64b081fe0775c],
                    [0xfbc902e168ad10e9, 0x25602dec6eb7a9ed],
                    [0xdb84b91b918bd7fc, 0x0cba29af34189349],
                ],
            ),
            (
                "spline bar fine xz",
                keys_for(&bar, &ProcessPlan::fdm(Resolution::Fine, Orientation::Xz)),
                [
                    [0x7c88796e4c26013d, 0xc30ecd46fc1e95af],
                    [0xe2d4ee498b9caa93, 0x4c25fe2e9ea01d39],
                    [0x190a601525d9eb9e, 0x97405d214fa99a98],
                    [0x5ef95612e3b7b0bf, 0xaf7eadf4a2672aaa],
                ],
            ),
        ];
        for (name, keys, [mesh, slice, toolpath, print]) in cases {
            assert_eq!(keys.mesh.to_words(), mesh, "{name}: mesh key");
            assert_eq!(keys.slice.to_words(), slice, "{name}: slice key");
            assert_eq!(keys.toolpath.to_words(), toolpath, "{name}: tool-path key");
            assert_eq!(keys.print.to_words(), print, "{name}: print key");
        }
    }

    /// Fault poisoning at the key level: fault entries (and the fault seed)
    /// re-key the stage they strike, and only that stage's chain.
    #[test]
    fn fault_entries_poison_their_stage_key() {
        let part = base_part();
        let plan = ProcessPlan::fdm(Resolution::Coarse, Orientation::Xy);
        let clean = plan_keys(&part, &plan, &FaultPlan::none());

        let stl: FaultPlan = "stl.degenerate=3".parse().expect("spec");
        let stl_keys = plan_keys(&part, &plan, &stl);
        assert_ne!(stl_keys.mesh, clean.mesh, "STL fault must poison the mesh key");

        let slicer: FaultPlan = "slicer.zero_layer".parse().expect("spec");
        let slicer_keys = plan_keys(&part, &plan, &slicer);
        assert_eq!(slicer_keys.mesh, clean.mesh, "slicer fault must not poison the mesh key");
        assert_ne!(slicer_keys.slice, clean.slice, "slicer fault must poison the slice key");

        // Fault seed matters once fault entries draw from it.
        let seeded_a = plan_keys(&part, &plan, &stl.clone().with_seed(1));
        let seeded_b = plan_keys(&part, &plan, &stl.with_seed(2));
        assert_ne!(seeded_a.mesh, seeded_b.mesh, "fault seed must enter the poisoned key");
    }
}
