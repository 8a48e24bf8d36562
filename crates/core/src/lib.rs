//! **ObfusCADe** — obfuscating additive-manufacturing CAD models against
//! counterfeiting.
//!
//! A from-scratch reproduction of *"ObfusCADe: Obfuscating Additive
//! Manufacturing CAD Models Against Counterfeiting"* (Gupta, Chen,
//! Tsoutsos, Maniatakos — DAC 2017). ObfusCADe protects 3-D design IP by
//! planting **sabotage features** in the CAD model: the part manufactures
//! correctly only under a unique combination of processing settings (the
//! [`ProcessKey`] — STL resolution, build orientation, CAD recipe); under
//! every other combination the printed artifact carries defects that
//! degrade its quality and service life, and whose presence doubles as a
//! counterfeit detector.
//!
//! # The two protection schemes of the paper
//!
//! * [`SplineSplitScheme`] (§3.1): a massless spline split across a tensile
//!   bar. Stolen STLs always carry the cold-joint seam — visible in x-z
//!   prints at any resolution, surface-disrupting in Coarse x-y prints, and
//!   halving failure strain and toughness everywhere (Table 2, Fig. 9).
//! * [`EmbeddedSphereScheme`] (§3.2): a sphere embedded in a solid prism.
//!   Only the keyed CAD recipe (material removal + solid re-embed) prints
//!   solid; every other recipe hides a support-filled void (Table 3).
//!
//! # The process chain
//!
//! [`run_pipeline`] drives the paper's full Fig. 1 chain over the substrate
//! crates: `am-cad` (feature-based CAD) → `am-mesh` (tessellation/STL) →
//! `am-slicer` (slicing, tool paths, G-code) → `am-printer` (FDM/PolyJet
//! deposition) → `am-fea` (virtual tensile testing), returning every
//! intermediate observable the paper reports.
//!
//! # Examples
//!
//! ```no_run
//! use am_mesh::Resolution;
//! use am_slicer::Orientation;
//! use obfuscade::{
//!     assess_quality, run_pipeline, ProcessPlan, QualityThresholds, SplineSplitScheme,
//! };
//!
//! let scheme = SplineSplitScheme::default();
//!
//! // A counterfeiter prints the stolen file standing on edge…
//! let stolen = scheme.protected_part()?;
//! let plan = ProcessPlan::fdm(Resolution::Fine, Orientation::Xz).with_tensile(true);
//! let counterfeit = run_pipeline(&stolen, &plan)?;
//!
//! // …while the owner manufactures the true design.
//! let genuine = run_pipeline(&scheme.genuine_part()?, &plan)?;
//!
//! let report = assess_quality(&counterfeit, &genuine, &QualityThresholds::default());
//! println!("counterfeit verdict: {}", report.verdict);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adversary;
mod batch;
mod cache;
pub mod detect;
mod fault;
pub mod json;
mod key;
pub mod metrics;
mod multikey;
mod pipeline;
mod quality;
pub mod risk;
mod scheme;
mod spill;

pub use adversary::{
    genuine_production, repair_attack, search_sphere_scheme, search_spline_scheme, Attempt,
    RepairOutcome, SearchOutcome,
};
pub use batch::{
    run_pipeline_batch, run_pipeline_batch_with, run_pipeline_jobs, run_pipeline_jobs_with,
    sweep_key_space, BatchJob,
};
pub use cache::{prefix_key_for_job, CacheStats, StageCache, StageHasher, StageKey};
pub use detect::{DetectionReport, SanitizeReport};
pub use fault::{
    FaultParseError, FaultPlan, FirmwareFault, SlicerFault, StlFault, ToolpathFault,
};
pub use key::{CadRecipe, ProcessKey};
pub use multikey::MultiSphereScheme;
pub use am_fea::{solver_counters, FeaSolver, SolverCounters, SolverPoolStats};
pub use pipeline::{
    fea_solver_pool_stats, plan_toolpath, print_toolpath, run_pipeline, run_pipeline_cached,
    run_pipeline_cached_deadline, run_pipeline_with_faults, Deadline, Diagnostic, PipelineError,
    PipelineOutput, ProcessPlan, Stage, StageOutcome, StageStatus, ToolPathStats, ToolpathPlan,
};
pub use quality::{assess_quality, QualityReport, QualityThresholds, Verdict};
pub use scheme::{Authenticity, EmbeddedSphereScheme, SplineSplitScheme};
pub use spill::{SpillStats, SpillStore};
