//! **am-detect** — the defensive workload suite of the ObfusCADe
//! reproduction: side-channel counterfeit detection and stego-channel
//! sanitization, served as batch jobs through the daemon.
//!
//! ObfusCADe's planted sabotage features survive all the way to the
//! motor commands — which means they are *visible* in the machine's
//! physical emissions. This crate closes the loop from the defender's
//! side (ROADMAP: "Defensive workload suite"):
//!
//! * [`record_power`] (from `am-sidechannel`) synthesizes the mains-side
//!   power trace of a planned tool path, the dual of the acoustic trace
//!   [`am_sidechannel::record_emissions`] produces;
//! * [`Calibration`] builds a three-detector bank — audio signature,
//!   power envelope, and the fused max-of-normalized-scores — with
//!   thresholds calibrated to a nominal false-positive rate against
//!   genuine-recapture nulls;
//! * [`detect_counterfeit`] runs one detection job end to end, keyed
//!   and cached like a pipeline stage (the daemon's `detect` job kind);
//! * [`sanitize_toolpath`] scans a tool path's low-order coordinate
//!   stego channel, strips it, and proves the strip print-preserving by
//!   stage-key identity over the voxel-grid digests (the `sanitize`
//!   job kind);
//! * [`run_roc_sweep`] produces the detector × fault-catalog × capture
//!   setup ROC table, including the [`am_sidechannel::NoiseEmitter`]
//!   jamming axis — the defender's own countermeasure degrades their
//!   monitoring too, and the table quantifies that trade.
//!
//! # Examples
//!
//! ```
//! use am_detect::{detect_counterfeit, DetectConfig};
//! use am_mesh::Resolution;
//! use am_slicer::Orientation;
//! use obfuscade::{Deadline, FaultPlan, ProcessPlan, StageCache, SplineSplitScheme};
//!
//! let part = SplineSplitScheme::default().protected_part()?;
//! let plan = ProcessPlan::fdm(Resolution::Coarse, Orientation::Xy);
//! let faults = FaultPlan::catalog().remove(10).1; // toolpath-drop
//! let cache = StageCache::with_budget(64 << 20);
//! let report = detect_counterfeit(
//!     &part,
//!     &plan,
//!     &faults,
//!     "toolpath.drop=0.1",
//!     &DetectConfig::default(),
//!     &cache,
//!     Deadline::none(),
//! )?;
//! assert!(report.fused_flagged);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod detector;
mod job;
mod roc;
mod stego;

pub use detector::{Calibration, ChannelScores, BLOCKED_SCORE};
pub use job::{
    capture_quality, detect_counterfeit, detection_key, fingerprint, sanitize_key,
    sanitize_toolpath, DetectConfig, DetectError, SanitizeConfig,
};
pub use am_sidechannel::{
    record_power, PowerSample, ACCEL_JOULES_PER_MM_S, AXIS_WATTS_PER_MM_S, EXTRUDE_WATTS,
    IDLE_WATTS,
};
pub use roc::{run_roc_sweep, RocCell, RocConfig, RocSetup, RocTable};
pub use stego::{
    embed_payload, mechanical_quantize, sanitize_coords, scan_channel, BASE_QUANTUM_MM,
    DEFAULT_PAYLOAD_BITS,
};
