//! Acoustic/magnetic side-channel simulation for AM printers.
//!
//! §2 of the ObfusCADe paper highlights information-leakage attacks: a
//! smartphone near an FDM printer can record stepper-motor emissions and
//! reconstruct the G-code tool paths (refs [4, 16]). This crate simulates
//! both sides:
//!
//! * [`record_emissions`] — turns a tool path into the noisy emission trace
//!   an attacker captures, at selectable [`CaptureQuality`];
//! * [`record_power`] — the mains-side power trace of the same print, the
//!   defender's dual of the acoustic channel;
//! * [`CapturePlan`] — the seed-free half of both captures, planned once
//!   per tool path and replayed for every seeded capture;
//! * [`reconstruct_toolpath`] — the attacker's dead-reckoning
//!   reconstruction, with [`compare_toolpaths`] quantifying its error;
//! * [`NoiseEmitter`] — the defender's active countermeasure (Table 1's
//!   "noise emission" mitigation), which corrupts the captured trace.
//!
//! The strategic point for ObfusCADe: a design stolen through this channel
//! is a *tool-path* level copy — it inherits every planted defect, because
//! the sabotage features survive all the way to the motor commands.
//!
//! # Examples
//!
//! See [`reconstruct_toolpath`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod emission;
mod jamming;
mod plan;
mod power;
mod reconstruct;

pub use emission::{record_emissions, CaptureQuality, EmissionFrame, STEPS_PER_MM};
pub use jamming::NoiseEmitter;
pub use plan::{CapturePlan, EmissionDraw, PlannedFrame};
pub use power::{
    record_power, PowerSample, ACCEL_JOULES_PER_MM_S, AXIS_WATTS_PER_MM_S, EXTRUDE_WATTS,
    IDLE_WATTS,
};
pub use reconstruct::{compare_toolpaths, reconstruct_toolpath, ReconstructionReport};
