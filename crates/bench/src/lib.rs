//! Experiment harness for the ObfusCADe reproduction.
//!
//! Each function in [`experiments`] regenerates one table or figure of the
//! paper as printable text; `obfuscade report <name>` prints one of them
//! and `obfuscade report all` prints every section in paper order.
//! [`perf`] is the harness behind `obfuscade bench`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod perf;

/// Formats a `mean ± std` cell.
pub fn pm(mean: f64, std: f64, prec: usize) -> String {
    format!("{mean:.prec$}±{std:.prec$}")
}
