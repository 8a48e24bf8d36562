//! Experiment harness for the ObfusCADe reproduction.
//!
//! Each function in [`experiments`] regenerates one table or figure of the
//! paper as printable text; `obfuscade report <name>` prints one of them
//! and `obfuscade report all` prints every section in paper order.
//! Performance is measured by the repository benchmark (`benchmark/`),
//! not by this crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;

/// Formats a `mean ± std` cell.
pub fn pm(mean: f64, std: f64, prec: usize) -> String {
    format!("{mean:.prec$}±{std:.prec$}")
}
