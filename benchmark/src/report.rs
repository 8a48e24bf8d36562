//! The result of one benchmark run and its rendering: a readable table
//! first, then — as the last line of standard output — one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`.

use obfuscade::json::json_string;

/// One run's verdict and metrics.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Every output checked out and the run was valid.
    pub correct: bool,
    /// Operations attempted (pipeline jobs, or requests).
    pub attempted: u64,
    /// Errors, refusals, wrong outputs and dropped requests.
    pub failed: u64,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Why the run is not correct, one line each.
    pub problems: Vec<String>,
}

impl RunResult {
    /// A clean result over `attempted` operations.
    pub fn new(attempted: u64) -> RunResult {
        RunResult {
            correct: true,
            attempted,
            failed: 0,
            metrics: Vec::new(),
            problems: Vec::new(),
        }
    }

    /// Counts one failed operation.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        self.correct = false;
        if self.problems.len() < 20 {
            self.problems.push(why.into());
        }
    }

    /// Marks the run invalid without counting a failed operation.
    pub fn invalid(&mut self, why: impl Into<String>) {
        self.correct = false;
        self.problems.push(why.into());
    }

    /// Adds a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// `failed ÷ attempted`.
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The command's exit status: nonzero for any failed operation or an
    /// invalid run.
    pub fn exit_code(&self) -> i32 {
        i32::from(!(self.correct && self.failed == 0))
    }

    /// The readable table.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        for (name, value, unit) in &self.metrics {
            out.push_str(&format!("{name:<34} {value:>16.6} {unit}\n"));
        }
        out.push_str(&format!(
            "{:<34} {:>16.6} ratio ({} of {} failed)\n",
            "failed_frac",
            self.failed_frac(),
            self.failed,
            self.attempted
        ));
        for p in &self.problems {
            out.push_str(&format!("problem: {p}\n"));
        }
        out
    }

    /// The one-line JSON result.
    pub fn render_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                // Rust's shortest round-trip rendering keeps every digit
                // that was measured.
                let value = if value.is_finite() {
                    format!("{value}")
                } else {
                    "0".to_string()
                };
                format!(
                    "{}:{{\"value\":{value},\"unit\":{}}}",
                    json_string(name),
                    json_string(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        )
    }
}

/// Exact sample quantile of unsorted values (the repository's order
/// statistic rule); 0 for no values.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    obfuscade::metrics::quantile(&sorted, q)
}

/// Median of unsorted values (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Peak resident memory of process `pid` in MiB (`VmHWM`), 0 if unknown.
pub fn peak_rss_mb(pid: u32) -> f64 {
    let path = format!("/proc/{pid}/status");
    std::fs::read_to_string(path)
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| {
                    l.split_whitespace()
                        .nth(1)
                        .and_then(|kb| kb.parse::<f64>().ok())
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
