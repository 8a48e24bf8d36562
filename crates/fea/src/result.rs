//! Tensile test results, solver telemetry, and summary statistics.

use am_geom::Point2;

/// Snapshot of the process-wide optimized-solver work counters (see
/// [`crate::solver_counters`]).
///
/// Pure telemetry: the counters never feed back into the simulation, so
/// they can be read (or ignored) without perturbing bit-identical results.
/// Callers diff two snapshots ([`SolverCounters::since`]) to attribute
/// work to a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SolverCounters {
    /// Accepted Newton steps (outer iterations).
    pub newton_iters: u64,
    /// PCG iterations — one deterministic Hessian-vector product each.
    pub pcg_iters: u64,
    /// Dynamic-relaxation iterations (the `Relaxation` solver, or the
    /// Newton solver's fallback path).
    pub relax_iters: u64,
    /// Full nodal force/residual evaluations across both solver families.
    pub force_evals: u64,
}

impl SolverCounters {
    /// Inner iterations across both solver families (PCG + relaxation).
    pub fn inner_iters(&self) -> u64 {
        self.pcg_iters + self.relax_iters
    }

    /// Counter-wise difference since an earlier snapshot (saturating, so
    /// snapshots passed in the wrong order cannot underflow).
    pub fn since(&self, earlier: &SolverCounters) -> SolverCounters {
        SolverCounters {
            newton_iters: self.newton_iters.saturating_sub(earlier.newton_iters),
            pcg_iters: self.pcg_iters.saturating_sub(earlier.pcg_iters),
            relax_iters: self.relax_iters.saturating_sub(earlier.relax_iters),
            force_evals: self.force_evals.saturating_sub(earlier.force_evals),
        }
    }
}

/// The outcome of one virtual tensile test.
#[derive(Debug, Clone, PartialEq)]
pub struct TensileResult {
    /// Engineering stress–strain curve: `(strain, stress MPa)`.
    pub curve: Vec<(f64, f64)>,
    /// Young's modulus (GPa) from the initial slope.
    pub young_modulus_gpa: f64,
    /// Ultimate tensile strength (MPa).
    pub uts_mpa: f64,
    /// Engineering strain at failure.
    pub failure_strain: f64,
    /// Toughness — the area under the curve (kJ/m³).
    pub toughness_kj_m3: f64,
    /// Model-frame location of the first bond failure (the fracture
    /// origin, Fig. 9 of the paper).
    pub fracture_origin: Option<Point2>,
    /// Midpoints of every broken bond, in breaking order — the crack path.
    pub fracture_path: Vec<Point2>,
    /// Whether the specimen fully ruptured within the test window.
    pub ruptured: bool,
}

impl TensileResult {
    /// Derives the scalar metrics from a stress–strain curve.
    pub(crate) fn from_curve(
        curve: Vec<(f64, f64)>,
        fracture_path: Vec<Point2>,
        ruptured: bool,
    ) -> TensileResult {
        let fracture_origin = fracture_path.first().copied();
        let uts_mpa = curve.iter().map(|&(_, s)| s).fold(0.0, f64::max);

        // Young's modulus: least-squares slope over the initial segment
        // (stress below 40 % of UTS, at least 3 points).
        let early: Vec<(f64, f64)> = curve
            .iter()
            .copied()
            .take_while(|&(_, s)| s <= 0.4 * uts_mpa.max(1e-9))
            .collect();
        let pts: &[(f64, f64)] = if early.len() >= 3 { &early } else { &curve[..curve.len().min(4)] };
        let n = pts.len() as f64;
        let (sx, sy): (f64, f64) = pts.iter().fold((0.0, 0.0), |acc, &(x, y)| (acc.0 + x, acc.1 + y));
        let (sxx, sxy): (f64, f64) = pts
            .iter()
            .fold((0.0, 0.0), |acc, &(x, y)| (acc.0 + x * x, acc.1 + x * y));
        let denom = n * sxx - sx * sx;
        let slope_mpa = if denom.abs() < 1e-18 { 0.0 } else { (n * sxy - sx * sy) / denom };
        let young_modulus_gpa = slope_mpa / 1000.0;

        // Failure strain: last strain at which stress holds ≥ 25 % of UTS.
        let failure_strain = curve
            .iter()
            .rev()
            .find(|&&(_, s)| s >= 0.25 * uts_mpa)
            .map(|&(e, _)| e)
            .unwrap_or(0.0);

        // Toughness: trapezoidal area under the curve up to failure.
        // MPa × strain = MJ/m³ = 1000 kJ/m³.
        let mut toughness = 0.0;
        for w in curve.windows(2) {
            let (e0, s0) = w[0];
            let (e1, s1) = w[1];
            if e0 >= failure_strain {
                break;
            }
            toughness += 0.5 * (s0 + s1) * (e1 - e0);
        }
        let toughness_kj_m3 = toughness * 1000.0;

        TensileResult {
            curve,
            young_modulus_gpa,
            uts_mpa,
            failure_strain,
            toughness_kj_m3,
            fracture_origin,
            fracture_path,
            ruptured,
        }
    }
}

/// Mean ± standard deviation of one property across replicate specimens.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Stat {
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (n − 1 denominator; 0 for n ≤ 1).
    pub std: f64,
}

impl Stat {
    /// Computes a statistic over samples.
    pub fn from_samples(samples: &[f64]) -> Stat {
        if samples.is_empty() {
            return Stat::default();
        }
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let std = if samples.len() > 1 {
            (samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / (n - 1.0)).sqrt()
        } else {
            0.0
        };
        Stat { mean, std }
    }
}

impl std::fmt::Display for Stat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if let Some(prec) = f.precision() {
            write!(f, "{:.prec$}±{:.prec$}", self.mean, self.std)
        } else {
            write!(f, "{:.3}±{:.3}", self.mean, self.std)
        }
    }
}

/// Tensile-property summary across replicate specimens — one column of the
/// paper's Table 2.
#[derive(Debug, Clone, PartialEq)]
pub struct TensileSummary {
    /// Young's modulus (GPa).
    pub young_modulus_gpa: Stat,
    /// Ultimate tensile strength (MPa).
    pub uts_mpa: Stat,
    /// Failure strain.
    pub failure_strain: Stat,
    /// Toughness (kJ/m³).
    pub toughness_kj_m3: Stat,
    /// Number of specimens.
    pub specimens: usize,
}

impl TensileSummary {
    /// Summarizes a batch of replicate results.
    pub fn from_results(results: &[TensileResult]) -> TensileSummary {
        let collect = |f: fn(&TensileResult) -> f64| -> Vec<f64> { results.iter().map(f).collect() };
        TensileSummary {
            young_modulus_gpa: Stat::from_samples(&collect(|r| r.young_modulus_gpa)),
            uts_mpa: Stat::from_samples(&collect(|r| r.uts_mpa)),
            failure_strain: Stat::from_samples(&collect(|r| r.failure_strain)),
            toughness_kj_m3: Stat::from_samples(&collect(|r| r.toughness_kj_m3)),
            specimens: results.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_from_ideal_elastic_plastic_curve() {
        // Linear to (0.01, 30), plateau to (0.05, 30), rupture.
        let mut curve = vec![(0.0, 0.0)];
        for i in 1..=10 {
            curve.push((0.001 * i as f64, 3.0 * i as f64));
        }
        for i in 1..=40 {
            curve.push((0.01 + 0.001 * i as f64, 30.0));
        }
        curve.push((0.051, 0.0));
        let r = TensileResult::from_curve(curve, Vec::new(), true);
        assert!((r.young_modulus_gpa - 3.0).abs() < 0.3, "E = {}", r.young_modulus_gpa);
        assert_eq!(r.uts_mpa, 30.0);
        assert!((r.failure_strain - 0.05).abs() < 1e-9);
        // Area ≈ 30 × (0.05 − 0.005) = 1.35 MJ/m³ = 1350 kJ/m³.
        assert!((r.toughness_kj_m3 - 1350.0).abs() < 60.0, "U = {}", r.toughness_kj_m3);
    }

    #[test]
    fn stat_mean_and_std() {
        let s = Stat::from_samples(&[1.0, 2.0, 3.0]);
        assert_eq!(s.mean, 2.0);
        assert!((s.std - 1.0).abs() < 1e-12);
        assert_eq!(Stat::from_samples(&[5.0]).std, 0.0);
        assert_eq!(Stat::from_samples(&[]).mean, 0.0);
    }

    #[test]
    fn stat_display_respects_precision() {
        let s = Stat { mean: 1.23456, std: 0.04321 };
        assert_eq!(format!("{s:.2}"), "1.23±0.04");
    }

    #[test]
    fn summary_counts_specimens() {
        let r = TensileResult::from_curve(vec![(0.0, 0.0), (0.01, 20.0)], Vec::new(), false);
        let summary = TensileSummary::from_results(&[r.clone(), r]);
        assert_eq!(summary.specimens, 2);
        assert_eq!(summary.uts_mpa.std, 0.0);
    }
}
