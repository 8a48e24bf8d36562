//! Virtual tensile test configuration.

use std::fmt;
use std::str::FromStr;

use am_slicer::Orientation;

/// Equilibrium solver used by the production tensile kernel
/// ([`crate::SolverPool::run`], [`crate::run_tensile_test_with`]).
///
/// Both solvers share the constitutive law and the force-residual
/// convergence tolerance, so they land on the same equilibrium to within
/// the solver tolerance; they differ only in how they get there (and how
/// fast). The original scalar kernel,
/// [`crate::run_tensile_test_reference`], is not part of this enum: no
/// production path runs it. It is the oracle the solver-tracking tests
/// compare both solvers against, and the fea row's baseline in
/// `obfuscade bench`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FeaSolver {
    /// Matrix-free Newton–PCG: outer Newton iterations over the
    /// piecewise-linear constitutive law, inner Jacobi-preconditioned
    /// conjugate gradient with deterministic Hessian-vector products. The
    /// default since it converges in a handful of force evaluations per
    /// strain step where relaxation needs hundreds.
    #[default]
    NewtonPcg,
    /// Mass-scaled damped dynamic relaxation (the PR 2 kernel). Kept as a
    /// selectable fallback and as the Newton solver's safety net when a
    /// Newton step stalls.
    Relaxation,
}

impl FeaSolver {
    /// Every solver variant, for sweeps and CLI listings.
    pub const ALL: [FeaSolver; 2] = [FeaSolver::NewtonPcg, FeaSolver::Relaxation];

    /// Stable kebab-case name (the CLI `--solver` vocabulary).
    pub fn name(self) -> &'static str {
        match self {
            FeaSolver::NewtonPcg => "newton-pcg",
            FeaSolver::Relaxation => "relaxation",
        }
    }
}

impl fmt::Display for FeaSolver {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for FeaSolver {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "newton-pcg" | "newton_pcg" | "newton" => Ok(FeaSolver::NewtonPcg),
            "relaxation" | "relax" => Ok(FeaSolver::Relaxation),
            other => Err(format!("unknown FEA solver '{other}' (expected newton-pcg or relaxation)")),
        }
    }
}

/// A [`TensileConfig`] field that failed validation.
///
/// Mirrors the slicer/printer config error taxonomy: every variant names
/// the offending field and carries the rejected value so diagnostics can be
/// surfaced without string matching.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum FeaConfigError {
    /// A field that must be strictly positive (and finite) was not.
    NonPositive {
        /// Field name.
        name: &'static str,
        /// Rejected value.
        value: f64,
    },
    /// A factor fell outside its admissible half-open range.
    OutOfRange {
        /// Field name.
        name: &'static str,
        /// Rejected value.
        value: f64,
        /// Inclusive lower bound.
        min: f64,
        /// Exclusive upper bound.
        max: f64,
    },
    /// `node_spacing` is too large to resolve the gauge cross-section
    /// (must be < `gauge_width / 4`).
    LatticeTooCoarse {
        /// Rejected node spacing (mm).
        node_spacing: f64,
        /// Gauge width it failed to resolve (mm).
        gauge_width: f64,
    },
}

impl fmt::Display for FeaConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FeaConfigError::NonPositive { name, value } => {
                write!(f, "{name} must be positive and finite, got {value}")
            }
            FeaConfigError::OutOfRange { name, value, min, max } => {
                write!(f, "{name} out of range [{min}, {max}): {value}")
            }
            FeaConfigError::LatticeTooCoarse { node_spacing, gauge_width } => {
                write!(
                    f,
                    "lattice too coarse for the gauge: node_spacing {node_spacing} must be < gauge_width / 4 = {}",
                    gauge_width / 4.0
                )
            }
        }
    }
}

impl std::error::Error for FeaConfigError {}

/// Configuration of the virtual tensile test: gauge sampling geometry plus
/// the bond-quality calibration of the deposition process.
///
/// The road/layer factors encode FDM meso-structure the 2-D lattice cannot
/// resolve directly (road continuity along the load axis, inter-road joints
/// in cross-hatched layers). They are calibrated once per process ×
/// orientation against the paper's intact-specimen columns of Table 2 and
/// then held fixed for every protected specimen — so the *spline* columns
/// are predictions, not fits.
#[derive(Debug, Clone, PartialEq)]
pub struct TensileConfig {
    /// Lattice node spacing (mm).
    pub node_spacing: f64,
    /// Gauge length between grips (mm).
    pub gauge_length: f64,
    /// Gauge width (mm).
    pub gauge_width: f64,
    /// Specimen thickness (mm).
    pub thickness: f64,
    /// Maximum applied engineering strain.
    pub max_strain: f64,
    /// Strain increment per load step.
    pub strain_step: f64,
    /// Strength factor of in-plane (road) bonds.
    pub road_strength: f64,
    /// Ductility factor of in-plane (road) bonds.
    pub road_ductility: f64,
    /// Ductility factor of stacking-direction (layer) bonds.
    pub layer_ductility: f64,
    /// Cold-joint contact fraction (1.0 = perfect seam contact); supplied
    /// by the pipeline from the tessellation-gap analysis.
    pub joint_contact: f64,
    /// Relative 1σ jitter applied to bond strength/ductility (specimen
    /// scatter).
    pub noise: f64,
    /// Post-yield tangent stiffness as a fraction of the elastic stiffness
    /// (linear hardening keeps plastic flow stable until bonds break).
    pub hardening_ratio: f64,
    /// Homogenization correction mapping bond yield level to the lattice's
    /// engineering yield stress (calibrated once on the intact x-y
    /// specimen).
    pub yield_calibration: f64,
    /// Homogenization correction mapping bond stiffness to the lattice's
    /// engineering modulus (the sampled lattice is ~0.6× as stiff as the
    /// continuum; calibrated once on the intact x-y specimen).
    pub modulus_calibration: f64,
    /// Equilibrium solver for the optimized kernel. Does not affect the
    /// lattice model — both solvers converge to the same equilibrium within
    /// the solver tolerance — but it *is* part of the result's provenance
    /// and keys the pipeline's stage cache.
    pub solver: FeaSolver,
}

impl TensileConfig {
    /// Calibration for FDM prints laid flat (x-y): every layer's roads lie
    /// in the load plane, alternating 0°/90°, so the load path crosses
    /// inter-road joints — moderate ductility.
    pub fn fdm_xy() -> Self {
        TensileConfig {
            node_spacing: 0.4,
            gauge_length: 33.0,
            gauge_width: 6.0,
            thickness: 3.2,
            max_strain: 0.12,
            strain_step: 0.0005,
            road_strength: 0.88,
            road_ductility: 0.48,
            layer_ductility: 0.45,
            joint_contact: 1.0,
            noise: 0.04,
            hardening_ratio: 0.02,
            yield_calibration: 1.45,
            modulus_calibration: 1.60,
            solver: FeaSolver::NewtonPcg,
        }
    }

    /// Calibration for FDM prints standing on edge (x-z): the long roads
    /// run along the load axis without cross-hatching joints — high
    /// ductility; the width direction carries the (weaker) layer bonds.
    pub fn fdm_xz() -> Self {
        TensileConfig {
            road_strength: 0.88,
            road_ductility: 1.45,
            layer_ductility: 0.70,
            ..TensileConfig::fdm_xy()
        }
    }

    /// Calibration for the given FDM orientation.
    pub fn fdm(orientation: Orientation) -> Self {
        match orientation {
            Orientation::Xy => TensileConfig::fdm_xy(),
            Orientation::Xz => TensileConfig::fdm_xz(),
        }
    }

    /// Validates the configuration, reporting the first offending field.
    ///
    /// Replaces the old panicking `assert_valid`: same checks, same order,
    /// but typed — the pipeline maps the error into its staged diagnostics
    /// instead of unwinding.
    pub fn validate(&self) -> Result<(), FeaConfigError> {
        for (name, v) in [
            ("node_spacing", self.node_spacing),
            ("gauge_length", self.gauge_length),
            ("gauge_width", self.gauge_width),
            ("thickness", self.thickness),
            ("max_strain", self.max_strain),
            ("strain_step", self.strain_step),
        ] {
            if !(v > 0.0 && v.is_finite()) {
                return Err(FeaConfigError::NonPositive { name, value: v });
            }
        }
        for (name, v) in [
            ("road_strength", self.road_strength),
            ("road_ductility", self.road_ductility),
            ("layer_ductility", self.layer_ductility),
            ("joint_contact", self.joint_contact),
        ] {
            if !(v > 0.0 && v <= 2.0) {
                return Err(FeaConfigError::OutOfRange { name, value: v, min: 0.0, max: 2.0 });
            }
        }
        if !(0.0..0.5).contains(&self.noise) {
            return Err(FeaConfigError::OutOfRange { name: "noise", value: self.noise, min: 0.0, max: 0.5 });
        }
        if !(0.0..1.0).contains(&self.hardening_ratio) {
            return Err(FeaConfigError::OutOfRange {
                name: "hardening_ratio",
                value: self.hardening_ratio,
                min: 0.0,
                max: 1.0,
            });
        }
        for (name, v) in
            [("yield_calibration", self.yield_calibration), ("modulus_calibration", self.modulus_calibration)]
        {
            if !(v > 0.0 && v.is_finite()) {
                return Err(FeaConfigError::NonPositive { name, value: v });
            }
        }
        if self.node_spacing >= self.gauge_width / 4.0 {
            return Err(FeaConfigError::LatticeTooCoarse {
                node_spacing: self.node_spacing,
                gauge_width: self.gauge_width,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        TensileConfig::fdm_xy().validate().expect("xy preset");
        TensileConfig::fdm_xz().validate().expect("xz preset");
    }

    #[test]
    fn xz_is_more_ductile_than_xy() {
        assert!(TensileConfig::fdm_xz().road_ductility > TensileConfig::fdm_xy().road_ductility);
    }

    #[test]
    fn coarse_lattice_rejected() {
        let err = TensileConfig { node_spacing: 5.0, ..TensileConfig::fdm_xy() }
            .validate()
            .expect_err("coarse lattice must fail");
        assert_eq!(err, FeaConfigError::LatticeTooCoarse { node_spacing: 5.0, gauge_width: 6.0 });
    }

    #[test]
    fn bad_fields_report_typed_errors() {
        let err = TensileConfig { gauge_length: f64::NAN, ..TensileConfig::fdm_xy() }
            .validate()
            .expect_err("NaN gauge length must fail");
        assert!(matches!(err, FeaConfigError::NonPositive { name: "gauge_length", .. }));

        let err = TensileConfig { noise: 0.9, ..TensileConfig::fdm_xy() }
            .validate()
            .expect_err("noise above range must fail");
        assert!(matches!(err, FeaConfigError::OutOfRange { name: "noise", .. }));
        assert!(err.to_string().contains("noise"), "display names the field: {err}");
    }

    #[test]
    fn solver_round_trips_through_names() {
        for solver in FeaSolver::ALL {
            assert_eq!(solver.name().parse::<FeaSolver>().expect("round trip"), solver);
        }
        assert!("fancy".parse::<FeaSolver>().is_err());
        assert_eq!(FeaSolver::default(), FeaSolver::NewtonPcg);
    }
}
