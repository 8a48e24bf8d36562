//! Pipeline-level properties of the tensile stage under seeded faults.
//!
//! The two equilibrium solvers take different paths to the same
//! equilibria, so they agree to solver tolerance, not bit for bit; a
//! typed error, which the fault catalog raises upstream of the tensile
//! stage, must not depend on the solver at all. Thread-count identity
//! is pinned where the threads are: per kernel
//! (`parallel_tensile_is_bit_identical_to_serial`,
//! `crates/slicer/tests/properties.rs`, `span_plan_identity.rs`,
//! `golden_grid.rs`) and across batch thread budgets
//! (`batch_determinism.rs`).

use am_cad::parts::{prism_with_sphere, PrismDims};
use am_cad::{BodyKind, MaterialRemoval, Part};
use am_geom::Point3;
use am_mesh::Resolution;
use am_slicer::{Orientation, SlicerConfig};
use obfuscade::{run_pipeline_with_faults, FaultPlan, FeaSolver, ProcessPlan};
use proptest::prelude::*;

/// Fault specs spanning the catalog's stages: mesh damage, tool-path
/// corruption, slicer misconfiguration, firmware tampering — plus the
/// clean run. Each property case draws one and a fresh seed.
const FAULT_SPECS: &[&str] = &[
    "",
    "stl.degenerate=3",
    "stl.void=0.15 stl.flip=2",
    "toolpath.dup=0.5 toolpath.drop=0.2",
    "stl.drift=0.2:4 firmware.escape=250",
    "slicer.zero_layer toolpath.drop=0.5",
    "firmware.feed=1.5",
];

fn fault_plan(spec: &str, seed: u64) -> FaultPlan {
    if spec.is_empty() {
        FaultPlan::none().with_seed(seed)
    } else {
        spec.parse::<FaultPlan>().expect(spec).with_seed(seed)
    }
}

fn specimen(sphere_radius: f64) -> Part {
    let dims = PrismDims { size: Point3::new(25.4, 12.7, 12.7), sphere_radius };
    prism_with_sphere(&dims, BodyKind::Solid, MaterialRemoval::Without).expect("prism")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Solver equivalence at the pipeline level: for random specimens and
    /// seeded fault plans, the Newton–PCG tensile curve must land on the
    /// relaxation solver's equilibria to solver tolerance — same modulus,
    /// strength and toughness within loose engineering bounds, failure
    /// within a couple of strain steps. (Exact reference-kernel tracking
    /// is pinned crate-side in `am-fea`; this guards the wiring: config
    /// plumbing, pooled scratch reuse, warm starts.)
    #[test]
    fn newton_pcg_tracks_relaxation_through_the_pipeline(
        spec_idx in 0..FAULT_SPECS.len(),
        fault_seed in 1..10_000u64,
        orient_idx in 0..2usize,
        sphere_radius in 2.0..4.0f64,
    ) {
        let part = specimen(sphere_radius);
        let orientation = [Orientation::Xy, Orientation::Xz][orient_idx];
        let faults = fault_plan(FAULT_SPECS[spec_idx], fault_seed);
        let mut plan = ProcessPlan::fdm(Resolution::Coarse, orientation).with_tensile(true);
        plan.slicer = SlicerConfig {
            layer_height: 0.7,
            road_width: 0.7,
            analysis_cell: 0.35,
            ..SlicerConfig::default()
        };

        let run = |solver: FeaSolver| {
            let plan = plan.clone().with_fea_solver(solver);
            run_pipeline_with_faults(&part, &plan, &faults)
        };
        let (newton, relax) = (run(FeaSolver::NewtonPcg), run(FeaSolver::Relaxation));
        match (newton, relax) {
            (Ok(a), Ok(b)) => {
                prop_assert!(
                    a.tensile.is_some() && b.tensile.is_some(),
                    "tensile result missing from a run that requested it"
                );
                let (a, b) = (a.tensile.expect("checked"), b.tensile.expect("checked"));
                // Relative bounds with absolute floors: a fault plan can
                // leave a specimen that carries (almost) no load, where
                // both solvers report near-zero properties whose relative
                // difference is meaningless.
                let close = |x: f64, y: f64, rel: f64, floor: f64| {
                    (x - y).abs() < rel * x.abs().max(y.abs()) + floor
                };
                prop_assert!(
                    close(a.young_modulus_gpa, b.young_modulus_gpa, 2e-2, 0.01),
                    "E diverged: {} vs {}", a.young_modulus_gpa, b.young_modulus_gpa
                );
                prop_assert!(
                    close(a.uts_mpa, b.uts_mpa, 2e-2, 0.1),
                    "UTS diverged: {} vs {}", a.uts_mpa, b.uts_mpa
                );
                prop_assert!(
                    close(a.toughness_kj_m3, b.toughness_kj_m3, 5e-2, 5.0),
                    "toughness diverged: {} vs {}", a.toughness_kj_m3, b.toughness_kj_m3
                );
                // Failure within a couple of strain steps (0.0005 each
                // for the FDM config): break cascades may resolve a step
                // apart. Only meaningful when the specimen carries real
                // load — a fault-shattered gauge (UTS ≪ 1 MPa vs ~30 for
                // sound coupons) has path-dependent rubble equilibria no
                // solver pair agrees on, and the UTS check above already
                // catches any solver that erases genuine strength.
                if a.uts_mpa.max(b.uts_mpa) > 1.0 {
                    prop_assert!(
                        (a.failure_strain - b.failure_strain).abs() < 2.5 * 0.0005,
                        "failure strain diverged: {} vs {}", a.failure_strain, b.failure_strain
                    );
                }
            }
            // Typed errors must not depend on the tensile solver: the
            // fault catalog strikes upstream stages only.
            (a, b) => prop_assert_eq!(format!("{:?}", a), format!("{:?}", b)),
        }
    }
}
