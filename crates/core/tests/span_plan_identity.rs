//! Bit-identity of the production slicing and deposition kernels against
//! their reference oracles.
//!
//! Each case is a random sphere prism under one of five fault specs and
//! one of two build orientations, checked twice:
//!
//! * **Slicing.** The exported shells, damaged by the case's STL faults
//!   through the public [`obfuscade::StlFault::apply`], are sliced by the
//!   per-layer full-mesh scan ([`slice_shells_scan`], the oracle) and by
//!   the interval-sweep slicer the pipeline runs
//!   ([`try_slice_shells_with`]) at every thread budget in {1, 2, 4, 8}.
//! * **Deposition.** The pipeline's own faulted, firmware-vetted tool path
//!   ([`plan_toolpath`]) is deposited by the road-at-a-time reference
//!   loop ([`PrintedPart::try_from_toolpath_reference`], then support
//!   dissolution) and by the pipeline's deposition path
//!   ([`print_toolpath`], the span-plan kernel) at every thread budget in
//!   {1, 2, 4, 8}.
//!
//! Both checks compare complete `Debug` renderings. Rust prints `f64`s
//! shortest-round-trip, so one ULP of drift anywhere in a contour, the
//! voxel grid, or body attribution breaks the string equality.

use am_cad::parts::{prism_with_sphere, PrismDims};
use am_cad::{BodyKind, MaterialRemoval, Part};
use am_geom::Point3;
use am_mesh::{tessellate_shells, Resolution};
use am_par::Parallelism;
use am_printer::PrintedPart;
use am_slicer::{
    orient_shells, slice_shells_scan, try_slice_shells_with, Orientation, SlicerConfig,
};
use obfuscade::{
    plan_toolpath, print_toolpath, Deadline, FaultPlan, PipelineError, ProcessPlan, StageCache,
};
use proptest::prelude::*;

/// Fault specs spanning the catalog's stages, plus the clean run — the
/// same spread the thread-count determinism property uses. STL faults
/// reshape the mesh the slicers cut; tool-path faults (duplicated and
/// dropped roads) reshape the span plans the deposition kernel compiles.
const FAULT_SPECS: &[&str] = &[
    "",
    "stl.degenerate=3",
    "toolpath.dup=0.5 toolpath.drop=0.2",
    "stl.drift=0.2:4 firmware.escape=250",
    "slicer.zero_layer toolpath.drop=0.5",
];

const THREADS: [usize; 4] = [1, 2, 4, 8];

fn fault_plan(spec: &str, seed: u64) -> FaultPlan {
    if spec.is_empty() {
        FaultPlan::none().with_seed(seed)
    } else {
        spec.parse::<FaultPlan>().expect(spec).with_seed(seed)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn span_plan_matches_stamper_oracle_across_threads(
        spec_idx in 0..FAULT_SPECS.len(),
        fault_seed in 1..10_000u64,
        orient_idx in 0..2usize,
        layer in 0.5..0.9f64,
        sphere_radius in 2.0..4.0f64,
    ) {
        let dims = PrismDims { size: Point3::new(25.4, 12.7, 12.7), sphere_radius };
        let part: Part = prism_with_sphere(&dims, BodyKind::Solid, MaterialRemoval::Without)
            .expect("prism");
        let orientation = [Orientation::Xy, Orientation::Xz][orient_idx];
        let faults = fault_plan(FAULT_SPECS[spec_idx], fault_seed);
        let mut plan = ProcessPlan::fdm(Resolution::Coarse, orientation).with_tensile(false);
        plan.slicer = SlicerConfig {
            layer_height: layer,
            road_width: layer,
            analysis_cell: layer / 2.0,
            ..SlicerConfig::default()
        };

        // --- Slicing: per-layer scan oracle vs interval sweep -------------
        let resolved = part.resolve().expect("resolve");
        let mut shells = tessellate_shells(&resolved, &plan.resolution.params());
        for (i, fault) in faults.stl.iter().enumerate() {
            let seed = fault_seed.wrapping_add(i as u64);
            for shell in &mut shells {
                *shell = fault.apply(shell, seed).expect("STL fault");
            }
        }
        let oriented = orient_shells(&shells, orientation);
        let scanned = format!("{:?}", slice_shells_scan(&oriented, layer));
        for threads in THREADS {
            let swept = try_slice_shells_with(&oriented, layer, Parallelism::threads(threads));
            prop_assert_eq!(
                &scanned,
                &format!("{swept:?}"),
                "interval sweep at {} thread(s) diverged from the scan oracle \
                 (faults: {:?}, seed {})",
                threads,
                FAULT_SPECS[spec_idx],
                fault_seed
            );
        }

        // --- Deposition: reference loop vs the pipeline's print path ------
        // Specs whose faults abort the chain before a tool path exists
        // leave nothing to deposit.
        let cache = StageCache::default();
        if let Ok(planned) = plan_toolpath(&part, &plan, &faults, &cache, Deadline::none()) {
            let oracle = PrintedPart::try_from_toolpath_reference(
                &planned.toolpath,
                &plan.printer,
                planned.to_build,
                plan.seed,
            )
            .map(|mut printed| {
                printed.dissolve_support();
                printed
            })
            .map_err(PipelineError::Print);
            let oracle = format!("{oracle:?}");
            for threads in THREADS {
                let plan = plan.clone().with_parallelism(Parallelism::threads(threads));
                let printed = print_toolpath(&planned.toolpath, &plan, planned.to_build);
                prop_assert_eq!(
                    &oracle,
                    &format!("{printed:?}"),
                    "span-plan deposition at {} thread(s) diverged from the reference \
                     loop (faults: {:?}, seed {})",
                    threads,
                    FAULT_SPECS[spec_idx],
                    fault_seed
                );
            }
        }
    }
}
