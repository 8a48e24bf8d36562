//! Golden-fixture pins for the deposition kernels (ISSUE 7).
//!
//! Two reference toolpaths, the reference kernel and the span-plan kernel
//! at threads {1, 4}: every combination must reproduce the pinned 128-bit
//! grid digest exactly. This is the cheap tripwire in front of the
//! bit-identity proptest — any deposition drift (a reordered RNG draw, a
//! changed margin, a span boundary off by one voxel) fails this in
//! milliseconds without rerunning the property suite. If a change is
//! *supposed* to alter deposition output, re-pin the digests in the same
//! commit and say why.

use am_cad::parts::{intact_prism, prism_with_sphere, PrismDims};
use am_cad::{BodyKind, MaterialRemoval};
use am_mesh::{tessellate_shells, Resolution};
use am_par::Parallelism;
use am_printer::{PrintedPart, PrinterProfile};
use am_slicer::{
    build_transform, generate_toolpath, orient_shells, slice_shells, Orientation, SlicerConfig,
    ToolPath,
};
use am_geom::Transform3;

fn toolpath_for(part: &am_cad::ResolvedPart, orientation: Orientation) -> (ToolPath, Transform3) {
    let shells = tessellate_shells(part, &Resolution::Coarse.params());
    let oriented = orient_shells(&shells, orientation);
    let to_build = build_transform(&shells, orientation);
    let sliced = slice_shells(&oriented, 0.1778);
    (generate_toolpath(&sliced, &SlicerConfig::default()), to_build)
}

/// The two pinned reference workloads: a plain prism printed flat and a
/// support-heavy sphere cavity printed on edge (different layer mix,
/// support material, and body structure).
fn fixtures() -> Vec<(&'static str, ToolPath, Transform3)> {
    let dims = PrismDims::default();
    let prism = intact_prism(&dims).resolve().expect("prism");
    let (tp_a, to_a) = toolpath_for(&prism, Orientation::Xy);
    let sphere = prism_with_sphere(&dims, BodyKind::Solid, MaterialRemoval::Without)
        .expect("part")
        .resolve()
        .expect("resolve");
    let (tp_b, to_b) = toolpath_for(&sphere, Orientation::Xz);
    vec![("prism/xy", tp_a, to_a), ("sphere/xz", tp_b, to_b)]
}

const GOLDEN: [(&str, u128); 2] = [
    ("prism/xy", 0x8d47715e188a003adea1eb9e957fae8d),
    ("sphere/xz", 0x0dc20ba884ec9b277879833de475d43c),
];

#[test]
fn golden_grid_digests_are_stable() {
    let profile = PrinterProfile::dimension_elite();
    for (name, toolpath, to_build) in fixtures() {
        let expected = GOLDEN
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, d)| d)
            .expect("fixture has a pinned digest");
        let reference =
            PrintedPart::try_from_toolpath_reference(&toolpath, &profile, to_build, 42)
                .expect("reference print");
        assert_eq!(
            reference.grid_digest(),
            expected,
            "{name}: reference stamper drifted from pin ({:#034x})",
            reference.grid_digest()
        );
        for threads in [1, 4] {
            let planned = PrintedPart::try_from_toolpath_planned(
                &toolpath,
                &profile,
                to_build,
                42,
                Parallelism::threads(threads),
            )
            .expect("planned print");
            assert_eq!(
                planned.grid_digest(),
                expected,
                "{name}: span-plan kernel at {threads} thread(s) drifted from pin"
            );
        }
    }
}
