//! Golden `SliceReport` pins: the complete slice diagnosis — every field,
//! floats compared as bits, the seam exposure included — for the Table 2
//! tensile bars and two Table 3 sphere keys, each run through the
//! pipeline at native FDM settings.
//!
//! The values were recorded from the per-cell flood-fill diagnosis that
//! the run-based one replaced; any drift in the component, void or
//! seam-gap rules shows up here as a changed count or a changed bit.

use am_cad::{BodyKind, MaterialRemoval, Part};
use am_mesh::Resolution;
use am_slicer::{Orientation, SliceReport};
use obfuscade::{run_pipeline, CadRecipe, EmbeddedSphereScheme, ProcessPlan, SplineSplitScheme};

/// `SliceReport` with every float as its bit pattern:
/// `(layers, discontinuous_layers, max_components, internal_void_cells,
/// internal_void_area bits, cell bits, seam)`, where `seam` is
/// `(interface_layers, median_span bits, mean_shift bits)`.
type Pin = (usize, usize, usize, usize, u64, u64, Option<(usize, u64, u64)>);

/// Bits of the native FDM analysis cell, 0.05 mm.
const CELL: u64 = 4587366580439587226;

fn pin(report: &SliceReport) -> Pin {
    (
        report.layers,
        report.discontinuous_layers,
        report.max_components,
        report.internal_void_cells,
        report.internal_void_area.to_bits(),
        report.cell.to_bits(),
        report
            .seam
            .as_ref()
            .map(|s| (s.interface_layers, s.median_span.to_bits(), s.mean_shift.to_bits())),
    )
}

fn slice_pin(part: &Part, resolution: Resolution, orientation: Orientation) -> Pin {
    let output = run_pipeline(part, &ProcessPlan::fdm(resolution, orientation)).unwrap();
    pin(&output.slice_report)
}

#[test]
fn tensile_bar_slice_reports_are_pinned() {
    let scheme = SplineSplitScheme::default();
    let split = scheme.protected_part().unwrap();
    let intact = scheme.genuine_part().unwrap();
    let cases: [(&Part, Orientation, Pin); 4] = [
        (
            &split,
            Orientation::Xy,
            (18, 0, 1, 1638, 4616296578545908449, CELL, Some((18, 4625759767262920704, 0))),
        ),
        (
            &split,
            Orientation::Xz,
            (
                107,
                14,
                3,
                0,
                0,
                CELL,
                Some((33, 4614388178203810204, 4603125122316135692)),
            ),
        ),
        (&intact, Orientation::Xy, (18, 0, 1, 0, 0, CELL, None)),
        (&intact, Orientation::Xz, (107, 0, 2, 0, 0, CELL, None)),
    ];
    for (part, orientation, expected) in cases {
        assert_eq!(
            slice_pin(part, Resolution::Coarse, orientation),
            expected,
            "{} {orientation}",
            part.name()
        );
    }
}

#[test]
fn sphere_key_slice_reports_are_pinned() {
    let scheme = EmbeddedSphereScheme::default();
    let cases: [(CadRecipe, Resolution, Orientation, Pin); 2] = [
        (
            CadRecipe { removal: MaterialRemoval::With, body: BodyKind::Solid },
            Resolution::Custom,
            Orientation::Xz,
            (71, 0, 1, 0, 0, CELL, Some((36, 4617909340331236000, 4382191863458303317))),
        ),
        (
            CadRecipe { removal: MaterialRemoval::Without, body: BodyKind::Surface },
            Resolution::Fine,
            Orientation::Xy,
            (71, 0, 1, 0, 0, CELL, None),
        ),
    ];
    for (recipe, resolution, orientation, expected) in cases {
        let part = scheme.part_for_recipe(recipe).unwrap();
        assert_eq!(
            slice_pin(&part, resolution, orientation),
            expected,
            "{recipe:?} {resolution} {orientation}"
        );
    }
}
