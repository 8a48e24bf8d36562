//! Slice-level defect diagnosis (the Fig. 7a observable).
//!
//! The paper inspects the CatalystEX preview: in x-z orientation the sliced
//! spline-split model shows a **discontinuity** around the spline at every
//! STL resolution, while in x-y it shows none. This module quantifies that
//! observation on the analysis raster:
//!
//! * a layer whose model region is **disconnected** (≥ 2 raster components)
//!   shows an outright discontinuity;
//! * **internal void** cells measure sub-road-width crack pockets (the
//!   tessellation gaps that surface as texture disruption in Fig. 8).
//!
//! Both are computed on the layer's run-length rows (see `runs.rs`), never
//! on a cell grid: a layer costs O(rows + contour crossings) in time and
//! memory whatever the analysis cell size.

use am_geom::{Aabb2, Point2};

use crate::raster::layer_runs;
use crate::SlicedModel;

/// Defect metrics for one sliced model.
#[derive(Debug, Clone, PartialEq)]
pub struct SliceReport {
    /// Layers examined.
    pub layers: usize,
    /// Layers whose model region is disconnected by a near-zero gap.
    pub discontinuous_layers: usize,
    /// Largest component count seen in any layer.
    pub max_components: usize,
    /// Total internal-void cells across layers.
    pub internal_void_cells: usize,
    /// Total internal-void area (mm²) across layers.
    pub internal_void_area: f64,
    /// Cell size used for the analysis.
    pub cell: f64,
    /// Inter-body seam interface analysis (see [`SeamExposure`]).
    pub seam: Option<SeamExposure>,
}

impl SliceReport {
    /// `true` if the sliced model shows the split — the paper's Fig. 7a
    /// "discontinuity can be observed".
    ///
    /// Two mechanisms flag it:
    ///
    /// * layers whose cross-section is outright **disconnected** by a
    ///   near-zero gap (the lateral chord mismatch between the two bodies,
    ///   dominant at Coarse resolution in x-z);
    /// * an **exposed seam**: a narrow inter-body interface that shifts
    ///   laterally from layer to layer, so the abutting body walls form a
    ///   staircase traced on the part surface. This is resolution
    ///   independent — the diagonal spline moves the interface by
    ///   `|dx/dy| · layer height` every layer in x-z — whereas in x-y the
    ///   interface is a wide band in exact registry across layers, hidden
    ///   by the infill above and below.
    pub fn has_discontinuity(&self) -> bool {
        self.discontinuous_layers >= 2
            || self.seam.as_ref().is_some_and(SeamExposure::is_exposed)
    }
}

/// Geometry of the inter-body seam interface across layers.
///
/// An "interface" in a layer is the set of boundary vertices of one body's
/// contour lying within half a road width of a *different* body's contour —
/// the abutting cold-joint walls a planted split leaves behind.
#[derive(Debug, Clone, PartialEq)]
pub struct SeamExposure {
    /// Layers containing an inter-body interface.
    pub interface_layers: usize,
    /// Median in-plane width (max extent, mm) of the interface region per
    /// layer: narrow (≈ the part thickness) when layers cross the seam
    /// (x-z), wide (≈ the spline length) when the seam lies in-plane (x-y).
    pub median_span: f64,
    /// Mean lateral displacement (mm) of the interface centre between
    /// consecutive interface layers.
    pub mean_shift: f64,
}

impl SeamExposure {
    /// `true` if the seam is exposed as a surface staircase: a narrow
    /// interface that moves between layers.
    pub fn is_exposed(&self) -> bool {
        self.interface_layers >= 3 && self.median_span < 4.0 && self.mean_shift > 0.05
    }
}

/// Diagnoses a sliced model on a raster of the given cell size.
///
/// # Examples
///
/// ```no_run
/// use am_cad::parts::{tensile_bar_with_spline, TensileBarDims};
/// use am_mesh::{tessellate_shells, Resolution};
/// use am_slicer::{diagnose_slices, orient_shells, slice_shells, Orientation};
///
/// let part = tensile_bar_with_spline(&TensileBarDims::default())?.resolve()?;
/// let shells = tessellate_shells(&part, &Resolution::Coarse.params());
///
/// // x-z: layers cross the planted seam → discontinuity.
/// let standing = orient_shells(&shells, Orientation::Xz);
/// let report = diagnose_slices(&slice_shells(&standing, 0.1778), 0.05);
/// assert!(report.has_discontinuity());
///
/// // x-y: the seam lies in-plane and heals below road width → none.
/// let flat = orient_shells(&shells, Orientation::Xy);
/// let report = diagnose_slices(&slice_shells(&flat, 0.1778), 0.05);
/// assert!(!report.has_discontinuity());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn diagnose_slices(sliced: &SlicedModel, cell: f64) -> SliceReport {
    let bounds2 = Aabb2::new(
        Point2::new(sliced.bounds.min.x, sliced.bounds.min.y),
        Point2::new(sliced.bounds.max.x, sliced.bounds.max.y),
    )
    .inflated(cell * 1.5);

    let mut report = SliceReport {
        layers: sliced.layers.len(),
        discontinuous_layers: 0,
        max_components: 0,
        internal_void_cells: 0,
        internal_void_area: 0.0,
        cell,
        seam: seam_exposure(sliced, 0.3),
    };
    // A seam splits the cross-section into pieces that *almost touch*;
    // legitimately disjoint geometry (dogbone grips in x-z) is far apart.
    const SEAM_GAP_MM: f64 = 2.0;
    for layer in &sliced.layers {
        if layer.loops.is_empty() {
            continue;
        }
        let runs = layer_runs(layer, bounds2, cell, true);
        let connectivity = runs.connectivity();
        let components = connectivity.model_components;
        report.max_components = report.max_components.max(components);
        if components >= 2
            && runs.min_model_gap_cells().is_some_and(|g| g as f64 * cell <= SEAM_GAP_MM)
        {
            report.discontinuous_layers += 1;
        }
        let voids = connectivity.internal_void_cells;
        report.internal_void_cells += voids;
        report.internal_void_area += voids as f64 * cell * cell;
    }
    report
}

/// Computes the [`SeamExposure`] of a sliced model: per layer, collect the
/// contour vertices of each body lying within `interface_tol` of another
/// body's contour, then track the interface region's in-plane span and its
/// layer-to-layer drift.
///
/// Returns `None` if no layer has an inter-body interface (e.g. an intact
/// part, or bodies that never touch).
pub fn seam_exposure(sliced: &SlicedModel, interface_tol: f64) -> Option<SeamExposure> {
    let mut spans: Vec<f64> = Vec::new();
    let mut centers: Vec<Point2> = Vec::new();
    for layer in &sliced.layers {
        let mut matched: Vec<Point2> = Vec::new();
        for a in &layer.loops {
            for b in &layer.loops {
                if a.body == b.body {
                    continue;
                }
                for &v in a.polygon.vertices() {
                    if b.polygon.distance_to_boundary(v) <= interface_tol {
                        matched.push(v);
                    }
                }
            }
        }
        if matched.len() < 2 {
            continue;
        }
        let bbox = am_geom::Aabb2::from_points(matched.iter().copied())
            .expect("matched is non-empty");
        let size = bbox.size();
        spans.push(size.x.max(size.y));
        centers.push(bbox.center());
    }
    if spans.is_empty() {
        return None;
    }
    let mut sorted = spans.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite spans"));
    let median_span = sorted[sorted.len() / 2];
    let shifts: Vec<f64> = centers.windows(2).map(|w| w[0].distance(w[1])).collect();
    let mean_shift = if shifts.is_empty() {
        0.0
    } else {
        shifts.iter().sum::<f64>() / shifts.len() as f64
    };
    Some(SeamExposure { interface_layers: spans.len(), median_span, mean_shift })
}

#[cfg(test)]
mod tests {
    use super::*;
    use am_cad::parts::{tensile_bar, tensile_bar_with_spline, TensileBarDims};
    use am_geom::{Aabb3, Point3, Polygon2};
    use am_mesh::{tessellate_shells, Resolution};
    use crate::{orient_shells, slice_shells, Contour, Layer, Orientation};

    fn report(split: bool, orientation: Orientation, res: Resolution) -> SliceReport {
        let dims = TensileBarDims::default();
        let part = if split {
            tensile_bar_with_spline(&dims).unwrap().resolve().unwrap()
        } else {
            tensile_bar(&dims).unwrap().resolve().unwrap()
        };
        let shells = tessellate_shells(&part, &res.params());
        let oriented = orient_shells(&shells, orientation);
        diagnose_slices(&slice_shells(&oriented, 0.1778), 0.05)
    }

    #[test]
    fn intact_bar_clean_in_both_orientations() {
        for o in Orientation::ALL {
            let r = report(false, o, Resolution::Coarse);
            assert!(!r.has_discontinuity(), "{o}: {r:?}");
            assert!(r.seam.is_none(), "{o}: intact bar has no inter-body seam");
        }
    }

    #[test]
    fn split_bar_xz_discontinuous_at_all_resolutions() {
        // The paper's headline slicing result (Fig. 7a).
        for res in Resolution::ALL {
            let r = report(true, Orientation::Xz, res);
            assert!(r.has_discontinuity(), "{res}: {r:?}");
        }
    }

    #[test]
    fn split_bar_xy_not_discontinuous() {
        for res in Resolution::ALL {
            let r = report(true, Orientation::Xy, res);
            assert!(!r.has_discontinuity(), "{res}: {r:?}");
        }
    }

    #[test]
    fn fine_cell_diagnosis_needs_no_cell_grid() {
        // One 254 × 127 mm layer at a 0.001 mm cell: a cell grid would
        // hold 32 G cells (an allocation abort, not an error), while the
        // run rows hold three runs for each of its 127 k rows.
        let layer = Layer {
            z: 0.05,
            loops: vec![Contour {
                polygon: Polygon2::rectangle(Point2::ZERO, Point2::new(254.0, 127.0)),
                body: 0,
            }],
            open_paths: Vec::new(),
        };
        let sliced = SlicedModel {
            layers: vec![layer],
            layer_height: 0.1,
            bounds: Aabb3::new(Point3::ZERO, Point3::new(254.0, 127.0, 0.1)),
        };
        let r = diagnose_slices(&sliced, 0.001);
        assert_eq!((r.max_components, r.internal_void_cells, r.discontinuous_layers), (1, 0, 0));
    }

    #[test]
    fn split_bar_xy_coarse_leaves_crack_pockets() {
        // The Fig. 8a surface-disruption precursor: sub-road-width pockets
        // along the seam at Coarse, vanishing at higher resolutions.
        let coarse = report(true, Orientation::Xy, Resolution::Coarse);
        let custom = report(true, Orientation::Xy, Resolution::Custom);
        assert!(
            coarse.internal_void_cells > custom.internal_void_cells,
            "coarse {} vs custom {}",
            coarse.internal_void_cells,
            custom.internal_void_cells
        );
    }
}
