//! Tool-path generation: raster layers → deposition roads.

use std::fmt;

use am_geom::{Point2, Polygon2};

use crate::{CellMaterial, RasterLayer, SlicedModel, SlicerConfig};

/// Which extruder a road uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ToolMaterial {
    /// Build material (e.g. ABS / VeroClear).
    Model,
    /// Dissolvable support material.
    Support,
}

impl fmt::Display for ToolMaterial {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ToolMaterial::Model => write!(f, "model"),
            ToolMaterial::Support => write!(f, "support"),
        }
    }
}

/// The role of a road in the layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RoadKind {
    /// Contour-following outline road.
    Perimeter,
    /// Interior raster fill road.
    Infill,
}

/// One deposited road: a straight extrusion move at a fixed height.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Road {
    /// Start of the road.
    pub from: Point2,
    /// End of the road.
    pub to: Point2,
    /// Layer height (z) of the road.
    pub z: f64,
    /// Extruder used.
    pub material: ToolMaterial,
    /// Role of the road.
    pub kind: RoadKind,
    /// Source body (shell) of the road, when it belongs to exactly one.
    /// Roads of different bodies never fuse into one — the cold-joint
    /// semantics a planted split exploits.
    pub body: Option<u16>,
}

impl Road {
    /// Road length (mm).
    pub fn length(&self) -> f64 {
        self.from.distance(self.to)
    }
}

/// A full part program: every road of every layer, in deposition order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ToolPath {
    /// Roads in deposition order (bottom layer first).
    pub roads: Vec<Road>,
    /// Layer height the roads were planned for.
    pub layer_height: f64,
    /// Road (bead) width.
    pub road_width: f64,
}

impl ToolPath {
    /// Total road length for one material (mm).
    pub fn total_length(&self, material: ToolMaterial) -> f64 {
        self.roads.iter().filter(|r| r.material == material).map(Road::length).sum()
    }

    /// Deposited volume estimate for one material (mm³): length × road
    /// cross-section.
    pub fn material_volume(&self, material: ToolMaterial) -> f64 {
        self.total_length(material) * self.road_width * self.layer_height
    }

    /// Estimated print time in seconds at the given head feed rate (mm/s),
    /// including a fixed per-layer overhead.
    ///
    /// # Panics
    ///
    /// Panics if the feed rate is not positive and finite. Prefer
    /// [`ToolPath::try_print_time_estimate`] in library code.
    pub fn print_time_estimate(&self, feed_mm_per_s: f64) -> f64 {
        match self.try_print_time_estimate(feed_mm_per_s) {
            Some(t) => t,
            None => panic!("feed rate must be positive, got {feed_mm_per_s}"),
        }
    }

    /// Estimated print time like [`ToolPath::print_time_estimate`], or
    /// `None` when the feed rate is not positive and finite.
    pub fn try_print_time_estimate(&self, feed_mm_per_s: f64) -> Option<f64> {
        if !(feed_mm_per_s.is_finite() && feed_mm_per_s > 0.0) {
            return None;
        }
        let travel: f64 = self.roads.iter().map(Road::length).sum();
        Some(travel / feed_mm_per_s + self.layer_count() as f64 * 2.0)
    }

    /// Number of distinct layers with at least one road. Roads of one layer
    /// share their `z` exactly, so distinctness is exact.
    pub fn layer_count(&self) -> usize {
        self.roads
            .iter()
            .map(|r| r.z.to_bits())
            .collect::<std::collections::HashSet<_>>()
            .len()
    }
}

/// Generates the part program for a sliced model.
///
/// Per layer: one perimeter road loop per contour (inset by half a road
/// width), then raster infill over the model cells and support cells, with
/// the raster direction alternating x/y between layers (FDM-style
/// cross-hatching).
///
/// # Examples
///
/// ```
/// use am_cad::parts::{intact_prism, PrismDims};
/// use am_mesh::{tessellate_shells, Resolution};
/// use am_slicer::{generate_toolpath, slice_shells, SlicerConfig, ToolMaterial};
///
/// let part = intact_prism(&PrismDims::default()).resolve()?;
/// let shells = tessellate_shells(&part, &Resolution::Fine.params());
/// let sliced = slice_shells(&shells, 0.1778);
/// let tp = generate_toolpath(&sliced, &SlicerConfig::default());
/// assert!(tp.total_length(ToolMaterial::Model) > 0.0);
/// assert_eq!(tp.total_length(ToolMaterial::Support), 0.0); // solid prism
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn generate_toolpath(sliced: &SlicedModel, config: &SlicerConfig) -> ToolPath {
    match try_generate_toolpath(sliced, config) {
        Ok(tp) => tp,
        Err(e) => panic!("{e}"),
    }
}

/// Largest supported raster-cell count across all layers: a
/// resource-exhaustion guard against corrupted road widths demanding an
/// absurd grid.
pub const MAX_RASTER_CELLS: u64 = 1 << 28;

/// A tool-path request rejected by [`try_generate_toolpath`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ToolpathError {
    /// The slicer configuration failed validation.
    Config(crate::ConfigError),
    /// Rasterizing the layers at this road width would demand an absurd
    /// number of cells.
    RasterTooLarge {
        /// Estimated total cell count.
        estimated_cells: u64,
        /// The supported maximum.
        max: u64,
    },
}

impl fmt::Display for ToolpathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ToolpathError::Config(e) => write!(f, "invalid slicer configuration: {e}"),
            ToolpathError::RasterTooLarge { estimated_cells, max } => write!(
                f,
                "rasterization needs ~{estimated_cells} cells, exceeding the supported {max}"
            ),
        }
    }
}

impl std::error::Error for ToolpathError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ToolpathError::Config(e) => Some(e),
            _ => None,
        }
    }
}

impl From<crate::ConfigError> for ToolpathError {
    fn from(e: crate::ConfigError) -> Self {
        ToolpathError::Config(e)
    }
}

/// Generates the part program like [`generate_toolpath`], returning a typed
/// error instead of panicking on a bad configuration.
///
/// # Errors
///
/// [`ToolpathError::Config`] when [`SlicerConfig::validate`] rejects the
/// configuration; [`ToolpathError::RasterTooLarge`] when the layer extents
/// divided by the road width would exceed `MAX_RASTER_CELLS` raster cells.
pub fn try_generate_toolpath(
    sliced: &SlicedModel,
    config: &SlicerConfig,
) -> Result<ToolPath, ToolpathError> {
    config.validate()?;
    // Bound the raster before allocating: config validation caps the road
    // width's *scale*, but the model bounds come from possibly-corrupted
    // geometry.
    let span_x = (sliced.bounds.max.x - sliced.bounds.min.x).max(0.0);
    let span_y = (sliced.bounds.max.y - sliced.bounds.min.y).max(0.0);
    let per_layer = (span_x / config.road_width + 2.0).ceil() * (span_y / config.road_width + 2.0).ceil();
    let estimated = per_layer * sliced.layers.len() as f64;
    if !estimated.is_finite() || estimated > MAX_RASTER_CELLS as f64 {
        return Err(ToolpathError::RasterTooLarge {
            estimated_cells: estimated.min(u64::MAX as f64) as u64,
            max: MAX_RASTER_CELLS,
        });
    }

    let rasters = crate::rasterize(sliced, config.road_width, config.support);
    let mut roads = Vec::new();

    for (layer_idx, (layer, raster)) in sliced.layers.iter().zip(&rasters).enumerate() {
        // Perimeters from the contour loops (per body, like CatalystEX:
        // every closed contour gets its own wall). A cavity loop's wall is
        // deposited together with the *enclosing* material, so it inherits
        // the body of the smallest positive contour containing it — a bolt
        // hole's rim is not a separate body.
        for contour in &layer.loops {
            let body = if contour.polygon.signed_area() > 0.0 {
                Some(contour.body.min(u16::MAX as usize - 1) as u16)
            } else {
                let probe = contour.polygon.vertices()[0];
                layer
                    .loops
                    .iter()
                    .filter(|c| {
                        c.polygon.signed_area() > 0.0 && c.polygon.winding_number(probe) != 0
                    })
                    .min_by(|a, b| {
                        // Total order so a corrupted (NaN-area) contour can
                        // never panic the planner; NaNs sort as equal.
                        a.polygon
                            .area()
                            .partial_cmp(&b.polygon.area())
                            .unwrap_or(std::cmp::Ordering::Equal)
                    })
                    .map(|c| c.body.min(u16::MAX as usize - 1) as u16)
            };
            push_perimeter(&mut roads, &contour.polygon, layer.z, config.road_width, body);
        }
        // Raster infill, alternating direction per layer. Sparse styles
        // skip rows; the bottom and top few layers stay solid (standard
        // slicer behaviour, and what keeps sparse parts visually identical
        // from outside).
        let along_x = layer_idx % 2 == 0;
        let solid_skin = layer_idx < 3 || layer_idx + 3 >= sliced.layers.len();
        let row_step = if solid_skin { 1 } else { config.infill.row_step() };
        push_infill(&mut roads, raster, along_x, row_step);
    }

    Ok(ToolPath { roads, layer_height: sliced.layer_height, road_width: config.road_width })
}

fn push_perimeter(
    roads: &mut Vec<Road>,
    poly: &Polygon2,
    z: f64,
    road_width: f64,
    body: Option<u16>,
) {
    // Inset the outline by half a road so the bead's outer edge lands on
    // the true surface. CW (cavity) loops inset outward into the material
    // automatically because offset() is winding-aware.
    let inset = poly.offset(-road_width / 2.0);
    for seg in inset.segments() {
        roads.push(Road {
            from: seg.start,
            to: seg.end,
            z,
            material: ToolMaterial::Model,
            kind: RoadKind::Perimeter,
            body,
        });
    }
}

fn push_infill(roads: &mut Vec<Road>, raster: &RasterLayer, along_x: bool, row_step: usize) {
    let (nx, ny) = raster.dims();
    // A run is a maximal sequence of cells with the same material AND the
    // same body: infill roads stop at body boundaries (cold joints).
    type RunKey = (CellMaterial, Option<u16>);
    let emit_run = |key: RunKey, from: Point2, to: Point2, z: f64, roads: &mut Vec<Road>| {
        let tool = match key.0 {
            CellMaterial::Model => ToolMaterial::Model,
            CellMaterial::Support => ToolMaterial::Support,
            CellMaterial::Empty => return,
        };
        roads.push(Road { from, to, z, material: tool, kind: RoadKind::Infill, body: key.1 });
    };

    // Walk the raw row-major storage directly: along-x rows are contiguous
    // slices, along-y columns stride by `nx`. Same run boundaries as the
    // old per-cell `at`/`body_at` walk, without a bounds assert per cell.
    let cells = raster.cells_raw();
    let bodies = raster.bodies_raw();
    let key_at = |idx: usize| -> RunKey {
        let b = bodies[idx];
        (cells[idx], (b != u16::MAX).then_some(b))
    };

    if along_x {
        for j in (0..ny).step_by(row_step.max(1)) {
            let row = j * nx;
            let mut run_start: Option<(RunKey, usize)> = None;
            for i in 0..=nx {
                let key: RunKey =
                    if i < nx { key_at(row + i) } else { (CellMaterial::Empty, None) };
                match run_start {
                    Some((k, s)) if k != key => {
                        let from = raster.cell_center(s, j);
                        let to = raster.cell_center(i - 1, j);
                        emit_run(k, from, to, raster.z(), roads);
                        run_start = (key.0 != CellMaterial::Empty).then_some((key, i));
                    }
                    None if key.0 != CellMaterial::Empty => run_start = Some((key, i)),
                    _ => {}
                }
            }
        }
    } else {
        for i in (0..nx).step_by(row_step.max(1)) {
            let mut run_start: Option<(RunKey, usize)> = None;
            for j in 0..=ny {
                let key: RunKey =
                    if j < ny { key_at(j * nx + i) } else { (CellMaterial::Empty, None) };
                match run_start {
                    Some((k, s)) if k != key => {
                        let from = raster.cell_center(i, s);
                        let to = raster.cell_center(i, j - 1);
                        emit_run(k, from, to, raster.z(), roads);
                        run_start = (key.0 != CellMaterial::Empty).then_some((key, j));
                    }
                    None if key.0 != CellMaterial::Empty => run_start = Some((key, j)),
                    _ => {}
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use am_cad::parts::{prism_with_sphere, PrismDims};
    use am_cad::{BodyKind, MaterialRemoval};
    use am_mesh::{tessellate_shells, Resolution};
    use crate::slice_shells;

    fn prism_toolpath(kind: BodyKind, removal: MaterialRemoval) -> ToolPath {
        let dims = PrismDims::default();
        let part = prism_with_sphere(&dims, kind, removal).unwrap().resolve().unwrap();
        let shells = tessellate_shells(&part, &Resolution::Coarse.params());
        let sliced = slice_shells(&shells, 0.1778);
        generate_toolpath(&sliced, &SlicerConfig::default())
    }

    #[test]
    fn embedded_sphere_generates_support_roads() {
        let tp = prism_toolpath(BodyKind::Solid, MaterialRemoval::Without);
        assert!(tp.total_length(ToolMaterial::Support) > 0.0);
        // Support volume should approximate the sphere volume.
        let sphere_vol = 4.0 / 3.0 * std::f64::consts::PI * 3.175f64.powi(3);
        let support_vol = tp.material_volume(ToolMaterial::Support);
        assert!(
            (support_vol - sphere_vol).abs() / sphere_vol < 0.5,
            "support {support_vol} vs sphere {sphere_vol}"
        );
    }

    #[test]
    fn removal_solid_prints_fully_solid() {
        let tp = prism_toolpath(BodyKind::Solid, MaterialRemoval::With);
        assert_eq!(tp.total_length(ToolMaterial::Support), 0.0);
        // Model volume ≈ full prism volume.
        let vol = tp.material_volume(ToolMaterial::Model);
        let prism = 25.4 * 12.7 * 12.7;
        assert!((vol - prism).abs() / prism < 0.35, "vol = {vol}");
    }

    #[test]
    fn surface_and_solid_differ_only_with_removal() {
        let surf_no = prism_toolpath(BodyKind::Surface, MaterialRemoval::Without);
        let solid_no = prism_toolpath(BodyKind::Solid, MaterialRemoval::Without);
        assert!(
            (surf_no.total_length(ToolMaterial::Support)
                - solid_no.total_length(ToolMaterial::Support))
            .abs()
                < 1e-6
        );
        let surf_with = prism_toolpath(BodyKind::Surface, MaterialRemoval::With);
        let solid_with = prism_toolpath(BodyKind::Solid, MaterialRemoval::With);
        assert!(surf_with.total_length(ToolMaterial::Support) > 0.0);
        assert_eq!(solid_with.total_length(ToolMaterial::Support), 0.0);
    }

    #[test]
    fn sparse_infill_cuts_material_but_keeps_perimeters() {
        use crate::InfillStyle;
        let dims = PrismDims::default();
        let part = intact_prism_resolved(&dims);
        let shells = tessellate_shells(&part, &Resolution::Coarse.params());
        let sliced = slice_shells(&shells, 0.1778);
        let solid = generate_toolpath(&sliced, &SlicerConfig::default());
        let sparse = generate_toolpath(
            &sliced,
            &SlicerConfig {
                infill: InfillStyle::Sparse { density: 0.25 },
                ..SlicerConfig::default()
            },
        );
        let vol = |tp: &ToolPath| tp.material_volume(ToolMaterial::Model);
        assert!(
            vol(&sparse) < 0.55 * vol(&solid),
            "sparse {} vs solid {}",
            vol(&sparse),
            vol(&solid)
        );
        let perims = |tp: &ToolPath| {
            tp.roads.iter().filter(|r| r.kind == RoadKind::Perimeter).count()
        };
        assert_eq!(perims(&solid), perims(&sparse));
    }

    fn intact_prism_resolved(dims: &PrismDims) -> am_cad::ResolvedPart {
        am_cad::parts::intact_prism(dims).resolve().unwrap()
    }

    #[test]
    fn print_time_scales_with_feed() {
        let tp = prism_toolpath(BodyKind::Solid, MaterialRemoval::With);
        let slow = tp.print_time_estimate(10.0);
        let fast = tp.print_time_estimate(100.0);
        assert!(slow > fast);
    }

    #[test]
    fn roads_cover_every_layer() {
        let tp = prism_toolpath(BodyKind::Solid, MaterialRemoval::With);
        // 71 mid-layer planes fit in 12.7 mm at 0.1778 mm spacing.
        assert_eq!(tp.layer_count(), 71);
    }

    #[test]
    #[should_panic(expected = "feed rate")]
    fn zero_feed_panics() {
        ToolPath::default().print_time_estimate(0.0);
    }

    #[test]
    fn try_generate_returns_typed_errors() {
        let dims = PrismDims::default();
        let part = prism_with_sphere(&dims, BodyKind::Solid, MaterialRemoval::With)
            .unwrap()
            .resolve()
            .unwrap();
        let shells = tessellate_shells(&part, &Resolution::Coarse.params());
        let sliced = slice_shells(&shells, 0.1778);
        // A misconfigured road width surfaces as a Config error.
        let bad = SlicerConfig { road_width: 0.0, ..SlicerConfig::default() };
        assert!(matches!(
            try_generate_toolpath(&sliced, &bad),
            Err(ToolpathError::Config(_))
        ));
        // Corrupted bounds trip the raster guard instead of exhausting
        // memory.
        let mut huge = sliced.clone();
        huge.bounds.max.x = 1e12;
        assert!(matches!(
            try_generate_toolpath(&huge, &SlicerConfig::default()),
            Err(ToolpathError::RasterTooLarge { .. })
        ));
        // The happy path agrees with the panicking wrapper.
        let ok = try_generate_toolpath(&sliced, &SlicerConfig::default()).unwrap();
        assert_eq!(ok, generate_toolpath(&sliced, &SlicerConfig::default()));
    }

    #[test]
    fn try_print_time_rejects_bad_feed() {
        let tp = prism_toolpath(BodyKind::Solid, MaterialRemoval::With);
        assert!(tp.try_print_time_estimate(30.0).is_some());
        assert!(tp.try_print_time_estimate(0.0).is_none());
        assert!(tp.try_print_time_estimate(f64::NAN).is_none());
    }
}
