//! Scanline rasterization and material classification of sliced layers.
//!
//! This is where the paper's Table 3 semantics are decided: each raster
//! cell's **signed winding number** over the layer's oriented contours
//! determines what the printer deposits there:
//!
//! * winding ≥ 1 → **model** material;
//! * winding ≤ 0 but enclosed by at least one positive loop → **support**
//!   material (FDM printers fill enclosed voids with soluble support);
//! * otherwise → **empty** (outside the part).
//!
//! Zero-width planted seams additionally show up as *internal void* cells:
//! empty cells sealed off from the outside.

use am_geom::{Aabb2, Point2, Polygon2};

use crate::runs::RunRows;
use crate::{Layer, SlicedModel};

/// What occupies one raster cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CellMaterial {
    /// Outside the part (air).
    #[default]
    Empty,
    /// Model (build) material.
    Model,
    /// Soluble support material.
    Support,
}

/// A rasterized layer: a uniform grid of [`CellMaterial`] plus, for model
/// cells, the **body** (source shell) that owns the cell.
///
/// Body ownership is what makes a planted split a *cold joint*: tool paths
/// never cross body boundaries, so the printer deposits the two halves as
/// separate road families even when they touch.
#[derive(Debug, Clone, PartialEq)]
pub struct RasterLayer {
    z: f64,
    origin: Point2,
    cell: f64,
    nx: usize,
    ny: usize,
    cells: Vec<CellMaterial>,
    /// Body tag per cell; `u16::MAX` = unassigned.
    bodies: Vec<u16>,
}

impl RasterLayer {
    /// Height of the layer.
    pub fn z(&self) -> f64 {
        self.z
    }

    /// Cell edge length (mm).
    pub fn cell_size(&self) -> f64 {
        self.cell
    }

    /// Grid dimensions `(columns, rows)`.
    pub fn dims(&self) -> (usize, usize) {
        (self.nx, self.ny)
    }

    /// Grid origin (minimum corner of cell (0, 0)).
    pub fn origin(&self) -> Point2 {
        self.origin
    }

    /// Material of cell `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    pub fn at(&self, i: usize, j: usize) -> CellMaterial {
        assert!(i < self.nx && j < self.ny, "cell ({i}, {j}) out of range");
        self.cells[j * self.nx + i]
    }

    /// Material at a world-coordinate point (cells are half-open), or
    /// `Empty` outside the grid.
    pub fn material_at(&self, p: Point2) -> CellMaterial {
        let i = ((p.x - self.origin.x) / self.cell).floor();
        let j = ((p.y - self.origin.y) / self.cell).floor();
        if i < 0.0 || j < 0.0 {
            return CellMaterial::Empty;
        }
        let (i, j) = (i as usize, j as usize);
        if i >= self.nx || j >= self.ny {
            return CellMaterial::Empty;
        }
        self.cells[j * self.nx + i]
    }

    /// World centre of cell `(i, j)`.
    pub fn cell_center(&self, i: usize, j: usize) -> Point2 {
        self.origin + Point2::new((i as f64 + 0.5) * self.cell, (j as f64 + 0.5) * self.cell)
    }

    /// Number of cells holding the given material.
    pub fn count(&self, material: CellMaterial) -> usize {
        self.cells.iter().filter(|&&c| c == material).count()
    }

    /// Body (source shell) owning cell `(i, j)`, or `None` for non-model
    /// cells. Model cells take the smallest positive contour containing
    /// them, so a re-embedded solid body owns its region rather than the
    /// enclosing base.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    pub fn body_at(&self, i: usize, j: usize) -> Option<u16> {
        assert!(i < self.nx && j < self.ny, "cell ({i}, {j}) out of range");
        let b = self.bodies[j * self.nx + i];
        (b != u16::MAX).then_some(b)
    }

    /// Body at a world-coordinate point, or `None` outside / non-model.
    pub fn body_at_point(&self, p: Point2) -> Option<u16> {
        let i = ((p.x - self.origin.x) / self.cell).floor();
        let j = ((p.y - self.origin.y) / self.cell).floor();
        if i < 0.0 || j < 0.0 {
            return None;
        }
        let (i, j) = (i as usize, j as usize);
        if i >= self.nx || j >= self.ny {
            return None;
        }
        self.body_at(i, j)
    }

    /// Number of 4-connected components of model material — ≥ 2 means the
    /// layer's cross-section is *disconnected* (the Fig. 7a discontinuity
    /// signature).
    pub fn model_components(&self) -> usize {
        self.runs().connectivity().model_components
    }

    /// Minimum horizontal gap (in mm) between two model runs in any row, or
    /// `None` if no row contains two separated model runs.
    ///
    /// A planted seam separates the cross-section by a near-zero gap, while
    /// legitimately disjoint geometry (e.g. the two grip ends of a dogbone
    /// sliced in x-z above the gauge band) sits tens of millimetres apart —
    /// this metric tells them apart.
    /// Only **empty** gaps count: support-filled spans are deliberate
    /// geometry (a through-hole the slicer chose to support), not a crack.
    pub fn min_model_gap(&self) -> Option<f64> {
        self.runs().min_model_gap_cells().map(|cells| cells as f64 * self.cell)
    }

    /// Number of *internal void* cells: empty cells with no 4-connected path
    /// to the grid border through non-model cells. These are the
    /// tessellation-gap pockets a planted seam leaves inside the part.
    pub fn internal_void_cells(&self) -> usize {
        self.runs().connectivity().internal_void_cells
    }

    /// The layer's cells as run-length rows — the form every raster
    /// analysis reads, shared with the slice diagnosis.
    fn runs(&self) -> RunRows {
        RunRows::from_cells(&self.cells, self.nx)
    }

    /// Iterates rows as `(j, &cells)` slices — used by tool-path generation
    /// and the deposition simulator.
    pub fn rows(&self) -> impl Iterator<Item = (usize, &[CellMaterial])> {
        self.cells.chunks(self.nx).enumerate()
    }

    /// Raw cell storage, row-major — the tool-path planner walks whole row
    /// slices instead of per-cell indexed calls.
    pub(crate) fn cells_raw(&self) -> &[CellMaterial] {
        &self.cells
    }

    /// Raw body storage, row-major (`u16::MAX` = unassigned).
    pub(crate) fn bodies_raw(&self) -> &[u16] {
        &self.bodies
    }
}

/// One oriented, non-horizontal contour edge of the winding scan:
/// endpoints plus winding delta and positive-loop delta.
struct Edge {
    ya: f64,
    yb: f64,
    xa: f64,
    xb: f64,
    dw: i32,
    dpos: i32,
}

/// Extracts the non-horizontal edges of every contour, in contour-then-
/// vertex order — the order both rasterizer variants see crossings in.
fn collect_edges(layer: &Layer) -> Vec<Edge> {
    let mut edges: Vec<Edge> = Vec::new();
    for contour in &layer.loops {
        let poly = &contour.polygon;
        let positive = poly.signed_area() > 0.0;
        let verts = poly.vertices();
        let n = verts.len();
        for k in 0..n {
            let a = verts[k];
            let b = verts[(k + 1) % n];
            if a.y == b.y {
                continue;
            }
            let (dw, dpos) = if a.y < b.y {
                (1, i32::from(positive))
            } else {
                (-1, -i32::from(positive))
            };
            edges.push(Edge { ya: a.y, yb: b.y, xa: a.x, xb: b.x, dw, dpos });
        }
    }
    edges
}

/// Material classification of one winding state — the Table 3 rule both
/// rasterizer variants share.
#[inline]
fn classify(w: i32, w_pos: i32, support: bool) -> CellMaterial {
    if w >= 1 {
        CellMaterial::Model
    } else if support && w_pos >= 1 {
        CellMaterial::Support
    } else {
        CellMaterial::Empty
    }
}

/// Grid dimensions `(columns, rows)` of a raster over `bounds`.
///
/// # Panics
///
/// Panics if `cell` is not positive and finite or `bounds` is empty.
fn grid_dims(bounds: Aabb2, cell: f64) -> (usize, usize) {
    assert!(cell.is_finite() && cell > 0.0, "cell size must be positive, got {cell}");
    let size = bounds.size();
    assert!(size.x > 0.0 && size.y > 0.0, "raster bounds must be non-empty");
    ((size.x / cell).ceil().max(1.0) as usize, (size.y / cell).ceil().max(1.0) as usize)
}

/// Classifies one layer over `bounds` into run-length rows via the
/// span-plan scanline pipeline (DESIGN.md §13): a **plan** phase buckets
/// every edge's row crossings into per-row lists (visiting edges in edge
/// order, so each row sees its crossings in the same order the scan
/// variant's per-row filter produces them — the stable sort then yields
/// the identical sequence), and an **execute** phase turns each row's
/// sorted crossings into the winding-constant spans between them, merged
/// into maximal runs of equal material.
///
/// Both [`rasterize_layer`] and the slice diagnosis build on these runs;
/// the diagnosis reads them directly and never allocates a cell grid, so
/// its cost follows rows + crossings rather than cells.
///
/// # Panics
///
/// Panics if `cell` is not positive and finite or `bounds` is empty.
pub(crate) fn layer_runs(layer: &Layer, bounds: Aabb2, cell: f64, support: bool) -> RunRows {
    let (nx, ny) = grid_dims(bounds, cell);
    let edges = collect_edges(layer);

    // Plan: bucket crossings by row. The candidate row window comes from a
    // floating-point quotient, so it is padded by one row on each side and
    // every candidate row re-tests the reference membership rule
    // `y >= lo && y < hi` — the buckets therefore hold exactly the
    // crossings the scan variant's per-row filter finds, in the same edge
    // order, at O(edges + crossings) instead of O(rows × edges).
    let mut row_crossings: Vec<Vec<(f64, i32, i32)>> = vec![Vec::new(); ny];
    for e in &edges {
        let (lo, hi) = if e.ya < e.yb { (e.ya, e.yb) } else { (e.yb, e.ya) };
        let j_min = (((lo - bounds.min.y) / cell - 0.5).floor().max(0.0) as usize).saturating_sub(1);
        let j_max = (((hi - bounds.min.y) / cell + 0.5).ceil().max(0.0) as usize + 1).min(ny);
        for (j, bucket) in row_crossings.iter_mut().enumerate().take(j_max).skip(j_min) {
            let y = bounds.min.y + (j as f64 + 0.5) * cell;
            if y >= lo && y < hi {
                let t = (y - e.ya) / (e.yb - e.ya);
                bucket.push((e.xa + t * (e.xb - e.xa), e.dw, e.dpos));
            }
        }
    }

    // Execute: each row's sorted crossings split it into winding-constant
    // spans. A crossing's first owned cell is the first cell centre at or
    // right of it — the float quotient seeds the boundary (clamped to the
    // row) and two reference-comparison nudges make it exact, so every
    // cell lands on the same side of every crossing as in the scan
    // variant's `crossings[next].0 <= x` walk.
    let mut rows = RunRows::new(nx);
    let center = |i: usize| bounds.min.x + (i as f64 + 0.5) * cell;
    for crossings in &mut row_crossings {
        crossings.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite crossing x"));
        let mut w = 0i32;
        let mut w_pos = 0i32;
        let mut i = 0usize;
        for &(cx, dw, dpos) in crossings.iter() {
            let mut b = (((cx - bounds.min.x) / cell - 0.5).ceil().max(0.0) as usize).min(nx);
            while b > 0 && cx <= center(b - 1) {
                b -= 1;
            }
            while b < nx && cx > center(b) {
                b += 1;
            }
            if b > i {
                rows.push(i, b, classify(w, w_pos, support));
                i = b;
            }
            w -= dw;
            w_pos -= dpos;
        }
        if i < nx {
            rows.push(i, nx, classify(w, w_pos, support));
        }
        rows.end_row();
    }
    rows
}

/// Rasterizes one layer over `bounds` with the given cell size: the
/// span-plan runs of `layer_runs`, each filled whole into the cell grid,
/// plus body attribution. [`rasterize_layer_scan`] is the retained
/// oracle; the two are bit-identical.
///
/// When `support` is `false`, enclosed-void cells classify as `Empty`
/// instead of `Support`.
///
/// # Panics
///
/// Panics if `cell` is not positive and finite or `bounds` is empty.
pub fn rasterize_layer(layer: &Layer, bounds: Aabb2, cell: f64, support: bool) -> RasterLayer {
    let runs = layer_runs(layer, bounds, cell, support);
    let (nx, ny) = (runs.nx(), runs.ny());
    let mut cells = vec![CellMaterial::Empty; nx * ny];
    for (j, row) in cells.chunks_mut(nx).enumerate() {
        for run in runs.row(j) {
            row[run.start..run.end].fill(run.material);
        }
    }
    let bodies = attribute_bodies(&cells, layer, bounds, cell, nx, ny);
    RasterLayer { z: layer.z, origin: bounds.min, cell, nx, ny, cells, bodies }
}

/// Rasterizes one layer like [`rasterize_layer`], with the original
/// row-at-a-time scan: every row filters the full edge list, then
/// classifies cell by cell. Retained as the span-plan pipeline's oracle —
/// `raster_span_plan_matches_scan` pins the two bit-identical.
pub fn rasterize_layer_scan(layer: &Layer, bounds: Aabb2, cell: f64, support: bool) -> RasterLayer {
    let (nx, ny) = grid_dims(bounds, cell);
    let mut cells = vec![CellMaterial::Empty; nx * ny];

    let edges = collect_edges(layer);

    for j in 0..ny {
        let y = bounds.min.y + (j as f64 + 0.5) * cell;
        // Crossings: (x, dw, dpos), half-open rule [min(y), max(y)).
        let mut crossings: Vec<(f64, i32, i32)> = edges
            .iter()
            .filter_map(|e| {
                let (lo, hi) = if e.ya < e.yb { (e.ya, e.yb) } else { (e.yb, e.ya) };
                if y >= lo && y < hi {
                    let t = (y - e.ya) / (e.yb - e.ya);
                    Some((e.xa + t * (e.xb - e.xa), e.dw, e.dpos))
                } else {
                    None
                }
            })
            .collect();
        crossings.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite crossing x"));

        // The winding number at a point equals the signed count of edge
        // crossings on a +x ray, i.e. crossings to the *right* of the
        // point: start at 0 far left (closed loops sum to zero) and
        // subtract each crossing's direction as the scan passes it.
        let mut w = 0i32;
        let mut w_pos = 0i32;
        let mut next = 0usize;
        for i in 0..nx {
            let x = bounds.min.x + (i as f64 + 0.5) * cell;
            while next < crossings.len() && crossings[next].0 <= x {
                w -= crossings[next].1;
                w_pos -= crossings[next].2;
                next += 1;
            }
            cells[j * nx + i] = classify(w, w_pos, support);
        }
    }

    let bodies = attribute_bodies(&cells, layer, bounds, cell, nx, ny);
    RasterLayer { z: layer.z, origin: bounds.min, cell, nx, ny, cells, bodies }
}

/// Body attribution shared by both rasterizer variants: fill model cells
/// from positive contours, smallest area first (so inner bodies win over
/// enclosing ones), then flood unowned model cells from their nearest
/// assigned neighbour.
fn attribute_bodies(
    cells: &[CellMaterial],
    layer: &Layer,
    bounds: Aabb2,
    cell: f64,
    nx: usize,
    ny: usize,
) -> Vec<u16> {
    let mut bodies = vec![u16::MAX; nx * ny];
    let mut positive: Vec<&crate::Contour> =
        layer.loops.iter().filter(|c| c.polygon.signed_area() > 0.0).collect();
    positive.sort_by(|a, b| {
        a.polygon
            .area()
            .partial_cmp(&b.polygon.area())
            .expect("finite contour areas")
    });
    for contour in positive {
        let poly = &contour.polygon;
        let bb = poly.aabb();
        let j_lo = (((bb.min.y - bounds.min.y) / cell).floor().max(0.0)) as usize;
        let j_hi = ((((bb.max.y - bounds.min.y) / cell).ceil()) as usize).min(ny);
        for j in j_lo..j_hi {
            let y = bounds.min.y + (j as f64 + 0.5) * cell;
            // Even-odd crossings for this single polygon.
            let verts = poly.vertices();
            let n = verts.len();
            let mut xs: Vec<f64> = Vec::new();
            for k in 0..n {
                let a = verts[k];
                let b = verts[(k + 1) % n];
                if a.y == b.y {
                    continue;
                }
                let (lo, hi) = if a.y < b.y { (a.y, b.y) } else { (b.y, a.y) };
                if y >= lo && y < hi {
                    xs.push(a.x + (y - a.y) / (b.y - a.y) * (b.x - a.x));
                }
            }
            xs.sort_by(|p, q| p.partial_cmp(q).expect("finite crossing x"));
            for pair in xs.chunks(2) {
                let [x0, x1] = pair else { continue };
                let i_lo = (((x0 - bounds.min.x) / cell - 0.5).ceil().max(0.0)) as usize;
                let i_hi = ((((x1 - bounds.min.x) / cell - 0.5).floor()) as i64).min(nx as i64 - 1);
                for i in i_lo as i64..=i_hi {
                    let idx = j * nx + i as usize;
                    if cells[idx] == CellMaterial::Model && bodies[idx] == u16::MAX {
                        bodies[idx] = contour.body.min(u16::MAX as usize - 1) as u16;
                    }
                }
            }
        }
    }

    // Propagation pass: model cells the polygon fill missed (boundary
    // cells whose centre fell on an edge) inherit the body of their nearest
    // assigned neighbour, so every model cell ends up owned — otherwise
    // unowned cells would read as body-less welds across a planted seam.
    let mut frontier: std::collections::VecDeque<usize> = (0..cells.len())
        .filter(|&i| cells[i] == CellMaterial::Model && bodies[i] != u16::MAX)
        .collect();
    while let Some(idx) = frontier.pop_front() {
        let (i, j) = (idx % nx, idx / nx);
        let b = bodies[idx];
        let mut visit = |ii: usize, jj: usize, frontier: &mut std::collections::VecDeque<usize>| {
            let nidx = jj * nx + ii;
            if cells[nidx] == CellMaterial::Model && bodies[nidx] == u16::MAX {
                bodies[nidx] = b;
                frontier.push_back(nidx);
            }
        };
        if i > 0 {
            visit(i - 1, j, &mut frontier);
        }
        if i + 1 < nx {
            visit(i + 1, j, &mut frontier);
        }
        if j > 0 {
            visit(i, j - 1, &mut frontier);
        }
        if j + 1 < ny {
            visit(i, j + 1, &mut frontier);
        }
    }

    bodies
}

/// Rasterizes every layer of a sliced model over its common xy bounds
/// (inflated by one cell so borders stay empty).
pub fn rasterize(sliced: &SlicedModel, cell: f64, support: bool) -> Vec<RasterLayer> {
    let bounds2 = Aabb2::new(
        Point2::new(sliced.bounds.min.x, sliced.bounds.min.y),
        Point2::new(sliced.bounds.max.x, sliced.bounds.max.y),
    )
    .inflated(cell * 1.5);
    sliced
        .layers
        .iter()
        .map(|layer| rasterize_layer(layer, bounds2, cell, support))
        .collect()
}

/// Convenience: the fraction of model cells in a polygon-area sense, used by
/// density/weight inspection.
pub fn model_area(raster: &RasterLayer) -> f64 {
    raster.count(CellMaterial::Model) as f64 * raster.cell_size() * raster.cell_size()
}

/// Helper for tests and experiments: rasterize a single polygon as a layer.
pub fn rasterize_polygon(poly: &Polygon2, cell: f64) -> RasterLayer {
    let layer = Layer {
        z: 0.0,
        loops: vec![crate::Contour { polygon: poly.clone(), body: 0 }],
        open_paths: Vec::new(),
    };
    rasterize_layer(&layer, poly.aabb().inflated(cell * 1.5), cell, true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use am_cad::parts::{prism_with_sphere, PrismDims};
    use am_cad::{BodyKind, MaterialRemoval};
    use am_mesh::{tessellate_shells, Resolution};
    use crate::slice_shells;

    fn mid_raster(kind: BodyKind, removal: MaterialRemoval) -> RasterLayer {
        let dims = PrismDims::default();
        let part = prism_with_sphere(&dims, kind, removal).unwrap().resolve().unwrap();
        let shells = tessellate_shells(&part, &Resolution::Fine.params());
        let sliced = slice_shells(&shells, 0.1778);
        let rasters = rasterize(&sliced, 0.1, true);
        let mid = rasters.len() / 2;
        rasters[mid].clone()
    }

    #[test]
    fn raster_span_plan_matches_scan() {
        let dims = PrismDims::default();
        for (kind, removal) in [
            (BodyKind::Solid, MaterialRemoval::With),
            (BodyKind::Surface, MaterialRemoval::Without),
        ] {
            let part = prism_with_sphere(&dims, kind, removal).unwrap().resolve().unwrap();
            let shells = tessellate_shells(&part, &Resolution::Fine.params());
            let sliced = slice_shells(&shells, 0.1778);
            let bounds2 = Aabb2::new(
                Point2::new(sliced.bounds.min.x, sliced.bounds.min.y),
                Point2::new(sliced.bounds.max.x, sliced.bounds.max.y),
            )
            .inflated(0.1 * 1.5);
            for support in [true, false] {
                for layer in &sliced.layers {
                    let planned = rasterize_layer(layer, bounds2, 0.1, support);
                    let scanned = rasterize_layer_scan(layer, bounds2, 0.1, support);
                    assert_eq!(planned, scanned, "z = {}", layer.z);
                }
            }
        }
    }

    #[test]
    fn square_rasterizes_to_expected_area() {
        let poly = Polygon2::rectangle(Point2::ZERO, Point2::new(10.0, 5.0));
        let raster = rasterize_polygon(&poly, 0.1);
        let area = model_area(&raster);
        assert!((area - 50.0).abs() < 1.0, "area = {area}");
        assert_eq!(raster.model_components(), 1);
        assert_eq!(raster.internal_void_cells(), 0);
    }

    #[test]
    fn table3_no_removal_center_is_support() {
        for kind in [BodyKind::Solid, BodyKind::Surface] {
            let raster = mid_raster(kind, MaterialRemoval::Without);
            let center = Point2::new(25.4 / 2.0, 12.7 / 2.0);
            assert_eq!(raster.material_at(center), CellMaterial::Support, "{kind:?}");
        }
    }

    #[test]
    fn table3_removal_solid_center_is_model() {
        let raster = mid_raster(BodyKind::Solid, MaterialRemoval::With);
        let center = Point2::new(25.4 / 2.0, 12.7 / 2.0);
        assert_eq!(raster.material_at(center), CellMaterial::Model);
    }

    #[test]
    fn table3_removal_surface_center_is_support() {
        let raster = mid_raster(BodyKind::Surface, MaterialRemoval::With);
        let center = Point2::new(25.4 / 2.0, 12.7 / 2.0);
        assert_eq!(raster.material_at(center), CellMaterial::Support);
    }

    #[test]
    fn support_disabled_leaves_cavity_empty() {
        let dims = PrismDims::default();
        let part = prism_with_sphere(&dims, BodyKind::Solid, MaterialRemoval::Without)
            .unwrap()
            .resolve()
            .unwrap();
        let shells = tessellate_shells(&part, &Resolution::Fine.params());
        let sliced = slice_shells(&shells, 0.1778);
        let rasters = rasterize(&sliced, 0.1, false);
        let mid = &rasters[rasters.len() / 2];
        let center = Point2::new(25.4 / 2.0, 12.7 / 2.0);
        assert_eq!(mid.material_at(center), CellMaterial::Empty);
        // And those empty cells are sealed inside the part.
        assert!(mid.internal_void_cells() > 0);
    }

    #[test]
    fn outside_the_grid_is_empty() {
        let poly = Polygon2::rectangle(Point2::ZERO, Point2::new(1.0, 1.0));
        let raster = rasterize_polygon(&poly, 0.1);
        assert_eq!(raster.material_at(Point2::new(100.0, 100.0)), CellMaterial::Empty);
        assert_eq!(raster.material_at(Point2::new(-100.0, 0.5)), CellMaterial::Empty);
    }

    #[test]
    fn disconnected_regions_counted() {
        let layer = Layer {
            z: 0.0,
            loops: vec![
                crate::Contour {
                    polygon: Polygon2::rectangle(Point2::ZERO, Point2::new(1.0, 1.0)),
                    body: 0,
                },
                crate::Contour {
                    polygon: Polygon2::rectangle(Point2::new(3.0, 0.0), Point2::new(4.0, 1.0)),
                    body: 1,
                },
            ],
            open_paths: Vec::new(),
        };
        let raster = rasterize_layer(
            &layer,
            Aabb2::new(Point2::new(-0.5, -0.5), Point2::new(4.5, 1.5)),
            0.1,
            true,
        );
        assert_eq!(raster.model_components(), 2);
    }
}
