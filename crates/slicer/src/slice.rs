//! Plane slicing: meshes → per-layer oriented contours.
//!
//! Two kernels produce identical output (see `sweep_matches_scan_*` tests):
//!
//! * the **interval sweep** (default) buckets every triangle into the layer
//!   range its z-span covers, so each slicing plane only visits candidate
//!   triangles — O(tris + output) per layer stack instead of
//!   O(layers × tris) — and layers slice independently on an
//!   [`am_par::Pool`];
//! * the **per-layer scan** ([`slice_shells_scan`]) walks the full mesh for
//!   every plane. It is kept, for tests only, as the reference of the
//!   bucketing regression test.

use std::collections::HashMap;

use am_geom::{Aabb3, Point2, Polygon2, Polyline2, Tolerance, Vec2};
use am_mesh::TriMesh;
use am_par::{Parallelism, Pool};

/// One closed contour of a layer, tagged with the shell (body) that
/// produced it. The tag is what lets diagnostics tell a planted split seam
/// (contours of *different* bodies touching) from ordinary geometry.
#[derive(Debug, Clone, PartialEq)]
pub struct Contour {
    /// The loop geometry, orientation-preserving (CCW = material boundary,
    /// CW = cavity boundary — the STL facet-normal semantics of Table 3).
    pub polygon: Polygon2,
    /// Index of the source shell in the sliced shell list.
    pub body: usize,
}

/// One build layer: oriented closed contours plus any chains that failed to
/// close (open paths indicate surface holes in the input mesh).
#[derive(Debug, Clone, PartialEq)]
pub struct Layer {
    /// Height of the slicing plane (mid-layer).
    pub z: f64,
    /// Closed contour loops.
    pub loops: Vec<Contour>,
    /// Chains that did not close (mesh defects).
    pub open_paths: Vec<Polyline2>,
}

impl Layer {
    /// Net cross-section area: CCW loops add, CW loops subtract.
    pub fn net_area(&self) -> f64 {
        self.loops.iter().map(|c| c.polygon.signed_area()).sum()
    }

    /// Signed winding number of the layer's loops around a point.
    pub fn winding(&self, p: Point2) -> i32 {
        self.loops.iter().map(|c| c.polygon.winding_number(p)).sum()
    }

    /// Iterates the loop polygons (untagged view).
    pub fn polygons(&self) -> impl Iterator<Item = &Polygon2> {
        self.loops.iter().map(|c| &c.polygon)
    }
}

/// A sliced model: the layer stack.
#[derive(Debug, Clone, PartialEq)]
pub struct SlicedModel {
    /// Layers from bottom to top.
    pub layers: Vec<Layer>,
    /// Layer height used.
    pub layer_height: f64,
    /// Bounds of the sliced geometry.
    pub bounds: Aabb3,
}

impl SlicedModel {
    /// Total number of layers.
    pub fn layer_count(&self) -> usize {
        self.layers.len()
    }

    /// Sliced volume estimate: Σ net layer area × layer height.
    pub fn volume_estimate(&self) -> f64 {
        self.layers.iter().map(Layer::net_area).sum::<f64>() * self.layer_height
    }
}

/// Slices a single mesh. See [`slice_shells`] for multi-body models.
///
/// # Panics
///
/// Panics if `layer_height` is not positive and finite.
pub fn slice_mesh(mesh: &TriMesh, layer_height: f64) -> SlicedModel {
    slice_shells(std::slice::from_ref(mesh), layer_height)
}

/// Slices a multi-shell model: each shell's facets are assembled into
/// contours independently (shells never share edges, exactly like the
/// independent bodies in a multi-body STL), then collected per layer.
///
/// Slicing planes sit at mid-layer heights: `z = z_min + (i + ½)·h`.
///
/// # Panics
///
/// Panics if `layer_height` is not positive and finite.
///
/// # Examples
///
/// ```
/// use am_cad::parts::{intact_prism, PrismDims};
/// use am_mesh::{tessellate_shells, Resolution};
/// use am_slicer::slice_shells;
///
/// let part = intact_prism(&PrismDims::default()).resolve()?;
/// let shells = tessellate_shells(&part, &Resolution::Fine.params());
/// let sliced = slice_shells(&shells, 0.1778);
/// assert_eq!(sliced.layer_count(), 71); // floor(12.7 / 0.1778 + 0.5) mid-layer planes
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn slice_shells(shells: &[TriMesh], layer_height: f64) -> SlicedModel {
    match try_slice_shells(shells, layer_height) {
        Ok(sliced) => sliced,
        Err(e) => panic!("{e}"),
    }
}

/// Largest supported layer count: far beyond any real build (an Objet30 at
/// 16 µm layers needs < 10 000 for its full 148 mm height), but small
/// enough to stop a corrupted layer height from looping unbounded.
pub const MAX_LAYERS: u64 = 1 << 20;

/// A slicing request rejected by [`try_slice_shells`].
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum SliceError {
    /// Layer height is zero, negative, or non-finite (the Table 1 slicer
    /// misconfiguration attack).
    BadLayerHeight {
        /// The rejected value.
        value: f64,
    },
    /// The requested layer height would produce an absurd layer count
    /// (resource-exhaustion guard).
    TooManyLayers {
        /// Estimated layer count.
        estimated: u64,
        /// The supported maximum.
        max: u64,
    },
}

impl std::fmt::Display for SliceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SliceError::BadLayerHeight { value } => {
                write!(f, "layer height must be positive, got {value}")
            }
            SliceError::TooManyLayers { estimated, max } => {
                write!(f, "layer height yields ~{estimated} layers, exceeding the supported {max}")
            }
        }
    }
}

impl std::error::Error for SliceError {}

/// Slices a multi-shell model like [`slice_shells`], returning a typed
/// error instead of panicking on a bad layer height.
///
/// # Errors
///
/// [`SliceError::BadLayerHeight`] for a non-positive or non-finite layer
/// height; [`SliceError::TooManyLayers`] when the height is so small the
/// layer stack would exceed the `MAX_LAYERS` cap.
pub fn try_slice_shells(shells: &[TriMesh], layer_height: f64) -> Result<SlicedModel, SliceError> {
    try_slice_shells_with(shells, layer_height, Parallelism::serial())
}

/// [`try_slice_shells`] with an explicit thread budget.
///
/// Output is bit-identical for every `parallelism` value: layers are
/// independent work items, candidate triangles are visited in ascending
/// index order within each layer (matching the full-mesh scan), and results
/// are collected in layer order.
///
/// # Errors
///
/// Same as [`try_slice_shells`].
pub fn try_slice_shells_with(
    shells: &[TriMesh],
    layer_height: f64,
    parallelism: Parallelism,
) -> Result<SlicedModel, SliceError> {
    let (bounds, zs) = layer_planes(shells, layer_height)?;

    // Bucket each shell's triangles by the layer-index range their z-span
    // covers (CSR layout). Ranges get ±1 layer of slack so accumulated
    // floating-point error in the plane heights can never drop a candidate;
    // `intersect_z_plane` rejects the extras exactly as the full scan would.
    let buckets: Vec<LayerBuckets> =
        shells.iter().map(|s| LayerBuckets::build(s, &zs, layer_height)).collect();

    let pool = Pool::new(parallelism);
    let layers = pool.par_map(&zs, |&z_entry| {
        let (li, z) = z_entry;
        let mut layer = Layer { z, loops: Vec::new(), open_paths: Vec::new() };
        for (body, shell) in shells.iter().enumerate() {
            let segs = collect_segments_indexed(shell, buckets[body].layer(li), z);
            assemble(segs, body, &mut layer);
        }
        layer
    });
    Ok(SlicedModel { layers, layer_height, bounds })
}

/// Slices with the legacy per-layer full-mesh scan: every plane visits every
/// triangle. O(layers × tris); kept as the reference the interval sweep is
/// pinned against in tests.
///
/// # Errors
///
/// Same as [`try_slice_shells`].
pub fn slice_shells_scan(shells: &[TriMesh], layer_height: f64) -> Result<SlicedModel, SliceError> {
    let (bounds, zs) = layer_planes(shells, layer_height)?;
    let mut layers = Vec::new();
    for &(_, z) in &zs {
        let mut layer = Layer { z, loops: Vec::new(), open_paths: Vec::new() };
        for (body, shell) in shells.iter().enumerate() {
            let segs = collect_segments(shell, z);
            assemble(segs, body, &mut layer);
        }
        layers.push(layer);
    }
    Ok(SlicedModel { layers, layer_height, bounds })
}

/// Validates the layer height and enumerates the mid-layer plane heights.
///
/// The planes are produced by the same running accumulation
/// (`z += layer_height`) both kernels have always used — regenerating them
/// as `min + (i + ½)·h` would shift each plane by a few ulps and change
/// knife-edge intersections.
fn layer_planes(
    shells: &[TriMesh],
    layer_height: f64,
) -> Result<(Aabb3, Vec<(usize, f64)>), SliceError> {
    if !(layer_height.is_finite() && layer_height > 0.0) {
        return Err(SliceError::BadLayerHeight { value: layer_height });
    }
    let bounds = shells
        .iter()
        .filter_map(TriMesh::aabb)
        .reduce(|a, b| a.union(&b))
        .unwrap_or(Aabb3::new(am_geom::Point3::ZERO, am_geom::Point3::ZERO));
    let span = bounds.max.z - bounds.min.z;
    if span.is_finite() && span > 0.0 {
        let estimated = (span / layer_height).ceil();
        if !estimated.is_finite() || estimated > MAX_LAYERS as f64 {
            return Err(SliceError::TooManyLayers {
                estimated: estimated.min(u64::MAX as f64) as u64,
                max: MAX_LAYERS,
            });
        }
    }
    let mut zs = Vec::new();
    let mut z = bounds.min.z + layer_height * 0.5;
    while z < bounds.max.z {
        zs.push((zs.len(), z));
        z += layer_height;
    }
    Ok((bounds, zs))
}

/// Per-layer candidate triangle lists for one shell, in CSR layout.
///
/// `layer(i)` returns the indices of every triangle whose z-span could touch
/// plane `i`, in ascending triangle order — the same visit order as a full
/// scan, which is what keeps the sweep's segment lists (and therefore the
/// assembled contours) bit-identical to [`slice_shells_scan`].
struct LayerBuckets {
    offsets: Vec<usize>,
    tris: Vec<u32>,
}

impl LayerBuckets {
    fn build(mesh: &TriMesh, zs: &[(usize, f64)], layer_height: f64) -> Self {
        let n_layers = zs.len();
        if n_layers == 0 {
            return LayerBuckets { offsets: vec![0], tris: Vec::new() };
        }
        let z0 = zs[0].1;
        // `layer_range` clamps to [0, n_layers - 1] and yields the empty
        // sentinel (1, 0) for spans outside the stack, so `lo..=hi` below is
        // always in bounds (and empty for the sentinel).
        let spans: Vec<(usize, usize)> = mesh
            .triangles()
            .map(|tri| {
                let [a, b, c] = tri.vertices;
                let lo = a.z.min(b.z).min(c.z);
                let hi = a.z.max(b.z).max(c.z);
                layer_range(lo, hi, z0, layer_height, n_layers)
            })
            .collect();

        // Count per layer into offsets[li + 1], then prefix-sum into CSR.
        let mut offsets = vec![0usize; n_layers + 1];
        for &(lo, hi) in &spans {
            for li in lo..=hi {
                offsets[li + 1] += 1;
            }
        }
        for i in 0..n_layers {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor = offsets.clone();
        let mut tris = vec![0u32; offsets[n_layers]];
        for (t, &(lo, hi)) in spans.iter().enumerate() {
            for li in lo..=hi {
                tris[cursor[li]] = t as u32;
                cursor[li] += 1;
            }
        }
        LayerBuckets { offsets, tris }
    }

    fn layer(&self, li: usize) -> &[u32] {
        if li + 1 >= self.offsets.len() {
            return &[];
        }
        &self.tris[self.offsets[li]..self.offsets[li + 1]]
    }
}

/// Maps a triangle's z-span to the (clamped, ±1-slack) layer-index range of
/// planes it may intersect. Returns an empty range as `(1, 0)` when the span
/// lies wholly outside the stack.
fn layer_range(lo: f64, hi: f64, z0: f64, h: f64, n_layers: usize) -> (usize, usize) {
    if n_layers == 0 || !lo.is_finite() || !hi.is_finite() {
        return (1, 0);
    }
    let first = ((lo - z0) / h).floor() - 1.0;
    let last = ((hi - z0) / h).ceil() + 1.0;
    if last < 0.0 || first >= n_layers as f64 {
        return (1, 0);
    }
    let first = first.max(0.0) as usize;
    let last = (last.min((n_layers - 1) as f64)).max(0.0) as usize;
    (first, last)
}

/// Collects oriented intersection segments of a mesh with the plane `z`.
///
/// Each segment is directed so that material lies to its **left**: the
/// direction is the facet normal's xy-projection rotated 90° CCW. Outward
/// shells therefore assemble into CCW loops, inward shells into CW loops.
fn collect_segments(mesh: &TriMesh, z: f64) -> Vec<(Point2, Point2)> {
    let mut segs = Vec::new();
    for tri in mesh.triangles() {
        push_oriented_segment(&tri, z, &mut segs);
    }
    segs
}

/// [`collect_segments`] restricted to a candidate triangle list (ascending
/// index order, so the segment order matches the full scan).
fn collect_segments_indexed(mesh: &TriMesh, candidates: &[u32], z: f64) -> Vec<(Point2, Point2)> {
    let mut segs = Vec::new();
    for &t in candidates {
        push_oriented_segment(&mesh.triangle(t as usize), z, &mut segs);
    }
    segs
}

fn push_oriented_segment(tri: &am_geom::Triangle3, z: f64, segs: &mut Vec<(Point2, Point2)>) {
    let Some((p, q)) = tri.intersect_z_plane(z) else { return };
    let Some(n) = tri.normal() else { return };
    let tangent = Vec2::new(-n.y, n.x);
    let (a, b) = (p.to_2d(), q.to_2d());
    if (b - a).dot(tangent) >= 0.0 {
        segs.push((a, b));
    } else {
        segs.push((b, a));
    }
}

/// Chains directed segments into closed loops (and leftover open paths).
///
/// Endpoints are indexed in a quantized hash map; each bucket keeps a
/// monotone cursor over its candidate list (candidates are only ever
/// consumed, never released), so the whole assembly is O(n) — the old
/// per-lookup `find(|i| !used[i])` rescanned consumed candidates and went
/// quadratic on layers where many segments share a quantized endpoint.
fn assemble(segs: Vec<(Point2, Point2)>, body: usize, layer: &mut Layer) {
    const QUANTUM: f64 = 1e-6;
    let key = |p: Point2| -> (i64, i64) {
        ((p.x / QUANTUM).round() as i64, (p.y / QUANTUM).round() as i64)
    };

    // Value = (cursor, candidate segment indices in insertion order). The
    // cursor never passes an unused candidate, so "first unused in
    // insertion order" semantics are preserved exactly.
    let mut by_start: HashMap<(i64, i64), (usize, Vec<usize>)> = HashMap::new();
    for (i, s) in segs.iter().enumerate() {
        by_start.entry(key(s.0)).or_default().1.push(i);
    }
    let mut used = vec![false; segs.len()];

    for start in 0..segs.len() {
        if used[start] {
            continue;
        }
        used[start] = true;
        let mut chain: Vec<Point2> = vec![segs[start].0, segs[start].1];
        let start_key = key(segs[start].0);
        let mut closed = false;
        loop {
            let tail_key = key(*chain.last().expect("chain non-empty"));
            if tail_key == start_key {
                chain.pop(); // drop the duplicate closing point
                closed = true;
                break;
            }
            let next = by_start.get_mut(&tail_key).and_then(|(cursor, cands)| {
                while *cursor < cands.len() && used[cands[*cursor]] {
                    *cursor += 1;
                }
                cands.get(*cursor).copied()
            });
            match next {
                Some(i) => {
                    used[i] = true;
                    chain.push(segs[i].1);
                }
                None => break,
            }
        }
        if !closed {
            // Tolerate a slightly sloppy closure (mesh weld noise).
            closed = chain.len() > 3
                && chain[0].approx_eq(
                    *chain.last().expect("chain non-empty"),
                    Tolerance::new(QUANTUM * 16.0),
                );
            if closed {
                chain.pop();
            }
        }
        if closed && chain.len() >= 3 {
            layer.loops.push(Contour { polygon: Polygon2::new(chain), body });
        } else if chain.len() >= 2 {
            layer.open_paths.push(Polyline2::new(chain));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use am_cad::parts::{
        intact_prism, prism_with_sphere, tensile_bar, tensile_bar_with_spline, PrismDims,
        TensileBarDims,
    };
    use am_cad::{BodyKind, MaterialRemoval};
    use am_mesh::{tessellate_shells, Resolution};
    use crate::Orientation;

    fn slice_part(part: &am_cad::ResolvedPart, res: Resolution, h: f64) -> SlicedModel {
        let shells = tessellate_shells(part, &res.params());
        slice_shells(&shells, h)
    }

    #[test]
    fn prism_slices_to_single_ccw_rectangle_per_layer() {
        let part = intact_prism(&PrismDims::default()).resolve().unwrap();
        let sliced = slice_part(&part, Resolution::Fine, 0.1778);
        assert!(!sliced.layers.is_empty());
        for layer in &sliced.layers {
            assert_eq!(layer.loops.len(), 1, "z = {}", layer.z);
            assert!(layer.open_paths.is_empty());
            let a = layer.loops[0].polygon.signed_area();
            assert!((a - 25.4 * 12.7).abs() < 1e-6, "area {a}");
        }
    }

    #[test]
    fn sliced_volume_matches_mesh_volume() {
        let part = intact_prism(&PrismDims::default()).resolve().unwrap();
        let sliced = slice_part(&part, Resolution::Fine, 0.05);
        let exact = 25.4 * 12.7 * 12.7;
        assert!((sliced.volume_estimate() - exact).abs() / exact < 0.01);
    }

    #[test]
    fn embedded_sphere_layer_has_cw_inner_loop() {
        let dims = PrismDims::default();
        let part = prism_with_sphere(&dims, BodyKind::Solid, MaterialRemoval::Without)
            .unwrap()
            .resolve()
            .unwrap();
        let sliced = slice_part(&part, Resolution::Fine, 0.1778);
        // The mid layer passes through the sphere.
        let mid = &sliced.layers[sliced.layer_count() / 2];
        assert_eq!(mid.loops.len(), 2, "z = {}", mid.z);
        let mut areas: Vec<f64> = mid.polygons().map(Polygon2::signed_area).collect();
        areas.sort_by(|a, b| a.partial_cmp(b).expect("finite areas"));
        assert!(areas[0] < 0.0, "inner sphere loop must be CW: {areas:?}");
        assert!(areas[1] > 0.0, "outer prism loop must be CCW");
        // Winding at the sphere centre is 0: prism (+1) + cavity (−1).
        let center = dims.size * 0.5;
        assert_eq!(mid.winding(Point2::new(center.x, center.y)), 0);
    }

    #[test]
    fn removal_solid_cancels_winding_at_center() {
        let dims = PrismDims::default();
        let part = prism_with_sphere(&dims, BodyKind::Solid, MaterialRemoval::With)
            .unwrap()
            .resolve()
            .unwrap();
        let sliced = slice_part(&part, Resolution::Fine, 0.1778);
        let mid = &sliced.layers[sliced.layer_count() / 2];
        assert_eq!(mid.loops.len(), 3);
        let center = dims.size * 0.5;
        // prism (+1) + cavity (−1) + solid body (+1) = +1 → model material.
        assert_eq!(mid.winding(Point2::new(center.x, center.y)), 1);
    }

    #[test]
    fn removal_surface_leaves_negative_winding() {
        let dims = PrismDims::default();
        let part = prism_with_sphere(&dims, BodyKind::Surface, MaterialRemoval::With)
            .unwrap()
            .resolve()
            .unwrap();
        let sliced = slice_part(&part, Resolution::Fine, 0.1778);
        let mid = &sliced.layers[sliced.layer_count() / 2];
        let center = dims.size * 0.5;
        assert_eq!(mid.winding(Point2::new(center.x, center.y)), -1);
    }

    #[test]
    fn intact_bar_xy_single_loop_per_layer() {
        let part = tensile_bar(&TensileBarDims::default()).unwrap().resolve().unwrap();
        let shells = tessellate_shells(&part, &Resolution::Coarse.params());
        let oriented = crate::orient_shells(&shells, Orientation::Xy);
        let sliced = slice_shells(&oriented, 0.1778);
        for layer in &sliced.layers {
            assert_eq!(layer.loops.len(), 1);
        }
    }

    #[test]
    fn split_bar_xy_layers_have_two_loops() {
        let part = tensile_bar_with_spline(&TensileBarDims::default())
            .unwrap()
            .resolve()
            .unwrap();
        let sliced = slice_part(&part, Resolution::Coarse, 0.1778);
        for layer in &sliced.layers {
            assert_eq!(layer.loops.len(), 2, "z = {}", layer.z);
            assert!(layer.polygons().all(|l| l.signed_area() > 0.0));
        }
    }

    #[test]
    fn split_bar_xz_gauge_layers_have_two_loops() {
        let dims = TensileBarDims::default();
        let part = tensile_bar_with_spline(&dims).unwrap().resolve().unwrap();
        let shells = tessellate_shells(&part, &Resolution::Coarse.params());
        let oriented = crate::orient_shells(&shells, Orientation::Xz);
        let sliced = slice_shells(&oriented, 0.1778);
        // Layers inside the gauge band (width ∈ gauge) cross the spline.
        let gauge_lo = (dims.grip_width - dims.gauge_width) / 2.0;
        let gauge_hi = gauge_lo + dims.gauge_width;
        let mut crossing_layers = 0;
        for layer in &sliced.layers {
            if layer.z > gauge_lo + 0.3 && layer.z < gauge_hi - 0.3 {
                assert!(layer.loops.len() >= 2, "z = {}: {} loops", layer.z, layer.loops.len());
                crossing_layers += 1;
            }
        }
        assert!(crossing_layers > 20, "expected many gauge layers, got {crossing_layers}");
    }

    #[test]
    fn watertight_shells_produce_no_open_paths() {
        let part = tensile_bar_with_spline(&TensileBarDims::default())
            .unwrap()
            .resolve()
            .unwrap();
        for res in Resolution::ALL {
            let sliced = slice_part(&part, res, 0.1778);
            let open: usize = sliced.layers.iter().map(|l| l.open_paths.len()).sum();
            assert_eq!(open, 0, "{res}");
        }
    }

    #[test]
    fn sweep_matches_scan_bit_for_bit() {
        // Regression pin: layer bucketing must reproduce the legacy
        // per-layer full-mesh scan exactly — same layers, same contours,
        // same floats — across parts, resolutions, and orientations.
        let prism = intact_prism(&PrismDims::default()).resolve().unwrap();
        let bar = tensile_bar_with_spline(&TensileBarDims::default())
            .unwrap()
            .resolve()
            .unwrap();
        for part in [&prism, &bar] {
            for res in [Resolution::Coarse, Resolution::Fine] {
                let shells = tessellate_shells(part, &res.params());
                for orientation in [Orientation::Xy, Orientation::Xz] {
                    let oriented = crate::orient_shells(&shells, orientation);
                    for h in [0.1778, 0.33] {
                        let scan = slice_shells_scan(&oriented, h).unwrap();
                        let sweep = try_slice_shells(&oriented, h).unwrap();
                        assert_eq!(scan, sweep, "{res} {orientation:?} h={h}");
                    }
                }
            }
        }
    }

    #[test]
    fn parallel_slice_is_bit_identical_to_serial() {
        let part = tensile_bar_with_spline(&TensileBarDims::default())
            .unwrap()
            .resolve()
            .unwrap();
        let shells = tessellate_shells(&part, &Resolution::Fine.params());
        let serial = try_slice_shells_with(&shells, 0.1778, Parallelism::serial()).unwrap();
        for threads in [2, 8] {
            let par =
                try_slice_shells_with(&shells, 0.1778, Parallelism::threads(threads)).unwrap();
            assert_eq!(serial, par, "threads = {threads}");
        }
    }

    #[test]
    #[should_panic(expected = "layer height must be positive")]
    fn zero_layer_height_panics() {
        let _ = slice_mesh(&TriMesh::new(), 0.0);
    }

    #[test]
    fn try_slice_returns_typed_errors() {
        assert_eq!(
            try_slice_shells(&[], 0.0),
            Err(SliceError::BadLayerHeight { value: 0.0 })
        );
        assert!(matches!(
            try_slice_shells(&[], f64::NAN),
            Err(SliceError::BadLayerHeight { .. })
        ));
        let part = intact_prism(&PrismDims::default()).resolve().unwrap();
        let shells = tessellate_shells(&part, &Resolution::Coarse.params());
        // A subnormal layer height would demand billions of layers.
        match try_slice_shells(&shells, 1e-12) {
            Err(SliceError::TooManyLayers { estimated, max }) => {
                assert!(estimated > max);
            }
            other => panic!("expected TooManyLayers, got {other:?}"),
        }
        // The happy path agrees with the panicking wrapper.
        let ok = try_slice_shells(&shells, 0.1778).unwrap();
        assert_eq!(ok, slice_shells(&shells, 0.1778));
    }
}
