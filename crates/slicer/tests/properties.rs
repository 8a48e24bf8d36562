//! Property-based tests for slicing, rasterization and tool paths.

use am_geom::{Aabb2, Aabb3, Point2, Point3, Polygon2};
use am_slicer::{
    diagnose_slices, generate_toolpath, rasterize_layer, rasterize_layer_scan, slice_shells,
    CellMaterial, Contour, Layer, RasterLayer, SlicedModel, SlicerConfig, ToolMaterial,
};
use proptest::prelude::*;

fn rect() -> impl Strategy<Value = (f64, f64, f64, f64)> {
    (1.0..40.0f64, 1.0..20.0f64, -20.0..20.0f64, -20.0..20.0f64)
}

fn layer_of(polys: Vec<Polygon2>) -> Layer {
    Layer {
        z: 0.5,
        loops: polys.into_iter().enumerate().map(|(i, polygon)| Contour { polygon, body: i }).collect(),
        open_paths: Vec::new(),
    }
}

/// A random layer for the raster analyses, with the raster bounds and
/// cell size to classify it on.
#[derive(Debug)]
struct Scene {
    layer: Layer,
    bounds: Aabb2,
    cell: f64,
}

/// Random scenes: a base rectangle (body 0); optionally a CW circular hole
/// that may break through the base's edge, with or without a re-embedded
/// inner body, or an inner body without a hole; a second body abutting the
/// base across a sub-cell gap; up to three extra rectangles or circles,
/// overlapping or apart; and raster bounds that are inflated, touch the
/// loops exactly, or cut through them.
fn scene() -> impl Strategy<Value = Scene> {
    let base = (4.0..16.0f64, 3.0..10.0f64);
    let cavity = (0..4usize, 0.0..1.0f64, 0.0..1.0f64, 0.15..0.9f64, 0.3..0.95f64);
    let abut = (0..2usize, 0.0..1.0f64, 1.0..6.0f64, 0.3..1.3f64);
    let extra = collection::vec((0..2usize, -3.0..22.0f64, -3.0..12.0f64, 0.3..5.0f64), 0..4);
    let frame = (0..4usize, 0.0..2.0f64);
    (0.08..0.3f64, base, cavity, abut, extra, frame).prop_map(
        |(cell, (w, h), (cavity, cx, cy, r, inner), (abut, gap, w2, h2), extra, (frame, pad))| {
            let mut loops = vec![Polygon2::rectangle(Point2::ZERO, Point2::new(w, h))];
            let center = Point2::new(cx * w, cy * h);
            let r = r * w.min(h) / 2.0;
            if cavity == 1 || cavity == 2 {
                loops.push(Polygon2::circle(center, r, 20).reversed());
            }
            if cavity >= 2 {
                loops.push(Polygon2::circle(center, r * inner, 20));
            }
            if abut == 1 {
                let x0 = w + gap * cell;
                loops.push(Polygon2::rectangle(
                    Point2::new(x0, 0.0),
                    Point2::new(x0 + w2, (h2 * h).max(0.5)),
                ));
            }
            for (shape, x, y, size) in extra {
                loops.push(if shape == 0 {
                    Polygon2::rectangle(Point2::new(x, y), Point2::new(x + size, y + 0.7 * size))
                } else {
                    Polygon2::circle(Point2::new(x, y), size / 2.0, 16)
                });
            }
            let fit = Aabb2::from_points(loops.iter().flat_map(|p| p.vertices().iter().copied()))
                .expect("non-empty loops");
            let bounds = match frame {
                0 => fit.inflated(1.5 * cell),
                1 => fit,
                2 => Aabb2::new(fit.min, Point2::new(fit.max.x + pad, fit.max.y + pad)),
                _ => Aabb2::new(
                    Point2::new(fit.min.x + pad / 2.0, fit.min.y + pad / 2.0),
                    Point2::new(fit.max.x - pad / 2.0, fit.max.y - pad / 2.0),
                ),
            };
            Scene { layer: layer_of(loops), bounds, cell }
        },
    )
}

/// The test-local oracle: 4-connected floods over a raster's cells.
/// Returns `(model components, internal void cells, min model gap in
/// cells)`.
fn flood_oracle(raster: &RasterLayer) -> (usize, usize, Option<usize>) {
    let (nx, ny) = raster.dims();
    let cells: Vec<CellMaterial> = raster.rows().flat_map(|(_, row)| row.iter().copied()).collect();
    let flood = |seen: &mut Vec<bool>, seeds: Vec<usize>, pass: &dyn Fn(CellMaterial) -> bool| {
        let mut stack: Vec<usize> =
            seeds.into_iter().filter(|&k| pass(cells[k]) && !seen[k]).collect();
        for &k in &stack {
            seen[k] = true;
        }
        while let Some(k) = stack.pop() {
            let (i, j) = (k % nx, k / nx);
            let mut next = Vec::new();
            if i > 0 {
                next.push(k - 1);
            }
            if i + 1 < nx {
                next.push(k + 1);
            }
            if j > 0 {
                next.push(k - nx);
            }
            if j + 1 < ny {
                next.push(k + nx);
            }
            for n in next {
                if !seen[n] && pass(cells[n]) {
                    seen[n] = true;
                    stack.push(n);
                }
            }
        }
    };

    let is_model = |c: CellMaterial| c == CellMaterial::Model;
    let mut seen = vec![false; cells.len()];
    let mut components = 0;
    for k in 0..cells.len() {
        if is_model(cells[k]) && !seen[k] {
            components += 1;
            flood(&mut seen, vec![k], &is_model);
        }
    }

    let border: Vec<usize> = (0..cells.len())
        .filter(|&k| k % nx == 0 || k % nx == nx - 1 || k / nx == 0 || k / nx == ny - 1)
        .collect();
    let mut outside = vec![false; cells.len()];
    flood(&mut outside, border, &|c| !is_model(c));
    let voids =
        (0..cells.len()).filter(|&k| cells[k] == CellMaterial::Empty && !outside[k]).count();

    let mut gap: Option<usize> = None;
    for (_, row) in raster.rows() {
        let mut last_model: Option<usize> = None;
        let mut support_between = false;
        for (i, &c) in row.iter().enumerate() {
            match c {
                CellMaterial::Model => {
                    if let Some(last) = last_model.filter(|&l| l + 1 < i && !support_between) {
                        let g = i - last - 1;
                        gap = Some(gap.map_or(g, |b| b.min(g)));
                    }
                    last_model = Some(i);
                    support_between = false;
                }
                CellMaterial::Support => support_between = true,
                CellMaterial::Empty => {}
            }
        }
    }
    (components, voids, gap)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The run-based raster analyses agree with a 4-connected flood fill
    /// over the cells, and the run-built raster with the row scan.
    #[test]
    fn run_analyses_match_flood_fill_oracle(scene in scene()) {
        let Scene { layer, bounds, cell } = scene;
        for support in [true, false] {
            let raster = rasterize_layer(&layer, bounds, cell, support);
            prop_assert!(
                raster == rasterize_layer_scan(&layer, bounds, cell, support),
                "runs diverged from the scan: support {support}"
            );
            let (components, voids, gap) = flood_oracle(&raster);
            prop_assert_eq!(raster.model_components(), components, "support {}", support);
            prop_assert_eq!(raster.internal_void_cells(), voids, "support {}", support);
            prop_assert_eq!(
                raster.min_model_gap(),
                gap.map(|g| g as f64 * cell),
                "support {}",
                support
            );
        }

        // The diagnosis reads the runs without a cell grid; check it
        // against the oracle on the grid it would have rasterized.
        let sliced = SlicedModel {
            layers: vec![layer.clone()],
            layer_height: 0.1,
            bounds: Aabb3::new(
                Point3::new(bounds.min.x, bounds.min.y, 0.0),
                Point3::new(bounds.max.x, bounds.max.y, 1.0),
            ),
        };
        let report = diagnose_slices(&sliced, cell);
        let raster = rasterize_layer(&layer, bounds.inflated(cell * 1.5), cell, true);
        let (components, voids, gap) = flood_oracle(&raster);
        let seam = components >= 2 && gap.is_some_and(|g| g as f64 * cell <= 2.0);
        prop_assert_eq!(report.max_components, components);
        prop_assert_eq!(report.internal_void_cells, voids);
        prop_assert_eq!(report.internal_void_area.to_bits(), (voids as f64 * cell * cell).to_bits());
        prop_assert_eq!(report.discontinuous_layers, usize::from(seam));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn raster_model_area_matches_polygon_area((w, h, x, y) in rect()) {
        let poly = Polygon2::rectangle(Point2::new(x, y), Point2::new(x + w, y + h));
        let layer = layer_of(vec![poly.clone()]);
        let raster = rasterize_layer(&layer, poly.aabb().inflated(0.5), 0.1, true);
        let area = raster.count(am_slicer::CellMaterial::Model) as f64 * 0.01;
        prop_assert!((area - w * h).abs() / (w * h) < 0.1, "area {area} vs {}", w * h);
        prop_assert_eq!(raster.model_components(), 1);
        prop_assert_eq!(raster.internal_void_cells(), 0);
    }

    #[test]
    fn hole_classifies_as_support((w, h, _, _) in rect(), r in 0.3..4.0f64) {
        // A circular cavity (CW loop) inside a rectangle: enclosed region
        // must classify as support, with winding semantics intact.
        let w = w.max(12.0);
        let h = h.max(12.0);
        let outer = Polygon2::rectangle(Point2::ZERO, Point2::new(w, h));
        let r = r.min(w.min(h) / 2.0 - 1.0).max(0.3);
        let center = Point2::new(w / 2.0, h / 2.0);
        let hole = Polygon2::circle(center, r, 24).reversed();
        let layer = layer_of(vec![outer.clone(), hole]);
        let raster = rasterize_layer(&layer, outer.aabb().inflated(0.5), 0.1, true);
        prop_assert_eq!(raster.material_at(center), am_slicer::CellMaterial::Support);
        prop_assert_eq!(
            raster.material_at(Point2::new(0.5, 0.5)),
            am_slicer::CellMaterial::Model
        );
    }

    #[test]
    fn toolpath_volume_tracks_box_volume((w, h, _, _) in rect(), depth in 2.0..10.0f64) {
        use am_cad::{Part, Feature, SolidShape};
        use am_geom::{Aabb3, Point3};
        // Perimeter/infill overlap dominates on very small parts, so keep
        // the footprint at realistic scale.
        let (w, h) = (w.max(8.0), h.max(8.0));
        let part = Part::new("box")
            .with_feature(Feature::Base(SolidShape::Cuboid(Aabb3::new(
                Point3::ZERO,
                Point3::new(w, h, depth),
            ))))
            .unwrap()
            .resolve()
            .unwrap();
        let shells = am_mesh::tessellate_shells(&part, &am_mesh::Resolution::Fine.params());
        let sliced = slice_shells(&shells, 0.3556);
        let tp = generate_toolpath(&sliced, &SlicerConfig::default());
        let exact = w * h * depth;
        let deposited = tp.material_volume(ToolMaterial::Model);
        prop_assert!(
            (deposited - exact).abs() / exact < 0.35,
            "deposited {deposited} vs {exact}"
        );
    }

    #[test]
    fn gcode_round_trip_for_random_boxes((w, h, _, _) in rect()) {
        use am_cad::{Part, Feature, SolidShape};
        use am_geom::{Aabb3, Point3};
        let part = Part::new("box")
            .with_feature(Feature::Base(SolidShape::Cuboid(Aabb3::new(
                Point3::ZERO,
                Point3::new(w.max(3.0), h.max(3.0), 3.0),
            ))))
            .unwrap()
            .resolve()
            .unwrap();
        let shells = am_mesh::tessellate_shells(&part, &am_mesh::Resolution::Coarse.params());
        let sliced = slice_shells(&shells, 0.3556);
        let tp = generate_toolpath(&sliced, &SlicerConfig::default());
        let back = am_slicer::parse_gcode(&am_slicer::to_gcode(&tp)).unwrap();
        prop_assert_eq!(back.roads.len(), tp.roads.len());
        let (a, b) = (tp.total_length(ToolMaterial::Model), back.total_length(ToolMaterial::Model));
        prop_assert!((a - b).abs() < 0.001 * a.max(1.0));
    }

    #[test]
    fn sliced_volume_conservation((w, h, _, _) in rect(), depth in 2.0..10.0f64) {
        use am_cad::{Part, Feature, SolidShape};
        use am_geom::{Aabb3, Point3};
        let (w, h) = (w.max(3.0), h.max(3.0));
        let part = Part::new("box")
            .with_feature(Feature::Base(SolidShape::Cuboid(Aabb3::new(
                Point3::ZERO,
                Point3::new(w, h, depth),
            ))))
            .unwrap()
            .resolve()
            .unwrap();
        let shells = am_mesh::tessellate_shells(&part, &am_mesh::Resolution::Fine.params());
        let sliced = slice_shells(&shells, 0.1);
        let exact = w * h * depth;
        prop_assert!(
            (sliced.volume_estimate() - exact).abs() / exact < 0.05,
            "sliced {} vs {exact}",
            sliced.volume_estimate()
        );
    }

    /// PR 2 determinism property: on random sphere-cavity prisms, the
    /// z-interval sweep must reproduce the per-layer scan **bit for bit**
    /// at every thread count — the whole performance rewrite is gated on
    /// parallel output being indistinguishable from the serial baseline.
    #[test]
    fn sweep_matches_scan_on_random_prisms(
        (sx, sy, sz) in (12.0..30.0f64, 6.0..15.0f64, 6.0..15.0f64),
        radius in 1.5..2.8f64,
        layer_height in 0.3..0.8f64,
        orient_idx in 0..2usize,
    ) {
        use am_cad::parts::{prism_with_sphere, PrismDims};
        use am_cad::{BodyKind, MaterialRemoval};
        use am_geom::Point3;
        use am_slicer::{orient_shells, slice_shells_scan, try_slice_shells_with, Orientation};

        let dims = PrismDims { size: Point3::new(sx, sy, sz), sphere_radius: radius };
        let part = prism_with_sphere(&dims, BodyKind::Solid, MaterialRemoval::Without)
            .unwrap()
            .resolve()
            .unwrap();
        let shells = am_mesh::tessellate_shells(&part, &am_mesh::Resolution::Fine.params());
        let orientation = [Orientation::Xy, Orientation::Xz][orient_idx];
        let oriented = orient_shells(&shells, orientation);

        let scan = slice_shells_scan(&oriented, layer_height).unwrap();
        for threads in [1usize, 2, 8] {
            let sweep =
                try_slice_shells_with(&oriented, layer_height, am_par::Parallelism::threads(threads))
                    .unwrap();
            prop_assert!(
                scan == sweep,
                "sweep (threads={}) diverged from scan on {}x{}x{} r={} h={}",
                threads, sx, sy, sz, radius, layer_height
            );
        }
    }
}

#[test]
fn raster_layer_outside_bounds_is_empty() {
    let poly = Polygon2::rectangle(Point2::ZERO, Point2::new(2.0, 2.0));
    let layer = layer_of(vec![poly]);
    let raster = rasterize_layer(
        &layer,
        Aabb2::new(Point2::new(-1.0, -1.0), Point2::new(3.0, 3.0)),
        0.1,
        true,
    );
    assert_eq!(raster.material_at(Point2::new(-0.5, -0.5)), am_slicer::CellMaterial::Empty);
}
