//! The printed artifact: a voxel model built by simulated deposition.
//!
//! Deposition has two kernels, pinned bit-identical in tests:
//!
//! * the **span-plan** kernel ([`PrintedPart::try_from_toolpath_planned`])
//!   is the production kernel: every other deposition entry point and the
//!   pipeline's print stage run it. Per layer it runs a two-phase scanline
//!   pipeline — a *plan* phase compiling the layer's roads into per-row
//!   span plans (merged `[x_start, x_end)` fill intervals with per-voxel
//!   distance tests only at the span-end caps) and an *execute* phase
//!   stamping whole spans as slice fills (see DESIGN.md §13);
//! * the **reference** kernel
//!   ([`PrintedPart::try_from_toolpath_reference`]) is the original
//!   road-at-a-time loop. It is the oracle: the golden-grid digests, the
//!   span-plan identity property and the unit tests below compare the
//!   span-plan kernel against it, and `obfuscade bench` times it as the
//!   printing row's baseline.

use std::sync::atomic::{AtomicU64, Ordering};

use am_geom::{Aabb3, Point2, Point3, Transform3};
use am_par::{Parallelism, Pool};
use am_slicer::{Road, ToolMaterial, ToolPath};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{Material, PrinterProfile, ProfileError};

/// Errors from [`PrintedPart::try_from_toolpath`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum PrintError {
    /// The machine profile is invalid.
    Profile(ProfileError),
    /// The tool path has no roads.
    EmptyToolPath,
    /// The tool path carries no layer height / road width metadata (e.g. a
    /// G-code file with a stripped header).
    MissingLayerGeometry {
        /// Layer height found (mm).
        layer_height: f64,
        /// Road width found (mm).
        road_width: f64,
    },
    /// A road coordinate is NaN or infinite; the deposition grid cannot be
    /// sized. (Firmware vetting catches this earlier in the pipeline.)
    NonFiniteGeometry,
    /// The voxel grid implied by the road extents exceeds the supported
    /// size — a corrupted tool path cannot demand unbounded memory.
    GridTooLarge {
        /// Voxels the tool path would require.
        voxels: u128,
        /// Supported maximum.
        max: u64,
    },
    /// [`PrintedPart::from_raw`] rejected raw parts with a non-positive
    /// voxel size — a decoded (spilled/wire) artifact that cannot describe
    /// a physical grid.
    RawVoxelSize {
        /// In-plane voxel size found (mm).
        voxel_xy: f64,
        /// Vertical voxel size found (mm).
        voxel_z: f64,
    },
    /// [`PrintedPart::from_raw`] rejected raw parts whose voxel arrays
    /// disagree with the declared grid dimensions — a torn or corrupted
    /// serialized artifact.
    RawGridMismatch {
        /// Length of the material array.
        material: usize,
        /// Length of the body array.
        body: usize,
        /// Declared grid dimensions `(nx, ny, nz)`.
        dims: (usize, usize, usize),
    },
}

impl std::fmt::Display for PrintError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PrintError::Profile(e) => write!(f, "invalid printer profile: {e}"),
            PrintError::EmptyToolPath => write!(f, "cannot print an empty tool path"),
            PrintError::MissingLayerGeometry { layer_height, road_width } => write!(
                f,
                "tool path missing layer geometry (layer_height {layer_height}, \
                 road_width {road_width})"
            ),
            PrintError::NonFiniteGeometry => {
                write!(f, "tool path contains non-finite coordinates")
            }
            PrintError::GridTooLarge { voxels, max } => {
                write!(f, "tool path spans {voxels} voxels, exceeding the supported {max}")
            }
            PrintError::RawVoxelSize { voxel_xy, voxel_z } => {
                write!(f, "non-positive voxel sizes ({voxel_xy} × {voxel_z})")
            }
            PrintError::RawGridMismatch { material, body, dims: (nx, ny, nz) } => write!(
                f,
                "voxel arrays ({material} material, {body} body) disagree with the \
                 {nx}×{ny}×{nz} grid"
            ),
        }
    }
}

impl std::error::Error for PrintError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PrintError::Profile(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ProfileError> for PrintError {
    fn from(e: ProfileError) -> Self {
        PrintError::Profile(e)
    }
}

/// A printed part: the voxelized result of running a tool path on a
/// [`PrinterProfile`].
///
/// Voxels live in **build** coordinates (xy = half a road width, z = one
/// layer). The part also keeps the model→build transform used by the
/// slicer, so inspection and the virtual test bench can sample material in
/// **model** coordinates regardless of print orientation.
///
/// # Examples
///
/// ```
/// use am_cad::parts::{intact_prism, PrismDims};
/// use am_mesh::{tessellate_shells, Resolution};
/// use am_printer::{Material, PrintedPart, PrinterProfile};
/// use am_slicer::{
///     build_transform, generate_toolpath, orient_shells, slice_shells, Orientation,
///     SlicerConfig,
/// };
///
/// let part = intact_prism(&PrismDims::default()).resolve()?;
/// let shells = tessellate_shells(&part, &Resolution::Fine.params());
/// let oriented = orient_shells(&shells, Orientation::Xy);
/// let to_build = build_transform(&shells, Orientation::Xy);
/// let sliced = slice_shells(&oriented, 0.1778);
/// let toolpath = generate_toolpath(&sliced, &SlicerConfig::default());
/// let printed = PrintedPart::from_toolpath(&toolpath, &PrinterProfile::dimension_elite(), to_build, 7);
/// assert!(printed.voxel_count(Material::Model) > 0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct PrintedPart {
    profile: PrinterProfile,
    origin: Point3,
    voxel_xy: f64,
    voxel_z: f64,
    nx: usize,
    ny: usize,
    nz: usize,
    material: Vec<Material>,
    body: Vec<u16>,
    to_build: Transform3,
    seed: u64,
}

/// The raw parts of a [`PrintedPart`], produced by
/// [`PrintedPart::to_raw`] and consumed by [`PrintedPart::from_raw`] —
/// the decomposed form a serialization layer round-trips through.
#[derive(Debug, Clone)]
pub struct PrintedPartRaw {
    /// Machine profile the part was printed on.
    pub profile: PrinterProfile,
    /// Build-frame position of voxel `(0, 0, 0)`'s minimum corner.
    pub origin: Point3,
    /// In-plane voxel size (mm).
    pub voxel_xy: f64,
    /// Vertical voxel size (mm).
    pub voxel_z: f64,
    /// Grid extent along x (voxels).
    pub nx: usize,
    /// Grid extent along y (voxels).
    pub ny: usize,
    /// Grid extent along z (voxels).
    pub nz: usize,
    /// Per-voxel material, row-major `(k * ny + j) * nx + i`.
    pub material: Vec<Material>,
    /// Per-voxel body index (meaningful for model voxels only).
    pub body: Vec<u16>,
    /// The model→build transform the slicer used.
    pub to_build: Transform3,
    /// Deposition noise seed.
    pub seed: u64,
}

impl PrintedPart {
    /// Deposits a tool path on the given machine.
    ///
    /// `to_build` is the model→build transform the slicer used (see
    /// [`am_slicer::build_transform`]); `seed` drives the machine's
    /// deposition noise and downstream specimen-to-specimen scatter.
    ///
    /// # Panics
    ///
    /// Panics if the tool path is empty or its layer geometry is invalid.
    /// Prefer [`PrintedPart::try_from_toolpath`] in library code.
    pub fn from_toolpath(
        toolpath: &ToolPath,
        profile: &PrinterProfile,
        to_build: Transform3,
        seed: u64,
    ) -> Self {
        match Self::try_from_toolpath(toolpath, profile, to_build, seed) {
            Ok(part) => part,
            Err(e) => panic!("{e}"),
        }
    }

    /// Largest supported deposition grid (voxels). At 3 bytes per voxel
    /// this caps the build at ~400 MB; every real part in the paper's
    /// envelopes is orders of magnitude below it.
    pub const MAX_VOXELS: u64 = 1 << 27;

    /// Deposits a tool path on the given machine, returning a typed error
    /// instead of panicking on invalid input. Runs the span-plan kernel
    /// ([`PrintedPart::try_from_toolpath_planned`]) on one thread.
    ///
    /// # Errors
    ///
    /// [`PrintError::Profile`] for a bad machine profile,
    /// [`PrintError::EmptyToolPath`] / [`PrintError::MissingLayerGeometry`]
    /// for part programs with nothing to deposit,
    /// [`PrintError::NonFiniteGeometry`] for NaN/infinite coordinates, and
    /// [`PrintError::GridTooLarge`] when the road extents would demand an
    /// unreasonable voxel grid.
    pub fn try_from_toolpath(
        toolpath: &ToolPath,
        profile: &PrinterProfile,
        to_build: Transform3,
        seed: u64,
    ) -> Result<Self, PrintError> {
        Self::try_from_toolpath_planned(toolpath, profile, to_build, seed, Parallelism::serial())
    }

    /// The original road-at-a-time deposition loop: serial, one RNG draw
    /// then one stamp per road, exact (square-root) distance tests. Kept as
    /// the oracle the span-plan kernel is tested against and as
    /// `obfuscade bench`'s printing baseline; no production path calls it.
    ///
    /// # Errors
    ///
    /// Same as [`PrintedPart::try_from_toolpath`].
    pub fn try_from_toolpath_reference(
        toolpath: &ToolPath,
        profile: &PrinterProfile,
        to_build: Transform3,
        seed: u64,
    ) -> Result<Self, PrintError> {
        let mut part = Self::empty_grid(toolpath, profile, to_build, seed)?;
        let mut rng = StdRng::seed_from_u64(seed);
        for road in &toolpath.roads {
            // Road-width modulation noise: under/over-extrusion.
            let jitter: f64 = 1.0 + profile.noise_sigma * rng.gen_range(-1.5..1.5);
            let radius = (toolpath.road_width / 2.0) * jitter.clamp(0.6, 1.4);
            part.stamp_road(road, radius);
        }
        Ok(part)
    }

    /// Scanline span-plan deposition (DESIGN.md §13): per layer, a **plan**
    /// phase compiles the roads — in road order — into per-row span plans
    /// (merged `[x_start, x_end)` fill intervals proven inside the road by
    /// the squared-distance margin argument of `STAMP_PROOF_MARGIN`, with
    /// per-voxel distance tests deferred to the span-end caps), then an
    /// **execute** phase stamps each row's spans as contiguous slice fills.
    /// Layers are chunked across an `am-par` pool; every road lands in one
    /// voxel layer, so layers partition the writes, and each layer replays
    /// its roads in road order — only batched into spans. The output grid
    /// (material, body attribution and support alike) is therefore
    /// bit-identical at every thread count, and matches
    /// [`PrintedPart::try_from_toolpath_reference`] on every pinned
    /// workload. (The reference compares square-root distances, this
    /// kernel squared ones; the two can only disagree on a voxel centre
    /// within rounding error of a road boundary.)
    ///
    /// # Errors
    ///
    /// Same as [`PrintedPart::try_from_toolpath`].
    pub fn try_from_toolpath_planned(
        toolpath: &ToolPath,
        profile: &PrinterProfile,
        to_build: Transform3,
        seed: u64,
        parallelism: Parallelism,
    ) -> Result<Self, PrintError> {
        let mut part = Self::empty_grid(toolpath, profile, to_build, seed)?;

        // One pass over the roads builds both shared tables: the per-road
        // context (one jitter draw per road, serially in road order — the
        // exact RNG stream of the reference loop) and the order-preserving
        // layer grouping, so each layer plans its roads in the same order
        // the serial loop would stamp them. For the layer index,
        // `q >= 0 ⇒ trunc ≡ floor`, and a negative quotient fails the
        // reference's `floor(q) >= 0` gate either way — same assignment
        // without the libm floor call; roads arrive layer-ordered, so the
        // layer quotient is memoized on the (bit-exact) z value: the
        // division — the reference formula, which multiplication by a
        // reciprocal would NOT reproduce at layer-boundary z values — runs
        // once per distinct z, not per road.
        let mut rng = StdRng::seed_from_u64(seed);
        let half_width = toolpath.road_width / 2.0;
        let mut ctx: Vec<RoadCtx> = Vec::with_capacity(toolpath.roads.len());
        let mut layer_roads: Vec<Vec<u32>> = vec![Vec::new(); part.nz];
        let mut memo_z = f64::NAN;
        let mut memo_k = usize::MAX;
        for (ri, road) in toolpath.roads.iter().enumerate() {
            let jitter: f64 = 1.0 + profile.noise_sigma * rng.gen_range(-1.5..1.5);
            let radius = half_width * jitter.clamp(0.6, 1.4);
            let material = match road.material {
                ToolMaterial::Model => Material::Model,
                ToolMaterial::Support => Material::Support,
            };
            ctx.push(RoadCtx {
                radius,
                radius_sq: radius * radius,
                key: SpanKey::new(material, road.body),
            });
            if road.z.to_bits() != memo_z.to_bits() {
                memo_z = road.z;
                let q = (road.z - part.origin.z) / part.voxel_z;
                memo_k = if q >= 0.0 && (q as usize) < part.nz { q as usize } else { usize::MAX };
            }
            if memo_k != usize::MAX {
                layer_roads[memo_k].push(ri as u32);
            }
        }

        let plane = part.nx * part.ny;
        let (origin, voxel_xy, nx, ny) = (part.origin, part.voxel_xy, part.nx, part.ny);
        let inv_voxel_xy = 1.0 / voxel_xy;
        let roads: &[Road] = &toolpath.roads;
        let workers = parallelism.thread_count().min(part.nz.max(1));
        let chunk_layers = part.nz.div_ceil(workers * 4).max(1);
        let work: Vec<(usize, &mut [Material], &mut [u16])> = part
            .material
            .chunks_mut(plane * chunk_layers)
            .zip(part.body.chunks_mut(plane * chunk_layers))
            .enumerate()
            .map(|(c, (m, b))| (c * chunk_layers, m, b))
            .collect();
        let pool = Pool::new(parallelism);
        pool.par_consume(work, |(k0, chunk_mat, chunk_body)| {
            // Per-chunk scratch: row buckets reused across the chunk's
            // layers (cleared between layers, capacity kept) and counters
            // accumulated locally — one atomic add per chunk, not per span.
            let mut rows: Vec<Vec<PlannedSpan>> = vec![Vec::new(); ny];
            let mut planned = 0u64;
            let mut filled = 0u64;
            for (dk, (layer_mat, layer_body)) in
                chunk_mat.chunks_mut(plane).zip(chunk_body.chunks_mut(plane)).enumerate()
            {
                for bucket in &mut rows {
                    bucket.clear();
                }
                let mut run = VertRun::idle();
                for &ri in &layer_roads[k0 + dk] {
                    plan_road_layer(
                        &mut rows,
                        &mut run,
                        ri,
                        roads,
                        &ctx,
                        origin,
                        voxel_xy,
                        inv_voxel_xy,
                        nx,
                        ny,
                    );
                }
                flush_vrun(&mut rows, &mut run);
                planned += rows.iter().map(|b| b.len() as u64).sum::<u64>();
                filled += execute_layer(&rows, layer_mat, layer_body, roads, &ctx, origin, voxel_xy, nx);
            }
            SPANS_PLANNED.fetch_add(planned, Ordering::Relaxed);
            SPAN_FILL_VOXELS.fetch_add(filled, Ordering::Relaxed);
        });
        Ok(part)
    }

    /// Order-stable 128-bit digest of the full voxel grid: dimensions,
    /// origin, voxel sizes, then every material and body value in storage
    /// order. Two grids digest equal iff the golden-fixture comparison
    /// of the deposition kernels would pass — used to pin deposition
    /// output without shipping megabytes of fixture.
    pub fn grid_digest(&self) -> u128 {
        // Two independent FNV-1a lanes (different offset bases) over the
        // same byte stream; 2×64 bits makes an accidental collision across
        // kernel drift practically impossible.
        let mut h0: u64 = 0xcbf2_9ce4_8422_2325;
        let mut h1: u64 = 0x6c62_272e_07bb_0142;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h0 = (h0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
                h1 = (h1 ^ u64::from(b ^ 0x5a)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for dim in [self.nx as u64, self.ny as u64, self.nz as u64] {
            eat(&dim.to_le_bytes());
        }
        for f in [
            self.origin.x,
            self.origin.y,
            self.origin.z,
            self.voxel_xy,
            self.voxel_z,
        ] {
            eat(&f.to_bits().to_le_bytes());
        }
        for m in &self.material {
            eat(&[match m {
                Material::Empty => 0u8,
                Material::Model => 1,
                Material::Support => 2,
            }]);
        }
        for b in &self.body {
            eat(&b.to_le_bytes());
        }
        (u128::from(h0) << 64) | u128::from(h1)
    }

    /// Validates inputs and allocates the empty deposition grid.
    fn empty_grid(
        toolpath: &ToolPath,
        profile: &PrinterProfile,
        to_build: Transform3,
        seed: u64,
    ) -> Result<Self, PrintError> {
        profile.validate()?;
        if toolpath.roads.is_empty() {
            return Err(PrintError::EmptyToolPath);
        }
        let (h, w) = (toolpath.layer_height, toolpath.road_width);
        if !(h.is_finite() && h > 0.0 && w.is_finite() && w > 0.0) {
            return Err(PrintError::MissingLayerGeometry { layer_height: h, road_width: w });
        }

        let voxel_xy = toolpath.road_width / 2.0;
        let voxel_z = toolpath.layer_height;
        let mut min = Point3::new(f64::INFINITY, f64::INFINITY, f64::INFINITY);
        let mut max = Point3::new(f64::NEG_INFINITY, f64::NEG_INFINITY, f64::NEG_INFINITY);
        for r in &toolpath.roads {
            if !(r.from.x.is_finite()
                && r.from.y.is_finite()
                && r.to.x.is_finite()
                && r.to.y.is_finite()
                && r.z.is_finite())
            {
                return Err(PrintError::NonFiniteGeometry);
            }
            for p in [r.from, r.to] {
                min.x = min.x.min(p.x);
                min.y = min.y.min(p.y);
                max.x = max.x.max(p.x);
                max.y = max.y.max(p.y);
            }
            min.z = min.z.min(r.z);
            max.z = max.z.max(r.z);
        }
        let margin = toolpath.road_width;
        let origin = Point3::new(min.x - margin, min.y - margin, min.z - voxel_z / 2.0);
        // Size the grid in f64 first: with finite extents and positive voxel
        // sizes the counts are finite, but a corrupted tool path can still
        // demand an absurd grid — bound it before allocating.
        let fx = ((max.x - min.x) + 2.0 * margin) / voxel_xy;
        let fy = ((max.y - min.y) + 2.0 * margin) / voxel_xy;
        let fz = (max.z - min.z) / voxel_z;
        if !(fx.is_finite() && fy.is_finite() && fz.is_finite()) {
            return Err(PrintError::NonFiniteGeometry);
        }
        let nx = fx.ceil().clamp(0.0, 1e18) as u128 + 1;
        let ny = fy.ceil().clamp(0.0, 1e18) as u128 + 1;
        let nz = fz.round().clamp(0.0, 1e18) as u128 + 1;
        let voxels = nx * ny * nz;
        if voxels > u128::from(Self::MAX_VOXELS) {
            return Err(PrintError::GridTooLarge { voxels, max: Self::MAX_VOXELS });
        }
        let (nx, ny, nz) = (nx as usize, ny as usize, nz as usize);

        Ok(PrintedPart {
            profile: profile.clone(),
            origin,
            voxel_xy,
            voxel_z,
            nx,
            ny,
            nz,
            material: vec![Material::Empty; nx * ny * nz],
            body: vec![u16::MAX; nx * ny * nz],
            to_build,
            seed,
        })
    }

    /// Reference stamping: exact distance test, whole-grid indexing.
    fn stamp_road(&mut self, road: &am_slicer::Road, radius: f64) {
        let k = ((road.z - self.origin.z) / self.voxel_z).floor();
        if k < 0.0 || k as usize >= self.nz {
            return;
        }
        let k = k as usize;
        let material = match road.material {
            ToolMaterial::Model => Material::Model,
            ToolMaterial::Support => Material::Support,
        };
        let (a, b) = (road.from, road.to);
        let lo_x = (a.x.min(b.x) - radius - self.origin.x) / self.voxel_xy;
        let hi_x = (a.x.max(b.x) + radius - self.origin.x) / self.voxel_xy;
        let lo_y = (a.y.min(b.y) - radius - self.origin.y) / self.voxel_xy;
        let hi_y = (a.y.max(b.y) + radius - self.origin.y) / self.voxel_xy;
        let i0 = lo_x.floor().max(0.0) as usize;
        let i1 = (hi_x.ceil() as usize).min(self.nx - 1);
        let j0 = lo_y.floor().max(0.0) as usize;
        let j1 = (hi_y.ceil() as usize).min(self.ny - 1);
        let seg = am_geom::Segment2::new(a, b);
        for j in j0..=j1 {
            for i in i0..=i1 {
                let c = am_geom::Point2::new(
                    self.origin.x + (i as f64 + 0.5) * self.voxel_xy,
                    self.origin.y + (j as f64 + 0.5) * self.voxel_xy,
                );
                if seg.distance_to_point(c) <= radius {
                    let idx = (k * self.ny + j) * self.nx + i;
                    // Model never gets overwritten by support.
                    if material == Material::Model || self.material[idx] == Material::Empty {
                        self.material[idx] = material;
                    }
                    if material == Material::Model {
                        if let Some(body) = road.body {
                            self.body[idx] = body;
                        }
                    }
                }
            }
        }
    }

    /// Decomposes the artifact into its raw parts — everything a
    /// serialization layer (the stage-cache spill tier) needs to rebuild
    /// a bit-identical copy with [`PrintedPart::from_raw`].
    pub fn to_raw(&self) -> PrintedPartRaw {
        PrintedPartRaw {
            profile: self.profile.clone(),
            origin: self.origin,
            voxel_xy: self.voxel_xy,
            voxel_z: self.voxel_z,
            nx: self.nx,
            ny: self.ny,
            nz: self.nz,
            material: self.material.clone(),
            body: self.body.clone(),
            to_build: self.to_build,
            seed: self.seed,
        }
    }

    /// Rebuilds an artifact from [`PrintedPart::to_raw`] parts.
    ///
    /// # Errors
    ///
    /// The first structural inconsistency, typed into the §7 error
    /// taxonomy: [`PrintError::RawVoxelSize`] for non-positive voxel
    /// sizes, [`PrintError::GridTooLarge`] for a grid above
    /// [`PrintedPart::MAX_VOXELS`], or [`PrintError::RawGridMismatch`]
    /// for voxel arrays whose length disagrees with the grid dimensions.
    pub fn from_raw(raw: PrintedPartRaw) -> Result<Self, PrintError> {
        if !(raw.voxel_xy > 0.0 && raw.voxel_z > 0.0) {
            return Err(PrintError::RawVoxelSize {
                voxel_xy: raw.voxel_xy,
                voxel_z: raw.voxel_z,
            });
        }
        let voxels = (raw.nx as u128) * (raw.ny as u128) * (raw.nz as u128);
        if voxels > u128::from(Self::MAX_VOXELS) {
            return Err(PrintError::GridTooLarge { voxels, max: Self::MAX_VOXELS });
        }
        if raw.material.len() as u128 != voxels || raw.body.len() as u128 != voxels {
            return Err(PrintError::RawGridMismatch {
                material: raw.material.len(),
                body: raw.body.len(),
                dims: (raw.nx, raw.ny, raw.nz),
            });
        }
        Ok(PrintedPart {
            profile: raw.profile,
            origin: raw.origin,
            voxel_xy: raw.voxel_xy,
            voxel_z: raw.voxel_z,
            nx: raw.nx,
            ny: raw.ny,
            nz: raw.nz,
            material: raw.material,
            body: raw.body,
            to_build: raw.to_build,
            seed: raw.seed,
        })
    }

    /// The machine profile this part was printed on.
    pub fn profile(&self) -> &PrinterProfile {
        &self.profile
    }

    /// Deposition noise seed (drives downstream specimen scatter too).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Voxel grid dimensions `(nx, ny, nz)`.
    pub fn dims(&self) -> (usize, usize, usize) {
        (self.nx, self.ny, self.nz)
    }

    /// Voxel sizes `(xy, z)` in millimetres.
    pub fn voxel_size(&self) -> (f64, f64) {
        (self.voxel_xy, self.voxel_z)
    }

    /// Build-frame bounding box of the voxel grid.
    pub fn bounds(&self) -> Aabb3 {
        Aabb3::new(
            self.origin,
            self.origin
                + am_geom::Vec3::new(
                    self.nx as f64 * self.voxel_xy,
                    self.ny as f64 * self.voxel_xy,
                    self.nz as f64 * self.voxel_z,
                ),
        )
    }

    /// The model→build transform.
    pub fn to_build(&self) -> &Transform3 {
        &self.to_build
    }

    /// Material of voxel `(i, j, k)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    pub fn at(&self, i: usize, j: usize, k: usize) -> Material {
        assert!(i < self.nx && j < self.ny && k < self.nz, "voxel out of range");
        self.material[(k * self.ny + j) * self.nx + i]
    }

    /// Body tag of voxel `(i, j, k)` (model voxels only).
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    pub fn body_at(&self, i: usize, j: usize, k: usize) -> Option<u16> {
        assert!(i < self.nx && j < self.ny && k < self.nz, "voxel out of range");
        let b = self.body[(k * self.ny + j) * self.nx + i];
        (b != u16::MAX).then_some(b)
    }

    fn voxel_of(&self, p: Point3) -> Option<(usize, usize, usize)> {
        let i = ((p.x - self.origin.x) / self.voxel_xy).floor();
        let j = ((p.y - self.origin.y) / self.voxel_xy).floor();
        let k = ((p.z - self.origin.z) / self.voxel_z).floor();
        if i < 0.0 || j < 0.0 || k < 0.0 {
            return None;
        }
        let (i, j, k) = (i as usize, j as usize, k as usize);
        (i < self.nx && j < self.ny && k < self.nz).then_some((i, j, k))
    }

    /// Material at a build-frame point (`Empty` outside the grid).
    pub fn material_at_build(&self, p: Point3) -> Material {
        match self.voxel_of(p) {
            Some((i, j, k)) => self.at(i, j, k),
            None => Material::Empty,
        }
    }

    /// Material at a **model**-frame point.
    pub fn material_at_model(&self, p: Point3) -> Material {
        self.material_at_build(self.to_build.apply(p))
    }

    /// Body tag at a model-frame point.
    pub fn body_at_model(&self, p: Point3) -> Option<u16> {
        match self.voxel_of(self.to_build.apply(p)) {
            Some((i, j, k)) => self.body_at(i, j, k),
            None => None,
        }
    }

    /// Number of voxels of the given material.
    pub fn voxel_count(&self, material: Material) -> usize {
        self.material.iter().filter(|&&m| m == material).count()
    }

    /// Volume (mm³) of the given material.
    pub fn material_volume(&self, material: Material) -> f64 {
        self.voxel_count(material) as f64 * self.voxel_xy * self.voxel_xy * self.voxel_z
    }

    /// Estimated part weight in grams after support removal.
    pub fn weight_g(&self) -> f64 {
        self.material_volume(Material::Model) / 1000.0 * self.profile.model_material.density_g_cm3
    }

    /// Dissolves soluble support material (no-op for insoluble support).
    pub fn dissolve_support(&mut self) {
        if !self.profile.soluble_support {
            return;
        }
        for m in &mut self.material {
            if *m == Material::Support {
                *m = Material::Empty;
            }
        }
    }

    /// Raw voxel slice at layer `k` (row-major, `ny` rows × `nx` columns) —
    /// the simulated CT-scan image used by inspection and authentication.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn ct_slice(&self, k: usize) -> &[Material] {
        assert!(k < self.nz, "layer {k} out of range");
        &self.material[k * self.nx * self.ny..(k + 1) * self.nx * self.ny]
    }
}

/// Writes one voxel under the deposition overwrite rules: model never
/// gets overwritten by support, and only model roads claim a body id.
#[inline]
fn write_voxel(
    row: &mut [Material],
    body_row: &mut [u16],
    i: usize,
    material: Material,
    body: Option<u16>,
) {
    if material == Material::Model || row[i] == Material::Empty {
        row[i] = material;
    }
    if material == Material::Model {
        if let Some(b) = body {
            body_row[i] = b;
        }
    }
}

/// Proof margin (**mm², squared-distance units only**) separating
/// "provably inside/outside" from the exact per-voxel distance test in
/// the span-plan kernel's axis-aligned fast paths ([`plan_road_layer`],
/// [`scan_span`]).
///
/// Derivation of the error bound it must dominate: for an axis-aligned
/// segment the reference [`am_geom::Segment2::distance_squared_to_point`]
/// projects the voxel center onto the segment with the perpendicular
/// coordinate of the nearest point reproduced *exactly* (the projection
/// adds `t * 0.0 = 0.0` along the degenerate axis), so the reference
/// squared distance differs from the analytic `(cy − a.y)²` / `(cx − a.x)²`
/// only by the along-axis projection residual, squared. Build-volume
/// coordinates are below ~10³ mm, where one `f64` ulp is ≤ 2⁻⁴² mm ≈
/// 2.3·10⁻¹³ mm; a few ulps of residual squared is ≲ 10⁻²⁵ mm². Any voxel
/// whose analytic squared distance clears `radius_sq` by this margin
/// (19 orders of magnitude of headroom) is therefore guaranteed to land on
/// the same side of the comparison the reference test takes; voxels inside
/// the margin band fall back to that exact test. The margin is **never**
/// applied as a linear (mm) offset: span membership uses the exact
/// `x_min ≤ center ≤ x_max` / `seg_lo_y ≤ cy ≤ seg_hi_y` bounds, which are
/// safe without a margin because a center at exactly `x_min` projects at
/// `t = 0` with squared distance exactly `(cy − a.y)²`.
const STAMP_PROOF_MARGIN: f64 = 1e-6;

static SPANS_PLANNED: AtomicU64 = AtomicU64::new(0);
static SPAN_FILL_VOXELS: AtomicU64 = AtomicU64::new(0);
/// Cumulative process-global counters of the span-plan deposition kernel
/// ([`PrintedPart::try_from_toolpath_planned`]); the bench harness reads
/// them before/after a run and reports the delta.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StampCounters {
    /// Span records the plan phase compiled (counted after merging).
    pub spans_planned: u64,
    /// Voxels the execute phase wrote through unconditional span fills
    /// (cap cells resolved by exact tests are not counted).
    pub span_fill_voxels: u64,
}

/// Reads the cumulative [`StampCounters`]. Monotone within a process; the
/// reference kernel never touches them.
pub fn stamp_counters() -> StampCounters {
    StampCounters {
        spans_planned: SPANS_PLANNED.load(Ordering::Relaxed),
        span_fill_voxels: SPAN_FILL_VOXELS.load(Ordering::Relaxed),
    }
}

/// Per-road immutable context shared by the span-plan kernel's phases:
/// the jittered stamp radius (linear and squared) and the packed
/// deposition key. Endpoints stay in the borrowed road slice — keeping
/// this at 24 bytes makes the serial context build mostly RNG.
struct RoadCtx {
    radius: f64,
    radius_sq: f64,
    key: SpanKey,
}

/// One planned span in a grid row, all bounds half-open cell indices with
/// the invariant `lo ≤ fill_lo ≤ fill_hi ≤ hi`:
///
/// * `[fill_lo, fill_hi)` — the **fill** interval, proven inside the road
///   (stamped with no per-voxel test);
/// * `[lo, fill_lo)` and `[fill_hi, hi)` — the **cap** cells, resolved by
///   the exact squared-distance test against `road`'s segment (a pure
///   exact span — a diagonal road's row, a radius-borderline row — sets
///   `fill_lo = fill_hi = hi`).
///
/// Buckets hold a row's spans in road order, which is the write-order
/// invariant body attribution (last model road wins) depends on.
#[derive(Clone, Copy)]
struct PlannedSpan {
    lo: u32,
    fill_lo: u32,
    fill_hi: u32,
    hi: u32,
    road: u32,
    key: SpanKey,
}

/// The deposition key of a span, packed for branch-free comparisons:
/// material discriminant in bits 18‥17, a body-present flag in bit 16 and
/// the body id in the low 16 bits. Spans carry it so the execute phase's
/// fill path and the merge check never have to chase `ctx[road]` through
/// the cache — only cap cells (which need the segment geometry for the
/// exact test) dereference the road context.
#[derive(Clone, Copy, PartialEq, Eq)]
struct SpanKey(u32);

impl SpanKey {
    fn new(material: Material, body: Option<u16>) -> Self {
        let m = match material {
            Material::Empty => 0u32,
            Material::Model => 1,
            Material::Support => 2,
        };
        Self((m << 17) | (u32::from(body.is_some()) << 16) | u32::from(body.unwrap_or(0)))
    }

    fn material(self) -> Material {
        match self.0 >> 17 {
            1 => Material::Model,
            2 => Material::Support,
            _ => Material::Empty,
        }
    }

    fn body(self) -> Option<u16> {
        (self.0 & 0x1_0000 != 0).then_some(self.0 as u16)
    }
}

/// Appends a span to a row bucket, merging it into the bucket's last span
/// when that is provably write-order equivalent (DESIGN.md §13): the two
/// spans share one (material, body) key, the earlier span is cap-free on
/// its high side, the later span is entirely cap-free, and the fill
/// intervals overlap or touch with the later one starting inside the
/// earlier one's fill. Same-key fills are idempotent, so executing the
/// fused interval at the earlier span's slot writes the same final state.
#[inline]
fn push_span(bucket: &mut Vec<PlannedSpan>, s: PlannedSpan) {
    if let Some(prev) = bucket.last_mut() {
        // Non-short-circuiting `&`: the six u32 tests are cheaper than
        // five conditional branches on this call's hot path.
        if (prev.key == s.key)
            & (prev.fill_hi == prev.hi)
            & (s.lo == s.fill_lo)
            & (s.fill_hi == s.hi)
            & (s.fill_lo >= prev.fill_lo)
            & (s.fill_lo <= prev.fill_hi)
        {
            prev.fill_hi = prev.fill_hi.max(s.fill_hi);
            prev.hi = prev.fill_hi;
            return;
        }
    }
    bucket.push(s);
}

/// Exact `x.floor().max(0.0) as usize` without the libm `floor` call (the
/// x86-64 baseline has no round instruction, so `f64::floor` is an actual
/// function call): for non-negative values truncation IS floor, and both
/// forms send negatives to 0.
#[inline]
fn floor_clamp0(x: f64) -> usize {
    x.max(0.0) as usize
}

/// Exact `x.ceil() as usize` (saturating at 0 for negatives, as the `as`
/// cast does) without the libm `ceil` call: truncate, then bump by one
/// when truncation lost a fractional part.
#[inline]
fn ceil_clamp0(x: f64) -> usize {
    let x = x.max(0.0);
    let t = x as usize;
    t.saturating_add(usize::from((t as f64) < x))
}

/// Assembles the [`PlannedSpan`] of one classified row scan: touch bounds
/// become the span extent, fill bounds the cap-free core (`hi, hi` when no
/// cell was provably inside).
#[inline]
fn build_span(
    first_touch: Option<usize>,
    last_touch: usize,
    first_fill: Option<usize>,
    last_fill: usize,
    road: u32,
    key: SpanKey,
) -> Option<PlannedSpan> {
    first_touch.map(|lo| {
        let hi = last_touch + 1;
        let (fill_lo, fill_hi) = match first_fill {
            Some(f) => (f, last_fill + 1),
            None => (hi, hi),
        };
        PlannedSpan {
            lo: lo as u32,
            fill_lo: fill_lo as u32,
            fill_hi: fill_hi as u32,
            hi: hi as u32,
            road,
            key,
        }
    })
}

/// Margin-classifies the cells `i_lo..=i_hi` of one grid row against an
/// axis-aligned road whose x-extent is `[x_min, x_max]` and whose squared
/// y-offset for this row is `d2_extra`: each cell's conservative squared
/// distance is `clamp(cx − [x_min, x_max])² + d2_extra`, which matches the
/// reference segment distance to within a few ulps — far inside the
/// `STAMP_PROOF_MARGIN` band — so `≤ r² − margin` proves the cell inside
/// (fill), `≥ r² + margin` proves it outside (skip), and only band cells
/// are left as exact caps. The clamped offset is unimodal over the
/// monotone cell centres, so fills form one interval flanked by bands.
#[allow(clippy::too_many_arguments)]
#[inline]
fn scan_span(
    i_lo: usize,
    i_hi: usize,
    x_min: f64,
    x_max: f64,
    d2_extra: f64,
    radius_sq: f64,
    origin_x: f64,
    voxel_xy: f64,
    road: u32,
    key: SpanKey,
) -> Option<PlannedSpan> {
    let mut first_touch = None;
    let mut last_touch = 0usize;
    let mut first_fill = None;
    let mut last_fill = 0usize;
    for i in i_lo..=i_hi {
        let cx = origin_x + (i as f64 + 0.5) * voxel_xy;
        let ddx = if cx < x_min {
            cx - x_min
        } else if cx > x_max {
            cx - x_max
        } else {
            0.0
        };
        let d2 = ddx * ddx + d2_extra;
        if d2 >= radius_sq + STAMP_PROOF_MARGIN {
            continue;
        }
        if first_touch.is_none() {
            first_touch = Some(i);
        }
        last_touch = i;
        if d2 <= radius_sq - STAMP_PROOF_MARGIN {
            if first_fill.is_none() {
                first_fill = Some(i);
            }
            last_fill = i;
        }
    }
    build_span(first_touch, last_touch, first_fill, last_fill, road, key)
}

/// Deferred fusion of a run of consecutive vertical roads (one per layer):
/// while successive roads share the deposition key, the interior row range
/// and a cap-free merge-compatible span, the per-row bucket pushes they
/// would all perform individually collapse into one fused span per row,
/// flushed when the run breaks. The fused result is exactly what the
/// per-road sequence of [`push_span`] merges would have left in each
/// bucket, because every merge input is row-independent.
struct VertRun {
    active: bool,
    /// Interior row range `[ja, jb_plus)` shared by every member.
    ja: usize,
    jb_plus: usize,
    acc: PlannedSpan,
}

impl VertRun {
    const fn idle() -> Self {
        Self {
            active: false,
            ja: 0,
            jb_plus: 0,
            acc: PlannedSpan { lo: 0, fill_lo: 0, fill_hi: 0, hi: 0, road: 0, key: SpanKey(0) },
        }
    }
}

/// Flushes a pending vertical run: one push of the fused span into each
/// interior row bucket.
fn flush_vrun(rows: &mut [Vec<PlannedSpan>], run: &mut VertRun) {
    if run.active {
        for bucket in &mut rows[run.ja..run.jb_plus] {
            push_span(bucket, run.acc);
        }
        run.active = false;
    }
}

/// Plan phase for one road: visits the rows the road can reach and,
/// instead of writing voxels, appends [`PlannedSpan`]s to the layer's row
/// buckets — cells provably inside the road (by [`STAMP_PROOF_MARGIN`])
/// as fills, margin-band cells as exact-test caps. The per-cell (vertical
/// roads) and per-row (horizontal roads) classifications are
/// row-independent — `(cx − a.x)²` does not involve the row, and the
/// horizontal fill bounds never see a diagonal clip — so both are
/// resolved once per road and replayed for every interior row; an
/// O(rows × cells) per-voxel comparison loop collapses to
/// O(rows + cells).
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn plan_road_layer(
    rows: &mut [Vec<PlannedSpan>],
    run: &mut VertRun,
    ri: u32,
    roads: &[Road],
    ctx: &[RoadCtx],
    origin: Point3,
    voxel_xy: f64,
    inv_voxel_xy: f64,
    nx: usize,
    ny: usize,
) {
    let rc = &ctx[ri as usize];
    let road = &roads[ri as usize];
    let (a, b) = (road.from, road.to);
    let (radius, radius_sq) = (rc.radius, rc.radius_sq);
    let key = rc.key;
    let seg_lo_y = a.y.min(b.y);
    let seg_hi_y = a.y.max(b.y);
    // Reciprocal multiplication is NOT the reference quotient, but these
    // bounds only have to be a superset of the rows/cells the reference
    // can write: a written row satisfies |cy − y| ≤ radius·(1+ε), which
    // sits ≥ 0.25 cells inside either quotient (they differ by ~2e-14
    // cells), so the clamped floor/ceil below never excludes one. Every
    // per-cell classification afterwards uses the reference comparisons.
    let lo_x = (a.x.min(b.x) - radius - origin.x) * inv_voxel_xy;
    let hi_x = (a.x.max(b.x) + radius - origin.x) * inv_voxel_xy;
    let lo_y = (seg_lo_y - radius - origin.y) * inv_voxel_xy;
    let hi_y = (seg_hi_y + radius - origin.y) * inv_voxel_xy;
    let i0 = floor_clamp0(lo_x);
    let i1 = ceil_clamp0(hi_x).min(nx - 1);
    let j0 = floor_clamp0(lo_y);
    let j1 = ceil_clamp0(hi_y).min(ny - 1);
    let dx = b.x - a.x;
    let dy = b.y - a.y;
    let len2 = dx * dx + dy * dy;
    let horizontal = dy == 0.0 && len2 > 0.0;
    let vertical = dx == 0.0 && len2 > 0.0;

    if vertical {
        // Classify the (tiny) cell range once: the margin-band flanks
        // become cap cells; everything between is a proven fill. The
        // squared offsets are memoized so the end-cap rows below re-test
        // the same cells with one load + add each. Against `[a.x, a.x]`
        // the clamped offset is always `cx − a.x` (the in-range branch
        // yields exactly 0.0 there too), so this is [`scan_span`]'s value.
        const VMEMO: usize = 32;
        let mut dd2 = [0.0f64; VMEMO];
        let memoized = i1 - i0 < VMEMO;
        let vspan = if memoized {
            let mut first_touch = None;
            let mut last_touch = 0usize;
            let mut first_fill = None;
            let mut last_fill = 0usize;
            for i in i0..=i1 {
                let cx = origin.x + (i as f64 + 0.5) * voxel_xy;
                let ddx = cx - a.x;
                let d2 = ddx * ddx;
                dd2[i - i0] = d2;
                if d2 >= radius_sq + STAMP_PROOF_MARGIN {
                    continue;
                }
                if first_touch.is_none() {
                    first_touch = Some(i);
                }
                last_touch = i;
                if d2 <= radius_sq - STAMP_PROOF_MARGIN {
                    if first_fill.is_none() {
                        first_fill = Some(i);
                    }
                    last_fill = i;
                }
            }
            build_span(first_touch, last_touch, first_fill, last_fill, ri, key)
        } else {
            scan_span(i0, i1, a.x, a.x, 0.0, radius_sq, origin.x, voxel_xy, ri, key)
        };
        let Some(vspan) = vspan else {
            // No cell is even near the road: nothing would be pushed, so
            // the pending run can survive this road.
            return;
        };
        // Not-provably-outside cell range: end-cap rows rescan only those
        // cells (everything outside is out for every row, since its `wx²`
        // alone already clears `r² + margin`).
        let touch = (vspan.lo as usize, vspan.hi as usize - 1);
        // Interior rows [ja, jb_plus): exactly the rows whose centre
        // satisfies the reference band test `seg_lo_y ≤ cy ≤ seg_hi_y`
        // (found by walking the ≤ radius-wide fringes, so the comparisons
        // are the reference ones — no rounding re-derivation).
        let mut ja = j0;
        while ja <= j1 && origin.y + (ja as f64 + 0.5) * voxel_xy < seg_lo_y {
            ja += 1;
        }
        let mut jb_plus = j1 + 1;
        while jb_plus > ja && origin.y + ((jb_plus - 1) as f64 + 0.5) * voxel_xy > seg_hi_y {
            jb_plus -= 1;
        }
        let cap_free = vspan.lo == vspan.fill_lo && vspan.fill_hi == vspan.hi;
        let joins = run.active
            && run.ja == ja
            && run.jb_plus == jb_plus
            && cap_free
            && run.acc.key == vspan.key
            && vspan.fill_lo >= run.acc.fill_lo
            && vspan.fill_lo <= run.acc.fill_hi;
        if joins {
            run.acc.fill_hi = run.acc.fill_hi.max(vspan.fill_hi);
            run.acc.hi = run.acc.fill_hi;
        } else {
            flush_vrun(rows, run);
            if ja < jb_plus {
                if cap_free {
                    *run = VertRun { active: true, ja, jb_plus, acc: vspan };
                } else {
                    for bucket in &mut rows[ja..jb_plus] {
                        push_span(bucket, vspan);
                    }
                }
            }
        }
        // End-cap rows below and above the segment band (cy outside
        // [seg_lo_y, seg_hi_y] but inside the radius fringe): re-test the
        // touch cells with the end-cap offset `wx² + dy²` added. Walking
        // outward, `dy²` grows (exactly — f64 addition is
        // rounding-monotone), so each row's touch and fill sets are
        // subsets of the previous row's, and `ddx²` is exactly unimodal
        // over the monotone cell centres, so both sets stay contiguous:
        // instead of rescanning the whole touch range per row, four
        // pointers shrink inward by the very same per-cell comparisons
        // [`scan_span`] would make, skipping only cells whose outcome the
        // monotonicity already implies. An empty touch set ends the side —
        // every farther row tests empty too. The rows are disjoint from
        // every run member's interior rows, so pushing them immediately
        // preserves bucket order.
        if memoized {
            for (end_y, side_up) in [(seg_lo_y, false), (seg_hi_y, true)] {
                let (mut t_lo, mut t_hi) = (touch.0, touch.1);
                let (mut f_lo, mut f_hi) = match vspan.fill_lo < vspan.fill_hi {
                    true => (vspan.fill_lo as usize, vspan.fill_hi as usize - 1),
                    false => (1, 0),
                };
                let (mut j, step): (isize, isize) = if side_up {
                    (jb_plus as isize, 1)
                } else {
                    (ja as isize - 1, -1)
                };
                let j_end = if side_up { j1 as isize } else { j0 as isize };
                while if side_up { j <= j_end } else { j >= j_end } {
                    let cy = origin.y + (j as f64 + 0.5) * voxel_xy;
                    let dyv = cy - end_y;
                    if (side_up && dyv > radius) || (!side_up && dyv < -radius) {
                        break;
                    }
                    let dy2 = dyv * dyv;
                    while t_lo <= t_hi && dd2[t_lo - i0] + dy2 >= radius_sq + STAMP_PROOF_MARGIN
                    {
                        t_lo += 1;
                    }
                    if t_lo > t_hi {
                        break;
                    }
                    while dd2[t_hi - i0] + dy2 >= radius_sq + STAMP_PROOF_MARGIN {
                        t_hi -= 1;
                    }
                    while f_lo <= f_hi && dd2[f_lo - i0] + dy2 > radius_sq - STAMP_PROOF_MARGIN
                    {
                        f_lo += 1;
                    }
                    if f_lo <= f_hi {
                        while dd2[f_hi - i0] + dy2 > radius_sq - STAMP_PROOF_MARGIN {
                            f_hi -= 1;
                        }
                    }
                    let hi = t_hi as u32 + 1;
                    let (fill_lo, fill_hi) = if f_lo <= f_hi {
                        (f_lo as u32, f_hi as u32 + 1)
                    } else {
                        (hi, hi)
                    };
                    push_span(
                        &mut rows[j as usize],
                        PlannedSpan { lo: t_lo as u32, fill_lo, fill_hi, hi, road: ri, key },
                    );
                    j += step;
                }
            }
            return;
        }
        for j in (j0..ja).rev() {
            let cy = origin.y + (j as f64 + 0.5) * voxel_xy;
            if cy < seg_lo_y - radius {
                break;
            }
            let dyv = cy - seg_lo_y;
            let dy2 = dyv * dyv;
            let s = scan_span(touch.0, touch.1, a.x, a.x, dy2, radius_sq, origin.x, voxel_xy, ri, key);
            if let Some(s) = s {
                push_span(&mut rows[j], s);
            }
        }
        for (j, bucket) in rows.iter_mut().enumerate().take(j1 + 1).skip(jb_plus) {
            let cy = origin.y + (j as f64 + 0.5) * voxel_xy;
            if cy > seg_hi_y + radius {
                break;
            }
            let dyv = cy - seg_hi_y;
            let dy2 = dyv * dyv;
            let s = scan_span(touch.0, touch.1, a.x, a.x, dy2, radius_sq, origin.x, voxel_xy, ri, key);
            if let Some(s) = s {
                push_span(bucket, s);
            }
        }
        return;
    }

    // Any other road pushes (if anything) in plain road order: a pending
    // vertical run must land in the buckets first.
    flush_vrun(rows, run);

    // Horizontal road: the fill bounds are row-independent too (the
    // diagonal clip never fires when dy == 0, so ri0/ri1 stay i0/i1) —
    // hoist the four divisions out of the row loop. The end caps are
    // resolved per row below by the same margin classification.
    let (x_min, x_max) = (a.x.min(b.x), a.x.max(b.x));
    let (mut fl, mut fh) = (0usize, 0usize);
    let hspan = if horizontal {
        // Reciprocal again: the seed cells only have to start the walks
        // within one cell of the endpoint (a one-cell misplacement keeps
        // the seed's `(cx − x_end)²` at ~(2e-14·voxel)² ≪ the proof
        // margin, so its classification cannot differ from the walks').
        let flv = (x_min - origin.x) * inv_voxel_xy - 0.5;
        let fhv = (x_max - origin.x) * inv_voxel_xy - 0.5;
        let flc = ceil_clamp0(flv).max(i0);
        if fhv >= 0.0 {
            let fhc = floor_clamp0(fhv).min(i1);
            if fhc >= flc {
                (fl, fh) = (flc, fhc);
                true
            } else {
                false
            }
        } else {
            false
        }
    } else {
        false
    };

    // Memoized cap-candidate offsets for the row walks below: `ld2[t]` is
    // the exact `(cx − x_min)²` of cell `fl − t − 1`, `rd2[t]` the exact
    // `(cx − x_max)²` of cell `fh + t + 1` — the very products the walks
    // would recompute per row (the centre expressions differ only in
    // integer association, which is exact). A memo entry ≥ r² + margin is
    // a sentinel no row can walk past (`wy² ≥ 0`), so each side stops at
    // its sentinel, its grid bound, or — rarely — the capacity cap, where
    // the cold per-row loops take over.
    const HMEMO: usize = 12;
    let mut ld2 = [0.0f64; HMEMO];
    let mut rd2 = [0.0f64; HMEMO];
    let (mut depth_l, mut depth_r) = (0usize, 0usize);
    if hspan {
        let max_l = (fl - i0).min(HMEMO);
        while depth_l < max_l {
            let cx = origin.x + ((fl - depth_l - 1) as f64 + 0.5) * voxel_xy;
            let ddx = cx - x_min;
            let d2 = ddx * ddx;
            ld2[depth_l] = d2;
            depth_l += 1;
            if d2 >= radius_sq + STAMP_PROOF_MARGIN {
                break;
            }
        }
        let max_r = (i1 - fh).min(HMEMO);
        while depth_r < max_r {
            let cx = origin.x + ((fh + depth_r + 1) as f64 + 0.5) * voxel_xy;
            let ddx = cx - x_max;
            let d2 = ddx * ddx;
            rd2[depth_r] = d2;
            depth_r += 1;
            if d2 >= radius_sq + STAMP_PROOF_MARGIN {
                break;
            }
        }
    }

    for (j, bucket) in rows.iter_mut().enumerate().take(j1 + 1).skip(j0) {
        let cy = origin.y + (j as f64 + 0.5) * voxel_xy;
        if cy < seg_lo_y - radius || cy > seg_hi_y + radius {
            continue;
        }
        if horizontal {
            let wy = cy - a.y;
            let wy2 = wy * wy;
            if wy2 > radius_sq + STAMP_PROOF_MARGIN {
                continue;
            }
            if wy2 <= radius_sq - STAMP_PROOF_MARGIN && hspan {
                // End caps: for a cap cell the nearest segment point is
                // (within one rounding of the margin) the endpoint, so
                // `(cx − x_end)² + wy²` classifies it: provably-inside
                // cells extend the fill, the first provably-outside cell
                // ends the span (the offset grows monotonically outward),
                // and only margin-band cells stay for the exact test.
                let mut kl = 0usize;
                while kl < depth_l && ld2[kl] + wy2 <= radius_sq - STAMP_PROOF_MARGIN {
                    kl += 1;
                }
                let mut s_fill_lo = fl - kl;
                if kl == depth_l {
                    while s_fill_lo > i0 {
                        let cx = origin.x + (s_fill_lo as f64 - 0.5) * voxel_xy;
                        let ddx = cx - x_min;
                        if ddx * ddx + wy2 <= radius_sq - STAMP_PROOF_MARGIN {
                            s_fill_lo -= 1;
                        } else {
                            break;
                        }
                    }
                }
                let mut s_lo = s_fill_lo;
                let mut tl = kl;
                if kl < depth_l {
                    while tl < depth_l && ld2[tl] + wy2 < radius_sq + STAMP_PROOF_MARGIN {
                        tl += 1;
                    }
                    s_lo = fl - tl;
                }
                if tl == depth_l {
                    while s_lo > i0 {
                        let cx = origin.x + (s_lo as f64 - 0.5) * voxel_xy;
                        let ddx = cx - x_min;
                        if ddx * ddx + wy2 < radius_sq + STAMP_PROOF_MARGIN {
                            s_lo -= 1;
                        } else {
                            break;
                        }
                    }
                }
                let mut kr = 0usize;
                while kr < depth_r && rd2[kr] + wy2 <= radius_sq - STAMP_PROOF_MARGIN {
                    kr += 1;
                }
                let mut s_fill_hi = fh + 1 + kr;
                if kr == depth_r {
                    while s_fill_hi <= i1 {
                        let cx = origin.x + (s_fill_hi as f64 + 0.5) * voxel_xy;
                        let ddx = cx - x_max;
                        if ddx * ddx + wy2 <= radius_sq - STAMP_PROOF_MARGIN {
                            s_fill_hi += 1;
                        } else {
                            break;
                        }
                    }
                }
                let mut s_hi = s_fill_hi;
                let mut tr = kr;
                if kr < depth_r {
                    while tr < depth_r && rd2[tr] + wy2 < radius_sq + STAMP_PROOF_MARGIN {
                        tr += 1;
                    }
                    s_hi = fh + 1 + tr;
                }
                if tr == depth_r {
                    while s_hi <= i1 {
                        let cx = origin.x + (s_hi as f64 + 0.5) * voxel_xy;
                        let ddx = cx - x_max;
                        if ddx * ddx + wy2 < radius_sq + STAMP_PROOF_MARGIN {
                            s_hi += 1;
                        } else {
                            break;
                        }
                    }
                }
                push_span(
                    bucket,
                    PlannedSpan {
                        lo: s_lo as u32,
                        fill_lo: s_fill_lo as u32,
                        fill_hi: s_fill_hi as u32,
                        hi: s_hi as u32,
                        road: ri,
                        key,
                    },
                );
                continue;
            }
            // Borderline row (or sub-cell road): classify cell by cell.
            if let Some(s) =
                scan_span(i0, i1, x_min, x_max, wy2, radius_sq, origin.x, voxel_xy, ri, key)
            {
                push_span(bucket, s);
            }
            continue;
        }
        let (mut ri0, mut ri1) = (i0, i1);
        if dy != 0.0 && dx != 0.0 {
            let t_at = |y: f64| ((y - a.y) / dy).clamp(0.0, 1.0);
            let (t_lo, t_hi) = (t_at(cy - radius), t_at(cy + radius));
            let (x_lo, x_hi) = {
                let xa = a.x + t_lo * (b.x - a.x);
                let xb = a.x + t_hi * (b.x - a.x);
                (xa.min(xb), xa.max(xb))
            };
            let span_lo = ((x_lo - radius - origin.x) / voxel_xy - 0.5).floor();
            let span_hi = ((x_hi + radius - origin.x) / voxel_xy + 0.5).ceil();
            ri0 = ri0.max(span_lo.max(0.0) as usize);
            ri1 = ri1.min(span_hi.max(0.0) as usize);
        }
        if ri0 <= ri1 {
            let hi = ri1 as u32 + 1;
            push_span(
                bucket,
                PlannedSpan { lo: ri0 as u32, fill_lo: hi, fill_hi: hi, hi, road: ri, key },
            );
        }
    }
}

/// Execute phase for one layer: walks every row's planned spans in order,
/// resolving cap cells with the exact reference test and stamping fill
/// intervals as contiguous slice fills (`slice::fill` for model material;
/// a byte-compare/select loop for support, which must not overwrite
/// model). Returns the number of fill-written voxels.
#[allow(clippy::too_many_arguments)]
fn execute_layer(
    rows: &[Vec<PlannedSpan>],
    layer_mat: &mut [Material],
    layer_body: &mut [u16],
    roads: &[Road],
    ctx: &[RoadCtx],
    origin: Point3,
    voxel_xy: f64,
    nx: usize,
) -> u64 {
    let mut filled = 0u64;
    for (j, bucket) in rows.iter().enumerate() {
        if bucket.is_empty() {
            continue;
        }
        let row = &mut layer_mat[j * nx..(j + 1) * nx];
        let body_row = &mut layer_body[j * nx..(j + 1) * nx];
        let cy = origin.y + (j as f64 + 0.5) * voxel_xy;
        for s in bucket {
            if s.lo < s.fill_lo {
                let r = s.road as usize;
                stamp_exact(row, body_row, s.lo as usize..s.fill_lo as usize, &roads[r], &ctx[r], cy, origin.x, voxel_xy);
            }
            let (fl, fh) = (s.fill_lo as usize, s.fill_hi as usize);
            if fl < fh {
                filled += (fh - fl) as u64;
                match s.key.material() {
                    Material::Model => {
                        // Explicit store loops: `slice::fill` lowers to a
                        // libc memset call, whose call overhead dominates
                        // at the ~40-cell spans this workload plans.
                        for m in &mut row[fl..fh] {
                            *m = Material::Model;
                        }
                        if let Some(b) = s.key.body() {
                            for bo in &mut body_row[fl..fh] {
                                *bo = b;
                            }
                        }
                    }
                    Material::Support => {
                        for m in &mut row[fl..fh] {
                            if *m == Material::Empty {
                                *m = Material::Support;
                            }
                        }
                    }
                    Material::Empty => {}
                }
            }
            if s.fill_hi < s.hi {
                let r = s.road as usize;
                stamp_exact(row, body_row, s.fill_hi as usize..s.hi as usize, &roads[r], &ctx[r], cy, origin.x, voxel_xy);
            }
        }
    }
    filled
}

/// Cap-cell resolution: the exact squared-distance test against the
/// road's segment, with the reference overwrite rules (model is never
/// overwritten by support; the last model road sets the body).
#[allow(clippy::too_many_arguments)]
#[inline]
fn stamp_exact(
    row: &mut [Material],
    body_row: &mut [u16],
    range: std::ops::Range<usize>,
    road: &Road,
    rc: &RoadCtx,
    cy: f64,
    origin_x: f64,
    voxel_xy: f64,
) {
    let seg = am_geom::Segment2::new(road.from, road.to);
    let (material, body) = (rc.key.material(), rc.key.body());
    for i in range {
        let c = Point2::new(origin_x + (i as f64 + 0.5) * voxel_xy, cy);
        if seg.distance_squared_to_point(c) <= rc.radius_sq {
            write_voxel(row, body_row, i, material, body);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use am_cad::parts::{intact_prism, prism_with_sphere, PrismDims};
    use am_cad::{BodyKind, MaterialRemoval};
    use am_mesh::{tessellate_shells, Resolution};
    use am_slicer::{
        build_transform, generate_toolpath, orient_shells, slice_shells, Orientation,
        SlicerConfig,
    };

    fn print_part(part: &am_cad::ResolvedPart, orientation: Orientation) -> PrintedPart {
        let shells = tessellate_shells(part, &Resolution::Coarse.params());
        let oriented = orient_shells(&shells, orientation);
        let to_build = build_transform(&shells, orientation);
        let sliced = slice_shells(&oriented, 0.1778);
        let toolpath = generate_toolpath(&sliced, &SlicerConfig::default());
        PrintedPart::from_toolpath(&toolpath, &PrinterProfile::dimension_elite(), to_build, 42)
    }

    #[test]
    fn printed_prism_volume_close_to_cad() {
        let part = intact_prism(&PrismDims::default()).resolve().unwrap();
        let printed = print_part(&part, Orientation::Xy);
        let vol = printed.material_volume(Material::Model);
        let exact = 25.4 * 12.7 * 12.7;
        assert!((vol - exact).abs() / exact < 0.15, "vol = {vol} vs {exact}");
    }

    #[test]
    fn embedded_sphere_prints_support_then_dissolves_to_void() {
        let dims = PrismDims::default();
        let part = prism_with_sphere(&dims, BodyKind::Solid, MaterialRemoval::Without)
            .unwrap()
            .resolve()
            .unwrap();
        let mut printed = print_part(&part, Orientation::Xy);
        let center = dims.size * 0.5;
        assert_eq!(printed.material_at_model(center), Material::Support);
        printed.dissolve_support();
        assert_eq!(printed.material_at_model(center), Material::Empty);
        assert_eq!(printed.voxel_count(Material::Support), 0);
    }

    #[test]
    fn removal_solid_prints_model_at_center() {
        let dims = PrismDims::default();
        let part = prism_with_sphere(&dims, BodyKind::Solid, MaterialRemoval::With)
            .unwrap()
            .resolve()
            .unwrap();
        let printed = print_part(&part, Orientation::Xy);
        assert_eq!(printed.material_at_model(dims.size * 0.5), Material::Model);
    }

    #[test]
    fn model_frame_sampling_survives_reorientation() {
        let dims = PrismDims::default();
        let part = intact_prism(&dims).resolve().unwrap();
        let printed = print_part(&part, Orientation::Xz);
        // A model-frame point well inside the prism must be model material
        // even though the build frame is rotated.
        assert_eq!(printed.material_at_model(dims.size * 0.5), Material::Model);
        // And a point outside is empty.
        assert_eq!(
            printed.material_at_model(Point3::new(-5.0, -5.0, -5.0)),
            Material::Empty
        );
    }

    #[test]
    fn weight_is_plausible() {
        let part = intact_prism(&PrismDims::default()).resolve().unwrap();
        let printed = print_part(&part, Orientation::Xy);
        // 4.1 cm³ of ABS ≈ 4.3 g.
        let w = printed.weight_g();
        assert!(w > 3.0 && w < 6.0, "weight {w} g");
    }

    #[test]
    fn deterministic_given_seed() {
        let part = intact_prism(&PrismDims::default()).resolve().unwrap();
        let a = print_part(&part, Orientation::Xy);
        let b = print_part(&part, Orientation::Xy);
        assert_eq!(a.voxel_count(Material::Model), b.voxel_count(Material::Model));
    }

    #[test]
    fn optimized_kernel_matches_reference() {
        // The squared-distance test can only disagree with the exact
        // distance test on voxels whose centre sits within rounding error
        // of the road boundary; none occur on this workload, and the two
        // kernels must otherwise share every RNG draw and write order.
        let part = intact_prism(&PrismDims::default()).resolve().unwrap();
        let shells = tessellate_shells(&part, &Resolution::Coarse.params());
        let oriented = orient_shells(&shells, Orientation::Xy);
        let to_build = build_transform(&shells, Orientation::Xy);
        let sliced = slice_shells(&oriented, 0.1778);
        let toolpath = generate_toolpath(&sliced, &SlicerConfig::default());
        let profile = PrinterProfile::dimension_elite();
        let reference =
            PrintedPart::try_from_toolpath_reference(&toolpath, &profile, to_build, 42).unwrap();
        let optimized =
            PrintedPart::try_from_toolpath(&toolpath, &profile, to_build, 42).unwrap();
        assert_eq!(reference.material, optimized.material);
        assert_eq!(reference.body, optimized.body);
    }

    #[test]
    fn span_plan_kernel_matches_stamper_oracle() {
        let part = prism_with_sphere(&PrismDims::default(), BodyKind::Solid, MaterialRemoval::With)
            .unwrap()
            .resolve()
            .unwrap();
        let shells = tessellate_shells(&part, &Resolution::Coarse.params());
        let oriented = orient_shells(&shells, Orientation::Xy);
        let to_build = build_transform(&shells, Orientation::Xy);
        let sliced = slice_shells(&oriented, 0.1778);
        let toolpath = generate_toolpath(&sliced, &SlicerConfig::default());
        let profile = PrinterProfile::dimension_elite();
        let oracle =
            PrintedPart::try_from_toolpath_reference(&toolpath, &profile, to_build, 42).unwrap();
        for threads in [1, 2, 4, 8] {
            let planned = PrintedPart::try_from_toolpath_planned(
                &toolpath,
                &profile,
                to_build,
                42,
                am_par::Parallelism::threads(threads),
            )
            .unwrap();
            assert_eq!(oracle.material, planned.material, "threads = {threads}");
            assert_eq!(oracle.body, planned.body, "threads = {threads}");
        }
    }

    #[test]
    fn from_raw_rejections_are_typed() {
        let part = intact_prism(&PrismDims::default()).resolve().unwrap();
        let printed = print_part(&part, Orientation::Xy);
        let good = printed.to_raw();

        let mut bad_voxel = good.clone();
        bad_voxel.voxel_xy = 0.0;
        assert_eq!(
            PrintedPart::from_raw(bad_voxel).unwrap_err(),
            PrintError::RawVoxelSize { voxel_xy: 0.0, voxel_z: good.voxel_z },
        );

        let mut torn = good.clone();
        torn.material.pop();
        assert_eq!(
            PrintedPart::from_raw(torn).unwrap_err(),
            PrintError::RawGridMismatch {
                material: good.material.len() - 1,
                body: good.body.len(),
                dims: (good.nx, good.ny, good.nz),
            },
        );

        assert!(PrintedPart::from_raw(good).is_ok());
    }

    #[test]
    #[should_panic(expected = "empty tool path")]
    fn empty_toolpath_rejected() {
        let tp = am_slicer::ToolPath {
            layer_height: 0.1,
            road_width: 0.5,
            ..Default::default()
        };
        let _ = PrintedPart::from_toolpath(
            &tp,
            &PrinterProfile::dimension_elite(),
            Transform3::identity(),
            0,
        );
    }
}
