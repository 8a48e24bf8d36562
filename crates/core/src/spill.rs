//! Crash-safe persistent spill tier under the in-memory stage cache
//! (PR 6).
//!
//! The in-memory [`crate::StageCache`] evicts least-recently-used
//! artifacts when its byte budget fills; before this module those
//! artifacts were simply recomputed on the next lookup, and a daemon
//! restart started cold. The [`SpillStore`] is an append-only,
//! CRC-checked segment-file store keyed by [`StageKey`] that sits *under*
//! the LRU: evicted entries spill to disk, resident misses consult the
//! spill index and rehydrate, and a fresh process pointed at the same
//! directory rebuilds the index from the segment files — warm restarts.
//!
//! # Byte-identity contract
//!
//! A rehydrated artifact must be **bit-identical** to the artifact a
//! recompute would produce — the cache's determinism contract extends
//! through the disk tier. The codec therefore serializes every artifact
//! field exactly through the shared [`crate::bytes`] codec: floats by
//! IEEE-754 bit pattern, enums by explicit discriminant byte, strings and
//! sequences behind `u32` length prefixes, scalar counts as `u64`. The
//! decoder refuses any length prefix the remaining record bytes cannot
//! hold, so a corrupt record never drives a large allocation. The only representation
//! change a round trip makes is re-interning the two `&'static str`
//! machine-profile names through a leak-once table (bounded by the set of
//! distinct profile/material names, a handful per process).
//!
//! # Segment format and recovery rules
//!
//! Each segment file starts with an 8-byte magic (`OBFSPILL`) and a
//! little-endian `u32` format version (2), followed by records:
//!
//! ```text
//! [len: u32 LE] [crc: u32 LE] [body: len bytes]
//! body = [key.0 u64 LE] [key.1 u64 LE] [cost u64 LE] [kind u8] [payload]
//! ```
//!
//! `crc` is CRC-32 (IEEE) over `body`. A segment whose header does not
//! match — another magic, or a version other than 2, such as the
//! `u64`-prefixed version 1 — is dropped whole on open and its entries
//! recomputed, never misread. Recovery scans each segment in id
//! order and stops at the first record whose length prefix or CRC does
//! not hold, truncating the file there: a torn tail from a mid-write
//! crash (or any corrupt record) costs the entries at and after the tear
//! — they are recomputed, never served wrong. The CRC is re-checked at
//! read time too, so corruption that lands *after* recovery indexed a
//! record still drops the entry instead of serving bad bytes. Writes go
//! through the kernel on every `put` (`write(2)`, no userspace
//! buffering), so a `SIGKILL` loses at most the record being written.
//!
//! Spilling is content-addressed and idempotent: a key already present in
//! the spill index is never rewritten, so eviction/rehydration ping-pong
//! does not grow the segments.

use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use am_fea::TensileResult;
use am_geom::{Aabb3, Point2, Point3, Polygon2, Polyline2, Transform3, Vec3};
use am_mesh::{SeamReport, TriMesh};
use am_printer::{
    Material, MaterialSpec, PrintedPart, PrintedPartRaw, PrinterProfile, Process, ScanReport,
};
use am_slicer::{
    Contour, InfillStyle, Layer, Road, RoadKind, SeamExposure, SliceReport, SlicedModel,
    SlicerConfig, ToolMaterial, ToolPath,
};

use crate::bytes::{ByteReader, ByteWriter};
use crate::cache::{StageArtifact, StageKey};
use crate::detect::{DetectionReport, SanitizeReport};
use crate::pipeline::{
    Diagnostic, MeshArtifact, PrintArtifact, SliceArtifact, Stage, StageOutcome, StageStatus,
    ToolPathStats, ToolpathArtifact,
};

/// Segment-file magic bytes.
const MAGIC: &[u8; 8] = b"OBFSPILL";
/// Segment format version. Version 2 moved sequence and string length
/// prefixes from `u64` to the `u32` of [`crate::bytes`]; a segment of any
/// other version fails the header check and is dropped on open.
const VERSION: u32 = 2;
/// Header size: magic + version.
const HEADER: u64 = 12;
/// Per-record framing overhead: length prefix + CRC.
const RECORD_HEAD: u64 = 8;
/// Segments roll over once their byte length passes this mark, keeping
/// individual files (and recovery scans) bounded.
const SEGMENT_ROLL: u64 = 64 << 20;

// --- CRC-32 (IEEE 802.3), table-driven, dependency-free ----------------

/// The 256-entry CRC-32 lookup table, generated at compile time.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { 0xedb8_8320 ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xffff_ffffu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ u32::from(b)) & 0xff) as usize] ^ (c >> 8);
    }
    c ^ 0xffff_ffff
}

// --- Leak-once string interning ----------------------------------------

/// Interns `s` into a process-global leak-once table, so decoded machine
/// profiles can carry `&'static str` names again. Bounded: each distinct
/// name leaks exactly once, and the name universe is the fixed set of
/// machine/material names.
fn intern(s: &str) -> &'static str {
    static TABLE: OnceLock<Mutex<HashMap<String, &'static str>>> = OnceLock::new();
    let table = TABLE.get_or_init(|| Mutex::new(HashMap::new()));
    let mut guard = table.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(&interned) = guard.get(s) {
        return interned;
    }
    let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
    guard.insert(s.to_owned(), leaked);
    leaked
}

// --- Component encoders/decoders ---------------------------------------

fn enc_point2(w: &mut ByteWriter, p: Point2) {
    w.f64(p.x);
    w.f64(p.y);
}

fn dec_point2(r: &mut ByteReader<'_>) -> Result<Point2, String> {
    Ok(Point2::new(r.f64()?, r.f64()?))
}

fn enc_point3(w: &mut ByteWriter, p: Point3) {
    w.f64(p.x);
    w.f64(p.y);
    w.f64(p.z);
}

fn dec_point3(r: &mut ByteReader<'_>) -> Result<Point3, String> {
    Ok(Point3::new(r.f64()?, r.f64()?, r.f64()?))
}

fn enc_transform(w: &mut ByteWriter, t: &Transform3) {
    let (rows, translation) = t.to_raw();
    for row in rows {
        enc_point3(w, row);
    }
    enc_point3(w, translation);
}

fn dec_transform(r: &mut ByteReader<'_>) -> Result<Transform3, String> {
    let rows = [dec_point3(r)?, dec_point3(r)?, dec_point3(r)?];
    let translation: Vec3 = dec_point3(r)?;
    Ok(Transform3::from_raw(rows, translation))
}

fn enc_stage(w: &mut ByteWriter, stage: Stage) {
    w.u8(match stage {
        Stage::Cad => 0,
        Stage::Stl => 1,
        Stage::Repair => 2,
        Stage::Slice => 3,
        Stage::ToolPath => 4,
        Stage::Firmware => 5,
        Stage::Print => 6,
        Stage::Inspect => 7,
        Stage::Test => 8,
    });
}

fn dec_stage(r: &mut ByteReader<'_>) -> Result<Stage, String> {
    Ok(match r.u8()? {
        0 => Stage::Cad,
        1 => Stage::Stl,
        2 => Stage::Repair,
        3 => Stage::Slice,
        4 => Stage::ToolPath,
        5 => Stage::Firmware,
        6 => Stage::Print,
        7 => Stage::Inspect,
        8 => Stage::Test,
        other => return Err(format!("bad stage discriminant {other}")),
    })
}

fn enc_outcomes(w: &mut ByteWriter, outcomes: &[StageOutcome]) {
    w.seq_len(outcomes.len());
    for o in outcomes {
        enc_stage(w, o.stage);
        w.u8(match o.status {
            StageStatus::Clean => 0,
            StageStatus::Degraded => 1,
            StageStatus::Skipped => 2,
        });
    }
}

fn dec_outcomes(r: &mut ByteReader<'_>) -> Result<Vec<StageOutcome>, String> {
    let n = r.seq_len(2)?;
    let mut outcomes = Vec::with_capacity(n);
    for _ in 0..n {
        let stage = dec_stage(r)?;
        let status = match r.u8()? {
            0 => StageStatus::Clean,
            1 => StageStatus::Degraded,
            2 => StageStatus::Skipped,
            other => return Err(format!("bad stage status {other}")),
        };
        outcomes.push(StageOutcome { stage, status });
    }
    Ok(outcomes)
}

fn enc_diagnostics(w: &mut ByteWriter, diagnostics: &[Diagnostic]) {
    w.seq_len(diagnostics.len());
    for d in diagnostics {
        enc_stage(w, d.stage);
        w.str(&d.message);
        w.bool(d.recovered);
    }
}

fn dec_diagnostics(r: &mut ByteReader<'_>) -> Result<Vec<Diagnostic>, String> {
    // Stage byte, string prefix, bool.
    let n = r.seq_len(6)?;
    let mut diagnostics = Vec::with_capacity(n);
    for _ in 0..n {
        diagnostics.push(Diagnostic {
            stage: dec_stage(r)?,
            message: r.str_ref()?.to_owned(),
            recovered: r.bool()?,
        });
    }
    Ok(diagnostics)
}

fn enc_mesh(w: &mut ByteWriter, mesh: &TriMesh) {
    let vertices = mesh.vertices();
    w.seq_len(vertices.len());
    for &v in vertices {
        enc_point3(w, v);
    }
    let indices = mesh.indices();
    w.seq_len(indices.len());
    for tri in indices {
        for &i in tri {
            w.u32(i);
        }
    }
}

fn dec_mesh(r: &mut ByteReader<'_>) -> Result<TriMesh, String> {
    let nv = r.seq_len(24)?;
    let mut vertices = Vec::with_capacity(nv);
    for _ in 0..nv {
        vertices.push(dec_point3(r)?);
    }
    let nt = r.seq_len(12)?;
    let mut triangles = Vec::with_capacity(nt);
    for _ in 0..nt {
        let tri = [r.u32()?, r.u32()?, r.u32()?];
        // `TriMesh::from_raw` panics on out-of-range indices; validate
        // here so corrupt payloads become typed errors instead.
        if tri.iter().any(|&i| i as usize >= vertices.len()) {
            return Err("triangle index out of bounds".to_string());
        }
        triangles.push(tri);
    }
    Ok(TriMesh::from_raw(vertices, triangles))
}

fn enc_seam_report(w: &mut ByteWriter, seam: &SeamReport) {
    w.f64(seam.vertex_mismatch);
    w.f64(seam.chain_mismatch);
    w.usize(seam.chain_a_points);
    w.usize(seam.chain_b_points);
    w.bool(seam.conforming);
    w.seq_len(seam.profile.len());
    for &(pos, gap) in &seam.profile {
        w.f64(pos);
        w.f64(gap);
    }
}

fn dec_seam_report(r: &mut ByteReader<'_>) -> Result<SeamReport, String> {
    let vertex_mismatch = r.f64()?;
    let chain_mismatch = r.f64()?;
    let chain_a_points = r.usize()?;
    let chain_b_points = r.usize()?;
    let conforming = r.bool()?;
    let n = r.seq_len(16)?;
    let mut profile = Vec::with_capacity(n);
    for _ in 0..n {
        profile.push((r.f64()?, r.f64()?));
    }
    Ok(SeamReport {
        vertex_mismatch,
        chain_mismatch,
        chain_a_points,
        chain_b_points,
        conforming,
        profile,
    })
}

fn enc_sliced_model(w: &mut ByteWriter, sliced: &SlicedModel) {
    w.seq_len(sliced.layers.len());
    for layer in &sliced.layers {
        w.f64(layer.z);
        w.seq_len(layer.loops.len());
        for contour in &layer.loops {
            let vertices = contour.polygon.vertices();
            w.seq_len(vertices.len());
            for &v in vertices {
                enc_point2(w, v);
            }
            w.usize(contour.body);
        }
        w.seq_len(layer.open_paths.len());
        for path in &layer.open_paths {
            let points = path.points();
            w.seq_len(points.len());
            for &p in points {
                enc_point2(w, p);
            }
        }
    }
    w.f64(sliced.layer_height);
    enc_point3(w, sliced.bounds.min);
    enc_point3(w, sliced.bounds.max);
}

fn dec_sliced_model(r: &mut ByteReader<'_>) -> Result<SlicedModel, String> {
    // A layer is its z plus two sequence prefixes; a contour is a vertex
    // prefix plus its body scalar; an open path is a point prefix.
    let nl = r.seq_len(16)?;
    let mut layers = Vec::with_capacity(nl);
    for _ in 0..nl {
        let z = r.f64()?;
        let nc = r.seq_len(12)?;
        let mut loops = Vec::with_capacity(nc);
        for _ in 0..nc {
            let nv = r.seq_len(16)?;
            let mut vertices = Vec::with_capacity(nv);
            for _ in 0..nv {
                vertices.push(dec_point2(r)?);
            }
            let body = r.usize()?;
            loops.push(Contour { polygon: Polygon2::new(vertices), body });
        }
        let np = r.seq_len(4)?;
        let mut open_paths = Vec::with_capacity(np);
        for _ in 0..np {
            let n = r.seq_len(16)?;
            let mut points = Vec::with_capacity(n);
            for _ in 0..n {
                points.push(dec_point2(r)?);
            }
            open_paths.push(Polyline2::new(points));
        }
        layers.push(Layer { z, loops, open_paths });
    }
    let layer_height = r.f64()?;
    let bounds = Aabb3 { min: dec_point3(r)?, max: dec_point3(r)? };
    Ok(SlicedModel { layers, layer_height, bounds })
}

fn enc_slice_report(w: &mut ByteWriter, report: &SliceReport) {
    w.usize(report.layers);
    w.usize(report.discontinuous_layers);
    w.usize(report.max_components);
    w.usize(report.internal_void_cells);
    w.f64(report.internal_void_area);
    w.f64(report.cell);
    w.option(report.seam.as_ref(), |w, seam| {
        w.usize(seam.interface_layers);
        w.f64(seam.median_span);
        w.f64(seam.mean_shift);
    });
}

fn dec_slice_report(r: &mut ByteReader<'_>) -> Result<SliceReport, String> {
    Ok(SliceReport {
        layers: r.usize()?,
        discontinuous_layers: r.usize()?,
        max_components: r.usize()?,
        internal_void_cells: r.usize()?,
        internal_void_area: r.f64()?,
        cell: r.f64()?,
        seam: r.option(|r| {
            Ok(SeamExposure {
                interface_layers: r.usize()?,
                median_span: r.f64()?,
                mean_shift: r.f64()?,
            })
        })?,
    })
}

fn enc_slicer_config(w: &mut ByteWriter, config: &SlicerConfig) {
    w.f64(config.layer_height);
    w.f64(config.road_width);
    w.f64(config.analysis_cell);
    w.bool(config.support);
    match config.infill {
        InfillStyle::Solid => w.u8(0),
        InfillStyle::Sparse { density } => {
            w.u8(1);
            w.f64(density);
        }
    }
}

fn dec_slicer_config(r: &mut ByteReader<'_>) -> Result<SlicerConfig, String> {
    let layer_height = r.f64()?;
    let road_width = r.f64()?;
    let analysis_cell = r.f64()?;
    let support = r.bool()?;
    let infill = match r.u8()? {
        0 => InfillStyle::Solid,
        1 => InfillStyle::Sparse { density: r.f64()? },
        other => return Err(format!("bad infill discriminant {other}")),
    };
    Ok(SlicerConfig { layer_height, road_width, analysis_cell, support, infill })
}

fn enc_toolpath(w: &mut ByteWriter, toolpath: &ToolPath) {
    w.seq_len(toolpath.roads.len());
    for road in &toolpath.roads {
        enc_point2(w, road.from);
        enc_point2(w, road.to);
        w.f64(road.z);
        w.u8(match road.material {
            ToolMaterial::Model => 0,
            ToolMaterial::Support => 1,
        });
        w.u8(match road.kind {
            RoadKind::Perimeter => 0,
            RoadKind::Infill => 1,
        });
        w.option(road.body, ByteWriter::u16);
    }
    w.f64(toolpath.layer_height);
    w.f64(toolpath.road_width);
}

fn dec_toolpath(r: &mut ByteReader<'_>) -> Result<ToolPath, String> {
    // Two points, z, two tags and an option tag.
    let n = r.seq_len(43)?;
    let mut roads = Vec::with_capacity(n);
    for _ in 0..n {
        let from = dec_point2(r)?;
        let to = dec_point2(r)?;
        let z = r.f64()?;
        let material = match r.u8()? {
            0 => ToolMaterial::Model,
            1 => ToolMaterial::Support,
            other => return Err(format!("bad tool material {other}")),
        };
        let kind = match r.u8()? {
            0 => RoadKind::Perimeter,
            1 => RoadKind::Infill,
            other => return Err(format!("bad road kind {other}")),
        };
        let body = r.option(ByteReader::u16)?;
        roads.push(Road { from, to, z, material, kind, body });
    }
    let layer_height = r.f64()?;
    let road_width = r.f64()?;
    Ok(ToolPath { roads, layer_height, road_width })
}

fn enc_profile(w: &mut ByteWriter, profile: &PrinterProfile) {
    w.str(profile.name);
    w.u8(match profile.process {
        Process::Fdm => 0,
        Process::PolyJet => 1,
    });
    w.f64(profile.layer_height);
    w.f64(profile.road_width);
    w.f64(profile.feed_mm_per_s);
    w.str(profile.model_material.name);
    w.f64(profile.model_material.young_modulus_gpa);
    w.f64(profile.model_material.tensile_strength_mpa);
    w.f64(profile.model_material.elongation_at_break);
    w.f64(profile.model_material.density_g_cm3);
    w.bool(profile.soluble_support);
    w.f64(profile.road_bond);
    w.f64(profile.layer_bond);
    w.f64(profile.joint_bond);
    w.f64(profile.joint_ductility);
    w.f64(profile.noise_sigma);
}

fn dec_profile(r: &mut ByteReader<'_>) -> Result<PrinterProfile, String> {
    let name = intern(r.str_ref()?);
    let process = match r.u8()? {
        0 => Process::Fdm,
        1 => Process::PolyJet,
        other => return Err(format!("bad process discriminant {other}")),
    };
    let layer_height = r.f64()?;
    let road_width = r.f64()?;
    let feed_mm_per_s = r.f64()?;
    let model_material = MaterialSpec {
        name: intern(r.str_ref()?),
        young_modulus_gpa: r.f64()?,
        tensile_strength_mpa: r.f64()?,
        elongation_at_break: r.f64()?,
        density_g_cm3: r.f64()?,
    };
    Ok(PrinterProfile {
        name,
        process,
        layer_height,
        road_width,
        feed_mm_per_s,
        model_material,
        soluble_support: r.bool()?,
        road_bond: r.f64()?,
        layer_bond: r.f64()?,
        joint_bond: r.f64()?,
        joint_ductility: r.f64()?,
        noise_sigma: r.f64()?,
    })
}

fn enc_printed(w: &mut ByteWriter, printed: &PrintedPart) {
    let raw = printed.to_raw();
    enc_profile(w, &raw.profile);
    enc_point3(w, raw.origin);
    w.f64(raw.voxel_xy);
    w.f64(raw.voxel_z);
    w.usize(raw.nx);
    w.usize(raw.ny);
    w.usize(raw.nz);
    w.seq_len(raw.material.len());
    for &m in &raw.material {
        w.u8(match m {
            Material::Empty => 0,
            Material::Model => 1,
            Material::Support => 2,
        });
    }
    w.seq_len(raw.body.len());
    for &b in &raw.body {
        w.u16(b);
    }
    enc_transform(w, &raw.to_build);
    w.u64(raw.seed);
}

fn dec_printed(r: &mut ByteReader<'_>) -> Result<PrintedPart, String> {
    let profile = dec_profile(r)?;
    let origin = dec_point3(r)?;
    let voxel_xy = r.f64()?;
    let voxel_z = r.f64()?;
    let nx = r.usize()?;
    let ny = r.usize()?;
    let nz = r.usize()?;
    let nm = r.seq_len(1)?;
    let mut material = Vec::with_capacity(nm);
    for _ in 0..nm {
        material.push(match r.u8()? {
            0 => Material::Empty,
            1 => Material::Model,
            2 => Material::Support,
            other => return Err(format!("bad material discriminant {other}")),
        });
    }
    let nb = r.seq_len(2)?;
    let mut body = Vec::with_capacity(nb);
    for _ in 0..nb {
        body.push(r.u16()?);
    }
    let to_build = dec_transform(r)?;
    let seed = r.u64()?;
    PrintedPart::from_raw(PrintedPartRaw {
        profile,
        origin,
        voxel_xy,
        voxel_z,
        nx,
        ny,
        nz,
        material,
        body,
        to_build,
        seed,
    })
    .map_err(|e| e.to_string())
}

fn enc_tensile(w: &mut ByteWriter, result: &TensileResult) {
    w.seq_len(result.curve.len());
    for &(strain, stress) in &result.curve {
        w.f64(strain);
        w.f64(stress);
    }
    w.f64(result.young_modulus_gpa);
    w.f64(result.uts_mpa);
    w.f64(result.failure_strain);
    w.f64(result.toughness_kj_m3);
    w.option(result.fracture_origin, enc_point2);
    w.seq_len(result.fracture_path.len());
    for &p in &result.fracture_path {
        enc_point2(w, p);
    }
    w.bool(result.ruptured);
}

fn dec_tensile(r: &mut ByteReader<'_>) -> Result<TensileResult, String> {
    let n = r.seq_len(16)?;
    let mut curve = Vec::with_capacity(n);
    for _ in 0..n {
        curve.push((r.f64()?, r.f64()?));
    }
    let young_modulus_gpa = r.f64()?;
    let uts_mpa = r.f64()?;
    let failure_strain = r.f64()?;
    let toughness_kj_m3 = r.f64()?;
    let fracture_origin = r.option(dec_point2)?;
    let np = r.seq_len(16)?;
    let mut fracture_path = Vec::with_capacity(np);
    for _ in 0..np {
        fracture_path.push(dec_point2(r)?);
    }
    let ruptured = r.bool()?;
    Ok(TensileResult {
        curve,
        young_modulus_gpa,
        uts_mpa,
        failure_strain,
        toughness_kj_m3,
        fracture_origin,
        fracture_path,
        ruptured,
    })
}

/// Artifact kind tags (the byte after the record cost).
const KIND_MESH: u8 = 1;
const KIND_SLICE: u8 = 2;
const KIND_TOOLPATH: u8 = 3;
const KIND_PRINT: u8 = 4;
const KIND_TENSILE: u8 = 5;
const KIND_DETECTION: u8 = 6;
const KIND_SANITIZE: u8 = 7;

/// Serializes one stage artifact as `[kind u8][payload]`.
fn enc_artifact(w: &mut ByteWriter, artifact: &StageArtifact) {
    match artifact {
        StageArtifact::Mesh(m) => {
            w.u8(KIND_MESH);
            w.seq_len(m.shells.len());
            for shell in &m.shells {
                enc_mesh(w, shell);
            }
            w.usize(m.mesh_triangles);
            w.u64(m.stl_bytes);
            w.option(m.seam.as_ref(), enc_seam_report);
            enc_outcomes(w, &m.outcomes);
            enc_diagnostics(w, &m.diagnostics);
        }
        StageArtifact::Slice(s) => {
            w.u8(KIND_SLICE);
            enc_sliced_model(w, &s.sliced);
            enc_slice_report(w, &s.slice_report);
            enc_transform(w, &s.to_build);
            enc_slicer_config(w, &s.config);
            enc_outcomes(w, &s.outcomes);
            enc_diagnostics(w, &s.diagnostics);
        }
        StageArtifact::Toolpath(t) => {
            w.u8(KIND_TOOLPATH);
            enc_toolpath(w, &t.toolpath);
            w.f64(t.stats.model_mm);
            w.f64(t.stats.support_mm);
            w.usize(t.stats.layers);
            w.f64(t.stats.time_s);
            enc_outcomes(w, &t.outcomes);
            enc_diagnostics(w, &t.diagnostics);
        }
        StageArtifact::Print(p) => {
            w.u8(KIND_PRINT);
            enc_printed(w, &p.printed);
            w.usize(p.scan.internal_void_voxels);
            w.usize(p.scan.internal_support_voxels);
            w.f64(p.scan.internal_void_volume);
            w.f64(p.scan.cold_joint_area);
            enc_outcomes(w, &p.outcomes);
        }
        StageArtifact::Tensile(t) => {
            w.u8(KIND_TENSILE);
            enc_tensile(w, t);
        }
        StageArtifact::Detection(d) => {
            w.u8(KIND_DETECTION);
            w.str(&d.fault_spec);
            w.str(&d.quality);
            w.f64(d.jam_amplitude);
            w.u64(d.trace_seed);
            w.option(d.blocked_by.as_deref(), ByteWriter::str);
            w.f64(d.audio_score);
            w.f64(d.power_score);
            w.f64(d.fused_score);
            w.f64(d.audio_threshold);
            w.f64(d.power_threshold);
            w.f64(d.fused_threshold);
            w.bool(d.audio_flagged);
            w.bool(d.power_flagged);
            w.bool(d.fused_flagged);
            w.u64(d.suspect_frames);
            w.u64(d.golden_frames);
        }
        StageArtifact::Sanitize(s) => {
            w.u8(KIND_SANITIZE);
            w.u64(s.payload_seed);
            w.u64(s.payload_bits);
            w.u64(s.roads);
            w.f64(s.suspicious_before);
            w.f64(s.suspicious_after);
            w.f64(s.quantum_mm);
            w.f64(s.residual_mm);
            w.bool(s.fingerprint_preserved);
            w.str(&s.original_fingerprint);
            w.str(&s.sanitized_fingerprint);
        }
    }
}

/// Decodes one stage artifact from `[kind u8][payload]`, which must run
/// to the end of the reader's input.
fn dec_artifact(r: &mut ByteReader<'_>) -> Result<StageArtifact, String> {
    let owned = |r: &mut ByteReader<'_>| r.str_ref().map(str::to_owned);
    let artifact = match r.u8()? {
        KIND_MESH => {
            // Each shell is at least its two sequence prefixes.
            let ns = r.seq_len(8)?;
            let mut shells = Vec::with_capacity(ns);
            for _ in 0..ns {
                shells.push(dec_mesh(r)?);
            }
            StageArtifact::Mesh(Arc::new(MeshArtifact {
                shells,
                mesh_triangles: r.usize()?,
                stl_bytes: r.u64()?,
                seam: r.option(dec_seam_report)?,
                outcomes: dec_outcomes(r)?,
                diagnostics: dec_diagnostics(r)?,
            }))
        }
        KIND_SLICE => StageArtifact::Slice(Arc::new(SliceArtifact {
            sliced: dec_sliced_model(r)?,
            slice_report: dec_slice_report(r)?,
            to_build: dec_transform(r)?,
            config: dec_slicer_config(r)?,
            outcomes: dec_outcomes(r)?,
            diagnostics: dec_diagnostics(r)?,
        })),
        KIND_TOOLPATH => StageArtifact::Toolpath(Arc::new(ToolpathArtifact {
            toolpath: dec_toolpath(r)?,
            stats: ToolPathStats {
                model_mm: r.f64()?,
                support_mm: r.f64()?,
                layers: r.usize()?,
                time_s: r.f64()?,
            },
            outcomes: dec_outcomes(r)?,
            diagnostics: dec_diagnostics(r)?,
        })),
        KIND_PRINT => StageArtifact::Print(Arc::new(PrintArtifact {
            printed: Arc::new(dec_printed(r)?),
            scan: ScanReport {
                internal_void_voxels: r.usize()?,
                internal_support_voxels: r.usize()?,
                internal_void_volume: r.f64()?,
                cold_joint_area: r.f64()?,
            },
            outcomes: dec_outcomes(r)?,
        })),
        KIND_TENSILE => StageArtifact::Tensile(Arc::new(dec_tensile(r)?)),
        KIND_DETECTION => StageArtifact::Detection(Arc::new(DetectionReport {
            fault_spec: owned(r)?,
            quality: owned(r)?,
            jam_amplitude: r.f64()?,
            trace_seed: r.u64()?,
            blocked_by: r.option(owned)?,
            audio_score: r.f64()?,
            power_score: r.f64()?,
            fused_score: r.f64()?,
            audio_threshold: r.f64()?,
            power_threshold: r.f64()?,
            fused_threshold: r.f64()?,
            audio_flagged: r.bool()?,
            power_flagged: r.bool()?,
            fused_flagged: r.bool()?,
            suspect_frames: r.u64()?,
            golden_frames: r.u64()?,
        })),
        KIND_SANITIZE => StageArtifact::Sanitize(Arc::new(SanitizeReport {
            payload_seed: r.u64()?,
            payload_bits: r.u64()?,
            roads: r.u64()?,
            suspicious_before: r.f64()?,
            suspicious_after: r.f64()?,
            quantum_mm: r.f64()?,
            residual_mm: r.f64()?,
            fingerprint_preserved: r.bool()?,
            original_fingerprint: owned(r)?,
            sanitized_fingerprint: owned(r)?,
        })),
        other => return Err(format!("unknown artifact kind {other}")),
    };
    r.finish()?;
    Ok(artifact)
}

/// Writes a record body: the key's two words, the accounted cost, then
/// the artifact.
fn enc_record_body(key: StageKey, cost: usize, artifact: &StageArtifact) -> Vec<u8> {
    let mut w = ByteWriter::new();
    let [k0, k1] = key.to_words();
    w.u64(k0);
    w.u64(k1);
    w.usize(cost);
    enc_artifact(&mut w, artifact);
    w.into_bytes()
}

/// Reads a record body's key and cost, leaving `r` at the artifact.
fn dec_record_head(r: &mut ByteReader<'_>) -> Result<(StageKey, usize), String> {
    let key = StageKey::from_words([r.u64()?, r.u64()?]);
    Ok((key, r.usize()?))
}

// --- The segment-file store ---------------------------------------------

/// Counter snapshot of a [`SpillStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpillStats {
    /// Keys currently indexed on disk.
    pub entries: usize,
    /// Record-body bytes currently indexed (excludes framing).
    pub bytes: u64,
    /// Records appended over this store's lifetime.
    pub writes: u64,
    /// Lookups served by rehydrating a spilled artifact.
    pub hits: u64,
    /// Records dropped because their CRC or payload failed validation
    /// (recovery truncations and read-time drops alike).
    pub corrupt_dropped: u64,
    /// Appends that failed — real I/O errors plus injected chaos
    /// failures. The entry is simply not persisted.
    pub write_failures: u64,
}

/// Where one indexed record lives.
#[derive(Debug, Clone, Copy)]
struct Location {
    segment: u64,
    /// Byte offset of the record's length prefix.
    offset: u64,
    /// Body length (bytes after the 8-byte record head).
    len: u32,
}

struct SpillInner {
    dir: PathBuf,
    /// Append handle of the active segment.
    segment: File,
    segment_id: u64,
    /// Current byte length of the active segment.
    segment_len: u64,
    /// Segment roll threshold ([`SEGMENT_ROLL`]; smaller in tests).
    roll: u64,
    index: HashMap<StageKey, Location>,
    bytes: u64,
    writes: u64,
    hits: u64,
    corrupt_dropped: u64,
    write_failures: u64,
    /// Chaos hook: called with the write ordinal before each append;
    /// `true` fails the write (counted, entry not persisted).
    write_fault: Option<Box<dyn FnMut(u64) -> bool + Send>>,
    write_ordinal: u64,
}

/// An append-only, CRC-checked, crash-recovering segment-file store of
/// encoded stage artifacts — the persistent tier under
/// [`crate::StageCache`]. See the module docs for the format and the
/// recovery rules.
pub struct SpillStore {
    inner: Mutex<SpillInner>,
}

impl std::fmt::Debug for SpillStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpillStore").field("stats", &self.stats()).finish()
    }
}

fn segment_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("seg-{id:06}.spill"))
}

fn write_header(file: &mut File) -> std::io::Result<()> {
    file.write_all(MAGIC)?;
    file.write_all(&VERSION.to_le_bytes())
}

impl SpillStore {
    /// Opens (or creates) a spill store rooted at `dir`, recovering the
    /// key index from the segment files already there. Torn or corrupt
    /// segment tails are truncated away — recovery never errors on bad
    /// records, it drops them.
    ///
    /// # Errors
    ///
    /// Real I/O failures: the directory cannot be created, a segment
    /// cannot be opened, read, or truncated.
    pub fn open(dir: &Path) -> std::io::Result<SpillStore> {
        SpillStore::open_with_roll(dir, SEGMENT_ROLL)
    }

    /// [`SpillStore::open`] with an explicit segment roll threshold —
    /// tests use tiny segments to exercise rollover cheaply.
    pub(crate) fn open_with_roll(dir: &Path, roll: u64) -> std::io::Result<SpillStore> {
        fs::create_dir_all(dir)?;
        let mut ids: Vec<u64> = fs::read_dir(dir)?
            .filter_map(|entry| {
                let name = entry.ok()?.file_name().into_string().ok()?;
                let id = name.strip_prefix("seg-")?.strip_suffix(".spill")?;
                id.parse().ok()
            })
            .collect();
        ids.sort_unstable();

        let mut index = HashMap::new();
        let mut bytes = 0u64;
        let mut corrupt_dropped = 0u64;
        for &id in &ids {
            let path = segment_path(dir, id);
            let data = fs::read(&path)?;
            let valid_len = scan_segment(id, &data, &mut index, &mut bytes, &mut corrupt_dropped);
            if (valid_len as usize) < data.len() {
                // Torn/corrupt tail: truncate so the next append starts
                // at a clean record boundary.
                OpenOptions::new().write(true).open(&path)?.set_len(valid_len)?;
            }
        }

        let segment_id = ids.last().copied().unwrap_or(1);
        let path = segment_path(dir, segment_id);
        let mut segment = OpenOptions::new().create(true).append(true).open(&path)?;
        let mut segment_len = segment.seek(SeekFrom::End(0))?;
        if segment_len < HEADER {
            // Brand-new (or fully truncated) segment: start it with the
            // magic header.
            segment.set_len(0)?;
            write_header(&mut segment)?;
            segment_len = HEADER;
        }

        Ok(SpillStore {
            inner: Mutex::new(SpillInner {
                dir: dir.to_path_buf(),
                segment,
                segment_id,
                segment_len,
                roll,
                index,
                bytes,
                writes: 0,
                hits: 0,
                corrupt_dropped,
                write_failures: 0,
                write_fault: None,
                write_ordinal: 0,
            }),
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SpillInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Counter snapshot.
    pub fn stats(&self) -> SpillStats {
        let inner = self.lock();
        SpillStats {
            entries: inner.index.len(),
            bytes: inner.bytes,
            writes: inner.writes,
            hits: inner.hits,
            corrupt_dropped: inner.corrupt_dropped,
            write_failures: inner.write_failures,
        }
    }

    /// Installs a deterministic write-fault hook (the chaos harness):
    /// called with the write ordinal before each append, returning `true`
    /// fails that write. The entry is counted and skipped, never torn.
    pub fn set_write_fault(&self, hook: impl FnMut(u64) -> bool + Send + 'static) {
        self.lock().write_fault = Some(Box::new(hook));
    }

    /// Appends one encoded artifact under `key` (idempotent: a key
    /// already indexed is not rewritten). `cost` is the in-memory byte
    /// estimate the cache accounted for the artifact, stored so
    /// rehydration can re-insert with the same cost.
    pub(crate) fn put(&self, key: StageKey, artifact: &StageArtifact, cost: usize) {
        let mut inner = self.lock();
        if inner.index.contains_key(&key) {
            return;
        }
        let ordinal = inner.write_ordinal;
        inner.write_ordinal += 1;
        if let Some(hook) = inner.write_fault.as_mut() {
            if hook(ordinal) {
                inner.write_failures += 1;
                return;
            }
        }

        let body = enc_record_body(key, cost, artifact);
        let Ok(len) = u32::try_from(body.len()) else {
            inner.write_failures += 1;
            return;
        };

        if inner.segment_len >= inner.roll {
            if let Err(()) = roll_segment(&mut inner) {
                inner.write_failures += 1;
                return;
            }
        }

        let mut record = ByteWriter::with_capacity(body.len() + RECORD_HEAD as usize);
        record.u32(len);
        record.u32(crc32(&body));
        record.bytes(&body);
        let record = record.into_bytes();
        let offset = inner.segment_len;
        if inner.segment.write_all(&record).is_err() {
            // A partial append would be a torn tail; recovery truncates
            // it, but try to clean up eagerly so in-process reads never
            // see it either.
            let _ = inner.segment.set_len(offset);
            inner.segment_len = offset;
            inner.write_failures += 1;
            return;
        }
        inner.segment_len += record.len() as u64;
        inner.bytes += u64::from(len);
        inner.writes += 1;
        let location = Location { segment: inner.segment_id, offset, len };
        inner.index.insert(key, location);
    }

    /// Rehydrates the artifact spilled under `key`, with the byte cost it
    /// was accounted at. The record's CRC and payload are re-validated at
    /// read time; any failure drops the entry (counted) and returns
    /// `None` — corrupt bytes are never served.
    pub(crate) fn get(&self, key: StageKey) -> Option<(StageArtifact, usize)> {
        let mut inner = self.lock();
        let location = *inner.index.get(&key)?;
        match read_record(&inner.dir, location, key) {
            Ok((artifact, cost)) => {
                inner.hits += 1;
                Some((artifact, cost))
            }
            Err(_) => {
                inner.index.remove(&key);
                inner.bytes = inner.bytes.saturating_sub(u64::from(location.len));
                inner.corrupt_dropped += 1;
                None
            }
        }
    }

    /// Drops every spilled entry: deletes the segment files and starts a
    /// fresh one. Counters reset alongside (mirrors
    /// [`crate::StageCache::clear`]).
    pub(crate) fn clear(&self) {
        let mut inner = self.lock();
        let dir = inner.dir.clone();
        let last = inner.segment_id;
        for id in 1..=last {
            let _ = fs::remove_file(segment_path(&dir, id));
        }
        inner.index.clear();
        inner.bytes = 0;
        inner.writes = 0;
        inner.hits = 0;
        inner.corrupt_dropped = 0;
        inner.write_failures = 0;
        inner.segment_id = 1;
        inner.segment_len = 0;
        if let Ok(mut segment) =
            OpenOptions::new().create(true).write(true).truncate(true).open(segment_path(&dir, 1))
        {
            if write_header(&mut segment).is_ok() {
                inner.segment_len = HEADER;
            }
            inner.segment = segment;
        }
    }
}

/// Rolls the active segment forward. Returns `Err(())` when the new
/// segment cannot be created (the caller counts a write failure).
fn roll_segment(inner: &mut SpillInner) -> Result<(), ()> {
    let next_id = inner.segment_id + 1;
    let path = segment_path(&inner.dir, next_id);
    let mut segment =
        OpenOptions::new().create(true).append(true).open(&path).map_err(|_| ())?;
    write_header(&mut segment).map_err(|_| ())?;
    inner.segment = segment;
    inner.segment_id = next_id;
    inner.segment_len = HEADER;
    Ok(())
}

/// Does `data` open with this build's segment header?
fn header_matches(data: &[u8]) -> bool {
    let mut r = ByteReader::new(data);
    r.bytes(MAGIC.len()).is_ok_and(|magic| magic == MAGIC) && r.u32() == Ok(VERSION)
}

/// Splits the framed record at the front of `data` into its CRC and
/// body; `None` when the head or the body runs past the end of `data`.
fn split_record(data: &[u8]) -> Option<(u32, &[u8])> {
    let mut r = ByteReader::new(data);
    let len = r.seq_len(1).ok()?;
    let crc = r.u32().ok()?;
    Some((crc, r.bytes(len).ok()?))
}

/// Scans one segment's bytes, indexing every valid record (later records
/// win on duplicate keys) and returning the length of the valid prefix.
/// A bad header drops the whole segment; the first bad CRC or record head
/// stops the scan. Either way everything after that point is treated as
/// a torn tail.
fn scan_segment(
    segment_id: u64,
    data: &[u8],
    index: &mut HashMap<StageKey, Location>,
    bytes: &mut u64,
    corrupt_dropped: &mut u64,
) -> u64 {
    if !header_matches(data) {
        if !data.is_empty() {
            *corrupt_dropped += 1;
        }
        return 0;
    }
    let mut offset = HEADER as usize;
    // A record head or body running past the end of the segment is a
    // torn tail, not worth a corruption count: an in-flight append that
    // never completed looks exactly like this.
    while let Some((crc, body)) = split_record(&data[offset..]) {
        let head = if crc32(body) == crc {
            dec_record_head(&mut ByteReader::new(body)).ok()
        } else {
            None
        };
        let Some((key, _cost)) = head else {
            *corrupt_dropped += 1;
            return offset as u64;
        };
        let len = body.len() as u32;
        let location = Location { segment: segment_id, offset: offset as u64, len };
        if let Some(old) = index.insert(key, location) {
            *bytes = bytes.saturating_sub(u64::from(old.len));
        }
        *bytes += u64::from(len);
        offset += RECORD_HEAD as usize + body.len();
    }
    offset as u64
}

/// Reads, CRC-checks and decodes one indexed record.
fn read_record(
    dir: &Path,
    location: Location,
    key: StageKey,
) -> Result<(StageArtifact, usize), String> {
    let path = segment_path(dir, location.segment);
    let mut file = File::open(&path).map_err(|e| format!("open {}: {e}", path.display()))?;
    file.seek(SeekFrom::Start(location.offset)).map_err(|e| e.to_string())?;
    let mut record = vec![0u8; RECORD_HEAD as usize + location.len as usize];
    file.read_exact(&mut record).map_err(|e| e.to_string())?;
    let (crc, body) = split_record(&record)
        .filter(|(_, body)| body.len() == location.len as usize)
        .ok_or("record length changed under the index")?;
    if crc32(body) != crc {
        return Err("record CRC mismatch at read time".to_string());
    }
    let mut r = ByteReader::new(body);
    let (stored_key, cost) = dec_record_head(&mut r)?;
    if stored_key != key {
        return Err("record key does not match the index".to_string());
    }
    Ok((dec_artifact(&mut r)?, cost))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StageHasher;
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn encode_artifact(artifact: &StageArtifact) -> Vec<u8> {
        let mut w = ByteWriter::new();
        enc_artifact(&mut w, artifact);
        w.into_bytes()
    }

    fn decode_artifact(bytes: &[u8]) -> Result<StageArtifact, String> {
        dec_artifact(&mut ByteReader::new(bytes))
    }

    /// A fresh, unique scratch directory for one test.
    fn scratch(label: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir()
            .join(format!("obfuscade-spill-{}-{label}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn key_of(label: &str) -> StageKey {
        let mut h = StageHasher::new("spill-test/v1");
        h.write_str(label);
        h.finish()
    }

    fn sample_outcomes() -> Vec<StageOutcome> {
        vec![
            StageOutcome { stage: Stage::Cad, status: StageStatus::Clean },
            StageOutcome { stage: Stage::Slice, status: StageStatus::Degraded },
            StageOutcome { stage: Stage::Test, status: StageStatus::Skipped },
        ]
    }

    fn sample_diagnostics() -> Vec<Diagnostic> {
        vec![Diagnostic {
            stage: Stage::Repair,
            message: "2 degenerate facets dropped — ünïcode too".to_string(),
            recovered: true,
        }]
    }

    fn mesh_artifact() -> StageArtifact {
        let shell = TriMesh::from_raw(
            vec![
                Point3::new(0.0, 0.0, 0.0),
                Point3::new(1.0, 0.0, 0.0),
                Point3::new(0.0, 1.0, 0.5),
                Point3::new(0.25, 0.25, 1.0),
            ],
            vec![[0, 1, 2], [0, 2, 3], [1, 3, 2]],
        );
        StageArtifact::Mesh(Arc::new(MeshArtifact {
            shells: vec![shell],
            mesh_triangles: 3,
            stl_bytes: 284,
            seam: Some(SeamReport {
                vertex_mismatch: 0.125,
                chain_mismatch: -0.0,
                chain_a_points: 7,
                chain_b_points: 9,
                conforming: false,
                profile: vec![(0.0, 1.0e-300), (0.5, f64::MIN_POSITIVE)],
            }),
            outcomes: sample_outcomes(),
            diagnostics: sample_diagnostics(),
        }))
    }

    fn slice_artifact() -> StageArtifact {
        let sliced = SlicedModel {
            layers: vec![Layer {
                z: 0.1778,
                loops: vec![Contour {
                    polygon: Polygon2::new(vec![
                        Point2::new(0.0, 0.0),
                        Point2::new(3.0, 0.0),
                        Point2::new(3.0, 2.0),
                        Point2::new(0.0, 2.0),
                    ]),
                    body: 1,
                }],
                open_paths: vec![Polyline2::new(vec![
                    Point2::new(0.5, 0.5),
                    Point2::new(2.5, 1.5),
                ])],
            }],
            layer_height: 0.1778,
            bounds: Aabb3 {
                min: Point3::new(0.0, 0.0, 0.0),
                max: Point3::new(3.0, 2.0, 0.1778),
            },
        };
        StageArtifact::Slice(Arc::new(SliceArtifact {
            sliced,
            slice_report: SliceReport {
                layers: 1,
                discontinuous_layers: 0,
                max_components: 2,
                internal_void_cells: 5,
                internal_void_area: 0.75,
                cell: 0.25,
                seam: Some(SeamExposure {
                    interface_layers: 3,
                    median_span: 1.5,
                    mean_shift: -0.25,
                }),
            },
            to_build: Transform3::rotation_x(std::f64::consts::FRAC_PI_2)
                .then(&Transform3::translation(Vec3::new(0.0, 0.1778, 0.0))),
            config: SlicerConfig {
                infill: InfillStyle::Sparse { density: 0.3 },
                ..SlicerConfig::default()
            },
            outcomes: sample_outcomes(),
            diagnostics: Vec::new(),
        }))
    }

    fn toolpath_artifact() -> StageArtifact {
        StageArtifact::Toolpath(Arc::new(ToolpathArtifact {
            toolpath: ToolPath {
                roads: vec![
                    Road {
                        from: Point2::new(0.0, 0.0),
                        to: Point2::new(1.0, 0.0),
                        z: 0.1778,
                        material: ToolMaterial::Model,
                        kind: RoadKind::Perimeter,
                        body: Some(2),
                    },
                    Road {
                        from: Point2::new(1.0, 0.0),
                        to: Point2::new(1.0, 1.0),
                        z: 0.3556,
                        material: ToolMaterial::Support,
                        kind: RoadKind::Infill,
                        body: None,
                    },
                ],
                layer_height: 0.1778,
                road_width: 0.5,
            },
            stats: ToolPathStats { model_mm: 12.5, support_mm: 3.25, layers: 2, time_s: 4.5 },
            outcomes: sample_outcomes(),
            diagnostics: sample_diagnostics(),
        }))
    }

    fn print_artifact() -> StageArtifact {
        let printed = PrintedPart::from_raw(PrintedPartRaw {
            profile: PrinterProfile::dimension_elite(),
            origin: Point3::new(-1.0, -2.0, 0.0),
            voxel_xy: 0.5,
            voxel_z: 0.1778,
            nx: 2,
            ny: 2,
            nz: 1,
            material: vec![Material::Model, Material::Empty, Material::Support, Material::Model],
            body: vec![1, 0, 0, 2],
            to_build: Transform3::rotation_x(0.3),
            seed: 0xdead_beef,
        })
        .expect("valid raw part");
        StageArtifact::Print(Arc::new(PrintArtifact {
            printed: Arc::new(printed),
            scan: ScanReport {
                internal_void_voxels: 1,
                internal_support_voxels: 1,
                internal_void_volume: 0.044_45,
                cold_joint_area: 0.25,
            },
            outcomes: sample_outcomes(),
        }))
    }

    fn tensile_artifact(uts: f64) -> StageArtifact {
        StageArtifact::Tensile(Arc::new(TensileResult {
            curve: vec![(0.0, 0.0), (0.01, 25.0), (0.02, uts)],
            young_modulus_gpa: 2.2,
            uts_mpa: uts,
            failure_strain: 0.021,
            toughness_kj_m3: 512.0,
            fracture_origin: Some(Point2::new(1.5, -0.5)),
            fracture_path: vec![Point2::new(1.5, -0.5), Point2::new(1.5, 0.5)],
            ruptured: true,
        }))
    }

    fn detection_artifact() -> StageArtifact {
        StageArtifact::Detection(Arc::new(DetectionReport {
            fault_spec: "toolpath.drop=0.2 firmware.feed=1.5".to_string(),
            quality: "smartphone".to_string(),
            jam_amplitude: 2.5,
            trace_seed: 11,
            blocked_by: Some("firmware — ünïcode too".to_string()),
            audio_score: 4.25,
            power_score: -0.0,
            fused_score: f64::MIN_POSITIVE,
            audio_threshold: 1.0,
            power_threshold: 1.5,
            fused_threshold: 1.0,
            audio_flagged: true,
            power_flagged: false,
            fused_flagged: true,
            suspect_frames: 0,
            golden_frames: 812,
        }))
    }

    fn sanitize_artifact() -> StageArtifact {
        StageArtifact::Sanitize(Arc::new(SanitizeReport {
            payload_seed: 5,
            payload_bits: 2,
            roads: 1024,
            suspicious_before: 0.9375,
            suspicious_after: 0.0,
            quantum_mm: 1.0 / 1024.0,
            residual_mm: 4.8e-4,
            fingerprint_preserved: true,
            original_fingerprint: "00112233445566778899aabbccddeeff".to_string(),
            sanitized_fingerprint: "00112233445566778899aabbccddeeff".to_string(),
        }))
    }

    fn all_kinds() -> Vec<StageArtifact> {
        vec![
            mesh_artifact(),
            slice_artifact(),
            toolpath_artifact(),
            print_artifact(),
            tensile_artifact(33.0),
            detection_artifact(),
            sanitize_artifact(),
        ]
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 check values ("123456789" is the canonical one).
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn every_artifact_kind_round_trips_bit_identically() {
        for artifact in all_kinds() {
            let encoded = encode_artifact(&artifact);
            let decoded = decode_artifact(&encoded).expect("decodes");
            assert_eq!(
                encode_artifact(&decoded),
                encoded,
                "canonical re-encoding must be bit-identical"
            );
        }
    }

    #[test]
    fn decoder_rejects_trailing_bytes_and_bad_tags() {
        let mut encoded = encode_artifact(&tensile_artifact(1.0));
        encoded.push(0);
        assert!(decode_artifact(&encoded).is_err(), "trailing byte must fail");
        assert!(decode_artifact(&[99]).is_err(), "unknown kind must fail");
        assert!(decode_artifact(&[]).is_err(), "empty payload must fail");

        // A length prefix claiming more elements than the remaining bytes
        // can hold fails on the `seq_len` rule, before any allocation: a
        // mesh shell's vertex count, and a printed part's material count.
        let mut w = ByteWriter::new();
        w.u8(KIND_MESH);
        w.seq_len(1);
        w.seq_len(1 << 28);
        enc_point3(&mut w, Point3::new(0.0, 0.0, 0.0));
        let Err(err) = decode_artifact(&w.into_bytes()) else { panic!("vertex-count bomb") };
        assert!(err.contains("claims 268435456 elements of at least 24 bytes"), "{err}");
        let mut w = ByteWriter::new();
        w.u8(KIND_PRINT);
        enc_profile(&mut w, &PrinterProfile::dimension_elite());
        enc_point3(&mut w, Point3::new(0.0, 0.0, 0.0));
        w.f64(0.5);
        w.f64(0.5);
        for n in [1024, 1024, 1024] {
            w.usize(n);
        }
        w.seq_len(1 << 30);
        w.u8(1);
        let Err(err) = decode_artifact(&w.into_bytes()) else { panic!("material-count bomb") };
        assert!(err.contains("claims 1073741824 elements"), "{err}");

        // A segment whose header carries version 1 (`u64` length
        // prefixes) is dropped on open, even with CRC-valid records
        // behind it: the index starts empty, the segment counts as
        // corrupt, and the store keeps working.
        let dir = scratch("v1");
        let key = key_of("v1");
        SpillStore::open(&dir).expect("open").put(key, &tensile_artifact(1.0), 8);
        let path = segment_path(&dir, 1);
        let mut data = fs::read(&path).expect("segment bytes");
        data[8..12].copy_from_slice(&1u32.to_le_bytes());
        fs::write(&path, &data).expect("write version-1 header");
        let store = SpillStore::open(&dir).expect("reopen");
        let stats = store.stats();
        assert_eq!((stats.entries, stats.corrupt_dropped), (0, 1));
        assert!(store.get(key).is_none(), "a version-1 record must never be served");
        store.put(key, &tensile_artifact(2.0), 8);
        let (back, cost) = store.get(key).expect("written again under version 2");
        assert_eq!(encode_artifact(&back), encode_artifact(&tensile_artifact(2.0)));
        assert_eq!(cost, 8);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn put_get_round_trips_and_counts() {
        let dir = scratch("roundtrip");
        let store = SpillStore::open(&dir).expect("open");
        for (i, artifact) in all_kinds().into_iter().enumerate() {
            let key = key_of(&format!("k{i}"));
            let expected = encode_artifact(&artifact);
            store.put(key, &artifact, 1000 + i);
            let (back, cost) = store.get(key).expect("spill hit");
            assert_eq!(encode_artifact(&back), expected);
            assert_eq!(cost, 1000 + i);
        }
        let stats = store.stats();
        assert_eq!(stats.entries, 7);
        assert_eq!(stats.writes, 7);
        assert_eq!(stats.hits, 7);
        assert_eq!(stats.corrupt_dropped, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn duplicate_puts_are_idempotent() {
        let dir = scratch("idempotent");
        let store = SpillStore::open(&dir).expect("open");
        let artifact = tensile_artifact(2.0);
        let key = key_of("same");
        store.put(key, &artifact, 64);
        store.put(key, &artifact, 64);
        store.put(key, &artifact, 64);
        assert_eq!(store.stats().writes, 1, "content-addressed keys are written once");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopen_recovers_the_index_across_a_restart() {
        let dir = scratch("restart");
        let mut expected = Vec::new();
        {
            let store = SpillStore::open(&dir).expect("open");
            for (i, artifact) in all_kinds().into_iter().enumerate() {
                let key = key_of(&format!("r{i}"));
                expected.push((key, encode_artifact(&artifact), 10 * (i + 1)));
                store.put(key, &artifact, 10 * (i + 1));
            }
        }
        let store = SpillStore::open(&dir).expect("reopen");
        assert_eq!(store.stats().entries, expected.len());
        for (key, bytes, cost) in expected {
            let (back, got_cost) = store.get(key).expect("recovered entry");
            assert_eq!(encode_artifact(&back), bytes, "rehydrated bytes must be identical");
            assert_eq!(got_cost, cost);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_and_earlier_entries_survive() {
        let dir = scratch("torn");
        let key = key_of("survivor");
        let artifact = tensile_artifact(5.0);
        {
            let store = SpillStore::open(&dir).expect("open");
            store.put(key, &artifact, 77);
        }
        // Simulate a crash mid-append: a record head promising more bytes
        // than the file holds.
        let path = segment_path(&dir, 1);
        let mut file = OpenOptions::new().append(true).open(&path).expect("append");
        file.write_all(&[0x40, 0x00, 0x00, 0x00, 0xde, 0xad, 0xbe, 0xef, 1, 2, 3])
            .expect("torn tail");
        drop(file);
        let torn_len = fs::metadata(&path).expect("meta").len();

        let store = SpillStore::open(&dir).expect("recovery must not error");
        let (back, _) = store.get(key).expect("entry before the tear survives");
        assert_eq!(encode_artifact(&back), encode_artifact(&artifact));
        assert!(
            fs::metadata(&path).expect("meta").len() < torn_len,
            "recovery truncates the torn tail"
        );
        // And the truncated segment accepts appends again.
        let key2 = key_of("after-recovery");
        store.put(key2, &tensile_artifact(6.0), 1);
        assert!(store.get(key2).is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn segments_roll_and_all_entries_stay_reachable() {
        let dir = scratch("roll");
        // Tiny roll threshold: every record lands in its own segment.
        let store = SpillStore::open_with_roll(&dir, 64).expect("open");
        let mut keys = Vec::new();
        for i in 0..6 {
            let key = key_of(&format!("seg{i}"));
            store.put(key, &tensile_artifact(f64::from(i)), 1);
            keys.push(key);
        }
        let segments = fs::read_dir(&dir).expect("dir").count();
        assert!(segments >= 3, "expected multiple segments, got {segments}");
        for key in &keys {
            assert!(store.get(*key).is_some());
        }
        // Restart still sees every segment's records.
        drop(store);
        let store = SpillStore::open_with_roll(&dir, 64).expect("reopen");
        for key in keys {
            assert!(store.get(key).is_some(), "entry lost across restart");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_write_faults_drop_the_entry_not_the_store() {
        let dir = scratch("fault");
        let store = SpillStore::open(&dir).expect("open");
        store.set_write_fault(|ordinal| ordinal % 2 == 0);
        let (ka, kb) = (key_of("fault-a"), key_of("fault-b"));
        store.put(ka, &tensile_artifact(1.0), 1); // ordinal 0: fails
        store.put(kb, &tensile_artifact(2.0), 1); // ordinal 1: lands
        assert!(store.get(ka).is_none(), "failed write must not be indexed");
        assert!(store.get(kb).is_some());
        let stats = store.stats();
        assert_eq!((stats.writes, stats.write_failures), (1, 1));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn clear_deletes_segments_and_resets_counters() {
        let dir = scratch("clear");
        let store = SpillStore::open(&dir).expect("open");
        let key = key_of("gone");
        store.put(key, &tensile_artifact(4.0), 9);
        store.clear();
        assert!(store.get(key).is_none());
        assert_eq!(store.stats(), SpillStats::default());
        // Still writable after a clear.
        store.put(key, &tensile_artifact(4.0), 9);
        assert!(store.get(key).is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The headline robustness property: whatever corruption hits the
        /// segment files — bit flips, truncated tails, duplicated records
        /// — recovery + lookup either return the exact original bytes or
        /// nothing. Wrong bytes are never served, and recovery never
        /// panics or errors.
        #[test]
        fn corruption_never_yields_wrong_bytes(
            seed in 0u64..1u64 << 48,
            flips in 0usize..12,
            truncate_roll in 0u8..2,
            duplicate_roll in 0u8..2,
        ) {
            let (truncate, duplicate) = (truncate_roll == 1, duplicate_roll == 1);
            let dir = scratch("prop");
            let mut expected = Vec::new();
            {
                let store = SpillStore::open(&dir).expect("open");
                for (i, artifact) in all_kinds().into_iter().enumerate() {
                    let key = key_of(&format!("p{seed}-{i}"));
                    expected.push((key, encode_artifact(&artifact)));
                    store.put(key, &artifact, i + 1);
                }
            }
            let path = segment_path(&dir, 1);
            let mut data = fs::read(&path).expect("segment bytes");
            let mut rng = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
            let mut next = move || {
                // xorshift64* — cheap deterministic corruption source.
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                rng
            };
            if duplicate && data.len() > HEADER as usize {
                // Replay a whole valid record (CRC intact): recovery must
                // treat the duplicate as last-wins, identical bytes.
                let copy_len = (next() as usize % data.len()).max(1);
                let tail = data[data.len() - copy_len..].to_vec();
                data.extend_from_slice(&tail);
            }
            for _ in 0..flips {
                let pos = next() as usize % data.len();
                let bit = 1u8 << (next() % 8);
                data[pos] ^= bit;
            }
            if truncate {
                let keep = next() as usize % (data.len() + 1);
                data.truncate(keep);
            }
            fs::write(&path, &data).expect("write corrupted segment");

            let store = SpillStore::open(&dir).expect("recovery must never error");
            for (key, bytes) in &expected {
                if let Some((artifact, _)) = store.get(*key) {
                    prop_assert_eq!(
                        &encode_artifact(&artifact),
                        bytes,
                        "a served entry must be bit-identical to what was stored"
                    );
                }
            }
            let _ = fs::remove_dir_all(&dir);
        }
    }
}
