//! Slicing, material classification, tool-path and G-code generation —
//! the CatalystEX stand-in of the ObfusCADe reproduction.
//!
//! Pipeline (mirroring Fig. 1/3 of the paper):
//!
//! 1. [`orient_shells`] places the tessellated bodies in a build
//!    [`Orientation`] (x-y or x-z, Fig. 6).
//! 2. [`slice_shells`] cuts the meshes into per-layer oriented contours.
//! 3. [`rasterize`] classifies each cell as model / support / empty by
//!    signed winding — the facet-normal semantics behind the paper's
//!    Table 3.
//! 4. [`generate_toolpath`] plans perimeter + raster roads;
//!    [`to_gcode`]/[`parse_gcode`] serialize the part program.
//! 5. [`diagnose_slices`] quantifies the Fig. 7a discontinuity observable.
//!
//! # Examples
//!
//! ```
//! use am_cad::parts::{intact_prism, PrismDims};
//! use am_mesh::{tessellate_shells, Resolution};
//! use am_slicer::{
//!     generate_toolpath, orient_shells, parse_gcode, slice_shells, to_gcode, Orientation,
//!     SlicerConfig, ToolMaterial,
//! };
//!
//! let part = intact_prism(&PrismDims::default()).resolve()?;
//! let shells = tessellate_shells(&part, &Resolution::Fine.params());
//! let oriented = orient_shells(&shells, Orientation::Xy);
//! let sliced = slice_shells(&oriented, 0.1778);
//! let toolpath = generate_toolpath(&sliced, &SlicerConfig::default());
//! let gcode = to_gcode(&toolpath);
//! let back = parse_gcode(&gcode)?;
//! assert_eq!(back.roads.len(), toolpath.roads.len());
//! assert!(toolpath.total_length(ToolMaterial::Model) > 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod diagnostics;
mod gcode;
mod orientation;
mod preview;
mod raster;
mod runs;
mod slice;
mod toolpath;

pub use config::{ConfigError, InfillStyle, SlicerConfig};
pub use diagnostics::{diagnose_slices, SeamExposure, SliceReport};
pub use gcode::{parse_gcode, to_gcode, GcodeError};
pub use orientation::{build_transform, orient_mesh, orient_shells, Orientation};
pub use preview::{render_layer_ascii, render_layer_with_seam};
pub use raster::{
    model_area, rasterize, rasterize_layer, rasterize_layer_scan, rasterize_polygon, CellMaterial,
    RasterLayer,
};
pub use slice::{
    slice_mesh, slice_shells, slice_shells_scan, try_slice_shells, try_slice_shells_with, Contour,
    Layer, SliceError, SlicedModel,
};
pub use toolpath::{
    generate_toolpath, try_generate_toolpath, Road, RoadKind, ToolMaterial, ToolPath,
    ToolpathError,
};
