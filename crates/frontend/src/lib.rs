//! Halide-style image-processing frontend for iPIM (paper Sec. V-A).
//!
//! Like Halide, the frontend decouples the *algorithm* (pure functions over
//! image coordinates, [`Expr`]/[`FuncDef`]) from the *schedule* (how the
//! computation maps onto hardware). iPIM adds two schedule primitives:
//!
//! * [`ScheduleMut::ipim_tile`] — partition the image into tiles and
//!   distribute them over the cube/vault/PG/PE hierarchy (Fig. 3(a)),
//! * [`ScheduleMut::load_pgsm`] — stage each tile's input window in the
//!   process-group scratchpad before computing (Fig. 3(b)),
//!
//! alongside the standard `compute_root` schedule. Halide's `vectorize`
//! (Sec. V-B) is not modelled: every SIMB operation is four lanes wide.
//!
//! The crate also contains a reference CPU interpreter ([`interpret`]) used
//! as the golden model for compiler correctness tests, and an affine access
//! analysis ([`AccessPattern`]) used by bounds inference.
//!
//! # Example
//!
//! ```
//! use ipim_frontend::{PipelineBuilder, x, y, Image, interpret};
//!
//! let mut p = PipelineBuilder::new();
//! let input = p.input("in", 64, 64);
//! let blur = p.func("blur", 64, 64);
//! p.define(
//!     blur,
//!     (input.at(x() - 1, y()) + input.at(x(), y()) + input.at(x() + 1, y())) / 3.0,
//! );
//! p.schedule(blur).compute_root().ipim_tile(8, 8).load_pgsm();
//! let pipeline = p.build(blur).unwrap();
//!
//! let img = Image::gradient(64, 64);
//! let out = interpret(&pipeline, &[img]).unwrap();
//! assert_eq!(out.width(), 64);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod access;
mod expr;
mod image;
mod interp;
mod pipeline;

pub use access::{
    analyze_coord, collect_accesses, footprints, AccessPattern, AffineCoord, StencilFootprint,
};
pub use expr::{x, y, BinOp, Expr, ScalarType, SourceRef, Var};
pub use image::Image;
pub use interp::{interpret, interpret_named, InterpError};
pub use pipeline::{
    FuncBody, FuncDef, FuncId, Pipeline, PipelineBuilder, PipelineError, Schedule, ScheduleMut,
    SourceId, StageKind,
};
