//! # tea-mesh — structured meshes for TeaLeaf-rs
//!
//! The mesh substrate of the TeaLeaf reproduction: halo-padded dense
//! fields ([`Field2D`]), balanced rectangular domain decomposition
//! ([`Decomposition2D`]), physical mesh metadata ([`Mesh2D`]), input-deck
//! material states and the crooked-pipe problem generator ([`geometry`]),
//! and face conduction-coefficient assembly ([`coefficients`]).
//!
//! Everything here is deliberately solver-agnostic: `tea-core` builds its
//! matrix-free operators on top of these types, and `tea-comms` moves
//! their halo rectangles between ranks.
//!
//! ## Example
//!
//! ```
//! use tea_mesh::{crooked_pipe, Coefficients, Field2D, Mesh2D};
//!
//! let problem = crooked_pipe(64);
//! let mesh = Mesh2D::serial(64, 64, problem.extent);
//! let mut density = Field2D::new(64, 64, 2);
//! let mut energy = Field2D::new(64, 64, 2);
//! problem.apply_states(&mesh, &mut density, &mut energy);
//! let (rx, ry) = tea_mesh::timestep_scalings(&mesh, 0.04);
//! let coeffs = Coefficients::assemble(&mesh, &density, problem.coefficient, rx, ry, 2);
//! assert!(coeffs.kx.at(32, 32) > 0.0);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod coefficients;
pub mod decomp;
pub mod field;
pub mod geometry;
pub mod mesh;
pub mod scalar;

pub use coefficients::{timestep_scalings, Coefficients};
pub use decomp::{choose_process_grid, split_extent, Decomposition2D, Dir, Subdomain};
pub use field::{Field2, Field2D, Field2F};
pub use geometry::{crooked_pipe, crooked_pipe_rect, Coefficient, Problem, Shape, State};
pub use mesh::{Extent2D, Mesh2D};
pub use scalar::Scalar;
