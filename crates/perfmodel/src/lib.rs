//! # tea-perfmodel — petascale machines, on a laptop
//!
//! The paper's evaluation is strong scaling of a fixed 4000² problem on
//! Titan (8,192 K20x GPUs, Cray Gemini), Piz Daint (2,048 K20x, Cray
//! Aries) and Spruce (E5-2680v2, SGI ICE-X). Those machines are not
//! available to a reproduction, so this crate substitutes calibrated
//! analytic models ([`machines`]) and a trace-replay simulator
//! ([`scaling`]): `tea-core` solvers record their exact
//! computation/communication protocol ([`tea_core::SolveTrace`]) from a
//! real run, and the simulator prices that protocol on a modelled
//! machine at any node count.
//!
//! What the model is designed to reproduce (and what the tests pin
//! down): the CG-vs-CPPCG scaling gap, the matrix-powers depth ordering,
//! Titan's ~1k-node knee for the 4000² mesh, Piz Daint's interconnect
//! advantage at 2,048 nodes, Spruce's super-linear cache window, and the
//! BoomerAMG baseline's early strong-scaling collapse.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod machines;
pub mod roofline;
pub mod scaling;

pub use machines::{
    all_machines, piz_daint, spruce_hybrid, spruce_mpi, titan, Machine, NetworkModel, NodeModel,
};
pub use roofline::{kernel_roofline, KernelRoofline};
pub use scaling::{
    iteration_bytes, node_counts, predict_width, predicted_iteration_bytes, KernelBytes,
    ScalingPoint, ScalingSeries,
};
