//! Per-kernel roofline model for the hot 5-point kernels.
//!
//! Where [`crate::scaling`] prices whole solves on modelled machines,
//! this module prices *one kernel sweep* on the machine the benchmark
//! is actually running on: each hot kernel gets a static bytes/cell and
//! flops/cell figure, and a measured runtime plus a measured streaming
//! peak (e.g. from a triad sweep over arrays of the same footprint)
//! turn into an honest percent-of-peak number. All the kernels here are
//! far below the ridge point of any real machine (arithmetic intensity
//! well under 1 flop/byte), so percent of *streaming* peak — not flop
//! peak — is the meaningful efficiency axis, exactly as the paper
//! argues for TeaLeaf's bandwidth-bound sweeps.
//!
//! Element counts match the [`crate::KernelBytes`] conventions: a
//! 5-point-read field costs 2 elements/cell (the centre row streams
//! once; the north/south neighbours hit cache), a read-modify-write
//! costs 2, a plain load or store costs 1.

/// Static traffic and arithmetic model of one hot kernel.
#[derive(Debug, Clone, Copy)]
// audit:allow(dead_pub) — what `kernel_roofline` returns; benchmark/src/layers.rs prices sweeps with it
pub struct KernelRoofline {
    /// Kernel name, as [`kernel_roofline`] looks it up (`apply`/
    /// `apply_fused_dot`/`residual`/`dot`/`axpy`/`scale_add`/
    /// `cg_update`/`fused_cheb`).
    pub name: &'static str,
    /// Elements moved per interior cell per sweep (width-agnostic;
    /// multiply by the element width for bytes).
    pub elems_per_cell: f64,
    /// Floating-point operations per interior cell per sweep.
    pub flops_per_cell: f64,
}

impl KernelRoofline {
    /// Bytes moved per cell at the given element width in bytes
    /// (8 for f64, 4 for f32).
    pub fn bytes_per_cell(&self, elem_bytes: f64) -> f64 {
        self.elems_per_cell * elem_bytes
    }
}

/// The hot kernels of the solver, with their per-cell element and flop
/// counts.
///
/// * `apply` — 5-point stencil `w = A·p`: p 5-point (2) + Kx + Ky +
///   store w = 5 elems; 5 multiplies + 8 adds = 13 flops.
/// * `apply_fused_dot` — `apply` with the `p·w` partial riding along:
///   the same 5 elems, + 1 multiply + 1 add = 15 flops.
/// * `residual` — `r = u0 − A·u`: u 5-point (2) + Kx + Ky + u0 +
///   store r = 6 elems; the stencil + 1 subtract = 14 flops.
/// * `dot` — two streamed loads, 1 multiply + 1 add.
/// * `axpy` — `y += α·x`: 2 loads + 1 store, 1 multiply + 1 add.
/// * `scale_add` — `y = α·y + β·x`: 2 loads + 1 store, 2 mul + 1 add.
/// * `cg_update` — CG's fused `u += αp; r −= αw; Σ r·r`: u rmw (2) +
///   r rmw (2) + p + w = 6 elems; 3 multiplies + 3 adds = 6 flops.
/// * `fused_cheb` — the fused Chebyshev pass `z += sd; rr −= A·sd`:
///   sd 5-point (2) + Kx + Ky + z rmw (2) + rr rmw (2) = 8 elems;
///   the stencil + 1 add + 1 subtract = 15 flops.
const HOT_KERNELS: [KernelRoofline; 8] = [
    KernelRoofline {
        name: "apply",
        elems_per_cell: 5.0,
        flops_per_cell: 13.0,
    },
    KernelRoofline {
        name: "apply_fused_dot",
        elems_per_cell: 5.0,
        flops_per_cell: 15.0,
    },
    KernelRoofline {
        name: "residual",
        elems_per_cell: 6.0,
        flops_per_cell: 14.0,
    },
    KernelRoofline {
        name: "dot",
        elems_per_cell: 2.0,
        flops_per_cell: 2.0,
    },
    KernelRoofline {
        name: "axpy",
        elems_per_cell: 3.0,
        flops_per_cell: 2.0,
    },
    KernelRoofline {
        name: "scale_add",
        elems_per_cell: 3.0,
        flops_per_cell: 3.0,
    },
    KernelRoofline {
        name: "cg_update",
        elems_per_cell: 6.0,
        flops_per_cell: 6.0,
    },
    KernelRoofline {
        name: "fused_cheb",
        elems_per_cell: 8.0,
        flops_per_cell: 15.0,
    },
];

/// Looks up a hot-kernel model by name.
pub fn kernel_roofline(name: &str) -> Option<KernelRoofline> {
    HOT_KERNELS.iter().copied().find(|k| k.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_and_bytes() {
        let apply = kernel_roofline("apply").unwrap();
        assert_eq!(apply.bytes_per_cell(8.0), 40.0);
        assert_eq!(apply.bytes_per_cell(4.0), 20.0);
        assert!(kernel_roofline("nope").is_none());
        // fused pass moves fewer elements than apply + two axpys
        let fused = kernel_roofline("fused_cheb").unwrap();
        let axpy = kernel_roofline("axpy").unwrap();
        assert!(fused.elems_per_cell < apply.elems_per_cell + 2.0 * axpy.elems_per_cell);
        // CG's fused update carries two axpys' streams; its dot is free
        let update = kernel_roofline("cg_update").unwrap();
        assert_eq!(update.elems_per_cell, 2.0 * axpy.elems_per_cell);
    }
}
