//! Per-layer metric assembly shared by the deck and serve runs: the
//! named-value table, the count × isolated-time attribution, and the
//! kernel roofline columns.

use crate::catalog::PER_LAYER;
use crate::isolated::{CommTimes, KernelTimes, StreamPeak};
use std::collections::BTreeMap;
use tea_core::SolveTrace;
use tea_perfmodel::{kernel_roofline, predicted_iteration_bytes, KernelBytes};

/// Inner Chebyshev steps every PPCG deck of this benchmark uses.
pub const INNER_STEPS: usize = 16;

/// Per-layer values by name. Every name must be in the catalog; a
/// metric never set reports 0 (not applicable to the workload).
#[derive(Default)]
pub struct LayerTable(BTreeMap<&'static str, f64>);

impl LayerTable {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|m| m.name == name),
            "'{name}' is not a catalogued per-layer metric"
        );
        self.0.insert(name, value);
    }

    /// Every catalogued metric, in catalog order.
    pub fn into_metrics(self) -> Vec<(&'static str, &'static str, f64)> {
        PER_LAYER
            .iter()
            .map(|m| (m.name, m.unit, self.0.get(m.name).copied().unwrap_or(0.0)))
            .collect()
    }
}

/// Sweeps weighted by the cells each one covers, per kernel class, plus
/// the perfmodel's byte prediction for the same work.
#[derive(Default, Clone, Copy)]
pub struct CellSweeps {
    /// Plain stencil sweeps (fused Chebyshev passes excluded).
    pub spmv: f64,
    pub fused: f64,
    pub vector: f64,
    pub dot: f64,
    pub precon: f64,
    /// Σ outer iterations × cells × `predicted_iteration_bytes`.
    pub model_bytes: f64,
    /// Σ outer iterations × cells.
    pub cell_iterations: f64,
}

impl CellSweeps {
    /// Adds one solve's protocol on a tile of `cells` interior cells.
    pub fn add(&mut self, trace: &SolveTrace, cells: usize, solver: &str) {
        let c = cells as f64;
        let fused = trace.fused_updates.total() as f64;
        self.spmv += (trace.spmv.total() as f64 - fused) * c;
        self.fused += fused * c;
        self.vector += trace.vector_ops.total() as f64 * c;
        self.dot += trace.dot_kernels.total() as f64 * c;
        self.precon += trace.precon_ops.total() as f64 * c;
        let iterations = trace.outer_iterations as f64 * c;
        self.cell_iterations += iterations;
        self.model_bytes +=
            iterations * predicted_iteration_bytes(solver, INNER_STEPS, &KernelBytes::default());
    }
}

/// The exact `SolveTrace` counts.
pub fn set_trace_counts(t: &mut LayerTable, trace: &SolveTrace) {
    t.set("core.outer_iterations", trace.outer_iterations as f64);
    t.set("core.inner_iterations", trace.inner_iterations as f64);
    t.set("core.spmv_sweeps", trace.spmv.total() as f64);
    t.set("core.vector_sweeps", trace.vector_ops.total() as f64);
    t.set("core.dot_sweeps", trace.dot_kernels.total() as f64);
    t.set("core.precon_sweeps", trace.precon_ops.total() as f64);
    t.set("core.fused_sweeps", trace.fused_updates.total() as f64);
    t.set("comms.halo_exchanges", trace.total_halo_exchanges() as f64);
}

/// The exact `StatsSnapshot` counts.
pub fn set_comm_counts(t: &mut LayerTable, comm: &tea_comms::StatsSnapshot) {
    t.set("comms.halo_bytes", comm.bytes_sent() as f64);
    t.set("comms.msgs_sent", comm.msgs_sent as f64);
    t.set("comms.reductions", comm.reductions as f64);
    t.set("comms.reduction_elems", comm.reduction_elements() as f64);
}

/// `_ns_per_cell` and `_pct_peak` of every hot kernel. Bytes are
/// *computed* (the `tea_perfmodel` roofline element counts × element
/// width; the two preconditioner applies use the model's precon class),
/// not measured.
pub fn set_kernel_columns(t: &mut LayerTable, k: &KernelTimes, cells: usize, peak: &StreamPeak) {
    let precon_bytes = KernelBytes::for_width(k.elem_bytes).precon;
    let rows: [(&'static str, &'static str, &str, f64); 8] = [
        (
            "core.apply_ns_per_cell",
            "core.apply_pct_peak",
            "apply",
            k.apply,
        ),
        (
            "core.residual_ns_per_cell",
            "core.residual_pct_peak",
            "residual",
            k.residual,
        ),
        ("core.dot_ns_per_cell", "core.dot_pct_peak", "dot", k.dot),
        (
            "core.axpy_ns_per_cell",
            "core.axpy_pct_peak",
            "axpy",
            k.axpy,
        ),
        (
            "core.scale_add_ns_per_cell",
            "core.scale_add_pct_peak",
            "scale_add",
            k.scale_add,
        ),
        (
            "core.fused_cheb_ns_per_cell",
            "core.fused_cheb_pct_peak",
            "fused_cheb",
            k.fused_cheb,
        ),
        (
            "core.precon_block_ns_per_cell",
            "core.precon_block_pct_peak",
            "",
            k.precon_block,
        ),
        (
            "core.precon_diag_ns_per_cell",
            "core.precon_diag_pct_peak",
            "",
            k.precon_diag,
        ),
    ];
    let c = cells as f64;
    for (ns_name, pct_name, model, seconds) in rows {
        t.set(ns_name, seconds / c * 1e9);
        let bytes_per_cell =
            kernel_roofline(model).map_or(precon_bytes, |r| r.bytes_per_cell(k.elem_bytes));
        t.set(
            pct_name,
            100.0 * c * bytes_per_cell / seconds / peak.bytes_per_s,
        );
    }
}

/// What the attribution needs beyond the sweep counts.
pub struct Attribution<'a> {
    pub sweeps: &'a CellSweeps,
    /// Cells of the tile the kernel times were taken on.
    pub kernel_cells: usize,
    /// f64 kernels: the outer recurrences' stencils and dots.
    pub wide: &'a KernelTimes,
    /// Kernels at the precision of the bulk sweeps (f32 on the mixed
    /// workload, otherwise the same as `wide`).
    pub bulk: &'a KernelTimes,
    /// Seconds per cell of the deck's own preconditioner apply.
    pub precon_s_per_cell: f64,
    pub halo_exchanges: u64,
    pub reductions: u64,
    pub comm: &'a CommTimes,
    pub solve_s: f64,
}

/// count × isolated time per sweep ÷ `solve_s`, class by class, and
/// what is left. Nothing is clamped: isolated timings run with warm
/// caches and no neighbours, so the shares can sum past 1 and the
/// remainder can be negative.
pub fn set_attribution(t: &mut LayerTable, a: &Attribution<'_>) {
    let per_cell = |seconds: f64| seconds / a.kernel_cells as f64;
    let shares = [
        ("core.spmv_share", a.sweeps.spmv * per_cell(a.wide.apply)),
        (
            "core.fused_share",
            a.sweeps.fused * per_cell(a.bulk.fused_cheb),
        ),
        ("core.vector_share", a.sweeps.vector * per_cell(a.bulk.axpy)),
        ("core.dot_share", a.sweeps.dot * per_cell(a.wide.dot)),
        ("core.precon_share", a.sweeps.precon * a.precon_s_per_cell),
        (
            "comms.halo_share",
            a.halo_exchanges as f64 * a.comm.halo_exchange,
        ),
        (
            "comms.reduction_share",
            a.reductions as f64 * a.comm.allreduce,
        ),
    ];
    let mut attributed = 0.0;
    for (name, seconds) in shares {
        t.set(name, seconds / a.solve_s);
        attributed += seconds / a.solve_s;
    }
    t.set("core.unattributed_share", 1.0 - attributed);
    t.set("comms.halo_exchange_us", a.comm.halo_exchange * 1e6);
    t.set("comms.allreduce_us", a.comm.allreduce * 1e6);
}

/// The perfmodel columns: the byte prior per cell-iteration, the solve
/// time it implies at the measured streaming peak (each worker streams
/// its own share of the cells at the single-core peak), and predicted ÷
/// measured — the base is the measured `solve_s`.
pub fn set_perfmodel(
    t: &mut LayerTable,
    sweeps: &CellSweeps,
    workers: usize,
    peak: &StreamPeak,
    solve_s: f64,
) {
    if sweeps.cell_iterations > 0.0 {
        t.set(
            "perfmodel.bytes_per_cell_iteration",
            sweeps.model_bytes / sweeps.cell_iterations,
        );
    }
    let predicted = sweeps.model_bytes / workers as f64 / peak.bytes_per_s;
    t.set("perfmodel.predicted_solve_s", predicted);
    t.set("perfmodel.model_error", predicted / solve_s);
}
