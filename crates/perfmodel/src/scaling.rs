//! The strong-scaling simulator: replays a measured [`SolveTrace`] on a
//! modelled [`Machine`] at any node count.
//!
//! The key property making this valid: a solve's
//! *protocol* — iteration counts, sweeps per iteration, exchanges per
//! sweep, reductions per iteration — is decomposition-independent (the
//! global problem is fixed; only tile sizes change with node count). The
//! trace is measured once from a real run of the real solver; the model
//! supplies per-event costs:
//!
//! * **kernel sweep**: `cells × bytes/cell / bw_eff + sweep_overhead`,
//!   where extended (matrix-powers) sweeps cover `(nx+2e)(ny+2e)` cells —
//!   the redundant-work term — and `bw_eff` includes the cache model
//!   (Spruce's super-linear region);
//! * **halo exchange**: two α-β phases (x then y), plus PCIe hops on GPU
//!   machines;
//! * **global reduction**: `2·log₂(R)` tree hops — the term that makes
//!   plain CG stop scaling first (paper §III.A).

use crate::machines::Machine;
use tea_amg::MgTrace;
use tea_core::{IterationCost, SolveTrace};
use tea_mesh::{choose_process_grid, split_extent};

/// Modelled bytes moved per cell per sweep, by kernel class.
///
/// Every field is `elements-per-cell × element-width`; the defaults are
/// the f64 (8-byte) figures. Use [`KernelBytes::for_width`] to price the
/// same kernel schedule at another precision — f32 sweeps move exactly
/// half the bytes of their f64 counterparts, element counts unchanged.
#[derive(Debug, Clone, Copy)]
pub struct KernelBytes {
    /// Fused stencil: load `p` (5-point, cached ≈ 2 elems), `Kx`, `Ky`,
    /// store `w` — 5 elements/cell.
    pub spmv: f64,
    /// axpy-class: two loads + one store — 3 elements/cell.
    pub vector: f64,
    /// dot: two loads — 2 elements/cell.
    pub dot: f64,
    /// preconditioner apply: two loads + one store (diag) / block sweeps
    /// — 4 elements/cell.
    pub precon: f64,
    /// *Additional* traffic of a fused Chebyshev sweep
    /// ([`tea_core::TileOperator::apply_cheb_fused`]) over the plain stencil
    /// it is counted alongside: `z` and `rr` read-modify-writes (+4
    /// elems) minus the `w` store the stencil class still charges but
    /// the fused pass never issues (−1 elem) — 3 elements/cell. One
    /// fused pass therefore prices at `spmv + fused_update` = 8
    /// elements/cell, against 11 for the unfused apply + two axpys.
    pub fused_update: f64,
}

impl KernelBytes {
    /// Per-cell element counts of each kernel class (see field docs).
    const ELEMS: [f64; 5] = [5.0, 3.0, 2.0, 4.0, 3.0];

    /// Bytes of one element in this schedule: the width it was built
    /// at (`for_width(w).elem_bytes() == w`).
    fn elem_bytes(&self) -> f64 {
        self.vector / Self::ELEMS[1]
    }

    /// Kernel-class bytes at a given element width in bytes (8 for f64,
    /// 4 for f32). `for_width(8.0)` equals `KernelBytes::default()`.
    pub fn for_width(elem_bytes: f64) -> Self {
        let [spmv, vector, dot, precon, fused_update] = Self::ELEMS.map(|e| e * elem_bytes);
        KernelBytes {
            spmv,
            vector,
            dot,
            precon,
            fused_update,
        }
    }
}

impl Default for KernelBytes {
    fn default() -> Self {
        KernelBytes::for_width(8.0)
    }
}

/// One predicted point of a strong-scaling curve.
#[derive(Debug, Clone, Copy)]
// audit:allow(dead_pub) — what `predict_width` returns to tea-tune's search.rs and the element of
// `ScalingSeries::points` that figures.rs tabulates
pub struct ScalingPoint {
    /// Node count.
    pub nodes: usize,
    /// Total ranks (nodes × ranks-per-node).
    pub ranks: usize,
    /// Per-rank tile of the fine grid `(nx, ny)`.
    pub tile: (usize, usize),
    /// Kernel time, seconds.
    pub compute: f64,
    /// Halo-exchange time, seconds.
    pub halo: f64,
    /// Global-reduction time, seconds.
    pub reduction: f64,
    /// Multigrid setup time (AMG only), seconds.
    pub setup: f64,
}

impl ScalingPoint {
    /// Total modelled time-to-solution.
    pub fn total(&self) -> f64 {
        self.compute + self.halo + self.reduction + self.setup
    }
}

/// The largest tile of an `R`-rank decomposition of `global`.
fn worst_tile(global: (usize, usize), ranks: usize) -> (usize, usize) {
    let (gnx, gny) = global;
    let (px, py) = choose_process_grid(ranks.min(gnx * gny), gnx, gny);
    let (_, nx) = split_extent(gnx, px, 0); // first pieces are the long ones
    let (_, ny) = split_extent(gny, py, 0);
    (nx, ny)
}

fn log2_ceil(r: usize) -> f64 {
    if r <= 1 {
        0.0
    } else {
        (r as f64).log2().ceil()
    }
}

/// Cost of one kernel sweep of `cells` cells at `bytes_per_cell`.
fn sweep_time(m: &Machine, cells: f64, bytes_per_cell: f64, working_set: f64) -> f64 {
    cells * bytes_per_cell / m.effective_bandwidth(working_set) + m.node.sweep_overhead
}

/// Cost of one fused halo exchange at `depth` with `nfields` fields of
/// `elem_bytes`-wide elements on an `nx × ny` tile: two α-β phases
/// (topology-routed) plus PCIe hops on accelerators.
///
/// Halo payloads are precision-native (an f32 leg exchanges 4-byte
/// faces), so the wire bytes must scale with the element width — the
/// old model hardcoded `* 8.0` and overcharged reduced-precision legs
/// by 2×.
fn halo_time(
    m: &Machine,
    ranks: usize,
    tile: (usize, usize),
    depth: f64,
    nfields: f64,
    elem_bytes: f64,
) -> f64 {
    let (nx, ny) = (tile.0 as f64, tile.1 as f64);
    // halo neighbours are topologically close; charge injection latency
    // plus a small share of the machine route
    let alpha = m.net.latency + 0.25 * m.net.topology.route_extra(ranks);
    let phase = |elems: f64| -> f64 {
        let bytes = elems * elem_bytes * nfields;
        alpha
            + bytes / m.net.bandwidth
            + 2.0 * (m.node.host_link_latency + bytes / m.node.host_link_bandwidth)
    };
    phase(depth * ny) + phase(depth * (nx + 2.0 * depth))
}

/// Cost of one allreduce of `elements` scalars of `elem_bytes` width
/// over `ranks` ranks: a reduce + broadcast tree of `2·log₂(R)` hops,
/// each crossing real machine distance, plus one device sync on
/// accelerators.
fn reduction_time(m: &Machine, ranks: usize, elements: f64, elem_bytes: f64) -> f64 {
    let hops = 2.0 * log2_ceil(ranks);
    hops * m.net.tree_hop(ranks)
        + elements * elem_bytes / m.net.bandwidth
        + 2.0 * m.node.host_link_latency
}

/// Replays a solver trace on `machine` at `nodes` nodes for a fixed
/// `global` mesh, with every element — field working sets, halo faces,
/// reduction payloads — as wide as `bytes` prices one: 8 bytes for f64
/// solves ([`KernelBytes::default`]), 4 for f32 / the inner leg of the
/// mixed methods (`KernelBytes::for_width(4.0)`), so the sweep classes
/// and the communication terms price the same precision.
pub fn predict_width(
    machine: &Machine,
    trace: &SolveTrace,
    global: (usize, usize),
    nodes: usize,
    bytes: KernelBytes,
) -> ScalingPoint {
    let elem_bytes = bytes.elem_bytes();
    let ranks = nodes * machine.ranks_per_node;
    let tile = worst_tile(global, ranks);
    let (nx, ny) = (tile.0 as f64, tile.1 as f64);
    let working_set = nx * ny * machine.resident_fields as f64 * elem_bytes;

    let mut compute = 0.0;
    let sweep_classes: [(&tea_core::KernelCounts, f64); 5] = [
        (&trace.spmv, bytes.spmv),
        (&trace.vector_ops, bytes.vector),
        (&trace.dot_kernels, bytes.dot),
        (&trace.precon_ops, bytes.precon),
        (&trace.fused_updates, bytes.fused_update),
    ];
    for (counts, b) in sweep_classes {
        for (&e, &n) in &counts.sweeps_by_extension {
            let e = e as f64;
            let cells = (nx + 2.0 * e) * (ny + 2.0 * e);
            compute += n as f64 * sweep_time(machine, cells, b, working_set);
        }
    }

    let mut halo = 0.0;
    for (&(depth, nfields), &n) in &trace.halo_exchanges {
        halo += n as f64
            * halo_time(
                machine,
                ranks,
                tile,
                depth as f64,
                nfields as f64,
                elem_bytes,
            );
    }

    let per_elem = if trace.reductions > 0 {
        trace.reduction_elements as f64 / trace.reductions as f64
    } else {
        0.0
    };
    let reduction = trace.reductions as f64 * reduction_time(machine, ranks, per_elem, elem_bytes);

    ScalingPoint {
        nodes,
        ranks,
        tile,
        compute,
        halo,
        reduction,
        setup: 0.0,
    }
}

/// Bytes per cell one *counted* iteration moves under a declared
/// [`IterationCost`] at `inner_steps` inner steps — the auto-tuner's
/// a-priori cost model, priced at the element width of `bytes`.
///
/// Where [`predict_width`] replays a measured trace, this prices one
/// iteration from the kernel schedule alone, before anything runs: the
/// tuner orders its candidate search by it, straight from each
/// candidate's registry entry. The per-solver derivations (and why the
/// PPCG family's price is deliberately depth-blind) sit next to the
/// registry entries that declare them.
pub fn iteration_bytes(cost: &IterationCost, inner_steps: usize, bytes: &KernelBytes) -> f64 {
    cost.elements(inner_steps) as f64 * bytes.elem_bytes()
}

/// [`iteration_bytes`] for a solver named in the full registry
/// (tea-core's builtins plus the AMG baseline), at `inner_steps` inner
/// steps whatever count the entry declares — the name-keyed form the
/// benchmark's attribution layer prices a finished solve with. A name
/// the registry does not know (the `auto` pseudo-solver, a custom
/// solver registered elsewhere) prices as `cg`.
pub fn predicted_iteration_bytes(solver: &str, inner_steps: usize, bytes: &KernelBytes) -> f64 {
    let registry = tea_amg::full_registry();
    let meta = registry
        .resolve(solver)
        .or_else(|_| registry.resolve("cg"))
        .expect("cg is a builtin solver");
    iteration_bytes(&meta.iteration_cost, inner_steps, bytes)
}

/// BoomerAMG-realism constants for the baseline replay. Our in-repo
/// baseline is a *geometric* V-cycle whose serial costs undershoot a
/// real algebraic hierarchy; these factors restore the documented
/// characteristics of the era's BoomerAMG (hypre ~2.10) so the Fig. 7
/// replay prices the library the paper actually ran, not our leaner
/// stand-in. Sources: hypre scaling studies and the paper's own §I/§VIII
/// remarks about setup cost and interconnect stress.
mod amg_model {
    /// Galerkin operator complexity: coarse operators densify (9-point
    /// and beyond), multiplying per-sweep traffic.
    pub(super) const OPERATOR_COMPLEXITY: f64 = 2.5;
    /// Hybrid Gauss-Seidel smoothing exchanges per sweep (forward +
    /// backward).
    pub(super) const EXCHANGES_PER_SWEEP: f64 = 2.0;
    /// Collective rounds per level during setup (parallel coarsening's
    /// independent-set iterations + interpolation construction).
    pub(super) const SETUP_ROUNDS: f64 = 25.0;
    /// Setup touches each fine cell several times (strength graph,
    /// coarsening, triple-matrix products).
    pub(super) const SETUP_BYTES_PER_CELL: f64 = 2000.0;
}

/// Fan-in contention on a level with fewer cells than the machine has
/// parallel contexts: the level lives on ~`cells` active workers, and
/// traffic from the machine's full width (`nodes × cores_per_node` —
/// hybrid ranks still inject through every core's shared resources)
/// funnels across the boundary of that active subgrid, with
/// ≈ `cells^(2/3)` effective injection ports in our empirical congestion
/// model. Calibrated so the baseline's strong-scaling collapse matches
/// published hypre-era behaviour and the paper's Fig. 7 shape.
fn agglomeration_contention(m: &Machine, nodes: usize, level_cells: f64) -> f64 {
    let width = (nodes * m.cores_per_node.max(1)) as f64;
    if level_cells >= width {
        return 0.0;
    }
    m.net.latency * width / level_cells.powf(2.0 / 3.0)
}

/// Replays an AMG-PCG trace (outer CG on the fine grid + per-level
/// V-cycle work + per-step hierarchy setup), with the
/// [`amg_model`] realism factors applied.
fn predict_amg(
    machine: &Machine,
    mg: &MgTrace,
    global: (usize, usize),
    nodes: usize,
    bytes: KernelBytes,
) -> ScalingPoint {
    // outer CG protocol on the fine grid
    let mut point = predict_width(machine, &mg.outer, global, nodes, bytes);
    let ranks = point.ranks;

    // per-level V-cycle work: each sweep is a stencil-class kernel (at
    // AMG operator complexity) plus halo exchanges at that level's tile
    // size, plus agglomeration contention once the level is smaller than
    // the machine
    for (&level, &sweeps) in &mg.level_sweeps {
        let shape = mg
            .level_shapes
            .get(level as usize)
            .copied()
            .unwrap_or((1, 1));
        let tile = worst_tile(shape, ranks);
        let ws = (tile.0 * tile.1 * machine.resident_fields * 8) as f64;
        let cells = (tile.0 * tile.1) as f64;
        let level_cells = (shape.0 * shape.1) as f64;
        point.compute += sweeps as f64
            * sweep_time(
                machine,
                cells,
                bytes.spmv * amg_model::OPERATOR_COMPLEXITY,
                ws,
            );
        point.halo += sweeps as f64
            * (amg_model::EXCHANGES_PER_SWEEP * halo_time(machine, ranks, tile, 1.0, 1.0, 8.0)
                + agglomeration_contention(machine, nodes, level_cells));
    }

    // coarsest direct solve: gather + solve + broadcast
    let coarse_cells = mg.level_shapes.last().map(|&(a, b)| a * b).unwrap_or(1) as f64;
    let coarse = 2.0 * log2_ceil(ranks) * machine.net.latency
        + coarse_cells * coarse_cells * 2e-9 / 1e9 * 1e9 // ~n² flops at 1 Gflop/s
        + 2.0 * machine.node.host_link_latency;
    point.halo += mg.coarse_solves as f64 * coarse;

    // hierarchy setup each time step: coarsening + Galerkin-class work
    // (BoomerAMG's documented pain point) + per-level collective setup
    let setup_cells_per_rank = mg.setup_cells as f64 / ranks as f64;
    let levels = mg.level_shapes.len() as f64;
    point.setup = setup_cells_per_rank * amg_model::SETUP_BYTES_PER_CELL
        / machine.effective_bandwidth(setup_cells_per_rank * 8.0)
        + levels
            * amg_model::SETUP_ROUNDS
            * (machine.net.tree_hop(ranks) * log2_ceil(ranks) + machine.net.latency)
        + levels * 20.0 * machine.node.sweep_overhead;

    point
}

/// A labelled strong-scaling series.
#[derive(Debug, Clone)]
pub struct ScalingSeries {
    /// Legend label (e.g. `"PPCG - 16"`).
    pub label: String,
    /// Machine name.
    pub machine: String,
    /// Points by increasing node count.
    pub points: Vec<ScalingPoint>,
}

impl ScalingSeries {
    /// Predicts a full node sweep (powers of two up to
    /// `machine.max_nodes`) at the element width `bytes` prices
    /// ([`predict_width`]), so half-precision legs replay with
    /// width-correct wire and working-set accounting.
    pub fn sweep_width(
        label: impl Into<String>,
        machine: &Machine,
        trace: &SolveTrace,
        global: (usize, usize),
        bytes: KernelBytes,
    ) -> Self {
        let points = node_counts(machine.max_nodes)
            .into_iter()
            .map(|n| predict_width(machine, trace, global, n, bytes))
            .collect();
        ScalingSeries {
            label: label.into(),
            machine: machine.name.clone(),
            points,
        }
    }

    /// Predicts an AMG sweep.
    pub fn sweep_amg(
        label: impl Into<String>,
        machine: &Machine,
        mg: &MgTrace,
        global: (usize, usize),
        bytes: KernelBytes,
    ) -> Self {
        let points = node_counts(machine.max_nodes)
            .into_iter()
            .map(|n| predict_amg(machine, mg, global, n, bytes))
            .collect();
        ScalingSeries {
            label: label.into(),
            machine: machine.name.clone(),
            points,
        }
    }

    /// Time at a given node count, if that point exists.
    pub fn time_at(&self, nodes: usize) -> Option<f64> {
        self.points
            .iter()
            .find(|p| p.nodes == nodes)
            .map(|p| p.total())
    }

    /// Node count of the fastest point (the "knee" beyond which adding
    /// nodes hurts).
    pub fn best_nodes(&self) -> usize {
        self.points
            .iter()
            .min_by(|a, b| a.total().partial_cmp(&b.total()).unwrap())
            .map(|p| p.nodes)
            .unwrap_or(1)
    }

    /// Strong-scaling efficiency relative to the first point:
    /// `E(P) = T(P₀)·P₀ / (P·T(P))`.
    pub fn efficiency(&self) -> Vec<(usize, f64)> {
        let Some(first) = self.points.first() else {
            return Vec::new();
        };
        let (t0, p0) = (first.total(), first.nodes as f64);
        self.points
            .iter()
            .map(|p| (p.nodes, t0 * p0 / (p.nodes as f64 * p.total())))
            .collect()
    }
}

/// Power-of-two node counts 1..=max.
pub fn node_counts(max: usize) -> Vec<usize> {
    let mut v = Vec::new();
    let mut n = 1;
    while n <= max {
        v.push(n);
        n *= 2;
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machines::{piz_daint, spruce_hybrid, spruce_mpi, titan};

    /// A synthetic CG-like trace: i iterations, 2 reductions and one
    /// depth-1 exchange each, one fused spmv + 3 vector ops per
    /// iteration.
    fn cg_like(iters: u64) -> SolveTrace {
        let mut t = SolveTrace::new("CG-1");
        t.outer_iterations = iters;
        for _ in 0..iters {
            t.spmv.record(0);
            t.vector_ops.record(0);
            t.vector_ops.record(0);
            t.vector_ops.record(0);
            t.dot_kernels.record(0);
            t.record_halo(1, 1);
            t.record_reduction(1);
            t.record_reduction(1);
        }
        t
    }

    /// A PPCG-like trace: fewer outer iterations, m inner sweeps per
    /// outer with deep exchanges.
    fn ppcg_like(outer: u64, m: u64, depth: usize) -> SolveTrace {
        let mut t = SolveTrace::new(format!("PPCG-{depth}"));
        t.outer_iterations = outer;
        let per_ex = depth as u64;
        for _ in 0..outer {
            t.spmv.record(0);
            t.record_halo(1, 1);
            t.record_reduction(1);
            t.record_reduction(1);
            // inner smoothing with matrix powers
            let mut avail = 0u64;
            for step in 0..m {
                if avail == 0 {
                    t.record_halo(depth, 2);
                    avail = per_ex;
                }
                let e = (avail - 1).min(m - 1 - step) as usize;
                t.spmv.record(e);
                t.vector_ops.record(e);
                t.vector_ops.record(e);
                t.vector_ops.record(e);
                avail = e as u64;
            }
        }
        t
    }

    #[test]
    fn node_count_sweeps() {
        assert_eq!(node_counts(8), vec![1, 2, 4, 8]);
        assert_eq!(node_counts(1), vec![1]);
    }

    #[test]
    fn compute_shrinks_with_nodes_but_latency_grows() {
        let m = titan();
        let t = cg_like(500);
        let p1 = predict_width(&m, &t, (4000, 4000), 1, KernelBytes::default());
        let p1k = predict_width(&m, &t, (4000, 4000), 1024, KernelBytes::default());
        assert!(p1k.compute < p1.compute / 100.0);
        assert!(p1k.reduction > p1.reduction);
        assert!(p1.total() > p1k.total(), "1k nodes must beat 1 node");
    }

    #[test]
    fn titan_knee_near_1k_nodes_for_cg() {
        // paper §VI: the 4000^2 problem stops scaling around 1,024 nodes
        let m = titan();
        let t = cg_like(500);
        let series =
            ScalingSeries::sweep_width("CG - 1", &m, &t, (4000, 4000), KernelBytes::default());
        let best = series.best_nodes();
        assert!(
            (128..=2048).contains(&best),
            "CG knee expected in the hundreds-to-1k range, got {best}"
        );
    }

    #[test]
    fn ppcg_outscales_cg_at_high_node_counts() {
        let m = titan();
        // comparable total work: 500 CG iterations vs 30 outer x 16 inner
        let cg = cg_like(500);
        let pp = ppcg_like(30, 16, 16);
        let s_cg =
            ScalingSeries::sweep_width("CG - 1", &m, &cg, (4000, 4000), KernelBytes::default());
        let s_pp =
            ScalingSeries::sweep_width("PPCG - 16", &m, &pp, (4000, 4000), KernelBytes::default());
        let at = 8192;
        assert!(
            s_pp.time_at(at).unwrap() < s_cg.time_at(at).unwrap(),
            "PPCG-16 must win at scale"
        );
        // and its knee must sit at a higher node count
        assert!(s_pp.best_nodes() >= s_cg.best_nodes());
    }

    #[test]
    fn deeper_matrix_powers_scale_better() {
        let m = piz_daint();
        let d1 = ppcg_like(30, 16, 1);
        let d16 = ppcg_like(30, 16, 16);
        let s1 =
            ScalingSeries::sweep_width("PPCG - 1", &m, &d1, (4000, 4000), KernelBytes::default());
        let s16 =
            ScalingSeries::sweep_width("PPCG - 16", &m, &d16, (4000, 4000), KernelBytes::default());
        assert!(
            s16.time_at(2048).unwrap() < s1.time_at(2048).unwrap(),
            "depth 16 must beat depth 1 at 2,048 nodes"
        );
        // at one node they are nearly identical (same compute, comm free)
        let r = s16.time_at(1).unwrap() / s1.time_at(1).unwrap();
        assert!(r < 1.1, "at one node depths should tie, ratio {r}");
    }

    #[test]
    fn piz_daint_beats_titan_at_2048() {
        // paper §VI: ~47 % faster, attributed to Aries vs Gemini
        let pp = ppcg_like(30, 16, 16);
        let st = ScalingSeries::sweep_width(
            "PPCG - 16",
            &titan(),
            &pp,
            (4000, 4000),
            KernelBytes::default(),
        );
        let sd = ScalingSeries::sweep_width(
            "PPCG - 16",
            &piz_daint(),
            &pp,
            (4000, 4000),
            KernelBytes::default(),
        );
        let ratio = st.time_at(2048).unwrap() / sd.time_at(2048).unwrap();
        assert!(
            ratio > 1.2 && ratio < 2.2,
            "Titan/Piz Daint ratio at 2,048 nodes should show the interconnect gap \
             (paper: ~1.47), got {ratio}"
        );
    }

    #[test]
    fn spruce_superlinear_cache_window() {
        let m = spruce_hybrid();
        let t = cg_like(500);
        let s = ScalingSeries::sweep_width("CG - 1", &m, &t, (4000, 4000), KernelBytes::default());
        let eff = s.efficiency();
        // somewhere in the sweep, efficiency must exceed 1 (tiles start
        // fitting in LLC)
        assert!(
            eff.iter().any(|&(_, e)| e > 1.0),
            "expected a super-linear cache window: {eff:?}"
        );
    }

    #[test]
    fn worst_tile_shrinks() {
        assert_eq!(worst_tile((4000, 4000), 1), (4000, 4000));
        let t4 = worst_tile((4000, 4000), 4);
        assert_eq!(t4, (2000, 2000));
        let t1k = worst_tile((4000, 4000), 1024);
        assert_eq!(t1k, (125, 125));
    }

    /// A synthetic multigrid trace shaped like a measured one.
    fn amg_like(vcycles: u64, fine: usize) -> MgTrace {
        let mut shapes = Vec::new();
        let (mut nx, mut ny) = (fine, fine);
        loop {
            shapes.push((nx, ny));
            if nx * ny <= 64 || nx < 4 {
                break;
            }
            nx = nx.div_ceil(2);
            ny = ny.div_ceil(2);
        }
        let mut outer = SolveTrace::new("BoomerAMG");
        outer.outer_iterations = vcycles;
        for _ in 0..vcycles {
            outer.spmv.record(0);
            outer.record_halo(1, 1);
            outer.record_reduction(1);
            outer.record_reduction(1);
        }
        let mut mg = MgTrace {
            outer,
            level_shapes: shapes.clone(),
            vcycles,
            coarse_solves: vcycles,
            setup_cells: shapes.iter().map(|&(a, b)| (a * b) as u64).sum(),
            ..Default::default()
        };
        for l in 0..shapes.len() {
            mg.level_sweeps.insert(l as u32, 6 * vcycles);
        }
        mg
    }

    #[test]
    fn amg_baseline_wins_small_loses_big() {
        // few V-cycles vs many CG iterations: the baseline must win at
        // one node on work, and lose at scale on its per-level latencies
        let m = spruce_mpi();
        let amg = amg_like(40, 4000);
        let cg = cg_like(8000);
        let s_amg =
            ScalingSeries::sweep_amg("BoomerAMG", &m, &amg, (4000, 4000), KernelBytes::default());
        let s_cg =
            ScalingSeries::sweep_width("CG - 1", &m, &cg, (4000, 4000), KernelBytes::default());
        assert!(s_amg.time_at(1).unwrap() < s_cg.time_at(1).unwrap());
        // the baseline's curve must have an interior minimum (rising tail)
        let best = s_amg.best_nodes();
        assert!(best > 1 && best < m.max_nodes, "AMG knee at {best}");
        let t_best = s_amg.time_at(best).unwrap();
        let t_max = s_amg.time_at(m.max_nodes).unwrap();
        assert!(
            t_max > 1.5 * t_best,
            "AMG must collapse beyond its knee: {t_best} -> {t_max}"
        );
    }

    #[test]
    fn agglomeration_contention_grows_with_machine_width() {
        let m = spruce_mpi();
        let coarse = 64.0;
        let c32 = agglomeration_contention(&m, 32, coarse);
        let c512 = agglomeration_contention(&m, 512, coarse);
        assert!(c512 > 10.0 * c32, "contention must grow with nodes");
        // a level larger than the machine is contention-free
        assert_eq!(agglomeration_contention(&m, 32, 1e9), 0.0);
    }

    #[test]
    fn amg_setup_cost_present_and_scale_dependent() {
        let m = spruce_mpi();
        let amg = amg_like(40, 4000);
        let p1 = predict_amg(&m, &amg, (4000, 4000), 1, KernelBytes::default());
        let p512 = predict_amg(&m, &amg, (4000, 4000), 512, KernelBytes::default());
        assert!(p1.setup > 0.0);
        assert!(p512.setup > 0.0);
        // per-rank setup bandwidth work shrinks, collective part grows:
        // at scale the collective term keeps setup from vanishing
        assert!(p512.setup > p1.setup / 512.0 * 4.0);
    }

    #[test]
    fn kernel_bytes_scale_with_element_width() {
        let b64 = KernelBytes::default();
        assert_eq!(b64.spmv, 40.0);
        assert_eq!(b64.vector, 24.0);
        assert_eq!(b64.dot, 16.0);
        assert_eq!(b64.precon, 32.0);
        assert_eq!(b64.fused_update, 24.0);
        // f32 legs move 4 B/element: exactly half of every class
        let b32 = KernelBytes::for_width(4.0);
        assert_eq!(b32.spmv, 20.0);
        assert_eq!(b32.vector, 12.0);
        assert_eq!(b32.dot, 8.0);
        assert_eq!(b32.precon, 16.0);
        assert_eq!(b32.fused_update, 12.0);
        // a solver's bulk width follows its registry precision
        let registry = tea_amg::full_registry();
        let width = |n: &str| {
            registry
                .resolve(n)
                .expect("registered")
                .precision
                .elem_bytes()
        };
        assert_eq!(width("cg_f32"), 4.0);
        assert_eq!(width("mixed_ppcg"), 4.0);
        assert_eq!(width("mixed_chebyshev"), 4.0);
        assert_eq!(width("cg"), 8.0);
        assert_eq!(width("ppcg"), 8.0);
    }

    #[test]
    fn every_prior_is_pinned() {
        // (name, prior at 0 inner steps, prior at 16), bytes/cell at
        // f64: a change to a declared cost, or to how one is priced,
        // must show here
        let pinned: [(&str, f64, f64); 10] = [
            ("jacobi", 64.0, 64.0),
            ("cg", 112.0, 112.0),
            ("chebyshev", 144.0, 144.0),
            ("ppcg", 256.0, 1696.0),
            ("mixed_cg", 168.0, 168.0),
            ("mixed_ppcg", 232.0, 952.0),
            ("mixed_chebyshev", 128.0, 848.0),
            ("cg_f32", 56.0, 56.0),
            ("amg", 112.0, 112.0),
            ("custom_registered_cg", 112.0, 112.0),
        ];
        let b = KernelBytes::default();
        for (name, at0, at16) in pinned {
            assert_eq!(predicted_iteration_bytes(name, 0, &b), at0, "{name}");
            assert_eq!(predicted_iteration_bytes(name, 16, &b), at16, "{name}");
        }
        // every registered method is in the table
        let names = tea_amg::full_registry().names();
        assert!(
            names.iter().all(|n| pinned.iter().any(|p| p.0 == *n)),
            "{names:?}"
        );
    }

    #[test]
    fn f32_iteration_priced_at_4_bytes_per_element() {
        let b = KernelBytes::default();
        let cg = predicted_iteration_bytes("cg", 0, &b);
        let cg32 = predicted_iteration_bytes("cg_f32", 0, &b);
        assert!((cg32 - 0.5 * cg).abs() < 1e-12);
        // pricing the same schedule from 4-byte kernel bytes agrees:
        // the f32 discount is exactly the element-width ratio
        let b32 = KernelBytes::for_width(4.0);
        assert!((predicted_iteration_bytes("cg", 0, &b32) - cg32).abs() < 1e-12);
    }

    #[test]
    fn comm_terms_scale_with_element_width() {
        // the old model hardcoded 8-byte wire payloads; f32 legs must
        // now pay half the bandwidth term in halo and reduction time
        let m = titan();
        let t = cg_like(100);
        let p64 = predict_width(&m, &t, (4000, 4000), 64, KernelBytes::for_width(8.0));
        let p32 = predict_width(&m, &t, (4000, 4000), 64, KernelBytes::for_width(4.0));
        assert!(p32.compute < p64.compute);
        assert!(p32.halo < p64.halo, "f32 halo faces are half the bytes");
        assert!(p32.reduction < p64.reduction);
        // the default kernel bytes are the f64 width
        let p = predict_width(&m, &t, (4000, 4000), 64, KernelBytes::default());
        assert_eq!(p.total(), p64.total());
    }

    #[test]
    fn fused_ppcg_inner_sweep_prices_below_unfused() {
        let b = KernelBytes::default();
        let m = 16;
        let sweep = b.spmv + 3.0 * b.vector + b.precon;
        let unfused = sweep + b.dot + m as f64 * sweep;
        let fused = predicted_iteration_bytes("ppcg", m, &b);
        assert!(fused < unfused, "fusion must reduce modelled bytes");
        // each fused inner step saves 6 elements/cell: the skipped `w`
        // store + reload, the separate `sd` reload, and the `tmp`
        // round-trip the fused recurrence elides
        assert!((unfused - fused - m as f64 * 6.0 * 8.0).abs() < 1e-9);
        // the mixed variant keeps the same fused structure at half width
        let mixed = predicted_iteration_bytes("mixed_ppcg", m, &b);
        assert!(mixed < fused);
    }

    /// Elements/cell a trace's sweeps price to, class by class.
    fn trace_elems(t: &SolveTrace) -> f64 {
        let [spmv, vector, dot, precon, fused] = KernelBytes::ELEMS;
        t.spmv.total() as f64 * spmv
            + t.vector_ops.total() as f64 * vector
            + t.dot_kernels.total() as f64 * dot
            + t.precon_ops.total() as f64 * precon
            + t.fused_updates.total() as f64 * fused
    }

    #[test]
    fn cg_schedule_follows_a_real_trace() {
        use tea_core::{crooked_pipe_system, PreconKind, Solve};
        // ten more iterations of a real 16² solve, priced by the class
        // element counts: setup and the final iteration cancel out
        let (op, b) = crooked_pipe_system(16, 0.04, 1);
        let per_iteration = |solver: &str, precon: PreconKind| -> f64 {
            let run = |iters: u64| {
                let mut u = b.clone();
                let solve = Solve::on(&op).with_solver(solver).precon(precon);
                let res = solve.eps(1e-30).max_iters(iters).run(&mut u, &b);
                trace_elems(&res.expect("registered").trace)
            };
            (run(15) - run(5)) / 10.0
        };
        let model = |solver: &str| predicted_iteration_bytes(solver, 0, &KernelBytes::default());
        // identity CG: fused stencil 5 + fused update 6 + direction 3
        assert_eq!(per_iteration("cg", PreconKind::None), 14.0);
        assert_eq!(model("cg"), 14.0 * 8.0);
        assert_eq!(model("cg_f32"), 14.0 * 4.0);
        assert_eq!(per_iteration("cg_f32", PreconKind::None), 14.0);
        // a diagonal preconditioner adds no sweep, only the application
        // (the replay prices it at the coarser precon class; the two
        // streams it really adds are the model doc's "+2")
        let diag = per_iteration("cg", PreconKind::Diagonal);
        assert_eq!(diag - 14.0, KernelBytes::ELEMS[3]);
        // block-Jacobi keeps its strip solve and one separate dot
        let block = per_iteration("cg", PreconKind::BlockJacobi);
        assert_eq!(block - 14.0, KernelBytes::ELEMS[3] + KernelBytes::ELEMS[2]);
        // mixed CG: + conversion sweeps, f32 preconditioner, r·z dot
        assert!(model("mixed_cg") > model("cg"));
        // a name the registry does not know prices as plain CG
        assert_eq!(model("custom_registered_cg"), model("cg"));
    }

    #[test]
    fn efficiency_starts_at_one() {
        let m = titan();
        let t = cg_like(100);
        let s = ScalingSeries::sweep_width("CG - 1", &m, &t, (1000, 1000), KernelBytes::default());
        let eff = s.efficiency();
        assert_eq!(eff[0].0, 1);
        assert!((eff[0].1 - 1.0).abs() < 1e-12);
    }
}
