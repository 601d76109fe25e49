//! Machine models for the paper's three test systems (Table I).
//!
//! | System    | Compute device | Interconnect    |
//! |-----------|----------------|-----------------|
//! | Spruce    | E5-2680v2      | SGI Altix ICE-X |
//! | Piz Daint | NVIDIA K20x    | Cray Aries      |
//! | Titan     | NVIDIA K20x    | Cray Gemini     |
//!
//! The constants below are calibrated from public hardware data sheets
//! and micro-benchmark literature of the era (documented per field).
//! Absolute times are estimates; the *ratios* that drive the paper's
//! observations are what the model is built to honour: Aries beats
//! Gemini on latency and bandwidth (Piz Daint ≈ 47 % faster at 2,048
//! nodes, §VI), GPU kernels pay a launch overhead that floors
//! strong-scaling at ~1k nodes for a 4000² mesh, and Spruce's LLC grants
//! super-linear speedups once tiles fit in cache.

use serde::{Deserialize, Serialize};

/// Per-node (or per-device) compute model. Kernels are modelled as
/// memory-bandwidth-bound streams with a fixed per-sweep overhead.
#[derive(Debug, Clone, Serialize, Deserialize)]
// audit:allow(dead_pub) — type of `Machine::node`, whose fields scaling.rs and figures.rs read
pub struct NodeModel {
    /// Device name for Table I.
    pub device: String,
    /// Effective main-memory bandwidth per node, bytes/s.
    pub mem_bandwidth: f64,
    /// Per-kernel-sweep fixed overhead, seconds (GPU launch latency /
    /// OpenMP region fork-join).
    pub sweep_overhead: f64,
    /// Last-level cache per node, bytes (0 disables the cache model).
    pub cache_bytes: f64,
    /// Effective bandwidth when the working set fits in cache, bytes/s.
    pub cache_bandwidth: f64,
    /// Extra link between device memory and the NIC (PCIe for GPU
    /// machines): latency in seconds, 0 for CPUs.
    pub host_link_latency: f64,
    /// PCIe-class bandwidth in bytes/s (`f64::INFINITY` for CPUs).
    pub host_link_bandwidth: f64,
}

/// Physical topology of the interconnect; determines how message latency
/// grows with machine size (the mechanism behind Titan-vs-Piz-Daint,
/// paper §VI).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
// audit:allow(dead_pub) — type of `NetworkModel::topology`, priced through `tree_hop` in scaling.rs
pub enum Topology {
    /// 3D torus (Gemini): average route length grows as `P^(1/3)`.
    Torus3D {
        /// Per-router hop latency, seconds.
        hop: f64,
    },
    /// Dragonfly (Aries): bounded route length regardless of size.
    Dragonfly {
        /// Per-hop latency, seconds (≤ 3 hops on any route).
        hop: f64,
    },
    /// Hypercube (ICE-X): route length grows as `log2(P)`.
    Hypercube {
        /// Per-dimension hop latency, seconds.
        hop: f64,
    },
}

impl Topology {
    /// Extra per-message latency from routing across `ranks` endpoints.
    pub fn route_extra(&self, ranks: usize) -> f64 {
        let p = ranks.max(1) as f64;
        match *self {
            // 0.75 * P^(1/3) is the mean Manhattan distance on a cubic torus
            Topology::Torus3D { hop } => hop * 0.75 * p.cbrt(),
            Topology::Dragonfly { hop } => hop * 3.0,
            Topology::Hypercube { hop } => hop * p.log2().max(0.0),
        }
    }
}

/// α-β interconnect model with a log-tree reduction term and a
/// topology-dependent routing term.
#[derive(Debug, Clone, Serialize, Deserialize)]
// audit:allow(dead_pub) — type of `Machine::net`, whose fields scaling.rs and figures.rs read
pub struct NetworkModel {
    /// Interconnect name for Table I.
    pub interconnect: String,
    /// Point-to-point injection latency α, seconds.
    pub latency: f64,
    /// Per-link bandwidth β, bytes/s.
    pub bandwidth: f64,
    /// Per-hop software latency of the allreduce tree, seconds.
    pub reduction_hop: f64,
    /// Physical topology.
    pub topology: Topology,
}

impl NetworkModel {
    /// Cost of one allreduce tree hop: software overhead plus half the
    /// machine's average route (tree hops span growing distances).
    pub fn tree_hop(&self, ranks: usize) -> f64 {
        self.reduction_hop + 0.5 * self.topology.route_extra(ranks)
    }
}

/// A complete machine: node + network + run configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Machine {
    /// Human-readable system name.
    pub name: String,
    /// Compute model.
    pub node: NodeModel,
    /// Interconnect model.
    pub net: NetworkModel,
    /// MPI ranks per node (1 for GPU systems, >1 for flat MPI on CPUs).
    pub ranks_per_node: usize,
    /// Cores (parallel contexts) per node — 20 for Spruce's dual
    /// E5-2680v2, 1 for the GPU systems (the device is one injector).
    pub cores_per_node: usize,
    /// Total cores (Table I column).
    pub total_cores: usize,
    /// Largest node count the paper scales to on this system.
    pub max_nodes: usize,
    /// Approximate resident fields per cell for the cache-working-set
    /// estimate (u, u0, p, r, w, z, sd, Kx, Ky, density, energy, …).
    pub resident_fields: usize,
}

impl Machine {
    /// Effective per-rank memory bandwidth (node bandwidth shared by the
    /// ranks on it).
    fn rank_bandwidth(&self) -> f64 {
        self.node.mem_bandwidth / self.ranks_per_node as f64
    }

    /// Effective per-rank cache capacity.
    fn rank_cache(&self) -> f64 {
        self.node.cache_bytes / self.ranks_per_node as f64
    }

    /// Effective bandwidth for a per-rank working set of `bytes`:
    /// harmonic blend of cache and memory bandwidth by the cached
    /// fraction.
    pub fn effective_bandwidth(&self, working_set: f64) -> f64 {
        let cache = self.rank_cache();
        if cache <= 0.0 || working_set <= 0.0 {
            return self.rank_bandwidth();
        }
        let cached_fraction = (cache / working_set).min(1.0);
        let mem = self.rank_bandwidth();
        let fast = self.node.cache_bandwidth / self.ranks_per_node as f64;
        1.0 / ((1.0 - cached_fraction) / mem + cached_fraction / fast)
    }
}

/// NVIDIA K20x: 250 GB/s peak GDDR5, ~70 % achievable in stencil codes;
/// per-sweep cost ≈ 3 µs (CUDA launch ≈ 5–7 µs, partly amortised by the
/// reference's kernel fusion); data stays resident so only halos cross
/// PCIe 2.0 (~6 GB/s, ~10 µs per transfer including stream sync).
fn k20x() -> NodeModel {
    NodeModel {
        device: "NVIDIA K20x".into(),
        mem_bandwidth: 175e9,
        sweep_overhead: 3.0e-6,
        cache_bytes: 0.0,
        cache_bandwidth: 0.0,
        host_link_latency: 10.0e-6,
        host_link_bandwidth: 6e9,
    }
}

/// Dual-socket E5-2680v2 node: 2×10 cores, ~85 GB/s STREAM, 2×25 MB LLC
/// (~300 GB/s aggregate when resident).
fn e5_2680v2() -> NodeModel {
    NodeModel {
        device: "E5-2680v2".into(),
        mem_bandwidth: 85e9,
        sweep_overhead: 0.0, // set per run mode below
        cache_bytes: 50e6,
        cache_bandwidth: 320e9,
        host_link_latency: 0.0,
        host_link_bandwidth: f64::INFINITY,
    }
}

/// Cray Gemini (Titan): ~1.5–2.5 µs MPI latency, ~4 GB/s effective
/// per-direction links, software collectives, and — decisively — a 3D
/// torus whose routes lengthen as the job grows.
fn gemini() -> NetworkModel {
    NetworkModel {
        interconnect: "Cray Gemini".into(),
        latency: 1.8e-6,
        bandwidth: 4.0e9,
        reduction_hop: 2.4e-6,
        topology: Topology::Torus3D { hop: 0.3e-6 },
    }
}

/// Cray Aries (Piz Daint): dragonfly (≤ 3 hops at any scale), ~1.2 µs
/// latency, ~10 GB/s links, hardware collective support.
fn aries() -> NetworkModel {
    NetworkModel {
        interconnect: "Cray Aries".into(),
        latency: 1.2e-6,
        bandwidth: 10.0e9,
        reduction_hop: 1.0e-6,
        topology: Topology::Dragonfly { hop: 0.1e-6 },
    }
}

/// SGI Altix ICE-X (Spruce): FDR InfiniBand hypercube, ~1.1 µs latency,
/// ~6 GB/s.
fn ice_x() -> NetworkModel {
    NetworkModel {
        interconnect: "SGI Altix ICE-X".into(),
        latency: 1.1e-6,
        bandwidth: 6.0e9,
        reduction_hop: 1.2e-6,
        topology: Topology::Hypercube { hop: 0.05e-6 },
    }
}

/// Titan (OLCF): 18,688 K20x nodes on Gemini; the paper scales to 8,192.
pub fn titan() -> Machine {
    Machine {
        name: "Titan".into(),
        node: k20x(),
        net: gemini(),
        ranks_per_node: 1,
        cores_per_node: 1,
        total_cores: 560_640,
        max_nodes: 8192,
        resident_fields: 15,
    }
}

/// Piz Daint (CSCS, pre-P100 upgrade): K20x on Aries; paper scales to
/// 2,048.
pub fn piz_daint() -> Machine {
    Machine {
        name: "Piz Daint".into(),
        node: k20x(),
        net: aries(),
        ranks_per_node: 1,
        cores_per_node: 1,
        total_cores: 115_984,
        max_nodes: 2048,
        resident_fields: 15,
    }
}

/// Spruce (AWE) in flat-MPI mode: one rank per core (20/node); tiny
/// per-sweep overhead but 20-way shared bandwidth and deeper reduction
/// trees.
pub fn spruce_mpi() -> Machine {
    let mut node = e5_2680v2();
    node.sweep_overhead = 0.3e-6;
    Machine {
        name: "Spruce (MPI)".into(),
        node,
        net: ice_x(),
        ranks_per_node: 20,
        cores_per_node: 20,
        total_cores: 40_080,
        max_nodes: 1024,
        resident_fields: 15,
    }
}

/// Spruce in hybrid MPI+OpenMP mode: one rank per NUMA domain (2/node);
/// OpenMP fork-join overhead per sweep, shallower reduction tree.
pub fn spruce_hybrid() -> Machine {
    let mut node = e5_2680v2();
    node.sweep_overhead = 2.5e-6;
    Machine {
        name: "Spruce (Hybrid)".into(),
        node,
        net: ice_x(),
        ranks_per_node: 2,
        cores_per_node: 20,
        total_cores: 40_080,
        max_nodes: 1024,
        resident_fields: 15,
    }
}

/// All four modelled configurations (Table I rows; Spruce appears in
/// both run modes).
pub fn all_machines() -> Vec<Machine> {
    vec![spruce_mpi(), spruce_hybrid(), piz_daint(), titan()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_table1() {
        let t = titan();
        assert_eq!(t.node.device, "NVIDIA K20x");
        assert_eq!(t.net.interconnect, "Cray Gemini");
        assert_eq!(t.total_cores, 560_640);
        let d = piz_daint();
        assert_eq!(d.node.device, "NVIDIA K20x");
        assert_eq!(d.net.interconnect, "Cray Aries");
        let s = spruce_mpi();
        assert_eq!(s.node.device, "E5-2680v2");
        assert_eq!(s.net.interconnect, "SGI Altix ICE-X");
        assert_eq!(s.total_cores, 40_080);
    }

    #[test]
    fn aries_beats_gemini() {
        assert!(piz_daint().net.latency < titan().net.latency);
        assert!(piz_daint().net.bandwidth > titan().net.bandwidth);
        assert!(piz_daint().net.reduction_hop < titan().net.reduction_hop);
    }

    #[test]
    fn rank_sharing() {
        let s = spruce_mpi();
        assert!((s.rank_bandwidth() - 85e9 / 20.0).abs() < 1.0);
        assert!((s.rank_cache() - 50e6 / 20.0).abs() < 1.0);
        let h = spruce_hybrid();
        assert!(h.rank_bandwidth() > s.rank_bandwidth());
    }

    #[test]
    fn cache_model_blends() {
        let s = spruce_hybrid();
        // huge working set -> memory bandwidth
        let slow = s.effective_bandwidth(10e9);
        assert!((slow - s.rank_bandwidth()).abs() / s.rank_bandwidth() < 0.02);
        // tiny working set -> cache bandwidth
        let fast = s.effective_bandwidth(1e6);
        assert!(
            fast > 3.0 * slow,
            "cache must speed things up: {fast} vs {slow}"
        );
        // GPU has no cache model
        let t = titan();
        assert_eq!(t.effective_bandwidth(1e6), t.rank_bandwidth());
    }

    #[test]
    fn monotone_bandwidth_in_working_set() {
        let s = spruce_hybrid();
        let mut prev = f64::INFINITY;
        for ws in [1e6, 5e6, 25e6, 100e6, 1e9] {
            let bw = s.effective_bandwidth(ws);
            assert!(bw <= prev + 1.0, "bandwidth must not rise with working set");
            prev = bw;
        }
    }
}
