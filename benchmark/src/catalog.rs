//! The benchmark's fixed vocabulary: workloads, end-to-end metrics with
//! their regression bounds, per-layer metrics. `BENCHMARK.json` at the
//! repository root is `tea-benchmark manifest` written to a file, so
//! the names a later change quotes exist in exactly one place.

use crate::decks::SolverKeys;
use tea_audit::report::json_str;

/// Seconds one run measures for (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 25;

/// Cells per side of the five single-deck workloads. The issue sized
/// them at 640² for a few reps per run; the harness contract judges the
/// median of a [`RUN_SECONDS`] run and wants many reps inside it (about
/// forty here), so the decks sit at the issue's floor. The field set of
/// a CG solve here (~9.5 MB) still overflows the 2 MiB per-core L2.
pub const CELLS: usize = 384;

/// Jobs per serve drain: 200 leaves ten samples beyond the 95th
/// percentile of job service time.
pub const SERVE_JOBS: usize = 200;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    /// A time or a rate, as opposed to a size: meaningless on a machine
    /// with fewer hardware threads than the workload runs.
    pub wall_clock: bool,
    /// Defined by the issue for the serve mix alone. The harness contract
    /// has every workload report every metric, so a deck workload
    /// restates its rep times under these names (a rep as the job);
    /// `suite` and `compare` leave those rows out.
    pub serve_only: bool,
}

const fn timing(
    name: &'static str,
    unit: &'static str,
    better: Better,
    serve_only: bool,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound: 0.25,
        wall_clock: true,
        serve_only,
    }
}

/// The six end-to-end metrics. Every one is reported by every
/// workload; on the five deck workloads a "job" is one rep (deck text
/// in, checked field file out), on the serve mixes it is one queued
/// deck. The issue's seventh, the 95th percentile of job service time,
/// is the per-layer `serve.job_service_p95_s`: across seeds it spreads
/// 0.17-0.30 of its median, more than any bound the contract allows.
pub const END_TO_END: [EndToEnd; 6] = [
    timing("setup_s", "s", Better::Lower, false),
    timing("solve_s", "s", Better::Lower, false),
    timing("time_to_solution_s", "s", Better::Lower, false),
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
        wall_clock: false,
        serve_only: false,
    },
    timing("jobs_per_s", "1/s", Better::Higher, true),
    timing("job_service_p50_s", "s", Better::Lower, true),
];

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Exact metrics are counts made by the program; they must repeat
    /// bit for bit across reps and across runs of one seed.
    pub exact: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Lower,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Lower,
        exact: true,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Higher,
        exact: false,
    }
}

/// The per-layer metrics, layer = crate. A metric that does not apply
/// to a workload (AMG counts on a CG deck) reports 0 there.
pub const PER_LAYER: [Layer; 88] = [
    // tea-app
    lower("app.parse_s", "s"),
    exact("app.deck_bytes", "B"),
    lower("app.driver_overhead_s", "s"),
    lower("app.summary_s", "s"),
    lower("app.output_s", "s"),
    exact("app.output_bytes", "B"),
    // tea-mesh
    lower("mesh.assemble_s", "s"),
    lower("mesh.assemble_ns_per_cell", "ns/cell"),
    lower("mesh.convert_s", "s"),
    // tea-core: spans and SolveTrace counts
    lower("core.prepare_s", "s"),
    lower("core.iterate_s", "s"),
    exact("core.outer_iterations", "count"),
    exact("core.inner_iterations", "count"),
    exact("core.spmv_sweeps", "count"),
    exact("core.vector_sweeps", "count"),
    exact("core.dot_sweeps", "count"),
    exact("core.precon_sweeps", "count"),
    exact("core.fused_sweeps", "count"),
    exact("core.redundant_cell_fraction", "ratio"),
    // tea-core: isolated kernel timings on the workload's tile
    lower("core.apply_ns_per_cell", "ns/cell"),
    higher("core.apply_pct_peak", "%"),
    lower("core.residual_ns_per_cell", "ns/cell"),
    higher("core.residual_pct_peak", "%"),
    lower("core.dot_ns_per_cell", "ns/cell"),
    higher("core.dot_pct_peak", "%"),
    lower("core.axpy_ns_per_cell", "ns/cell"),
    higher("core.axpy_pct_peak", "%"),
    lower("core.scale_add_ns_per_cell", "ns/cell"),
    higher("core.scale_add_pct_peak", "%"),
    lower("core.fused_cheb_ns_per_cell", "ns/cell"),
    higher("core.fused_cheb_pct_peak", "%"),
    lower("core.precon_block_ns_per_cell", "ns/cell"),
    higher("core.precon_block_pct_peak", "%"),
    lower("core.precon_diag_ns_per_cell", "ns/cell"),
    higher("core.precon_diag_pct_peak", "%"),
    // attribution: count × isolated time ÷ solve_s
    lower("core.spmv_share", "ratio"),
    lower("core.vector_share", "ratio"),
    lower("core.dot_share", "ratio"),
    lower("core.precon_share", "ratio"),
    lower("core.fused_share", "ratio"),
    lower("comms.halo_share", "ratio"),
    lower("comms.reduction_share", "ratio"),
    lower("core.unattributed_share", "ratio"),
    lower("core.true_rel_residual", "ratio"),
    lower("core.residual_drift", "ratio"),
    // tea-comms
    exact("comms.halo_exchanges", "count"),
    exact("comms.halo_bytes", "B"),
    exact("comms.msgs_sent", "count"),
    exact("comms.reductions", "count"),
    exact("comms.reduction_elems", "count"),
    lower("comms.halo_exchange_us", "us"),
    lower("comms.allreduce_us", "us"),
    lower("comms.rank_imbalance", "ratio"),
    higher("comms.parallel_efficiency", "ratio"),
    // vendor/rayon runtime
    lower("runtime.region_launch_us", "us"),
    exact("runtime.parallel_regions", "count"),
    lower("runtime.cpu_user_s", "s"),
    lower("runtime.cpu_sys_s", "s"),
    higher("runtime.thread_efficiency", "ratio"),
    // tea-perfmodel
    exact("perfmodel.bytes_per_cell_iteration", "B"),
    lower("perfmodel.predicted_solve_s", "s"),
    higher("perfmodel.model_error", "ratio"),
    // session cache and tea-serve
    higher("core.cache_hits", "count"),
    lower("core.cache_misses", "count"),
    higher("core.cache_hit_ratio", "ratio"),
    lower("serve.prepares", "count"),
    higher("serve.prepares_saved", "count"),
    higher("serve.worker_utilisation", "ratio"),
    lower("serve.queue_overhead_us", "us"),
    lower("serve.job_service_p95_s", "s"),
    exact("serve.retries", "count"),
    exact("serve.timeouts", "count"),
    exact("serve.panics_recovered", "count"),
    // tea-tune
    lower("tune.candidates", "count"),
    lower("tune.raced", "count"),
    higher("tune.skipped_by_prior", "count"),
    higher("tune.reuses", "count"),
    lower("tune.race_iterations", "count"),
    lower("tune.race_overhead_ratio", "ratio"),
    // tea-amg
    lower("amg.setup_s", "s"),
    exact("amg.setup_cells", "count"),
    exact("amg.vcycles", "count"),
    lower("amg.vcycle_us", "us"),
    // the harness itself
    higher("bench.stream_peak_gbs", "GB/s"),
    lower("bench.stream_array_mib", "MiB"),
    lower("bench.trace_overhead_ratio", "ratio"),
    lower("bench.rep_spread", "ratio"),
    higher("bench.hardware_threads", "count"),
];

/// How a deck workload's final field is cross-checked against another
/// workload's answer on the same deck geometry.
pub struct CrossCheck {
    /// Name of the workload whose configuration produces the reference.
    pub against: &'static str,
    /// Largest allowed `max|a-b| / max|b|`; 0 demands bit identity.
    pub rel_tol: f64,
}

pub struct DeckSpec {
    pub keys: SolverKeys,
    pub steps: u64,
    pub ranks: usize,
    pub threads: usize,
    pub cross: Option<CrossCheck>,
}

pub enum Kind {
    Deck(DeckSpec),
    Serve { workers: usize },
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
    /// Listed in `BENCHMARK.json` and so run and judged by the harness
    /// contract's driver. The workloads that keep two hardware threads
    /// busy are not: on the 2-vCPU shared hosts the driver runs on, their
    /// times spread 0.2-0.3 of the median between runs of one build
    /// (CALIBRATION.md). `suite` and `pairs` run them all the same.
    pub contract: bool,
}

const PPCG_D4: SolverKeys = SolverKeys {
    solver: "ppcg",
    precision: None,
    precon: "none",
    halo_depth: 4,
};

pub const WORKLOADS: [Workload; 7] = [
    Workload {
        name: "stream_cg",
        why: "plain 1-thread f64 CG: bandwidth-bound apply/dot/axpy sweeps do all the work, comms are free; kernel-path and reduction-shape changes show here",
        kind: Kind::Deck(DeckSpec {
            keys: SolverKeys::plain("cg"),
            steps: 1,
            ranks: 1,
            threads: 1,
            cross: None,
        }),
        contract: true,
    },
    Workload {
        name: "deep_ppcg",
        why: "CPPCG at halo depth 4, 16 inner steps: the fused matrix-powers Chebyshev sweep dominates and dots are ~5x rarer than in stream_cg, so a dot change must not move it",
        kind: Kind::Deck(DeckSpec {
            keys: PPCG_D4,
            steps: 2,
            ranks: 1,
            threads: 1,
            cross: None,
        }),
        contract: true,
    },
    Workload {
        name: "mixed_ppcg",
        why: "deep_ppcg with tl_precision=mixed: same algorithm through the f32 lanes and demotion traffic; the only workload where 8-wide f32 kernels or the precision refactor can gain or lose",
        kind: Kind::Deck(DeckSpec {
            keys: SolverKeys {
                precision: Some("mixed"),
                ..PPCG_D4
            },
            steps: 2,
            ranks: 1,
            threads: 1,
            cross: Some(CrossCheck {
                against: "deep_ppcg",
                rel_tol: 1e-6,
            }),
        }),
        contract: true,
    },
    Workload {
        name: "ranks2_cg",
        why: "stream_cg's deck on 2 simulated ranks: one halo exchange and two rendezvous reductions per iteration are real, so tea-comms is on the blocking path here and nowhere else",
        kind: Kind::Deck(DeckSpec {
            keys: SolverKeys::plain("cg"),
            steps: 1,
            ranks: 2,
            threads: 1,
            cross: Some(CrossCheck {
                against: "stream_cg",
                rel_tol: 1e-9,
            }),
        }),
        contract: false,
    },
    Workload {
        name: "threads2_cg",
        why: "stream_cg's deck on 1 rank x 2 kernel threads: the scoped-team runtime, for_rows chunking and lane kernels carry the same solve; a runtime change shows here, a comms change must not",
        kind: Kind::Deck(DeckSpec {
            keys: SolverKeys::plain("cg"),
            steps: 1,
            ranks: 1,
            threads: 2,
            cross: Some(CrossCheck {
                against: "stream_cg",
                rel_tol: 0.0,
            }),
        }),
        contract: false,
    },
    Workload {
        name: "serve_mix",
        why: "closed-loop drain of 200 small jobs over 20 decks on 1 worker with the session cache on: parse, assemble, prepare, cache and tuner races are the cost, not bandwidth",
        kind: Kind::Serve { workers: 1 },
        contract: true,
    },
    Workload {
        name: "workers2_serve",
        why: "serve_mix's job list drained by 2 workers: the workers share the session cache and the queue, so which of them prepares a deck first, and the lock they meet at, are real",
        kind: Kind::Serve { workers: 2 },
        contract: false,
    },
];

impl Workload {
    /// Hardware threads the workload keeps busy at once.
    pub fn hardware_threads_needed(&self) -> usize {
        match &self.kind {
            Kind::Deck(spec) => spec.ranks * spec.threads,
            Kind::Serve { workers } => *workers,
        }
    }

    /// Whether `suite` and `compare` show and judge `metric` here.
    pub fn judges(&self, metric: &EndToEnd) -> bool {
        !metric.serve_only || matches!(self.kind, Kind::Serve { .. })
    }
}

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub fn deck_spec(name: &str) -> &'static DeckSpec {
    match workload(name).map(|w| &w.kind) {
        Some(Kind::Deck(spec)) => spec,
        _ => panic!("'{name}' is not a deck workload"),
    }
}

/// The contents of the repository's `BENCHMARK.json`.
pub fn manifest_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \
         \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    let listed: Vec<&Workload> = WORKLOADS.iter().filter(|w| w.contract).collect();
    for (i, w) in listed.iter().enumerate() {
        let sep = if i + 1 < listed.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": {}, \"why\": {}}}{sep}\n",
            json_str(w.name),
            json_str(w.why)
        ));
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}{sep}\n",
            json_str(m.name),
            json_str(m.unit),
            json_str(m.better.label()),
            m.bound
        ));
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 < PER_LAYER.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}{sep}\n",
            json_str(m.name),
            json_str(m.unit),
            json_str(m.better.label())
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for n in names {
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25);
        }
        assert!(PER_LAYER.len() <= 128);
        assert!((2..=8).contains(&WORKLOADS.iter().filter(|w| w.contract).count()));
        assert!(tea_audit::json::parse(&manifest_json()).is_ok());
    }
}
