//! One run of one workload in this process: warm-up, reps until the
//! time budget is spent, the correctness checks, and the metrics.
//!
//! `--trace 0` times the user path only and reports the end-to-end
//! metrics. `--trace 1` alternates mirror (traced) and user-path reps,
//! adds the isolated measurements, writes the spans, and reports the
//! per-layer metrics. Both run the same checks. This module holds what
//! the deck workloads ([`crate::deck_workload`]) and the serve mix
//! ([`crate::serve_workload`]) share.

use crate::catalog::{Kind, Workload, END_TO_END};
use crate::isolated::StreamPeak;
use crate::layers::LayerTable;
use crate::util::{cpu_times_s, hardware_threads, median, range};
use std::path::PathBuf;
use std::time::Instant;

/// Largest `‖b − A·u‖ / ‖b − A·u₀‖` the harness accepts for a solve
/// that claims `eps = 1e-10`. The solvers test their own (for PPCG,
/// preconditioned) recurrence residual; the true residual may drift
/// above it, but three decades of drift means a wrong answer.
pub const TRUE_RESIDUAL_LIMIT: f64 = 1e-7;

/// Served fields are compared with the reference driver's answer for
/// the same deck at this `max|a−b| / max|b|`.
pub const SERVE_FIELD_TOLERANCE: f64 = 1e-6;

/// Share of `--seconds` a traced run spends on reps; the rest is kept
/// for the isolated timings.
const TRACED_REP_SHARE: f64 = 0.7;

/// `(name, unit, value)` in catalog order.
pub type Metrics = Vec<(&'static str, &'static str, f64)>;

pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Why operations failed, and anything the reader must know about
    /// how the numbers were taken.
    pub notes: Vec<String>,
}

/// Scratch directory for the field files of this process, inside the
/// checkout; removed on drop.
pub struct Scratch(pub PathBuf);

impl Scratch {
    pub fn new() -> Result<Self, String> {
        let dir = out_dir().join(format!("tmp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

pub fn out_dir() -> PathBuf {
    PathBuf::from("benchmark/out")
}

pub fn write_out(name: &str, contents: &str) -> Result<(), String> {
    let path = out_dir().join(name);
    std::fs::write(&path, contents).map_err(|e| format!("writing {}: {e}", path.display()))
}

pub fn run_workload(
    w: &'static Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<RunResult, String> {
    std::fs::create_dir_all(out_dir()).map_err(|e| format!("creating benchmark/out: {e}"))?;
    let mut result = match &w.kind {
        Kind::Deck(spec) => crate::deck_workload::run_deck(w.name, spec, seed, seconds, traced)?,
        Kind::Serve { workers } => {
            crate::serve_workload::run_serve(w.name, *workers, seed, seconds, traced)?
        }
    };
    if hardware_threads() < w.hardware_threads_needed() {
        result.notes.push(format!(
            "{} hardware thread(s) for a workload that runs {}: the times and rates measure \
             oversubscription and `compare` skips them; only the exact counts are meaningful",
            hardware_threads(),
            w.hardware_threads_needed()
        ));
    }
    if let Some((name, _, v)) = result.metrics.iter().find(|(_, _, v)| !v.is_finite()) {
        result
            .notes
            .push(format!("metric {name} is not finite ({v})"));
        result.failed = result.attempted;
    }
    Ok(result)
}

/// The clock of a rep loop: reps run until the budget is spent, and at
/// least three times.
pub struct Budget {
    pub epoch: Instant,
    seconds: f64,
}

impl Budget {
    pub fn start(seconds: f64, traced: bool) -> Self {
        Budget {
            epoch: Instant::now(),
            seconds: if traced {
                seconds * TRACED_REP_SHARE
            } else {
                seconds
            },
        }
    }

    pub fn wants_more(&self, done: usize) -> bool {
        done < 3 || self.epoch.elapsed().as_secs_f64() < self.seconds
    }
}

/// CPU seconds (user, system) consumed by the untraced operations.
#[derive(Default)]
pub struct CpuClock {
    pub user: f64,
    pub sys: f64,
}

impl CpuClock {
    pub fn around<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let (u0, s0) = cpu_times_s();
        let out = f();
        let (u1, s1) = cpu_times_s();
        self.user += u1 - u0;
        self.sys += s1 - s0;
        out
    }
}

/// The six end-to-end values of a run.
///
/// `rss_mib` is `VmHWM` read right after the warm-up operation: the
/// footprint of one pass down the user path. Read at exit it would grow
/// with the number of reps (allocator fragmentation) and include the
/// harness's reference answers.
pub struct EndToEndValues {
    pub rss_mib: f64,
    pub setup_s: f64,
    pub solve_s: f64,
    pub time_to_solution_s: f64,
    pub jobs_per_s: f64,
    pub p50_s: f64,
}

impl EndToEndValues {
    pub fn into_metrics(self) -> Metrics {
        let values = [
            self.setup_s,
            self.solve_s,
            self.time_to_solution_s,
            self.rss_mib,
            self.jobs_per_s,
            self.p50_s,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(m, v)| (m.name, m.unit, v))
            .collect()
    }
}

pub fn set_bench_columns(t: &mut LayerTable, peak: &StreamPeak, overhead: f64, op_times: &[f64]) {
    t.set("bench.stream_peak_gbs", peak.bytes_per_s / 1e9);
    t.set(
        "bench.stream_array_mib",
        peak.array_bytes as f64 / (1u64 << 20) as f64,
    );
    t.set("bench.trace_overhead_ratio", overhead);
    t.set("bench.rep_spread", range(op_times) / median(op_times));
    t.set("bench.hardware_threads", hardware_threads() as f64);
}
