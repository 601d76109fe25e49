//! `compare`: judges two results files, A (the base) and B.
//!
//! One row per end-to-end metric × workload: both medians, the ratio
//! with its base, the bound, the spread, the pairs B won, and a verdict.
//! Runs are paired by seed. The verdicts are only as good as the pairing:
//! two files `pairs` wrote in one go share this box's drift, two files
//! taken at different times do not, and their medians can differ by more
//! than the bound on unchanged code.
//!
//! Exits nonzero on any regression, any exact per-layer count that
//! differs for a seed both files ran, or any rise in the share of failed
//! operations.

use crate::catalog::{Better, END_TO_END, PER_LAYER, WORKLOADS};
use crate::suite::{load, values, StoredRun};
use crate::util::{median, quartiles, spread};

/// Fewest runs a side needs before its quartiles mean anything.
const MIN_RUNS: usize = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Improved,
    Regressed,
    /// Too few runs, or the runs of one side spread wider than the
    /// bound: a change of the bound's size cannot be told from noise.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Improved => "improved",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// What `compare` says about one metric on one workload.
pub struct Judgement {
    pub median_a: f64,
    pub median_b: f64,
    /// The wider of the two sides' interquartile range ÷ median.
    pub spread: f64,
    /// Pairs in which B was strictly better.
    pub wins: usize,
    pub verdict: Verdict,
}

/// Judges seed-matched `(a, b)` pairs of a metric.
///
/// `Regressed` is the benchmark's no-regression rule: B's median worse
/// than A's by more than `bound`. `Improved` is the gain rule: B wins at
/// least nine tenths of the pairs (ties count for neither side) and the
/// medians differ by more than the distance between A's quartiles.
pub fn judge(pairs: &[(f64, f64)], better: Better, bound: f64) -> Judgement {
    let (a, b): (Vec<f64>, Vec<f64>) = pairs.iter().copied().unzip();
    let (median_a, median_b) = (median(&a), median(&b));
    let spread = spread(&a).max(spread(&b));
    let gain = |a: f64, b: f64| match better {
        Better::Lower => a - b,
        Better::Higher => b - a,
    };
    let wins = pairs.iter().filter(|&&(a, b)| gain(a, b) > 0.0).count();
    let (q1, q3) = quartiles(&a);
    let median_gain = gain(median_a, median_b);
    let verdict = if pairs.len() < MIN_RUNS || spread > bound {
        Verdict::Unresolved
    } else if -median_gain > bound * median_a.abs() {
        Verdict::Regressed
    } else if 10 * wins >= 9 * pairs.len() && median_gain > q3 - q1 {
        Verdict::Improved
    } else {
        Verdict::Same
    };
    Judgement {
        median_a,
        median_b,
        spread,
        wins,
        verdict,
    }
}

/// `(a, b)` values of `metric` for every seed both sides ran on
/// `workload` with the given trace mode, in A's order.
fn seed_pairs(
    a: &[StoredRun],
    b: &[StoredRun],
    workload: &str,
    traced: bool,
    metric: &str,
) -> Vec<(u64, f64, f64)> {
    let of = |runs: &[StoredRun]| -> Vec<(u64, f64)> {
        runs.iter()
            .filter(|r| r.workload == workload && r.traced == traced)
            .filter_map(|r| r.metric(metric).map(|v| (r.seed, v)))
            .collect()
    };
    let side_b = of(b);
    of(a)
        .into_iter()
        .filter_map(|(seed, va)| {
            side_b
                .iter()
                .find(|(s, _)| *s == seed)
                .map(|&(_, vb)| (seed, va, vb))
        })
        .collect()
}

fn failed_share(runs: &[StoredRun], workload: &str) -> f64 {
    let (mut attempted, mut failed) = (0.0, 0.0);
    for r in runs.iter().filter(|r| r.workload == workload) {
        attempted += r.attempted;
        failed += r.failed;
    }
    if attempted > 0.0 {
        failed / attempted
    } else {
        0.0
    }
}

pub fn run(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (file_a, file_b) = (load(path_a)?, load(path_b)?);
    let (a, b) = (&file_a.runs, &file_b.runs);
    let hardware_threads = file_a.hardware_threads.min(file_b.hardware_threads);
    let mut ok = true;

    println!("base A = {path_a}\n     B = {path_b}\n");
    println!(
        "{:<14} {:<22} {:>13} {:>13} {:>8} {:>6} {:>8} {:>7}  verdict",
        "workload", "metric", "median A", "median B", "B/A", "bound", "spread", "B wins"
    );
    for w in &WORKLOADS {
        let oversubscribed = hardware_threads < w.hardware_threads_needed();
        if oversubscribed {
            println!(
                "{:<14} times and rates skipped: {hardware_threads} hardware thread(s), the \
                 workload runs {}",
                w.name,
                w.hardware_threads_needed()
            );
        }
        for m in END_TO_END.iter().filter(|m| w.judges(m)) {
            let pairs: Vec<(f64, f64)> = seed_pairs(a, b, w.name, false, m.name)
                .into_iter()
                .map(|(_, va, vb)| (va, vb))
                .collect();
            if pairs.is_empty() || (oversubscribed && m.wall_clock) {
                continue;
            }
            let j = judge(&pairs, m.better, m.bound);
            ok &= j.verdict != Verdict::Regressed;
            println!(
                "{:<14} {:<22} {:>13.6} {:>13.6} {:>8.4} {:>6.2} {:>8.4} {:>7}  {}",
                w.name,
                m.name,
                j.median_a,
                j.median_b,
                j.median_b / j.median_a,
                m.bound,
                j.spread,
                format!("{}/{}", j.wins, pairs.len()),
                j.verdict.label()
            );
        }
    }

    println!("\nper-layer, median A -> median B (B/A); exact counts compared seed by seed");
    for w in &WORKLOADS {
        for m in &PER_LAYER {
            let (va, vb) = (
                values(a, w.name, true, m.name),
                values(b, w.name, true, m.name),
            );
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (ma, mb) = (median(&va), median(&vb));
            if ma == 0.0 && mb == 0.0 {
                continue;
            }
            let mut verdict = String::new();
            if m.exact {
                let mismatches: Vec<u64> = seed_pairs(a, b, w.name, true, m.name)
                    .into_iter()
                    .filter(|(_, va, vb)| va.to_bits() != vb.to_bits())
                    .map(|(seed, _, _)| seed)
                    .collect();
                if mismatches.is_empty() {
                    verdict = "  exact: identical".into();
                } else {
                    ok = false;
                    verdict = format!("  exact: DIFFERS for seed(s) {mismatches:?}");
                }
            }
            println!(
                "{:<14} {:<36} {:>15.6} -> {:>15.6} ({:.4}){verdict}",
                w.name,
                m.name,
                ma,
                mb,
                if ma != 0.0 { mb / ma } else { f64::NAN }
            );
        }
    }

    println!();
    for w in &WORKLOADS {
        let (fa, fb) = (failed_share(a, w.name), failed_share(b, w.name));
        if fb > fa {
            ok = false;
            println!("{}: failed-operation share rose from {fa} to {fb}", w.name);
        } else if fa > 0.0 {
            println!("{}: failed-operation share {fa} -> {fb}", w.name);
        }
    }
    println!("{}", if ok { "compare: ok" } else { "compare: FAILED" });
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ten pairs: A jitters ±1 % around 1.0, B around `b`.
    fn ten_pairs(b: f64) -> Vec<(f64, f64)> {
        (0..10)
            .map(|i| {
                let jitter = 1.0 + 0.01 * f64::from(i % 3 - 1);
                (jitter, b * jitter)
            })
            .collect()
    }

    #[test]
    fn verdicts_follow_direction_and_bound() {
        use Verdict::*;
        let verdict = |pairs: &[(f64, f64)], better| judge(pairs, better, 0.10).verdict;
        assert_eq!(verdict(&ten_pairs(1.05), Better::Lower), Same);
        assert_eq!(verdict(&ten_pairs(1.15), Better::Lower), Regressed);
        assert_eq!(verdict(&ten_pairs(0.85), Better::Lower), Improved);
        assert_eq!(verdict(&ten_pairs(0.85), Better::Higher), Regressed);
        assert_eq!(verdict(&ten_pairs(1.15), Better::Higher), Improved);
        assert_eq!(judge(&ten_pairs(0.85), Better::Lower, 0.10).wins, 10);

        // a side noisier than the bound cannot resolve a bound-sized move
        let noisy: Vec<(f64, f64)> = (0..10).map(|i| (1.0 + 0.05 * f64::from(i), 1.15)).collect();
        assert_eq!(verdict(&noisy, Better::Lower), Unresolved);
        // nor can fewer runs than quartiles need: one default `suite`
        // run per side is never a verdict
        assert_eq!(verdict(&ten_pairs(1.5)[..1], Better::Lower), Unresolved);
        assert_eq!(verdict(&ten_pairs(1.5)[..3], Better::Lower), Unresolved);
    }

    #[test]
    fn a_gain_needs_nine_pairs_in_ten() {
        // B's median is lower by more than A's quartile distance, but B
        // wins only eight pairs
        let mut pairs = ten_pairs(0.95);
        pairs[0].1 = 1.2;
        pairs[1].1 = 1.2;
        let j = judge(&pairs, Better::Lower, 0.25);
        assert_eq!((j.wins, j.verdict), (8, Verdict::Same));
        pairs[1].1 = 0.95;
        let j = judge(&pairs, Better::Lower, 0.25);
        assert_eq!((j.wins, j.verdict), (9, Verdict::Improved));
    }
}
