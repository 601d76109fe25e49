//! `suite` and `pairs`: every workload, each run in a process of its
//! own, untraced then traced, collected into results files.
//!
//! `suite` runs this executable and prints every metric. `pairs` runs
//! two executables (parent and change, or one twice for an A/A check)
//! alternately, seed by seed, so both sides see the same stretch of this
//! box's drift, and hands the two results files to `compare`. The table
//! `suite` prints shows, per end-to-end metric × workload, the median
//! and the interquartile spread across the seeds next to the bound.

use crate::catalog::{END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use crate::util::{hardware_threads, median, spread};
use crate::Flags;
use std::path::Path;
use std::process::{Command, Stdio};
use tea_audit::json::{self, Value};
use tea_audit::report::json_str;

pub const SCHEMA: &str = "tea-benchmark/1";

/// One contract run as stored in a results file.
pub struct StoredRun {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    pub attempted: f64,
    pub failed: f64,
    /// `(name, value)`.
    pub metrics: Vec<(String, f64)>,
}

impl StoredRun {
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }
}

fn number(v: Option<&Value>) -> Option<f64> {
    match v {
        Some(Value::Number(x)) => Some(*x),
        _ => None,
    }
}

/// Parses the contract's result object into a stored run.
fn parse_result(line: &str, workload: &str, seed: u64, traced: bool) -> Result<StoredRun, String> {
    let v = json::parse(line)?;
    let metrics = v
        .get("metrics")
        .and_then(Value::as_object)
        .ok_or("result has no 'metrics'")?
        .iter()
        .map(|(name, m)| {
            number(m.get("value"))
                .map(|x| (name.clone(), x))
                .ok_or(format!("metric {name} has no value"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(StoredRun {
        workload: workload.to_string(),
        seed,
        traced,
        attempted: number(v.get("attempted")).ok_or("result has no 'attempted'")?,
        failed: number(v.get("failed")).ok_or("result has no 'failed'")?,
        metrics,
    })
}

/// Runs one workload with `exe` in a child process and returns its last
/// stdout line parsed; the child's other output is passed through.
fn child_run(
    exe: &Path,
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<StoredRun, String> {
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning {} for {workload}: {e}", exe.display()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or("");
    for line in lines {
        println!("  {line}");
    }
    // exit code 1 is a run whose operations failed: it still has a result
    match (
        output.status.code(),
        parse_result(last, workload, seed, traced),
    ) {
        (Some(0 | 1), Ok(run)) => Ok(run),
        (_, parsed) => Err(format!(
            "the {workload} run exited with {} and {}",
            output.status,
            parsed
                .err()
                .map_or("a result".into(), |e| format!("no result ({e})"))
        )),
    }
}

fn runs_json(runs: &[StoredRun], seconds: f64) -> String {
    let mut out = format!(
        "{{\"schema\": {}, \"seconds\": {seconds}, \"hardware_threads\": {},\n \"runs\": [\n",
        json_str(SCHEMA),
        hardware_threads()
    );
    for (i, r) in runs.iter().enumerate() {
        let metrics: Vec<String> = r
            .metrics
            .iter()
            .map(|(n, v)| format!("{}: {}", json_str(n), crate::util::json_num(*v)))
            .collect();
        out.push_str(&format!(
            "  {{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"attempted\": {}, \"failed\": {}, \
             \"metrics\": {{{}}}}}{}\n",
            json_str(&r.workload),
            r.seed,
            u8::from(r.traced),
            r.attempted,
            r.failed,
            metrics.join(", "),
            if i + 1 < runs.len() { "," } else { "" }
        ));
    }
    out.push_str(" ]}\n");
    out
}

/// A results file read back.
pub struct Results {
    /// `available_parallelism()` of the machine that wrote the file.
    pub hardware_threads: usize,
    pub runs: Vec<StoredRun>,
}

/// Reads a results file written by [`run`] or [`pairs`].
pub fn load(path: &str) -> Result<Results, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let v = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    if v.get("schema").and_then(Value::as_str) != Some(SCHEMA) {
        return Err(format!("{path}: not a {SCHEMA} results file"));
    }
    let runs = v
        .get("runs")
        .and_then(Value::as_array)
        .ok_or(format!("{path}: no 'runs' array"))?
        .iter()
        .map(|r| {
            let field = |k: &str| number(r.get(k)).ok_or(format!("{path}: run without '{k}'"));
            Ok(StoredRun {
                workload: r
                    .get("workload")
                    .and_then(Value::as_str)
                    .ok_or(format!("{path}: run without 'workload'"))?
                    .to_string(),
                seed: field("seed")? as u64,
                traced: field("trace")? != 0.0,
                attempted: field("attempted")?,
                failed: field("failed")?,
                metrics: r
                    .get("metrics")
                    .and_then(Value::as_object)
                    .ok_or(format!("{path}: run without 'metrics'"))?
                    .iter()
                    .filter_map(|(n, m)| number(Some(m)).map(|x| (n.clone(), x)))
                    .collect(),
            })
        })
        .collect::<Result<_, String>>()?;
    Ok(Results {
        hardware_threads: number(v.get("hardware_threads"))
            .ok_or(format!("{path}: no 'hardware_threads'"))? as usize,
        runs,
    })
}

/// Values of `metric` over the runs of `workload` with the given trace
/// mode, in file order.
pub fn values(runs: &[StoredRun], workload: &str, traced: bool, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter(|r| r.workload == workload && r.traced == traced)
        .filter_map(|r| r.metric(metric))
        .collect()
}

fn print_tables(runs: &[StoredRun]) {
    println!("\nend-to-end (median over seeds; spread = IQR / median across runs)");
    println!(
        "{:<14} {:<22} {:>14} {:<6} {:<7} {:>6} {:>8} {:>3}",
        "workload", "metric", "median", "unit", "better", "bound", "spread", "n"
    );
    for w in &WORKLOADS {
        for m in END_TO_END.iter().filter(|m| w.judges(m)) {
            let v = values(runs, w.name, false, m.name);
            if v.is_empty() {
                continue;
            }
            println!(
                "{:<14} {:<22} {:>14.6} {:<6} {:<7} {:>6.2} {:>8.4} {:>3}",
                w.name,
                m.name,
                median(&v),
                m.unit,
                m.better.label(),
                m.bound,
                spread(&v),
                v.len()
            );
        }
    }
    println!("\nper-layer (median over seeds), one column per workload");
    print!("{:<36} {:<8}", "metric", "unit");
    for w in &WORKLOADS {
        print!(" {:>13}", w.name);
    }
    println!();
    for m in &PER_LAYER {
        print!("{:<36} {:<8}", m.name, m.unit);
        for w in &WORKLOADS {
            let v = values(runs, w.name, true, m.name);
            if v.is_empty() {
                print!(" {:>13}", "-");
            } else {
                print!(" {:>13.6}", median(&v));
            }
        }
        println!("{}", if m.exact { "  exact" } else { "" });
    }
}

/// The seeds `pairs` runs unless told otherwise: ten, the fewest pairs
/// a gain may be claimed from.
const PAIR_SEEDS: &str = "2017,7,21,22,23,24,25,26,27,28";

/// `--seeds` and `--seconds`.
fn seeds_and_seconds(flags: &Flags, default_seeds: &str) -> Result<(Vec<u64>, f64), String> {
    let seeds = flags
        .get("seeds")
        .unwrap_or(default_seeds)
        .split(',')
        .map(|s| s.trim().parse().map_err(|_| format!("bad seed '{s}'")))
        .collect::<Result<_, _>>()?;
    Ok((seeds, flags.number("seconds", RUN_SECONDS as f64)?))
}

/// Runs every workload over `seeds` with each of `exes`, untraced then
/// traced, and returns the runs of each executable. The executables
/// take turns seed by seed, and which one goes first alternates.
fn collect(exes: &[&Path], seeds: &[u64], seconds: f64) -> Result<Vec<Vec<StoredRun>>, String> {
    let mut runs: Vec<Vec<StoredRun>> = exes.iter().map(|_| Vec::new()).collect();
    for traced in [false, true] {
        for w in &WORKLOADS {
            for (i, &seed) in seeds.iter().enumerate() {
                let mut sides: Vec<usize> = (0..exes.len()).collect();
                if i % 2 == 1 {
                    sides.reverse();
                }
                for side in sides {
                    println!(
                        "== {} seed {seed} trace {} {}",
                        w.name,
                        u8::from(traced),
                        exes[side].display()
                    );
                    runs[side].push(child_run(exes[side], w.name, seed, seconds, traced)?);
                }
            }
        }
    }
    Ok(runs)
}

fn write_results(path: &str, runs: &[StoredRun], seconds: f64) -> Result<(), String> {
    if let Some(dir) = Path::new(path).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    std::fs::write(path, runs_json(runs, seconds)).map_err(|e| format!("writing {path}: {e}"))
}

pub fn run(flags: &Flags) -> Result<bool, String> {
    flags.reject_unknown(&["seeds", "seconds", "out"])?;
    let (seeds, seconds) = seeds_and_seconds(flags, "2017")?;
    let out = flags.get("out").unwrap_or("benchmark/out/results.json");
    let exe = std::env::current_exe().map_err(|e| format!("locating this executable: {e}"))?;

    let runs = collect(&[&exe], &seeds, seconds)?.remove(0);
    write_results(out, &runs, seconds)?;
    print_tables(&runs);
    let attempted: f64 = runs.iter().map(|r| r.attempted).sum();
    let failed: f64 = runs.iter().map(|r| r.failed).sum();
    println!("\noperations attempted {attempted} failed {failed}; results in {out}");
    Ok(failed == 0.0)
}

/// `pairs <exe-a> <exe-b>`: the alternating-pair protocol, then
/// `compare` on the two results files it wrote.
pub fn pairs(exe_a: &str, exe_b: &str, flags: &Flags) -> Result<bool, String> {
    flags.reject_unknown(&["seeds", "seconds"])?;
    let (seeds, seconds) = seeds_and_seconds(flags, PAIR_SEEDS)?;
    let sides = collect(&[Path::new(exe_a), Path::new(exe_b)], &seeds, seconds)?;
    let outs = ["benchmark/out/pairs-a.json", "benchmark/out/pairs-b.json"];
    for (out, runs) in outs.iter().zip(&sides) {
        write_results(out, runs, seconds)?;
    }
    crate::compare::run(outs[0], outs[1])
}
