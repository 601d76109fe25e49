//! The repository's benchmark harness.
//!
//! ```text
//! tea-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! tea-benchmark suite [--seeds a,b,..] [--seconds s] [--out file]
//! tea-benchmark pairs <exe-a> <exe-b> [--seeds a,b,..] [--seconds s]
//! tea-benchmark compare <a.json> <b.json>
//! tea-benchmark manifest
//! ```
//!
//! The first form is the contract `BENCHMARK.json` names: one workload
//! in this process, checks included, one JSON object on the last line,
//! exit code 1 if an operation failed. `suite` runs every workload
//! (untraced, then traced) in a process of its own per run and collects
//! the results into one file; `pairs` does the same with two builds of
//! this program taking turns and `compare`s the two files it writes.
//! Run from the repository root; everything is written under
//! `benchmark/out/`.

mod catalog;
mod compare;
mod deck_workload;
mod deckrun;
mod decks;
mod isolated;
mod layers;
mod run;
mod serve_workload;
mod serverun;
mod spans;
mod suite;
mod util;

use catalog::{Better, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use run::RunResult;
use tea_audit::report::json_str;
use util::json_num;

const USAGE: &str = "usage:
  tea-benchmark --workload <name> [--seed n] [--seconds s] [--trace 0|1]
  tea-benchmark suite [--seeds a,b,..] [--seconds s] [--out file]
  tea-benchmark pairs <exe-a> <exe-b> [--seeds a,b,..] [--seconds s]
  tea-benchmark compare <a.json> <b.json>
  tea-benchmark manifest";

/// `--flag value` pairs after the subcommand.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut out = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let name = flag
                .strip_prefix("--")
                .ok_or(format!("expected a --flag, got '{flag}'"))?;
            let value = it.next().ok_or(format!("--{name} needs a value"))?;
            out.push((name.to_string(), value.clone()));
        }
        Ok(Flags(out))
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("bad value '{v}' for --{name}")),
        }
    }

    fn reject_unknown(&self, known: &[&str]) -> Result<(), String> {
        match self.0.iter().find(|(n, _)| !known.contains(&n.as_str())) {
            Some((n, _)) => Err(format!("unknown flag --{n}")),
            None => Ok(()),
        }
    }
}

/// The result object the contract prescribes, on one line.
fn result_json(r: &RunResult) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|(name, unit, value)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*value),
                json_str(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.failed == 0,
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}

fn run_one(flags: &Flags) -> Result<bool, String> {
    flags.reject_unknown(&["workload", "seed", "seconds", "trace"])?;
    let name = flags.get("workload").ok_or("--workload is required")?;
    let workload = catalog::workload(name).ok_or_else(|| {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload '{name}' (known: {})", known.join(", "))
    })?;
    let seed: u64 = flags.number("seed", 2017)?;
    let seconds: f64 = flags.number("seconds", RUN_SECONDS as f64)?;
    let traced = match flags.get("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, got '{other}'")),
    };
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }

    let result = run::run_workload(workload, seed, seconds, traced)?;
    println!(
        "workload {name}  seed {seed}  trace {}  hardware_threads {}",
        u8::from(traced),
        util::hardware_threads()
    );
    for (metric, unit, value) in &result.metrics {
        let (better, bound) = describe(metric);
        println!("{metric:<36} {value:>16.6} {unit:<8} better={better}{bound}");
    }
    for note in &result.notes {
        println!("note: {note}");
    }
    println!(
        "operations attempted {} failed {}",
        result.attempted, result.failed
    );
    println!("{}", result_json(&result));
    Ok(result.failed == 0)
}

/// Direction and (for end-to-end metrics) regression bound of a metric.
fn describe(metric: &str) -> (&'static str, String) {
    if let Some(m) = END_TO_END.iter().find(|m| m.name == metric) {
        return (m.better.label(), format!(" bound={}", m.bound));
    }
    let layer = PER_LAYER.iter().find(|m| m.name == metric);
    (
        layer.map_or(Better::Lower, |m| m.better).label(),
        if layer.is_some_and(|m| m.exact) {
            " exact".into()
        } else {
            String::new()
        },
    )
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    match args.first().map(String::as_str) {
        None | Some("--help") | Some("-h") => {
            println!("{USAGE}");
            Ok(true)
        }
        Some("manifest") => {
            print!("{}", catalog::manifest_json());
            Ok(true)
        }
        Some("suite") => suite::run(&Flags::parse(&args[1..])?),
        Some("pairs") => match &args[1..] {
            [a, b, rest @ ..] => suite::pairs(a, b, &Flags::parse(rest)?),
            _ => Err(USAGE.into()),
        },
        Some("compare") => match &args[1..] {
            [a, b] => compare::run(a, b),
            _ => Err(USAGE.into()),
        },
        Some(_) => run_one(&Flags::parse(args)?),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("tea-benchmark: {e}");
            std::process::exit(2);
        }
    }
}
