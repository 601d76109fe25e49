//! `tea.in`-style input decks.
//!
//! The reference TeaLeaf reads a keyword deck between `*tea` and
//! `*endtea`. This parser accepts the same shape of file — states,
//! mesh extents, timestep controls and `tl_*` solver switches — mapped
//! onto this reproduction's option types. Unknown keys are reported as
//! errors rather than ignored, so decks stay honest.
//!
//! ```
//! # let text = "
//! *tea
//! state 1 density=100.0 energy=0.0001
//! state 2 density=0.1 energy=25.0 geometry=rectangle xmin=0.0 xmax=3.5 ymin=1.0 ymax=2.0
//! x_cells=256
//! y_cells=256
//! xmin=0.0
//! xmax=10.0
//! ymin=0.0
//! ymax=10.0
//! initial_timestep=0.04
//! end_time=15.0
//! end_step=375
//! tl_use_ppcg
//! tl_ppcg_inner_steps=16
//! tl_ppcg_halo_depth=8
//! tl_preconditioner_type=jac_diag
//! tl_eps=1e-10
//! tl_max_iters=10000
//! tl_coefficient=1
//! *endtea
//! # ";
//! # let deck = tea_app::parse_deck(text).unwrap();
//! # let solver = deck.control.effective_solver().unwrap();
//! # deck.control.check(&deck.problem, &solver).unwrap();
//! ```

use std::collections::BTreeMap;
use tea_core::{Precision, PreconKind, SolveOpts, SolverParams};
use tea_mesh::{Coefficient, Extent2D, Problem, Shape, State};

/// The most inner Chebyshev steps a deck may ask of CPPCG
/// (`tl_ppcg_inner_steps`); the paper's sweeps stop at 16.
const MAX_PPCG_INNER_STEPS: usize = 4096;

/// Time-stepping and solver controls (the deck's non-geometry half).
#[derive(Debug, Clone)]
pub struct Control {
    /// Fixed time step (paper: 0.04 µs).
    pub dt: f64,
    /// Simulation end time (paper: 15 µs).
    pub end_time: f64,
    /// Step-count cap.
    pub end_step: u64,
    /// Solver selection: a registry name or alias resolved by
    /// [`crate::solver_registry`] (e.g. `"cg"`, `"ppcg"`, `"amg"`,
    /// `"auto"`).
    pub solver: String,
    /// Arithmetic-precision override (deck `tl_precision`, CLI
    /// `--precision`). `None` (the default) takes [`Control::solver`]
    /// verbatim; an explicit value re-routes the solver to its
    /// registered family's entry at that precision (`cg` →
    /// `mixed_cg`/`cg_f32`, `ppcg` → `mixed_ppcg`) via
    /// [`Control::effective_solver`] and
    /// [`tea_core::SolverRegistry::route`].
    pub precision: Option<Precision>,
    /// Convergence options.
    pub opts: SolveOpts,
    /// Preconditioner for CG/Chebyshev/PPCG-inner.
    pub precon: PreconKind,
    /// PPCG inner smoothing steps.
    pub ppcg_inner_steps: usize,
    /// PPCG matrix-powers halo depth.
    pub ppcg_halo_depth: usize,
    /// Eigenvalue-estimation CG presteps (Chebyshev/PPCG).
    pub presteps: u64,
    /// Seed for the `auto` pseudo-solver's candidate search (deck
    /// `tl_tune_seed`, CLI `--tune-seed`). Ignored by concrete solvers.
    pub tune_seed: u64,
    /// Print a field summary every this many steps (0 = only at end).
    pub summary_frequency: u64,
}

impl Default for Control {
    fn default() -> Self {
        Control {
            dt: 0.04,
            end_time: 15.0,
            end_step: u64::MAX,
            solver: "cg".into(),
            precision: None,
            opts: SolveOpts::default(),
            precon: PreconKind::None,
            ppcg_inner_steps: 16,
            ppcg_halo_depth: 1,
            presteps: 30,
            tune_seed: 0,
            summary_frequency: 10,
        }
    }
}

impl Control {
    /// Number of steps implied by `end_time`/`end_step`.
    pub fn steps(&self) -> u64 {
        let by_time = (self.end_time / self.dt).ceil() as u64;
        by_time.min(self.end_step)
    }

    /// The registry name the driver actually runs: [`Control::solver`]
    /// re-routed for [`Control::precision`] (identity at the default
    /// `f64`).
    ///
    /// # Errors
    /// A message naming the solver and precision when no variant is
    /// registered (e.g. `tl_precision=mixed` with the serial-only AMG
    /// baseline), or listing the conflicting keys when the deck pins
    /// an axis the `auto` tuner owns (`tl_solver=auto` with
    /// `tl_precision=...`).
    pub fn effective_solver(&self) -> Result<String, String> {
        let registry = crate::solver_registry();
        let resolved = registry.resolve(&self.solver).map_err(|e| e.to_string())?;
        if resolved.name == "auto" {
            // the auto-tuner explores the precision axis itself: an
            // explicit override is a conflict, not a routing request
            if let Some(p) = self.precision {
                return Err(format!(
                    "conflicting keys: tl_solver={} and tl_precision={} — the auto-tuner \
                     explores the precision axis itself; remove tl_precision",
                    self.solver,
                    p.label()
                ));
            }
            return Ok(resolved.name.to_string());
        }
        let routed = match self.precision {
            Some(p) => registry.route(&self.solver, p).map_err(|e| e.to_string())?,
            None => resolved,
        };
        Ok(routed.name.to_string())
    }

    /// Checks the control values a deck or the CLI can set against what
    /// the solvers and the allocator accept, on `problem`'s mesh under
    /// the resolved registry name `solver` — the one gate between
    /// outside input and the library's own `assert!`s.
    ///
    /// # Errors
    /// A message naming the offending deck key.
    pub fn check(&self, problem: &Problem, solver: &str) -> Result<(), String> {
        if !(self.dt.is_finite() && self.dt > 0.0) {
            return Err(format!(
                "initial_timestep must be finite and > 0, got {}",
                self.dt
            ));
        }
        // a NaN, negative or zero target is one no residual reaches: the
        // solve would run its whole iteration budget
        if !(self.opts.eps.is_finite() && self.opts.eps > 0.0) {
            return Err(format!(
                "tl_eps must be finite and > 0, got {}",
                self.opts.eps
            ));
        }
        // the count sizes the Chebyshev coefficient vector and the
        // smoothing's level table
        if !(1..=MAX_PPCG_INNER_STEPS).contains(&self.ppcg_inner_steps) {
            return Err(format!(
                "tl_ppcg_inner_steps must be between 1 and {MAX_PPCG_INNER_STEPS}, got {}",
                self.ppcg_inner_steps
            ));
        }
        // the eigen prelude estimates the spectrum from the presteps' CG
        // coefficients, so it runs at least one: a 0 here would run one
        // while the deck echo printed 0
        if self.presteps == 0 {
            return Err("tl_ch_cg_presteps must be at least 1, got 0".to_string());
        }
        // the fields carry the halo on every side: a depth beyond the
        // mesh buys no sweep and is bounded here, before the allocator
        let (depth, deepest) = (self.ppcg_halo_depth, problem.x_cells.min(problem.y_cells));
        if !(1..=deepest).contains(&depth) {
            return Err(format!(
                "tl_ppcg_halo_depth must be between 1 and {deepest} (the mesh's shorter side), \
                 got {depth}"
            ));
        }
        let strips = self.precon == PreconKind::BlockJacobi;
        let matrix_powers = crate::solver_registry()
            .resolve(solver)
            .is_ok_and(|meta| meta.family == "ppcg");
        if strips && depth > 1 && matrix_powers {
            return Err(format!(
                "tl_preconditioner_type=jac_block needs tl_ppcg_halo_depth=1 under {solver} \
                 (its strips cannot span matrix-powers halos), got {depth}"
            ));
        }
        Ok(())
    }

    /// Sets control `key` from its deck value (lower-case, as a deck
    /// line is folded): the one parser of every control key, shared by
    /// [`parse_deck`] and the command line's [`FLAG_KEYS`].
    ///
    /// # Errors
    /// A message naming the key: a malformed value or an unknown key.
    pub fn set(&mut self, key: &str, value: &str) -> Result<(), String> {
        let fval = || parse_value::<f64>(key, value, "number");
        let ival = || parse_value::<u64>(key, value, "integer");
        match key {
            "initial_timestep" => self.dt = fval()?,
            "end_time" => self.end_time = fval()?,
            "end_step" => self.end_step = ival()?,
            "summary_frequency" => self.summary_frequency = ival()?,
            "tl_solver" => {
                let meta = crate::solver_registry().resolve(value);
                self.solver = meta.map_err(|e| e.to_string())?.name.to_string();
            }
            "tl_precision" => self.precision = Some(Precision::parse(value)?),
            "tl_eps" => self.opts.eps = fval()?,
            "tl_max_iters" => self.opts.max_iters = ival()?,
            "tl_ppcg_inner_steps" => self.ppcg_inner_steps = ival()? as usize,
            "tl_ppcg_halo_depth" => self.ppcg_halo_depth = ival()? as usize,
            "tl_ch_cg_presteps" => self.presteps = ival()?,
            "tl_tune_seed" => self.tune_seed = ival()?,
            "tl_preconditioner_type" => self.precon = PreconKind::parse(value)?,
            other => return Err(format!("unknown deck key '{other}'")),
        }
        Ok(())
    }

    /// The generic solver parameters this deck configures — what the
    /// driver hands to [`tea_core::SolverRegistry::create`].
    pub fn solver_params(&self) -> SolverParams {
        SolverParams {
            precon: self.precon,
            inner_steps: self.ppcg_inner_steps,
            halo_depth: self.ppcg_halo_depth,
            presteps: self.presteps,
            tune_seed: self.tune_seed,
        }
    }
}

/// `tealeaf`'s flags that set a deck key, as `(flag, key)`, each applied by [`Control::set`].
pub const FLAG_KEYS: [(&str, &str); 9] = [
    ("--solver", "tl_solver"),
    ("--precon", "tl_preconditioner_type"),
    ("--precision", "tl_precision"),
    ("--depth", "tl_ppcg_halo_depth"),
    ("--inner", "tl_ppcg_inner_steps"),
    ("--steps", "end_step"),
    ("--dt", "initial_timestep"),
    ("--eps", "tl_eps"),
    ("--tune-seed", "tl_tune_seed"),
];

/// What a `tealeaf` command line runs, which decides the flags it reads
/// ([`FLAG_MODES`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// One run of the built-in crooked pipe (no `--deck`).
    Pipe,
    /// One run of a `--deck` file.
    Deck,
    /// `--serve`: a queue of deck files.
    Serve,
    /// `--audit`: the semantic audits.
    Audit,
}

impl Mode {
    /// What this mode runs, the second half of a refused flag's message.
    pub fn refusal(self) -> &'static str {
        match self {
            Mode::Pipe => "a run without --deck or --serve runs the built-in crooked pipe once",
            Mode::Deck => "--deck runs one deck, its mesh as written",
            Mode::Serve => "--serve runs each job's deck as written",
            Mode::Audit => "--audit runs the semantic audits alone",
        }
    }
}

/// The single-run modes, the only ones that read a [`FLAG_KEYS`] flag.
pub const SINGLE_RUN: &[Mode] = &[Mode::Pipe, Mode::Deck];
const SERVE: &[Mode] = &[Mode::Serve];
const RUNS: &[Mode] = &[Mode::Pipe, Mode::Deck, Mode::Serve];

/// `tealeaf`'s other flags, as `(flag, what it sets, the modes that
/// read it)`; a flag the chosen mode does not read is refused.
pub const FLAG_MODES: [(&str, &str, &[Mode]); 11] = [
    ("--deck", "names the deck file", &[Mode::Deck]),
    ("--cells", "sizes the built-in mesh", &[Mode::Pipe]),
    ("--ranks", "sets a single run's rank count", SINGLE_RUN),
    ("--out", "names a single run's field files", SINGLE_RUN),
    ("--quiet", "trims the report", RUNS),
    ("--serve", "names the job list", SERVE),
    ("--workers", "sets the serving worker count", SERVE),
    ("--deadline", "sets the serving job deadline", SERVE),
    ("--retries", "sets the serving retry count", SERVE),
    ("--fault-plan", "arms serving fault injection", SERVE),
    ("--audit", "runs the semantic audits", &[Mode::Audit]),
];

fn parse_value<T: std::str::FromStr>(key: &str, value: &str, what: &str) -> Result<T, String> {
    let bad = |_| format!("bad {what} '{value}' for {key}");
    value.parse().map_err(bad)
}

/// A parsed deck: the physical problem plus controls.
#[derive(Debug, Clone)]
pub struct Deck {
    /// Mesh, states and coefficient recipe.
    pub problem: Problem,
    /// Time stepping and solver controls.
    pub control: Control,
}

/// Parses a deck from text.
///
/// # Errors
/// Returns a message naming the offending line for unknown keys,
/// malformed values, missing `*tea` block or invalid problems.
pub fn parse_deck(text: &str) -> Result<Deck, String> {
    let mut in_block = false;
    let mut saw_block = false;

    let mut x_cells = 100usize;
    let mut y_cells = 100usize;
    let mut extent = Extent2D::square(10.0);
    let mut states: BTreeMap<usize, State> = BTreeMap::new();
    let mut coefficient = Coefficient::Conductivity;
    let mut control = Control::default();

    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('!').next().unwrap_or("").trim(); // `!` comments
        if line.is_empty() {
            continue;
        }
        let lower = line.to_ascii_lowercase();
        if lower == "*tea" {
            in_block = true;
            saw_block = true;
            continue;
        }
        if lower == "*endtea" {
            in_block = false;
            continue;
        }
        if !in_block {
            continue;
        }
        let err = |msg: String| format!("line {}: {msg}", lineno + 1);

        if let Some(rest) = lower.strip_prefix("state ") {
            let (idx, state) = parse_state(rest).map_err(err)?;
            states.insert(idx, state);
            continue;
        }

        // legacy bare solver switches: `tl_use_<name>` is `tl_solver=<name>`
        if let Some(name) = lower.strip_prefix("tl_use_") {
            control.set("tl_solver", name).map_err(err)?;
            continue;
        }

        let (key, value) = lower
            .split_once('=')
            .map(|(k, v)| (k.trim(), v.trim()))
            .ok_or_else(|| err(format!("expected key=value, got '{line}'")))?;
        let fval = || parse_value::<f64>(key, value, "number").map_err(err);
        let ival = || parse_value::<u64>(key, value, "integer").map_err(err);
        match key {
            "x_cells" => x_cells = ival()? as usize,
            "y_cells" => y_cells = ival()? as usize,
            "xmin" => extent.x_min = fval()?,
            "xmax" => extent.x_max = fval()?,
            "ymin" => extent.y_min = fval()?,
            "ymax" => extent.y_max = fval()?,
            "tl_coefficient" => {
                coefficient = match value {
                    "1" | "conductivity" => Coefficient::Conductivity,
                    "2" | "recip_conductivity" => Coefficient::RecipConductivity,
                    other => return Err(err(format!("unknown coefficient '{other}'"))),
                }
            }
            _ => control.set(key, value).map_err(err)?,
        }
    }

    if !saw_block {
        return Err("no *tea block found".into());
    }
    let Some(first) = states.keys().next().copied() else {
        return Err("deck defines no states".into());
    };
    if first != 1 {
        return Err("state numbering must start at 1 (the background)".into());
    }
    let states: Vec<State> = states.into_values().collect();

    // surface solver × precision conflicts at parse time (order of
    // tl_solver / tl_precision in the deck must not matter, so this
    // check runs once both are known; it also rejects tl_solver=auto
    // combined with tl_precision, which pins an axis the tuner owns)
    control.effective_solver()?;

    let problem = Problem {
        x_cells,
        y_cells,
        extent,
        states,
        coefficient,
    };
    problem.validate()?;
    Ok(Deck { problem, control })
}

fn parse_state(rest: &str) -> Result<(usize, State), String> {
    let mut parts = rest.split_whitespace();
    let idx: usize = parts
        .next()
        .ok_or("state needs an index")?
        .parse()
        .map_err(|_| "bad state index".to_string())?;
    let mut density = None;
    let mut energy = None;
    let mut geometry = None;
    let mut vals: BTreeMap<&str, f64> = BTreeMap::new();
    for p in parts {
        let (k, v) = p
            .split_once('=')
            .ok_or_else(|| format!("expected key=value in state, got '{p}'"))?;
        match k {
            "density" => density = Some(v.parse().map_err(|_| "bad density")?),
            "energy" => energy = Some(v.parse().map_err(|_| "bad energy")?),
            "geometry" => geometry = Some(v.to_string()),
            "xmin" | "xmax" | "ymin" | "ymax" | "radius" | "xcentre" | "ycentre" | "x" | "y" => {
                vals.insert(
                    match k {
                        "xcentre" => "cx",
                        "ycentre" => "cy",
                        other => other,
                    },
                    v.parse::<f64>().map_err(|_| format!("bad number '{v}'"))?,
                );
            }
            other => return Err(format!("unknown state key '{other}'")),
        }
    }
    let density = density.ok_or("state missing density")?;
    let energy = energy.ok_or("state missing energy")?;
    let get = |k: &str| -> Result<f64, String> {
        vals.get(k).copied().ok_or(format!("state missing {k}"))
    };
    let shape = match geometry.as_deref() {
        None if idx == 1 => Shape::Background,
        None => return Err("non-background state needs geometry=".into()),
        Some("rectangle") => Shape::Rectangle {
            x_min: get("xmin")?,
            y_min: get("ymin")?,
            x_max: get("xmax")?,
            y_max: get("ymax")?,
        },
        Some("circular") | Some("circle") => Shape::Circle {
            cx: get("cx")?,
            cy: get("cy")?,
            radius: get("radius")?,
        },
        Some("point") => Shape::Point {
            x: get("x")?,
            y: get("y")?,
        },
        Some(other) => return Err(format!("unknown geometry '{other}'")),
    };
    Ok((
        idx,
        State {
            shape,
            density,
            energy,
        },
    ))
}

/// Renders a deck back to `tea.in` text (round-trip support and
/// experiment provenance logs).
pub fn render_deck(deck: &Deck) -> String {
    let mut out = String::from("*tea\n");
    for (i, s) in deck.problem.states.iter().enumerate() {
        out.push_str(&format!(
            "state {} density={} energy={}",
            i + 1,
            s.density,
            s.energy
        ));
        match s.shape {
            Shape::Background => {}
            Shape::Rectangle {
                x_min,
                y_min,
                x_max,
                y_max,
            } => out.push_str(&format!(
                " geometry=rectangle xmin={x_min} xmax={x_max} ymin={y_min} ymax={y_max}"
            )),
            Shape::Circle { cx, cy, radius } => out.push_str(&format!(
                " geometry=circular xcentre={cx} ycentre={cy} radius={radius}"
            )),
            Shape::Point { x, y } => out.push_str(&format!(" geometry=point x={x} y={y}")),
        }
        out.push('\n');
    }
    let p = &deck.problem;
    let c = &deck.control;
    out.push_str(&format!("x_cells={}\n", p.x_cells));
    out.push_str(&format!("y_cells={}\n", p.y_cells));
    out.push_str(&format!(
        "xmin={}\nxmax={}\nymin={}\nymax={}\n",
        p.extent.x_min, p.extent.x_max, p.extent.y_min, p.extent.y_max
    ));
    out.push_str(&format!("initial_timestep={}\n", c.dt));
    out.push_str(&format!("end_time={}\n", c.end_time));
    if c.end_step != u64::MAX {
        out.push_str(&format!("end_step={}\n", c.end_step));
    }
    out.push_str(&format!("tl_eps={}\n", c.opts.eps));
    out.push_str(&format!("tl_max_iters={}\n", c.opts.max_iters));
    out.push_str(&format!(
        "tl_coefficient={}\n",
        match p.coefficient {
            Coefficient::Conductivity => 1,
            Coefficient::RecipConductivity => 2,
        }
    ));
    out.push_str(&format!("tl_preconditioner_type={}\n", c.precon.label()));
    out.push_str(&format!("tl_solver={}\n", c.solver));
    if let Some(p) = c.precision {
        out.push_str(&format!("tl_precision={}\n", p.label()));
    }
    out.push_str(&format!("tl_ppcg_inner_steps={}\n", c.ppcg_inner_steps));
    out.push_str(&format!("tl_ppcg_halo_depth={}\n", c.ppcg_halo_depth));
    out.push_str(&format!("tl_ch_cg_presteps={}\n", c.presteps));
    if c.tune_seed != 0 {
        out.push_str(&format!("tl_tune_seed={}\n", c.tune_seed));
    }
    out.push_str(&format!("summary_frequency={}\n", c.summary_frequency));
    out.push_str("*endtea\n");
    out
}

/// The paper's crooked-pipe benchmark deck at a given resolution and
/// solver (a registry name like `"cg"` or `"ppcg"`).
pub fn crooked_pipe_deck(n: usize, solver: impl Into<String>) -> Deck {
    Deck {
        problem: tea_mesh::crooked_pipe(n),
        control: Control {
            solver: solver.into(),
            ..Default::default()
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
! the crooked pipe, scaled down
*tea
state 1 density=100.0 energy=0.0001
state 2 density=0.1 energy=25.0 geometry=rectangle xmin=0.0 xmax=3.5 ymin=1.0 ymax=2.0
state 3 density=0.1 energy=300.0 geometry=rectangle xmin=0.0 xmax=0.5 ymin=1.0 ymax=2.0
x_cells=64
y_cells=64
xmin=0.0
xmax=10.0
ymin=0.0
ymax=10.0
initial_timestep=0.04
end_time=0.4
tl_use_ppcg
tl_ppcg_inner_steps=16
tl_ppcg_halo_depth=8
tl_preconditioner_type=jac_diag
tl_eps=1e-9
tl_max_iters=5000
tl_coefficient=1
*endtea
"#;

    #[test]
    fn parses_the_sample_deck() {
        let deck = parse_deck(SAMPLE).expect("sample must parse");
        assert_eq!(deck.problem.x_cells, 64);
        assert_eq!(deck.problem.states.len(), 3);
        assert_eq!(deck.problem.states[0].shape, Shape::Background);
        assert_eq!(deck.control.solver, "ppcg");
        assert_eq!(deck.control.ppcg_halo_depth, 8);
        assert_eq!(deck.control.ppcg_inner_steps, 16);
        assert_eq!(deck.control.precon, tea_core::PreconKind::Diagonal);
        assert_eq!(deck.control.opts.eps, 1e-9);
        assert_eq!(deck.control.opts.max_iters, 5000);
        assert_eq!(deck.control.steps(), 10);
    }

    #[test]
    fn zero_presteps_parse_but_fail_the_check() {
        let text = SAMPLE.replace("tl_eps=1e-9", "tl_eps=1e-9\ntl_ch_cg_presteps=0");
        let deck = parse_deck(&text).expect("a count of 0 parses");
        assert_eq!(deck.control.presteps, 0);
        let e = deck.control.check(&deck.problem, "ppcg").unwrap_err();
        assert_eq!(e, "tl_ch_cg_presteps must be at least 1, got 0");
        let one = parse_deck(&SAMPLE.replace("tl_eps=1e-9", "tl_eps=1e-9\ntl_ch_cg_presteps=1"))
            .expect("parses");
        assert_eq!(one.control.check(&one.problem, "ppcg"), Ok(()));
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let deck = parse_deck(
            "*tea\nstate 1 density=1.0 energy=1.0\n! full comment\nx_cells=8 ! trailing\ny_cells=8\n*endtea",
        )
        .unwrap();
        assert_eq!(deck.problem.x_cells, 8);
    }

    #[test]
    fn unknown_keys_are_errors() {
        let e = parse_deck("*tea\nstate 1 density=1 energy=1\nbogus_key=3\n*endtea").unwrap_err();
        assert!(e.contains("unknown deck key"), "{e}");
        assert!(e.contains("line 3"), "{e}");
    }

    #[test]
    fn missing_block_is_an_error() {
        assert!(parse_deck("x_cells=8").unwrap_err().contains("*tea"));
    }

    #[test]
    fn state_shapes_parse() {
        let deck = parse_deck(
            "*tea\nstate 1 density=1 energy=1\n\
             state 2 density=2 energy=2 geometry=circular xcentre=5 ycentre=5 radius=1\n\
             state 3 density=3 energy=3 geometry=point x=1 y=2\n\
             x_cells=16\ny_cells=16\n*endtea",
        )
        .unwrap();
        assert!(matches!(deck.problem.states[1].shape, Shape::Circle { .. }));
        assert!(matches!(deck.problem.states[2].shape, Shape::Point { .. }));
    }

    #[test]
    fn state_without_geometry_must_be_background() {
        let e = parse_deck("*tea\nstate 1 density=1 energy=1\nstate 2 density=2 energy=2\n*endtea")
            .unwrap_err();
        assert!(e.contains("geometry"), "{e}");
    }

    #[test]
    fn roundtrip_render_parse() {
        let deck = crooked_pipe_deck(48, "ppcg");
        let text = render_deck(&deck);
        let re = parse_deck(&text).expect("rendered deck must parse");
        assert_eq!(re.problem, deck.problem);
        assert_eq!(re.control.solver, deck.control.solver);
        assert_eq!(re.control.dt, deck.control.dt);
        assert_eq!(re.control.ppcg_inner_steps, deck.control.ppcg_inner_steps);
    }

    #[test]
    fn solver_switches() {
        // legacy bare switches and the tl_solver key resolve to the
        // same canonical registry names
        for (text, name) in [
            ("tl_use_jacobi", "jacobi"),
            ("tl_use_cg", "cg"),
            ("tl_use_chebyshev", "chebyshev"),
            ("tl_use_ppcg", "ppcg"),
            ("tl_use_amg", "amg"),
            ("tl_use_boomeramg", "amg"),
            ("tl_solver=mixed_chebyshev", "mixed_chebyshev"),
            ("tl_solver=cppcg", "ppcg"),
            ("tl_solver=BoomerAMG", "amg"),
        ] {
            let deck = parse_deck(&format!(
                "*tea\nstate 1 density=1 energy=1\nx_cells=8\ny_cells=8\n{text}\n*endtea"
            ))
            .unwrap();
            assert_eq!(deck.control.solver, name, "{text}");
        }
        // an unregistered name fails by either road, listing what is registered
        for text in ["tl_use_cg_fused", "tl_solver=cg_fused"] {
            let e = mini_deck(text).unwrap_err();
            assert!(e.contains("unknown solver"), "{e}");
            for name in crate::solver_registry().names() {
                assert!(e.contains(name), "{e} should list {name}");
            }
        }
    }

    fn mini_deck(lines: &str) -> Result<Deck, String> {
        parse_deck(&format!(
            "*tea\nstate 1 density=1 energy=1\nx_cells=8\ny_cells=8\n{lines}\n*endtea"
        ))
    }

    #[test]
    fn every_flag_sets_its_key_as_a_deck_line_does() {
        // per key: a value that moves it off its default, and one it refuses
        let samples = |key: &str| match key {
            "tl_solver" => ("cppcg", "sor"),
            "tl_preconditioner_type" => ("jac_diag", "diag"),
            "tl_precision" => ("mixed", "f16"),
            "tl_ppcg_halo_depth" | "tl_ppcg_inner_steps" | "end_step" | "tl_tune_seed" => {
                ("4", "abc")
            }
            "initial_timestep" | "tl_eps" => ("0.5", "1e"),
            other => panic!("FLAG_KEYS names {other}, which this test has no sample for"),
        };
        let debug = |c: &Control| format!("{c:?}");
        for (flag, key) in FLAG_KEYS {
            let (good, bad) = samples(key);
            let mut set = Control::default();
            set.set(key, good).unwrap();
            assert_ne!(debug(&set), debug(&Control::default()), "{flag} {good}");
            let deck = mini_deck(&format!("{key}={good}")).unwrap();
            assert_eq!(debug(&set), debug(&deck.control), "{flag} {good}");

            let e = Control::default().set(key, bad).unwrap_err();
            let deck_e = mini_deck(&format!("{key}={bad}")).unwrap_err();
            assert_eq!(deck_e, format!("line 5: {e}"), "{flag} {bad}");
        }
    }

    #[test]
    fn tl_solver_auto_parses_and_conflicts_with_tl_precision() {
        // plain auto (and its aliases) parses and resolves
        let deck = mini_deck("tl_solver=auto").unwrap();
        assert_eq!(deck.control.effective_solver().unwrap(), "auto");
        let deck = mini_deck("tl_solver=autotune").unwrap();
        assert_eq!(deck.control.effective_solver().unwrap(), "auto");
        // combining it with an explicit precision is a conflict naming
        // both keys, in either key order
        let e = mini_deck("tl_solver=auto\ntl_precision=mixed").unwrap_err();
        assert!(e.contains("tl_solver=auto"), "{e}");
        assert!(e.contains("tl_precision=mixed"), "{e}");
        let e2 = mini_deck("tl_precision=f32\ntl_solver=auto").unwrap_err();
        assert!(e2.contains("tl_solver=auto"), "{e2}");
        assert!(e2.contains("tl_precision=f32"), "{e2}");
        // aliases are normalised at parse time, so the message reports
        // the canonical name
        let e3 = mini_deck("tl_solver=tune\ntl_precision=mixed").unwrap_err();
        assert!(e3.contains("tl_solver=auto"), "{e3}");
    }

    #[test]
    fn tl_tune_seed_parses_and_roundtrips() {
        assert_eq!(mini_deck("tl_solver=cg").unwrap().control.tune_seed, 0);
        let deck = mini_deck("tl_solver=auto\ntl_tune_seed=42").unwrap();
        assert_eq!(deck.control.tune_seed, 42);
        assert_eq!(deck.control.solver_params().tune_seed, 42);
        let re = parse_deck(&render_deck(&deck)).unwrap();
        assert_eq!(re.control.tune_seed, 42);
        assert_eq!(re.control.solver, "auto");
    }

    #[test]
    fn tl_precision_parses_and_defaults() {
        assert_eq!(mini_deck("tl_solver=cg").unwrap().control.precision, None);
        for (text, want) in [
            ("tl_precision=f64", Precision::F64),
            ("tl_precision=double", Precision::F64),
            ("tl_precision=f32", Precision::F32),
            ("tl_precision=single", Precision::F32),
            ("tl_precision=mixed", Precision::Mixed),
            ("tl_precision=MIXED", Precision::Mixed),
        ] {
            let deck = mini_deck(text).unwrap();
            assert_eq!(deck.control.precision, Some(want), "{text}");
        }
        // an explicitly named reduced-precision solver is NOT demoted by
        // the default (absent) precision override
        let deck = mini_deck("tl_solver=mixed_cg").unwrap();
        assert_eq!(deck.control.effective_solver().unwrap(), "mixed_cg");
    }

    #[test]
    fn tl_precision_routes_the_effective_solver() {
        let deck = mini_deck("tl_solver=cg\ntl_precision=mixed").unwrap();
        assert_eq!(deck.control.solver, "cg", "the deck keeps the request");
        assert_eq!(deck.control.effective_solver().unwrap(), "mixed_cg");
        // order must not matter
        let deck = mini_deck("tl_precision=mixed\ntl_use_ppcg").unwrap();
        assert_eq!(deck.control.effective_solver().unwrap(), "mixed_ppcg");
        let deck = mini_deck("tl_solver=cg\ntl_precision=f32").unwrap();
        assert_eq!(deck.control.effective_solver().unwrap(), "cg_f32");
    }

    #[test]
    fn tl_precision_unknown_value_is_an_error() {
        let e = mini_deck("tl_precision=f16").unwrap_err();
        assert!(e.contains("unknown precision 'f16'"), "{e}");
        assert!(e.contains("f64, f32, mixed"), "{e}");
        assert!(e.contains("line 5"), "{e}");
    }

    #[test]
    fn tl_preconditioner_type_accepts_exactly_the_labels() {
        // the CLI's `--precon diag` fails with the same text (cli.rs)
        let e = mini_deck("tl_preconditioner_type=diag").unwrap_err();
        let want = "unknown preconditioner 'diag' (accepted: none, jac_diag, jac_block)";
        assert!(e.contains(want), "{e}");
        assert!(e.contains("line 5"), "{e}");
    }

    #[test]
    fn tl_precision_conflicts_with_serial_only_solver() {
        let e = mini_deck("tl_solver=amg\ntl_precision=mixed").unwrap_err();
        assert!(e.contains("amg"), "{e}");
        assert!(e.contains("mixed"), "{e}");
        assert!(e.contains("serial-only"), "{e}");
        // the conflict is caught regardless of key order
        let e2 = mini_deck("tl_precision=mixed\ntl_solver=amg").unwrap_err();
        assert!(e2.contains("serial-only"), "{e2}");
        // and methods with no reduced-precision variant are rejected too
        let e3 = mini_deck("tl_solver=jacobi\ntl_precision=f32").unwrap_err();
        assert!(e3.contains("jacobi"), "{e3}");
    }

    #[test]
    fn tl_precision_roundtrips_through_render() {
        let mut deck = crooked_pipe_deck(16, "cg");
        deck.control.precision = Some(Precision::Mixed);
        let re = parse_deck(&render_deck(&deck)).expect("rendered deck must parse");
        assert_eq!(re.control.precision, Some(Precision::Mixed));
        assert_eq!(re.control.effective_solver().unwrap(), "mixed_cg");
    }

    #[test]
    fn unknown_solver_lists_registered_names() {
        for line in ["tl_solver=sor", "tl_use_sor"] {
            let e = parse_deck(&format!(
                "*tea\nstate 1 density=1 energy=1\nx_cells=8\ny_cells=8\n{line}\n*endtea"
            ))
            .unwrap_err();
            assert!(e.contains("unknown solver 'sor'"), "{e}");
            for name in crate::solver_registry().names() {
                assert!(e.contains(name), "{e} should list {name}");
            }
            assert!(e.contains("line 5"), "{e}");
        }
    }

    #[test]
    fn control_steps_respects_end_step() {
        let mut c = Control {
            dt: 0.04,
            end_time: 15.0,
            ..Control::default()
        };
        assert_eq!(c.steps(), 375);
        c.end_step = 10;
        assert_eq!(c.steps(), 10);
    }
}
