//! Seeded `tea.in` text generation.
//!
//! `--seed` reaches this module and nothing else: the program under
//! test receives only the generated deck text. Every deck is the
//! paper's crooked pipe with four seeded rectangular inclusions placed
//! in the wall, so a change tuned to the one stock geometry does not
//! automatically win here.

/// splitmix64: the same seeded, wall-clock-free generator the tuner and
/// the fault planner use.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64)
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// Wall and pipe densities of the stock crooked pipe, deliberately
/// *not* jittered (the issue allowed up to ±10 %).
///
/// Two reasons. Iteration counts follow the density contrast, and the
/// regression bounds are fractions of a median taken across seeds. And
/// `mixed_ppcg` has a data-dependent cliff: where the f64 stencil of the
/// uniform wall value cancels to exactly zero, the far-field residual is
/// exactly zero too, the f32 inner solve sees a band of denormals along
/// the diffusion front, and the solve runs 2.6× slower (1.64 s against
/// 0.47 s at 384² for wall density 100.15820240816151; flush-to-zero
/// removes the gap). About one jittered wall value in four lands there,
/// which would make the run-to-run spread of that workload meaningless.
/// The stock values are on the fast side.
const WALL_DENSITY: f64 = 100.0;
const PIPE_DENSITY: f64 = 0.1;

/// Wall regions `(xmin, xmax, ymin, ymax)` that no pipe leg crosses;
/// one inclusion is placed inside each.
const WALL_REGIONS: [(f64, f64, f64, f64); 4] = [
    (0.2, 2.2, 2.5, 9.5),
    (3.8, 5.8, 0.2, 4.7),
    (7.3, 9.7, 3.5, 9.5),
    (0.5, 9.5, 6.5, 9.5),
];

/// The pipe legs and the inlet source of `tea_mesh::crooked_pipe`, as
/// `(xmin, xmax, ymin, ymax, energy)`.
const PIPE_LEGS: [(f64, f64, f64, f64, f64); 6] = [
    (0.0, 3.5, 1.0, 2.0, 25.0),
    (2.5, 3.5, 1.0, 6.0, 25.0),
    (2.5, 7.0, 5.0, 6.0, 25.0),
    (6.0, 7.0, 2.0, 6.0, 25.0),
    (6.0, 10.0, 2.0, 3.0, 25.0),
    (0.0, 0.5, 1.0, 2.0, 300.0),
];

/// The solver half of a deck: what differs between workloads that share
/// a geometry.
#[derive(Clone, Copy)]
pub struct SolverKeys {
    pub solver: &'static str,
    pub precision: Option<&'static str>,
    pub precon: &'static str,
    pub halo_depth: usize,
}

impl SolverKeys {
    pub const fn plain(solver: &'static str) -> Self {
        SolverKeys {
            solver,
            precision: None,
            precon: "none",
            halo_depth: 1,
        }
    }
}

/// Geometry lines (states) of one seeded crooked pipe.
fn geometry_lines(rng: &mut Rng) -> String {
    let (wall, pipe) = (WALL_DENSITY, PIPE_DENSITY);
    let mut out = format!("state 1 density={wall} energy=0.0001\n");
    let mut index = 2;
    // inclusions first: a later state overwrites an earlier one, and the
    // pipe must stay intact
    for (x0, x1, y0, y1) in WALL_REGIONS {
        let w = rng.uniform(0.4, 0.9) * (x1 - x0);
        let h = rng.uniform(0.2, 0.5) * (y1 - y0);
        let xmin = rng.uniform(x0, x1 - w);
        let ymin = rng.uniform(y0, y1 - h);
        let density = wall * rng.uniform(0.5, 2.0);
        out.push_str(&format!(
            "state {index} density={density} energy=0.0001 geometry=rectangle \
             xmin={xmin} xmax={} ymin={ymin} ymax={}\n",
            xmin + w,
            ymin + h
        ));
        index += 1;
    }
    for (xmin, xmax, ymin, ymax, energy) in PIPE_LEGS {
        out.push_str(&format!(
            "state {index} density={pipe} energy={energy} geometry=rectangle \
             xmin={xmin} xmax={xmax} ymin={ymin} ymax={ymax}\n"
        ));
        index += 1;
    }
    out
}

fn deck_text(geometry: &str, cells: usize, steps: u64, keys: SolverKeys, tune_seed: u64) -> String {
    let mut out = String::from("*tea\n");
    out.push_str(geometry);
    out.push_str(&format!("x_cells={cells}\ny_cells={cells}\n"));
    out.push_str("xmin=0.0\nxmax=10.0\nymin=0.0\nymax=10.0\n");
    out.push_str("initial_timestep=0.04\nend_time=15.0\n");
    out.push_str(&format!("end_step={steps}\n"));
    out.push_str(&format!("tl_solver={}\n", keys.solver));
    if let Some(p) = keys.precision {
        out.push_str(&format!("tl_precision={p}\n"));
    }
    if keys.solver != "auto" {
        out.push_str(&format!("tl_preconditioner_type={}\n", keys.precon));
        out.push_str("tl_ppcg_inner_steps=16\n");
        out.push_str(&format!("tl_ppcg_halo_depth={}\n", keys.halo_depth));
    } else {
        out.push_str(&format!("tl_tune_seed={tune_seed}\n"));
    }
    // eps 1e-10 with a cap far above any honest iteration count, so a
    // timed solve never measures the cap
    out.push_str("tl_eps=1e-10\ntl_max_iters=20000\n");
    out.push_str("summary_frequency=0\n*endtea\n");
    out
}

/// The deck of one of the five single-deck workloads.
pub fn workload_deck(seed: u64, cells: usize, steps: u64, keys: SolverKeys) -> String {
    let geometry = geometry_lines(&mut Rng::new(seed));
    deck_text(&geometry, cells, steps, keys, 0)
}

/// The five solver configurations the serve mix cycles through.
const SERVE_SOLVERS: [SolverKeys; 5] = [
    SolverKeys::plain("cg"),
    SolverKeys {
        solver: "cg",
        precision: None,
        precon: "jac_block",
        halo_depth: 1,
    },
    SolverKeys {
        solver: "ppcg",
        precision: None,
        precon: "none",
        halo_depth: 4,
    },
    SolverKeys {
        solver: "ppcg",
        precision: Some("mixed"),
        precon: "none",
        halo_depth: 4,
    },
    SolverKeys::plain("amg"),
];

/// Sizes of the serve mix: small, cache-resident tiles where per-call
/// overhead rather than bandwidth is the cost.
const SERVE_SIZES: [usize; 6] = [48, 64, 80, 96, 112, 128];

/// Distinct decks in the serve mix (18 concrete + 2 `auto`).
pub const SERVE_DISTINCT: usize = 20;

/// One serve job: which distinct deck it is, and the deck text.
pub struct ServeJobText {
    pub deck_id: usize,
    pub label: String,
    pub text: String,
}

/// The serve mix: `jobs` jobs cycling [`SERVE_DISTINCT`] seeded decks,
/// submission order permuted by the seed.
pub fn serve_joblist(seed: u64, jobs: usize) -> Vec<ServeJobText> {
    let mut rng = Rng::new(seed ^ 0x5E27_E0DE);
    let mut distinct: Vec<(String, String)> = Vec::with_capacity(SERVE_DISTINCT);
    for d in 0..SERVE_DISTINCT - 2 {
        let keys = SERVE_SOLVERS[d % SERVE_SOLVERS.len()];
        let cells = SERVE_SIZES[(d / SERVE_SOLVERS.len() + d) % SERVE_SIZES.len()];
        let geometry = geometry_lines(&mut rng);
        let label = format!(
            "{}{}{}-{}",
            keys.solver,
            keys.precision.map(|p| format!("+{p}")).unwrap_or_default(),
            if keys.precon == "none" {
                String::new()
            } else {
                format!("+{}", keys.precon)
            },
            cells
        );
        distinct.push((label, deck_text(&geometry, cells, 2, keys, 0)));
    }
    for d in 0..2 {
        let geometry = geometry_lines(&mut rng);
        let tune_seed = 1 + rng.next_u64() % 1000;
        distinct.push((
            format!("auto{d}-64"),
            deck_text(&geometry, 64, 2, SolverKeys::plain("auto"), tune_seed),
        ));
    }
    let mut order: Vec<usize> = (0..jobs).map(|j| j % SERVE_DISTINCT).collect();
    rng.shuffle(&mut order);
    order
        .into_iter()
        .enumerate()
        .map(|(j, d)| ServeJobText {
            deck_id: d,
            label: format!("job{j}:{}", distinct[d].0),
            text: distinct[d].1.clone(),
        })
        .collect()
}
