//! `speedup` — measures the threaded kernel runtime against exact serial
//! execution and records the result machine-readably.
//!
//! For each mesh size it runs the crooked-pipe deck twice per solver
//! (CG and CPPCG-4): once with 1 worker thread (bit-for-bit the old
//! sequential runtime) and once with the requested worker count. It
//! reports the solve-wall speedup, asserts the two final temperature
//! fields are **bit-identical** (the runtime's determinism contract),
//! and writes everything to a JSON artefact (default `BENCH_PR10.json`)
//! so the performance trajectory of the repository is recorded per PR.
//!
//! It also micro-benches the hot kernels (`apply`, `apply_fused_dot`,
//! `residual`, `dot`, `axpy`, `scale_add`, `cg_update`, `fused_cheb`) on
//! crooked-pipe coefficients: each kernel first runs once at the benched
//! thread count and is compared **bitwise** against a scalar oracle built
//! in this file — the element-at-a-time loops of `vector::scalar_ref`
//! for elementwise output, a cell-by-cell evaluation of the stencil, and
//! the scalar model of the 16-lane reduction tree
//! (`scalar_ref::tree_sum`, rows folded in order) for every reduction —
//! then is timed and reported as a percent of the machine's *measured*
//! streaming peak (a flat-array fused update at the same thread count)
//! using the `tea-perfmodel` roofline byte counts. `--smoke` shrinks
//! every axis for CI.
//!
//! ```text
//! cargo run --release -p tea-bench --bin speedup -- \
//!     --sizes 512,1024,2048 --threads 4 --out BENCH_PR10.json
//! ```
//!
//! Timing honesty: the per-step solve is capped at `--max-iters`
//! iterations (default 300) so large meshes time a fixed, identical
//! amount of Krylov work in both configurations instead of waiting for
//! full convergence; the cap, tolerance and convergence flags are all
//! recorded in the artefact. Each configuration runs one discarded
//! warm-up solve (allocator and page-cache first-touch) and then
//! `--reps` timed runs per thread setting, keeping the minimum — the
//! standard defence against one-shot jitter contaminating a trajectory
//! artefact. The hardware thread count is recorded too — a speedup
//! claim from a 1-core container is visibly meaningless.
//!
//! `--require-speedup X` turns the ISSUE's acceptance criterion into a
//! checkable exit status: the CG speedup at the largest measured size
//! must reach `X` when the machine actually has the requested cores
//! (the check is skipped, loudly, when it does not).

use std::io::Write as _;
use std::path::PathBuf;
use tea_app::{crooked_pipe_deck, run_serial, Deck, RankOutput};
use tea_mesh::Field2D;

struct Args {
    sizes: Vec<usize>,
    steps: u64,
    threads: usize,
    max_iters: u64,
    eps: f64,
    reps: usize,
    kernel_cells: usize,
    smoke: bool,
    require_speedup: Option<f64>,
    out: PathBuf,
}

fn parse_args() -> Args {
    let hw = tea_core::hardware_threads();
    let mut args = Args {
        sizes: vec![512, 1024, 2048],
        steps: 1,
        threads: hw.max(2),
        max_iters: 300,
        eps: 1e-10,
        reps: 2,
        kernel_cells: 1024,
        smoke: false,
        require_speedup: None,
        out: PathBuf::from("BENCH_PR10.json"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_default();
        match flag.as_str() {
            "--sizes" => {
                args.sizes = value()
                    .split(',')
                    .map(|s| s.trim().parse().expect("--sizes"))
                    .collect()
            }
            "--steps" => args.steps = value().parse().expect("--steps"),
            "--threads" => args.threads = value().parse().expect("--threads"),
            "--max-iters" => args.max_iters = value().parse().expect("--max-iters"),
            "--eps" => args.eps = value().parse().expect("--eps"),
            "--reps" => args.reps = value().parse::<usize>().expect("--reps").max(1),
            "--kernel-cells" => args.kernel_cells = value().parse().expect("--kernel-cells"),
            "--smoke" => {
                args.smoke = true;
                args.sizes = vec![192];
                args.steps = 1;
                args.max_iters = 100;
                args.reps = 1;
                args.kernel_cells = 256;
            }
            "--require-speedup" => {
                args.require_speedup = Some(value().parse().expect("--require-speedup"))
            }
            "--out" => args.out = PathBuf::from(value()),
            "--help" | "-h" => {
                println!(
                    "speedup: serial vs threaded solve timing, JSON artefact\n\
                     --sizes a,b,..      mesh sizes per side (default 512,1024,2048)\n\
                     --steps N           time steps per run (default 1)\n\
                     --threads N         threaded worker count (default max(cores, 2))\n\
                     --max-iters N       per-step iteration cap (default 300)\n\
                     --eps E             solver tolerance (default 1e-10)\n\
                     --reps N            timed runs per config, min kept (default 2)\n\
                     --kernel-cells N    mesh side for the kernel roofline bench (default 1024)\n\
                     --smoke             tiny sizes/reps everywhere, for CI\n\
                     --require-speedup X fail unless CG at the largest size reaches X\n\
                     \x20                   (skipped when the hardware lacks the cores)\n\
                     --out FILE          JSON artefact path (default BENCH_PR10.json)"
                );
                std::process::exit(0);
            }
            other => panic!("unknown flag {other}"),
        }
    }
    args
}

fn deck_for(solver: &str, cells: usize, args: &Args) -> Deck {
    let mut deck = crooked_pipe_deck(cells, solver);
    deck.control.end_step = args.steps;
    deck.control.summary_frequency = 0;
    deck.control.opts.eps = args.eps;
    deck.control.opts.max_iters = args.max_iters;
    if solver == "ppcg" {
        deck.control.ppcg_halo_depth = 4;
        deck.control.ppcg_inner_steps = 16;
    }
    deck
}

/// Solve wall seconds (sum over steps, excludes assembly/diagnostics).
fn solve_wall(out: &RankOutput) -> f64 {
    out.steps.iter().map(|s| s.wall).sum()
}

/// Exact bitwise equality of two interior temperature fields.
fn bit_identical(a: &Field2D, b: &Field2D) -> bool {
    if a.nx() != b.nx() || a.ny() != b.ny() {
        return false;
    }
    for k in 0..a.ny() as isize {
        for j in 0..a.nx() as isize {
            if a.at(j, k).to_bits() != b.at(j, k).to_bits() {
                return false;
            }
        }
    }
    true
}

struct Row {
    solver: &'static str,
    cells: usize,
    serial_s: f64,
    threaded_s: f64,
    iterations: u64,
    converged: bool,
    bit_identical: bool,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.serial_s / self.threaded_s
    }
}

fn measure(solver: &str, label: &'static str, cells: usize, args: &Args) -> Row {
    let deck = deck_for(solver, cells, args);

    // discarded warm-up: allocator, page cache, branch predictors
    tea_core::set_num_threads(1);
    let _ = run_serial(&deck).expect("deck runs");

    // alternate serial/threaded reps and keep the minimum of each, so
    // slow outliers (scheduler noise, background load) cannot bias the
    // recorded trajectory toward either configuration
    let mut serial_s = f64::INFINITY;
    let mut threaded_s = f64::INFINITY;
    let mut serial = None;
    let mut threaded = None;
    for _ in 0..args.reps {
        tea_core::set_num_threads(1);
        let run = run_serial(&deck).expect("deck runs");
        serial_s = serial_s.min(solve_wall(&run));
        serial = Some(run);

        tea_core::set_num_threads(args.threads);
        let run = run_serial(&deck).expect("deck runs");
        threaded_s = threaded_s.min(solve_wall(&run));
        threaded = Some(run);
    }
    tea_core::set_num_threads(1);
    let (serial, threaded) = (serial.unwrap(), threaded.unwrap());

    let identical = bit_identical(
        serial.final_u.as_ref().expect("serial gathers the field"),
        threaded.final_u.as_ref().expect("threaded gathers"),
    );
    assert!(
        identical,
        "{label} at {cells}^2: threaded result diverged from serial — determinism contract broken"
    );
    Row {
        solver: label,
        cells,
        serial_s,
        threaded_s,
        iterations: serial.steps.iter().map(|s| s.iterations).sum(),
        converged: serial.steps.iter().all(|s| s.converged),
        bit_identical: identical,
    }
}

/// One measured hot-kernel point of the roofline section.
struct KernelRow {
    name: &'static str,
    cells: usize,
    bytes_per_cell: f64,
    flops_per_cell: f64,
    seconds: f64,
    gbs: f64,
    pct_peak: f64,
    lane_bits_ok: bool,
}

/// Interior values of a field, row-major.
fn interior(f: &Field2D) -> Vec<f64> {
    f.iter_interior().map(|(_, _, v)| v).collect()
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Measured streaming peak: a threaded flat-array fused update
/// (`a[i] += b[i] + s·c[i]`, 32 B/element) over arrays far larger than
/// LLC, minimum of `reps` runs. This is the denominator of every
/// percent-of-peak figure — measured on this machine at the same thread
/// count the kernels run with, not quoted from a spec sheet. The
/// read-modify-write form (rather than STREAM's pure-store triad) makes
/// the counted bytes equal the moved bytes: a store-only destination
/// hides a write-allocate read the 24 B/element accounting misses,
/// which would sandbag the peak against kernels that read what they
/// write (axpy, scale_add) and push their percent-of-peak over 100.
fn streaming_peak(threads: usize, reps: usize, smoke: bool) -> f64 {
    let n: usize = if smoke { 1 << 20 } else { 1 << 23 };
    let b = vec![1.5f64; n];
    let c = vec![2.5f64; n];
    let mut a = vec![0.0f64; n];
    let t = threads.max(1);
    let chunk = n.div_ceil(t);
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(2) + 1 {
        let start = std::time::Instant::now();
        std::thread::scope(|s| {
            for ((ac, bc), cc) in a
                .chunks_mut(chunk)
                .zip(b.chunks(chunk))
                .zip(c.chunks(chunk))
            {
                s.spawn(move || {
                    // zips, not indexing: bounds checks would keep this
                    // loop scalar and sandbag the peak the kernels are
                    // scored against
                    for ((av, &bv), &cv) in ac.iter_mut().zip(bc).zip(cc) {
                        *av += bv + 3.0 * cv;
                    }
                });
            }
        });
        // first run is the page-fault warm-up; keep the min of the rest
        best = best.min(start.elapsed().as_secs_f64());
    }
    std::hint::black_box(&a);
    n as f64 * 32.0 / best
}

/// Runs one hot kernel: asserts its output at the benched thread count
/// is bit-identical to `oracle` (scalar loops and the scalar reduction
/// tree model, see the module docs), then times it and scores it
/// against the measured streaming peak.
#[allow(clippy::too_many_arguments)]
fn bench_kernel(
    name: &'static str,
    threads: usize,
    reps: usize,
    sweeps: usize,
    cells: f64,
    peak: f64,
    oracle: &[f64],
    once: &mut dyn FnMut() -> Vec<f64>,
    many: &mut dyn FnMut(usize) -> f64,
) -> KernelRow {
    tea_core::set_num_threads(threads);
    let lane_bits_ok = bits(&once()) == bits(oracle);
    assert!(
        lane_bits_ok,
        "{name}: kernel diverged from its scalar oracle"
    );

    let _ = many(sweeps.div_ceil(4)); // warm-up, discarded
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        best = best.min(many(sweeps) / sweeps as f64);
    }
    tea_core::set_num_threads(1);

    let model = tea_perfmodel::kernel_roofline(name).expect("modelled kernel");
    KernelRow {
        name,
        cells: cells as usize,
        bytes_per_cell: model.bytes_per_cell(8.0),
        flops_per_cell: model.flops_per_cell,
        seconds: best,
        gbs: model.achieved_bandwidth(cells, 8.0, best) / 1e9,
        pct_peak: model.percent_of_peak(cells, 8.0, best, peak),
        lane_bits_ok,
    }
}

/// The per-kernel roofline bench on crooked-pipe coefficients.
fn kernel_bench(args: &Args, peak: f64) -> Vec<KernelRow> {
    use tea_core::vector::{self, scalar_ref};
    use tea_core::{SolveTrace, TileBounds, TileOperator};
    use tea_mesh::{crooked_pipe, timestep_scalings, Coefficients, Mesh2D};

    let n = args.kernel_cells;
    let halo = 2;
    let problem = crooked_pipe(n);
    let mesh = Mesh2D::serial(n, n, problem.extent);
    let mut density = Field2D::new(n, n, halo);
    let mut energy = Field2D::new(n, n, halo);
    problem.apply_states(&mesh, &mut density, &mut energy);
    let (rx, ry) = timestep_scalings(&mesh, 0.04);
    let coeffs = Coefficients::assemble(&mesh, &density, problem.coefficient, rx, ry, halo);
    let op = TileOperator::new(coeffs, TileBounds::serial(n, n));
    let bounds = op.bounds;

    // deterministic, non-uniform inputs so no kernel sees degenerate data
    fn field(n: usize, halo: usize, seed: f64) -> Field2D {
        let mut f = Field2D::new(n, n, halo);
        for k in 0..n as isize {
            let row = f.row_mut(k, 0, n as isize);
            for (j, v) in row.iter_mut().enumerate() {
                *v = 1.0 + seed * ((j % 17) as f64 + (k as usize % 13) as f64) * 1e-3;
            }
        }
        f
    }
    let p = field(n, halo, 1.0);
    let u0 = field(n, halo, 2.0);
    let sweeps = if args.smoke { 8 } else { 24 };
    let cells = (n * n) as f64;
    let reps = args.reps;
    let threads = args.threads;

    // scalar oracles: A·p cell by cell in the kernels' association, the
    // scalar_ref loops over the flattened interior, and reductions as
    // per-row tree sums folded in row order
    let (kx, ky) = (&op.coeffs.kx, &op.coeffs.ky);
    let mut ap = Vec::with_capacity(n * n);
    for k in 0..n as isize {
        for j in 0..n as isize {
            let diag = 1.0 + (ky.at(j, k + 1) + ky.at(j, k)) + (kx.at(j + 1, k) + kx.at(j, k));
            ap.push(
                diag * p.at(j, k)
                    - (ky.at(j, k + 1) * p.at(j, k + 1) + ky.at(j, k) * p.at(j, k - 1))
                    - (kx.at(j + 1, k) * p.at(j + 1, k) + kx.at(j, k) * p.at(j - 1, k)),
            );
        }
    }
    let (pv, u0v) = (interior(&p), interior(&u0));
    let tree = |a: &[f64], b: &[f64]| -> f64 {
        let prods: Vec<f64> = a.iter().zip(b).map(|(x, y)| x * y).collect();
        prods
            .chunks(n)
            .fold(0.0, |acc, row| acc + scalar_ref::tree_sum(row))
    };
    let axpy_oracle = |seed: f64, a: f64, x: &[f64]| -> Vec<f64> {
        let mut y = interior(&field(n, halo, seed));
        scalar_ref::axpy_row(&mut y, a, x);
        y
    };
    let mut rows = Vec::new();

    rows.push(bench_kernel(
        "apply",
        threads,
        reps,
        sweeps,
        cells,
        peak,
        &ap,
        &mut || {
            let mut w = Field2D::new(n, n, halo);
            op.apply(&p, &mut w, 0, &mut SolveTrace::new("k"));
            interior(&w)
        },
        &mut |s| {
            let mut w = Field2D::new(n, n, halo);
            let mut tr = SolveTrace::new("k");
            let t0 = std::time::Instant::now();
            for _ in 0..s {
                op.apply(&p, &mut w, 0, &mut tr);
            }
            t0.elapsed().as_secs_f64()
        },
    ));

    let mut fused_oracle = ap.clone();
    fused_oracle.push(tree(&pv, &ap));
    rows.push(bench_kernel(
        "apply_fused_dot",
        threads,
        reps,
        sweeps,
        cells,
        peak,
        &fused_oracle,
        &mut || {
            let mut w = Field2D::new(n, n, halo);
            let pw = op.apply_fused_dot(&p, &mut w, &mut SolveTrace::new("k"));
            let mut out = interior(&w);
            out.push(pw);
            out
        },
        &mut |s| {
            let mut w = Field2D::new(n, n, halo);
            let mut tr = SolveTrace::new("k");
            let t0 = std::time::Instant::now();
            let mut acc = 0.0;
            for _ in 0..s {
                acc += op.apply_fused_dot(&p, &mut w, &mut tr);
            }
            std::hint::black_box(acc);
            t0.elapsed().as_secs_f64()
        },
    ));

    let residual_oracle: Vec<f64> = u0v.iter().zip(&ap).map(|(b, v)| b - v).collect();
    rows.push(bench_kernel(
        "residual",
        threads,
        reps,
        sweeps,
        cells,
        peak,
        &residual_oracle,
        &mut || {
            let mut r = Field2D::new(n, n, halo);
            op.residual(&p, &u0, &mut r, 0, &mut SolveTrace::new("k"));
            interior(&r)
        },
        &mut |s| {
            let mut r = Field2D::new(n, n, halo);
            let mut tr = SolveTrace::new("k");
            let t0 = std::time::Instant::now();
            for _ in 0..s {
                op.residual(&p, &u0, &mut r, 0, &mut tr);
            }
            t0.elapsed().as_secs_f64()
        },
    ));

    rows.push(bench_kernel(
        "dot",
        threads,
        reps,
        sweeps,
        cells,
        peak,
        &[tree(&pv, &u0v)],
        &mut || {
            vec![vector::dot_local(
                &p,
                &u0,
                &bounds,
                &mut SolveTrace::new("k"),
            )]
        },
        &mut |s| {
            let mut tr = SolveTrace::new("k");
            let t0 = std::time::Instant::now();
            let mut acc = 0.0;
            for _ in 0..s {
                acc += vector::dot_local(&p, &u0, &bounds, &mut tr);
            }
            std::hint::black_box(acc);
            t0.elapsed().as_secs_f64()
        },
    ));

    rows.push(bench_kernel(
        "axpy",
        threads,
        reps,
        sweeps,
        cells,
        peak,
        &axpy_oracle(3.0, 0.25, &pv),
        &mut || {
            let mut y = field(n, halo, 3.0);
            vector::axpy(&mut y, 0.25, &p, &bounds, 0, &mut SolveTrace::new("k"));
            interior(&y)
        },
        &mut |s| {
            let mut y = field(n, halo, 3.0);
            let mut tr = SolveTrace::new("k");
            let t0 = std::time::Instant::now();
            for _ in 0..s {
                vector::axpy(&mut y, 1e-3, &p, &bounds, 0, &mut tr);
            }
            t0.elapsed().as_secs_f64()
        },
    ));

    let mut scale_add_oracle = interior(&field(n, halo, 4.0));
    scalar_ref::scale_add_row(&mut scale_add_oracle, 0.5, 0.5, &pv);
    rows.push(bench_kernel(
        "scale_add",
        threads,
        reps,
        sweeps,
        cells,
        peak,
        &scale_add_oracle,
        &mut || {
            let mut y = field(n, halo, 4.0);
            vector::scale_add(&mut y, 0.5, 0.5, &p, &bounds, 0, &mut SolveTrace::new("k"));
            interior(&y)
        },
        &mut |s| {
            let mut y = field(n, halo, 4.0);
            let mut tr = SolveTrace::new("k");
            let t0 = std::time::Instant::now();
            for _ in 0..s {
                vector::scale_add(&mut y, 0.5, 0.5, &p, &bounds, 0, &mut tr);
            }
            t0.elapsed().as_secs_f64()
        },
    ));

    // CG's fused update: u += αp, r −= αw (w = u0 here), Σ r·r
    let alpha = 0.25;
    let mut update_oracle = axpy_oracle(7.0, alpha, &pv);
    let r_new = axpy_oracle(8.0, -alpha, &u0v);
    update_oracle.extend(&r_new);
    update_oracle.push(tree(&r_new, &r_new));
    let cg_update = |u: &mut Field2D, r: &mut Field2D, a: f64, tr: &mut SolveTrace| {
        vector::cg_update(u, r, a, &p, &u0, None, &bounds, tr)
    };
    rows.push(bench_kernel(
        "cg_update",
        threads,
        reps,
        sweeps,
        cells,
        peak,
        &update_oracle,
        &mut || {
            let (mut u, mut r) = (field(n, halo, 7.0), field(n, halo, 8.0));
            let rz = cg_update(&mut u, &mut r, alpha, &mut SolveTrace::new("k"));
            let mut out = interior(&u);
            out.extend(interior(&r));
            out.push(rz);
            out
        },
        &mut |s| {
            let (mut u, mut r) = (field(n, halo, 7.0), field(n, halo, 8.0));
            let mut tr = SolveTrace::new("k");
            let t0 = std::time::Instant::now();
            let mut acc = 0.0;
            for _ in 0..s {
                acc += cg_update(&mut u, &mut r, 1e-3, &mut tr);
            }
            std::hint::black_box(acc);
            t0.elapsed().as_secs_f64()
        },
    ));

    let mut cheb_oracle = axpy_oracle(5.0, 1.0, &pv);
    cheb_oracle.extend(axpy_oracle(6.0, -1.0, &ap));
    rows.push(bench_kernel(
        "fused_cheb",
        threads,
        reps,
        sweeps,
        cells,
        peak,
        &cheb_oracle,
        &mut || {
            let mut z = field(n, halo, 5.0);
            let mut rr = field(n, halo, 6.0);
            op.apply_cheb_fused(&p, &mut z, &mut rr, 0, &mut SolveTrace::new("k"));
            let mut out = interior(&z);
            out.extend(interior(&rr));
            out
        },
        &mut |s| {
            let mut z = field(n, halo, 5.0);
            let mut rr = field(n, halo, 6.0);
            let mut tr = SolveTrace::new("k");
            let t0 = std::time::Instant::now();
            for _ in 0..s {
                op.apply_cheb_fused(&p, &mut z, &mut rr, 0, &mut tr);
            }
            t0.elapsed().as_secs_f64()
        },
    ));

    rows
}

/// Modelled bytes/iteration of the fused PPCG inner sweep vs the
/// pre-fusion schedule — the artefact records both so the fusion's
/// traffic saving is a checked number, not a claim.
fn fused_model(inner_steps: usize) -> (f64, f64) {
    let kb = tea_perfmodel::KernelBytes::default();
    let fused = tea_perfmodel::predicted_iteration_bytes("ppcg", inner_steps, &kb);
    let sweep = kb.spmv + 3.0 * kb.vector + kb.precon;
    let unfused = sweep + kb.dot + inner_steps as f64 * sweep;
    assert!(
        fused < unfused,
        "fused Chebyshev sweep must reduce modelled bytes/iteration: {fused} vs {unfused}"
    );
    (fused, unfused)
}

fn write_json(
    args: &Args,
    hw_threads: usize,
    rows: &[Row],
    peak: f64,
    kernels: &[KernelRow],
) -> std::io::Result<()> {
    let inner = 16usize;
    let (fused, unfused) = fused_model(inner);
    let mut f = std::fs::File::create(&args.out)?;
    writeln!(f, "{{")?;
    writeln!(f, "  \"bench\": \"speedup\",")?;
    writeln!(f, "  \"pr\": 10,")?;
    writeln!(f, "  \"workload\": \"crooked_pipe\",")?;
    writeln!(f, "  \"hardware_threads\": {hw_threads},")?;
    writeln!(f, "  \"threads\": {},", args.threads)?;
    writeln!(f, "  \"par_threshold\": {},", tea_core::par_threshold())?;
    writeln!(f, "  \"steps\": {},", args.steps)?;
    writeln!(f, "  \"max_iters\": {},", args.max_iters)?;
    writeln!(f, "  \"eps\": {:e},", args.eps)?;
    writeln!(f, "  \"reps\": {},", args.reps)?;
    writeln!(f, "  \"streaming_peak_gbs\": {:.3},", peak / 1e9)?;
    writeln!(f, "  \"kernels\": [")?;
    for (i, k) in kernels.iter().enumerate() {
        let comma = if i + 1 < kernels.len() { "," } else { "" };
        writeln!(
            f,
            "    {{\"kernel\": \"{}\", \"cells\": {}, \"bytes_per_cell\": {}, \
             \"flops_per_cell\": {}, \"seconds\": {:.6e}, \"gbs\": {:.3}, \
             \"pct_streaming_peak\": {:.2}, \"lane_bits_ok\": {}}}{comma}",
            k.name,
            k.cells,
            k.bytes_per_cell,
            k.flops_per_cell,
            k.seconds,
            k.gbs,
            k.pct_peak,
            k.lane_bits_ok,
        )?;
    }
    writeln!(f, "  ],")?;
    writeln!(
        f,
        "  \"model\": {{\"ppcg_inner_steps\": {inner}, \
         \"fused_bytes_per_iteration\": {fused}, \
         \"unfused_bytes_per_iteration\": {unfused}}},"
    )?;
    writeln!(f, "  \"results\": [")?;
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        writeln!(
            f,
            "    {{\"solver\": \"{}\", \"cells\": {}, \"serial_s\": {:.6}, \
             \"threaded_s\": {:.6}, \"speedup\": {:.4}, \"iterations\": {}, \
             \"converged\": {}, \"bit_identical\": {}}}{comma}",
            r.solver,
            r.cells,
            r.serial_s,
            r.threaded_s,
            r.speedup(),
            r.iterations,
            r.converged,
            r.bit_identical,
        )?;
    }
    writeln!(f, "  ]")?;
    writeln!(f, "}}")?;
    Ok(())
}

fn main() {
    let args = parse_args();
    let hw_threads = tea_core::hardware_threads();
    println!(
        "speedup: {} hardware thread(s), timing serial (1) vs threaded ({})",
        hw_threads, args.threads
    );
    if hw_threads < args.threads {
        println!(
            "warning: only {hw_threads} hardware thread(s) available — \
             threaded times will not show real speedup on this machine"
        );
    }

    // kernel roofline: measured streaming peak, then the hot kernels
    // scored against it (each gated on bit-identity to its scalar oracle)
    let peak = streaming_peak(args.threads, args.reps, args.smoke);
    println!(
        "streaming peak (fused update, {} threads): {:.2} GB/s",
        args.threads,
        peak / 1e9
    );
    let kernels = kernel_bench(&args, peak);
    println!(
        "{:>15} {:>8} {:>7} {:>7} {:>12} {:>9} {:>7} {:>6}",
        "kernel", "cells", "B/cell", "F/cell", "s/sweep", "GB/s", "%peak", "bits"
    );
    for k in &kernels {
        println!(
            "{:>15} {:>8} {:>7} {:>7} {:>12.3e} {:>9.2} {:>7.1} {:>6}",
            k.name,
            k.cells,
            k.bytes_per_cell,
            k.flops_per_cell,
            k.seconds,
            k.gbs,
            k.pct_peak,
            if k.lane_bits_ok { "ok" } else { "FAIL" }
        );
    }

    let configs = [("cg", "CG"), ("ppcg", "PPCG-4")];
    let mut rows = Vec::new();
    println!(
        "{:>8} {:>8} {:>12} {:>12} {:>9} {:>7} {:>6}",
        "solver", "cells", "serial(s)", "threaded(s)", "speedup", "iters", "bits"
    );
    for &cells in &args.sizes {
        for (solver, label) in configs {
            let row = measure(solver, label, cells, &args);
            println!(
                "{:>8} {:>8} {:>12.4} {:>12.4} {:>9.3} {:>7} {:>6}",
                row.solver,
                row.cells,
                row.serial_s,
                row.threaded_s,
                row.speedup(),
                row.iterations,
                if row.bit_identical { "ok" } else { "FAIL" }
            );
            rows.push(row);
        }
    }

    write_json(&args, hw_threads, &rows, peak, &kernels).expect("write JSON artefact");
    println!("wrote {}", args.out.display());

    if let Some(required) = args.require_speedup {
        if hw_threads < args.threads {
            println!(
                "require-speedup {required}: SKIPPED — {} worker(s) requested but only \
                 {hw_threads} hardware thread(s) present; no parallel speedup is physically \
                 possible here",
                args.threads
            );
            return;
        }
        let max_cells = rows.iter().map(|r| r.cells).max().unwrap_or(0);
        let cg = rows
            .iter()
            .find(|r| r.solver == "CG" && r.cells == max_cells)
            .expect("CG row at the largest size");
        let got = cg.speedup();
        assert!(
            got >= required,
            "require-speedup: CG at {max_cells}^2 reached {got:.3}x with {} threads, \
             needed {required}x",
            args.threads
        );
        println!("require-speedup {required}: OK — CG at {max_cells}^2 reached {got:.3}x");
    }
}
