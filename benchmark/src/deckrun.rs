//! One rep of a deck workload, two ways.
//!
//! [`untraced_rep`] is the user path: deck text → `parse_deck` →
//! `run_serial` / `run_threaded_ranks` → `write_field_csv`, timed from
//! outside with no spans. [`mirror_rep`] re-expresses `tea_app`'s
//! `run_rank` step loop over the same public calls with a span around
//! each, and must produce the same bits.

use crate::catalog::DeckSpec;
use crate::spans::{Recorder, Span, SpanLog};
use crate::util::{exceeds, fnv_bits};
use std::path::Path;
use std::time::Instant;
use tea_amg::MgTrace;
use tea_app::{field_summary, parse_deck, write_field_csv, Deck, RankOutput, StepRecord};
use tea_comms::{exchange_halo, gather_to_root, Communicator, HaloLayout, SerialComm};
use tea_core::{
    Assembly, DynTile, SolveContext, SolveStatus, SolveTrace, Tile, TileBounds, TileOperator,
    Workspace,
};
use tea_mesh::{timestep_scalings, Coefficients, Decomposition2D, Field2D, Mesh2D};
use tea_tune::TuneLog;

/// Everything about a rep that must repeat bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub struct Exact {
    pub step_iterations: Vec<u64>,
    /// Rank 0's solver protocol (identical on every rank).
    pub trace: SolveTrace,
    /// Communication counters summed over ranks.
    pub comm: tea_comms::StatsSnapshot,
    pub deck_bytes: u64,
    pub output_bytes: u64,
    pub field_hash: u64,
}

/// Wall-clock intervals of one rep.
#[derive(Debug, Clone, Default)]
pub struct Timing {
    /// Deck text in → field file written.
    pub time_to_solution: f64,
    pub parse: f64,
    /// `run_serial` / `run_threaded_ranks` wall.
    pub driver: f64,
    /// Σ `StepRecord.wall` per rank.
    pub rank_solve: Vec<f64>,
}

impl Timing {
    /// The driver's own prepare + solve interval, rank 0.
    pub fn solve(&self) -> f64 {
        self.rank_solve[0]
    }

    /// What the user pays before iterating that is not output.
    pub fn setup(&self) -> f64 {
        self.parse + (self.driver - self.solve())
    }
}

pub struct Rep {
    pub timing: Timing,
    pub exact: Exact,
    /// The gathered answer; the harness drops it from every rep but the
    /// first once the hash in `exact` has been taken.
    pub final_u: Option<Field2D>,
    /// Why the rep counts as a failed operation, if it does.
    pub failure: Option<String>,
}

/// Per-step facts only the mirror sees.
pub struct MirrorFacts {
    /// `‖b − A·u‖₂` of the last step at exit, recomputed by the harness.
    pub true_residual: f64,
    /// `‖b − A·u₀‖₂` of the last step (warm start `u₀ = b`).
    pub true_initial_residual: f64,
    /// The last solve's own exit residual.
    pub recurrence_residual: f64,
    /// Every step's solve ended `SolveStatus::Converged`.
    pub all_converged_status: bool,
    /// Cells swept beyond the interior ÷ interior cells swept, rank 0.
    pub redundant_cell_fraction: f64,
    /// Rank 0's tile.
    pub tile: (usize, usize),
}

fn step_failure(eps: f64, steps: &[StepRecord]) -> Option<String> {
    for s in steps {
        if !s.converged {
            return Some(format!("step {} hit the iteration cap", s.step));
        }
        if exceeds(s.final_residual, eps * s.initial_residual) {
            return Some(format!(
                "step {}: final residual {:e} above eps x initial {:e}",
                s.step, s.final_residual, s.initial_residual
            ));
        }
    }
    None
}

fn exact_of(outs: &[RankOutput], deck_bytes: usize, output_bytes: u64, final_u: &Field2D) -> Exact {
    let mut comm = tea_comms::StatsSnapshot::default();
    for o in outs {
        comm.merge(&o.comm);
    }
    Exact {
        step_iterations: outs[0].steps.iter().map(|s| s.iterations).collect(),
        trace: outs[0].trace.clone(),
        comm,
        deck_bytes: deck_bytes as u64,
        output_bytes,
        field_hash: fnv_bits(final_u.iter_interior().map(|(_, _, v)| v)),
    }
}

fn finish_rep(
    mut outs: Vec<RankOutput>,
    deck: &Deck,
    deck_bytes: usize,
    csv: &Path,
    mut timing: Timing,
    started: Instant,
    rec: Option<&mut Recorder>,
) -> Result<Rep, String> {
    let final_u = outs[0]
        .final_u
        .take()
        .ok_or("rank 0 returned no gathered field")?;
    let t = Instant::now();
    write_field_csv(&final_u, csv).map_err(|e| format!("writing {}: {e}", csv.display()))?;
    let done = Instant::now();
    if let Some(rec) = rec {
        rec.record("app.write_field_csv", t, done);
    }
    timing.time_to_solution = (done - started).as_secs_f64();
    timing.rank_solve = outs
        .iter()
        .map(|o| o.steps.iter().map(|s| s.wall).sum())
        .collect();
    let output_bytes = std::fs::metadata(csv).map_err(|e| e.to_string())?.len();
    let failure = step_failure(deck.control.opts.eps, &outs[0].steps);
    Ok(Rep {
        exact: exact_of(&outs, deck_bytes, output_bytes, &final_u),
        timing,
        final_u: Some(final_u),
        failure,
    })
}

/// The decomposition the drivers use: `run_serial`'s 1×1 grid, or
/// `run_threaded_ranks`' automatic process grid.
pub fn decomposition(nx: usize, ny: usize, ranks: usize) -> Decomposition2D {
    if ranks == 1 {
        Decomposition2D::with_grid(nx, ny, 1, 1)
    } else {
        Decomposition2D::new(nx, ny, ranks)
    }
}

/// The user path, timed from outside.
pub fn untraced_rep(spec: &DeckSpec, text: &str, csv: &Path) -> Result<Rep, String> {
    let started = Instant::now();
    let deck = parse_deck(text)?;
    let parsed = Instant::now();
    let outs = if spec.ranks == 1 {
        vec![tea_app::run_serial(&deck).map_err(|e| e.to_string())?]
    } else {
        tea_app::run_threaded_ranks(&deck, spec.ranks).map_err(|e| e.to_string())?
    };
    let timing = Timing {
        parse: (parsed - started).as_secs_f64(),
        driver: parsed.elapsed().as_secs_f64(),
        ..Timing::default()
    };
    finish_rep(outs, &deck, text.len(), csv, timing, started, None)
}

/// The traced path: the same work through the mirror driver. Returns the
/// rep, the facts only the mirror can see, and appends the rep's spans
/// (lane = rank) to `log`.
pub fn mirror_rep(
    spec: &DeckSpec,
    text: &str,
    csv: &Path,
    epoch: Instant,
    rep_id: usize,
    log: &mut SpanLog,
) -> Result<(Rep, MirrorFacts), String> {
    let started = Instant::now();
    let mut root = Recorder::new(epoch, rep_id, 0);
    let rep_span = root.open("bench.rep");
    let deck = root.scope("app.parse_deck", || parse_deck(text))?;
    let parsed = Instant::now();

    let run = root.open("app.run_ranks");
    let decomp = decomposition(deck.problem.x_cells, deck.problem.y_cells, spec.ranks);
    let per_rank: Vec<RankResult> = if spec.ranks == 1 {
        vec![mirror_rank(
            &deck,
            &decomp,
            &SerialComm::new(),
            epoch,
            rep_id,
        )]
    } else {
        tea_comms::run_threaded(decomp.ranks(), |comm| {
            mirror_rank(&deck, &decomp, comm, epoch, rep_id)
        })
    };
    root.close(run);
    let timing = Timing {
        parse: (parsed - started).as_secs_f64(),
        driver: parsed.elapsed().as_secs_f64(),
        ..Timing::default()
    };

    let mut outs = Vec::new();
    let mut facts = None;
    let mut rank_spans = Vec::new();
    for r in per_rank {
        let (out, f, spans) = r?;
        outs.push(out);
        facts.get_or_insert(f);
        rank_spans.push(spans);
    }
    let rep = finish_rep(
        outs,
        &deck,
        text.len(),
        csv,
        timing,
        started,
        Some(&mut root),
    )?;
    root.close(rep_span);
    let base = log.absorb(root.finish(), None);
    for spans in rank_spans {
        log.absorb(spans, Some(base + run));
    }
    Ok((rep, facts.expect("at least one rank")))
}

/// What one rank of the mirror returns: the driver's own output type,
/// the facts only the mirror sees, and the rank's spans.
pub type RankResult = Result<(RankOutput, MirrorFacts, Vec<Span>), String>;

/// `tea_app::run_rank`, call for call, with a span around each call
/// into a crate. Any change to the driver's step loop must be repeated
/// here; the bit-identity check between this and the untraced rep is
/// what notices if it was not.
pub fn mirror_rank<C: Communicator + ?Sized>(
    deck: &Deck,
    decomp: &Decomposition2D,
    comm: &C,
    epoch: Instant,
    rep_id: usize,
) -> RankResult {
    let mut rec = Recorder::new(epoch, rep_id, comm.rank());
    let run = rec.open("app.run_rank");
    let problem = &deck.problem;
    let control = &deck.control;
    problem.validate()?;

    let registry = tea_app::solver_registry();
    let solver_name = control.effective_solver()?;
    let mut solver = rec
        .scope("core.registry_create", || {
            registry.create(&solver_name, &control.solver_params())
        })
        .map_err(|e| e.to_string())?;

    let mesh = rec.scope("mesh.mesh_new", || {
        Mesh2D::new(decomp, comm.rank(), problem.extent)
    });
    let layout = HaloLayout::new(decomp, comm.rank());
    let halo = solver.halo_depth().max(1);
    let (nx, ny) = (mesh.nx(), mesh.ny());

    let mut density = Field2D::new(nx, ny, halo + 1);
    let mut energy = Field2D::new(nx, ny, halo + 1);
    rec.scope("mesh.apply_states", || {
        problem.apply_states(&mesh, &mut density, &mut energy)
    });

    let (rx, ry) = timestep_scalings(&mesh, control.dt);
    let bounds = TileBounds::new(&mesh, halo);
    let mut u = Field2D::new(nx, ny, halo);
    let mut b = Field2D::new(nx, ny, halo);
    let mut ws = Workspace::new(nx, ny, halo);
    let mut trace = SolveTrace::new(solver.label());
    let mut steps = Vec::new();
    let mut all_converged_status = true;
    let mut recurrence_residual = 0.0;

    let nsteps = control.steps();
    let mut time = 0.0;
    for step in 1..=nsteps {
        let step_span = rec.open("app.step");
        let coeffs = rec.scope("mesh.assemble", || {
            Coefficients::assemble(&mesh, &density, problem.coefficient, rx, ry, halo + 1)
        });
        let op = TileOperator::new(coeffs, bounds);
        let tile: DynTile<'_> = Tile::new(&op, &layout, comm.as_dyn());
        let ctx = SolveContext::with_assembly(
            &tile,
            Assembly {
                density: &density,
                coefficient: problem.coefficient,
                rx,
                ry,
            },
        );
        rec.scope("app.build_rhs", || {
            for k in 0..ny as isize {
                let dr = density.row(k, 0, nx as isize);
                let er = energy.row(k, 0, nx as isize);
                let br = b.row_mut(k, 0, nx as isize);
                for i in 0..br.len() {
                    br[i] = dr[i] * er[i];
                }
            }
            u.copy_interior_from(&b);
        });

        let started = Instant::now();
        rec.scope("core.prepare", || solver.prepare(&ctx, &control.opts));
        let result = rec.scope("core.solve", || {
            solver.solve(&ctx, &mut u, &b, &mut ws, &mut trace)
        });
        let wall = started.elapsed().as_secs_f64();
        all_converged_status &= result.status == SolveStatus::Converged;
        recurrence_residual = result.final_residual;

        rec.scope("app.fold_back", || {
            for k in 0..ny as isize {
                let ur = u.row(k, 0, nx as isize);
                let dr = density.row(k, 0, nx as isize);
                let er = energy.row_mut(k, 0, nx as isize);
                for i in 0..er.len() {
                    er[i] = ur[i] / dr[i];
                }
            }
        });

        time += control.dt;
        let report = control.summary_frequency > 0 && step % control.summary_frequency == 0;
        let summary = if report || step == nsteps {
            Some(rec.scope("app.field_summary", || {
                field_summary(&mesh, &density, &energy, &u, comm)
            }))
        } else {
            None
        };
        steps.push(StepRecord {
            step,
            time,
            iterations: result.iterations,
            converged: result.converged,
            initial_residual: result.initial_residual,
            final_residual: result.final_residual,
            summary,
            wall,
        });
        rec.close(step_span);
    }

    let (mg_trace, tune) = match solver.take_diagnostics() {
        None => (None, None),
        Some(d) => match d.downcast::<MgTrace>() {
            Ok(mg) => (Some(*mg), None),
            Err(d) => (None, d.downcast::<TuneLog>().ok().map(|t| *t)),
        },
    };
    let comm_stats = comm.stats().snapshot();
    let final_summary = rec.scope("app.field_summary", || {
        field_summary(&mesh, &density, &energy, &u, comm)
    });
    let final_u = rec.scope("comms.gather_to_root", || {
        let mut interior = Field2D::new(nx, ny, 0);
        interior.copy_interior_from(&u);
        gather_to_root(&interior, decomp, comm)
    });
    rec.close(run);

    // The harness's own answer check, outside every span: the true
    // residual of the last step's system at the returned field, against
    // the same system's residual at the warm start.
    let coeffs = Coefficients::assemble(&mesh, &density, problem.coefficient, rx, ry, halo + 1);
    let op = TileOperator::new(coeffs, bounds);
    let mut scratch = SolveTrace::default();
    let mut true_norm = |x: &mut Field2D| {
        exchange_halo(x, &layout, comm, 1);
        op.residual(x, &b, &mut ws.r, 0, &mut scratch);
        comm.allreduce_sum(ws.r.interior_dot(&ws.r)).sqrt()
    };
    let true_residual = true_norm(&mut u);
    let mut u0 = Field2D::new(nx, ny, halo);
    u0.copy_interior_from(&b);
    let true_initial_residual = true_norm(&mut u0);

    let interior = bounds.cells(0) as f64;
    let (mut swept_interior, mut swept_beyond) = (0.0, 0.0);
    for class in [&trace.spmv, &trace.vector_ops, &trace.precon_ops] {
        for (&ext, &n) in &class.sweeps_by_extension {
            swept_interior += n as f64 * interior;
            swept_beyond += n as f64 * (bounds.cells(ext as usize) as f64 - interior);
        }
    }

    let facts = MirrorFacts {
        true_residual,
        true_initial_residual,
        recurrence_residual,
        all_converged_status,
        redundant_cell_fraction: if swept_interior > 0.0 {
            swept_beyond / swept_interior
        } else {
            0.0
        },
        tile: (nx, ny),
    };
    let out = RankOutput {
        steps,
        trace,
        mg_trace,
        tune,
        final_u,
        final_summary,
        comm: comm_stats,
    };
    Ok((out, facts, rec.finish()))
}

/// `max|a − b| / max|b|` over two gathered fields.
pub fn max_rel_diff(a: &Field2D, b: &Field2D) -> f64 {
    let scale = b
        .iter_interior()
        .fold(0.0f64, |m, (_, _, v)| m.max(v.abs()));
    let diff = a
        .iter_interior()
        .zip(b.iter_interior())
        .fold(0.0f64, |m, ((_, _, x), (_, _, y))| m.max((x - y).abs()));
    if scale > 0.0 {
        diff / scale
    } else {
        diff
    }
}
