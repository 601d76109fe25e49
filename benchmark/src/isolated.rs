//! Isolated micro-measurements taken in the traced run: the streaming
//! peak, each hot kernel on the workload's own tile, the communicator's
//! two collectives, the thread runtime's region launch, and the pieces
//! of set-up (assembly, precision conversion, AMG hierarchy) that the
//! external spans cannot separate inside a serve job.
//!
//! Every timing here is the median per-call time of [`BATCHES`] batches,
//! each long enough to dwarf the clock.

use crate::deckrun::decomposition;
use crate::util::median;
use std::hint::black_box;
use std::time::Instant;
use tea_amg::{MgHierarchy, MgOpts, MgTrace};
use tea_app::Deck;
use tea_comms::{exchange_halo, Communicator, HaloLayout, SerialComm};
use tea_core::{vector, PreconKind, Preconditioner, SolveTrace, TileBounds, TileOperator};
use tea_mesh::{timestep_scalings, Coefficients, Decomposition2D, Field2, Field2D, Mesh2D, Scalar};

const BATCHES: usize = 5;
const BATCH_SECONDS: f64 = 0.008;

/// Median seconds per call of `f`.
fn per_call(mut f: impl FnMut()) -> f64 {
    f();
    let t = Instant::now();
    f();
    let once = t.elapsed().as_secs_f64().max(1e-9);
    let calls = ((BATCH_SECONDS / once).ceil() as usize).clamp(1, 100_000);
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..calls {
                f();
            }
            t.elapsed().as_secs_f64() / calls as f64
        })
        .collect();
    median(&samples)
}

/// The measured streaming peak: an update `a += s·b` over two arrays
/// of `array_bytes` each, best of the passes, counting 3 × 8 bytes per
/// element. An in-place update is used rather than the STREAM triad
/// because every byte it moves is counted — a triad's store to a third
/// array costs an uncounted write-allocate read, which made the solver's
/// own axpy read as 130 % of "peak".
pub struct StreamPeak {
    pub bytes_per_s: f64,
    pub array_bytes: usize,
}

/// Arrays are the larger of the workload's field set and 4× the
/// per-core L2. The HPC sheet's "4× the last-level cache" is not
/// attainable here — the host-shared L3 is 260 MiB — so every
/// percent-of-peak in this benchmark is relative to streaming a
/// working set of the solver's own size class, not to DRAM.
pub fn stream_peak(field_set_bytes: usize) -> StreamPeak {
    let l2 = crate::util::cache_bytes(2).unwrap_or(2 << 20);
    let array_bytes = field_set_bytes.max(4 * l2);
    let n = array_bytes / 8;
    let b = vec![1.0f64; n];
    let mut a = vec![0.0f64; n];
    let mut best = f64::INFINITY;
    for _ in 0..12 {
        let t = Instant::now();
        for (x, y) in a.iter_mut().zip(&b) {
            *x += 1e-9 * *y;
        }
        black_box(&mut a);
        best = best.min(t.elapsed().as_secs_f64());
    }
    StreamPeak {
        bytes_per_s: 24.0 * n as f64 / best,
        array_bytes,
    }
}

/// Rank 0's tile of a deck, assembled the way the driver assembles it.
pub struct TileSetup {
    pub op: TileOperator,
    pub density: Field2D,
    pub b: Field2D,
    pub halo: usize,
    pub rx: f64,
    pub ry: f64,
    /// Seconds for `Mesh2D::new` + `apply_states` + `assemble`.
    pub assemble_s: f64,
}

pub fn tile_setup(deck: &Deck, ranks: usize) -> Result<TileSetup, String> {
    let p = &deck.problem;
    let decomp = decomposition(p.x_cells, p.y_cells, ranks);
    let solver_name = deck.control.effective_solver()?;
    let halo = tea_app::solver_registry()
        .create(&solver_name, &deck.control.solver_params())
        .map_err(|e| e.to_string())?
        .halo_depth()
        .max(1);
    let started = Instant::now();
    let mesh = Mesh2D::new(&decomp, 0, p.extent);
    let (nx, ny) = (mesh.nx(), mesh.ny());
    let mut density = Field2D::new(nx, ny, halo + 1);
    let mut energy = Field2D::new(nx, ny, halo + 1);
    p.apply_states(&mesh, &mut density, &mut energy);
    let (rx, ry) = timestep_scalings(&mesh, deck.control.dt);
    let coeffs = Coefficients::assemble(&mesh, &density, p.coefficient, rx, ry, halo + 1);
    let assemble_s = started.elapsed().as_secs_f64();
    let mut b = Field2D::new(nx, ny, halo);
    for k in 0..ny as isize {
        for j in 0..nx as isize {
            b.set(j, k, density.at(j, k) * energy.at(j, k));
        }
    }
    Ok(TileSetup {
        op: TileOperator::new(coeffs, TileBounds::new(&mesh, halo)),
        density,
        b,
        halo,
        rx,
        ry,
        assemble_s,
    })
}

/// Seconds per interior sweep of each hot kernel at precision `S`.
pub struct KernelTimes {
    pub apply: f64,
    pub residual: f64,
    pub dot: f64,
    pub axpy: f64,
    pub scale_add: f64,
    pub fused_cheb: f64,
    pub precon_block: f64,
    pub precon_diag: f64,
    pub elem_bytes: f64,
}

/// One set of kernel operands: an operator and three fields.
struct Operands<S: Scalar> {
    op: TileOperator<S>,
    x: Field2<S>,
    y: Field2<S>,
    z: Field2<S>,
}

/// Times the kernels on `setup`'s tile at precision `S` and the current
/// kernel thread count, through the same public entry points the
/// solvers call. Operand values are the deck's own right-hand side,
/// scaled so repeated in-place updates stay finite.
///
/// Successive calls rotate through enough operand sets to push each one
/// out of the per-core L2 before it is used again: inside a solve a
/// sweep's operands were last touched several sweeps ago, so timing a
/// kernel on L2-resident fields would flatter it.
pub fn kernel_times<S: Scalar>(setup: &TileSetup) -> KernelTimes {
    let op: TileOperator<S> = setup.op.convert();
    let bounds = op.bounds;
    let tiny = S::from_f64(1e-9);
    let x: Field2<S> = setup.b.convert();
    let mut sd = x.clone();
    let mut t = SolveTrace::default();
    vector::scaled_copy(&mut sd, &x, tiny, &bounds, 0, &mut t);
    let set_bytes = (3 * x.raw().len() + 2 * op.coeffs.kx.raw().len()) * S::BYTES;
    let l2 = crate::util::cache_bytes(2).unwrap_or(2 << 20);
    let sets = 8 * l2 / set_bytes + 2;
    let mut ring: Vec<Operands<S>> = (0..sets)
        .map(|_| Operands {
            op: op.clone(),
            x: x.clone(),
            y: x.clone(),
            z: sd.clone(),
        })
        .collect();
    let mut turn = 0usize;
    let mut time = |f: &mut dyn FnMut(&mut Operands<S>, &mut SolveTrace)| {
        per_call(|| {
            turn = (turn + 1) % sets;
            f(&mut ring[turn], &mut t);
        })
    };
    let apply = time(&mut |o, t| o.op.apply(&o.x, &mut o.y, 0, t));
    let residual = time(&mut |o, t| o.op.residual(&o.x, &o.z, &mut o.y, 0, t));
    let dot = time(&mut |o, t| {
        black_box(vector::dot_local(&o.x, &o.y, &bounds, t));
    });
    let axpy = time(&mut |o, t| vector::axpy(&mut o.y, tiny, &o.x, &bounds, 0, t));
    let scale_add =
        time(&mut |o, t| vector::scale_add(&mut o.y, S::ONE, tiny, &o.x, &bounds, 0, t));
    // z holds the scaled direction, so `x += z; y -= A·z` stays finite
    let fused_cheb = time(&mut |o, t| o.op.apply_cheb_fused(&o.z, &mut o.x, &mut o.y, 0, t));
    let block = Preconditioner::setup(PreconKind::BlockJacobi, &op, 0);
    let precon_block = time(&mut |o, t| block.apply(&o.x, &mut o.y, &bounds, 0, t));
    let diag = Preconditioner::setup(PreconKind::Diagonal, &op, 0);
    let precon_diag = time(&mut |o, t| diag.apply(&o.x, &mut o.y, &bounds, 0, t));
    KernelTimes {
        apply,
        residual,
        dot,
        axpy,
        scale_add,
        fused_cheb,
        precon_block,
        precon_diag,
        elem_bytes: S::BYTES as f64,
    }
}

/// Seconds for the f64→f32 traffic of a mixed solve: one operator
/// demotion (paid per prepare) and one field demote + promote round
/// trip (paid per inner solve).
pub struct ConvertTimes {
    pub operator: f64,
    pub field_round_trip: f64,
}

pub fn convert_times(setup: &TileSetup) -> ConvertTimes {
    let operator = per_call(|| {
        black_box(setup.op.convert::<f32>());
    });
    let mut narrow: Field2<f32> = setup.b.convert();
    let mut wide = setup.b.clone();
    let field_round_trip = per_call(|| {
        setup.b.convert_into(&mut narrow);
        narrow.convert_into(&mut wide);
    });
    ConvertTimes {
        operator,
        field_round_trip,
    }
}

/// Seconds per call of the two collectives a solver blocks on.
pub struct CommTimes {
    pub halo_exchange: f64,
    pub allreduce: f64,
}

fn comm_times_on<C: Communicator + ?Sized>(
    comm: &C,
    decomp: &Decomposition2D,
    depth: usize,
    calls: usize,
) -> CommTimes {
    let sub = decomp.subdomain(comm.rank());
    let layout = HaloLayout::new(decomp, comm.rank());
    let mut field = Field2D::filled(sub.nx, sub.ny, depth, 1.0);
    comm.barrier();
    let t = Instant::now();
    for _ in 0..calls {
        exchange_halo(&mut field, &layout, comm, depth);
    }
    let halo_exchange = t.elapsed().as_secs_f64() / calls as f64;
    comm.barrier();
    let t = Instant::now();
    let mut acc = 0.0;
    for i in 0..calls {
        acc += comm.allreduce_sum(i as f64);
    }
    black_box(acc);
    CommTimes {
        halo_exchange,
        allreduce: t.elapsed().as_secs_f64() / calls as f64,
    }
}

/// Back-to-back calls on the workload's own communicator shape: the
/// serial backend for 1-rank workloads, two threaded ranks (rank 0's
/// clock) otherwise. Depth is the workload's halo depth.
pub fn comm_times(cells: usize, ranks: usize, depth: usize) -> CommTimes {
    const CALLS: usize = 2000;
    let decomp = decomposition(cells, cells, ranks);
    if ranks == 1 {
        comm_times_on(&SerialComm::new(), &decomp, depth, CALLS)
    } else {
        tea_comms::run_threaded(ranks, |comm| comm_times_on(comm, &decomp, depth, CALLS))
            .swap_remove(0)
    }
}

/// Seconds to launch and join one 2-thread parallel region that does no
/// work: a `vector::zero` over an 8×8 tile with the parallel threshold
/// forced to 0. Restores the thread count and threshold it found.
pub fn region_launch_s() -> f64 {
    let (threads, threshold) = (tea_core::num_threads(), tea_core::par_threshold());
    tea_core::set_num_threads(2);
    tea_core::set_par_threshold(0);
    let bounds = TileBounds::serial(8, 8);
    let mut f = Field2D::new(8, 8, 1);
    let mut t = SolveTrace::default();
    let s = per_call(|| vector::zero(&mut f, &bounds, 0, &mut t));
    tea_core::set_num_threads(threads);
    tea_core::set_par_threshold(threshold);
    s
}

/// Seconds to build the AMG hierarchy of `setup`'s tile and to run one
/// V-cycle on it, through `tea_amg`'s public hierarchy API with the
/// solver's default smoothing.
pub struct AmgTimes {
    pub setup: f64,
    pub vcycle: f64,
}

pub fn amg_times(deck: &Deck, setup: &TileSetup) -> AmgTimes {
    let build = || {
        MgHierarchy::build(
            &setup.density,
            deck.problem.coefficient,
            setup.rx,
            setup.ry,
            MgOpts::default(),
        )
    };
    let setup_s = per_call(|| {
        black_box(build());
    });
    let mut hierarchy = build();
    let mut z = Field2D::new(setup.b.nx(), setup.b.ny(), setup.halo);
    let mut trace = MgTrace::default();
    let vcycle = per_call(|| hierarchy.vcycle(&setup.b, &mut z, &mut trace));
    AmgTimes {
        setup: setup_s,
        vcycle,
    }
}
