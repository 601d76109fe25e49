//! A miniature of the paper's strong-scaling study (Figs. 5-8): measure
//! real solver traces on a laptop-sized mesh, then replay them on the
//! modelled Titan and Piz Daint at 1..8192 nodes.
//!
//! Run with: `cargo run --release --example scaling_study -- [cells] [steps]`

use tealeaf::app::{crooked_pipe_deck, run_serial};
use tealeaf::perfmodel::{piz_daint, titan, KernelBytes, ScalingSeries};
use tealeaf::solvers::SolverRegistry;

fn main() {
    let mut args = std::env::args().skip(1);
    let cells: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(128);
    let steps: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(2);

    println!("measuring solver protocols on a {cells}x{cells} crooked pipe ({steps} steps)...\n");

    // measure real traces; each leg carries its element width (from
    // its solver's registry precision) so the replay prices f32/mixed
    // protocols at 4 B/element, not 8
    let registry = SolverRegistry::builtin();
    let width = |solver: &str| {
        registry
            .resolve(solver)
            .expect("builtin")
            .precision
            .elem_bytes()
    };
    let mut configs: Vec<(String, tealeaf::solvers::SolveTrace, f64)> = Vec::new();
    {
        let mut deck = crooked_pipe_deck(cells, "cg");
        deck.control.end_step = steps;
        deck.control.summary_frequency = 0;
        let out = run_serial(&deck).expect("deck runs");
        configs.push(("CG - 1".into(), out.trace, width("cg")));
    }
    for depth in [1usize, 4, 16] {
        let mut deck = crooked_pipe_deck(cells, "ppcg");
        deck.control.end_step = steps;
        deck.control.ppcg_halo_depth = depth;
        deck.control.summary_frequency = 0;
        let out = run_serial(&deck).expect("deck runs");
        configs.push((format!("PPCG - {depth}"), out.trace, width("ppcg")));
    }
    {
        let mut deck = crooked_pipe_deck(cells, "mixed_ppcg");
        deck.control.end_step = steps;
        deck.control.summary_frequency = 0;
        let out = run_serial(&deck).expect("deck runs");
        configs.push(("mPPCG f32".into(), out.trace, width("mixed_ppcg")));
    }

    let global = (cells, cells);
    for machine in [titan(), piz_daint()] {
        println!("== {} (to {} nodes) ==", machine.name, machine.max_nodes);
        println!(
            "{:>8} {}",
            "nodes",
            configs
                .iter()
                .map(|(l, _, _)| format!("{l:>12}"))
                .collect::<String>()
        );
        let series: Vec<ScalingSeries> = configs
            .iter()
            .map(|(label, trace, width)| {
                ScalingSeries::sweep_width(
                    label.clone(),
                    &machine,
                    trace,
                    global,
                    KernelBytes::for_width(*width),
                    *width,
                )
            })
            .collect();
        for (i, point) in series[0].points.iter().enumerate() {
            print!("{:>8}", point.nodes);
            for s in &series {
                print!("{:>12.5}", s.points[i].total());
            }
            println!();
        }
        for s in &series {
            println!("   {} fastest at {} nodes", s.label, s.best_nodes());
        }
        println!();
    }

    println!(
        "The shapes to look for (paper Figs. 5-6): CG flattens early on\n\
         reduction latency; deeper matrix powers keep scaling further; the\n\
         fixed-size problem has a knee where tiles get too small."
    );
}
