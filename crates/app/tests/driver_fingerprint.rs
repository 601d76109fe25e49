//! Bit-level fingerprints of the three driver entry points, pinned as
//! literals.
//!
//! `session_driver_matches_reference_bitwise` compares the reference
//! road ([`run_serial`]) and the serving road ([`run_serial_session`])
//! to each other at one commit, so it cannot see a change that moves
//! both. This suite
//! pins each entry point against its past self: eight decks on the 24²
//! crooked pipe, three steps each, through `run_serial`,
//! `run_threaded_ranks` (4 ranks, where the solver is not serial-only)
//! and `run_serial_session` cold then warm on one shared cache. One row
//! per (deck, road) records every step's iteration count and the bits of
//! its initial and final residual, an FNV-1a hash of the final
//! temperature field, the accumulated trace's outer/inner iteration,
//! reduction and halo-exchange totals, every counter of
//! `RankOutput::comm` (of every rank on the threaded road), whether the
//! AMG and tuning records are present (with the tuner's winner and reuse
//! count), and — on the session road — the cache's cumulative
//! hits/misses/prepares after the run.
//!
//! The rows were generated at the commit that introduced this file and
//! are not edited by hand. On a mismatch the test prints the complete
//! table it computed, in source form.
//!
//! Regenerated once on purpose, and narrowly: PR 17's noise-floor
//! pedestal at `tea_core::mixed`'s demotion site moved the 4 `ppcg/d4/mixed` rows
//! of 30, and only their residual-bit and field-hash words — every
//! iteration, sweep, halo, reduction and `comm` field in them is what it
//! was, and every `f64` row and every `cg_f32` row is byte-identical.
//!
//! Regenerated a second time when every entry point came to step
//! through one prepared session, again narrowly and by script: every
//! `serial` and `ranks4` row (14 of 30) is byte-identical; the 16
//! `session-*` rows changed only in `comm=`, by +3 reductions and +12
//! f64 reduction elements, because the per-step field summaries now
//! reduce over the job's own communicator; `auto/s3 session-cold` also
//! moved `outer/red/halo` 133/269/136 → 368/713/385, because the race's
//! trials now accumulate into the run's trace, matching the 713
//! reductions its `comm` already showed. Each session row now equals
//! its serial row except for `cache=` and the warm row's tuner reuse
//! count.

use tea_app::{
    crooked_pipe_deck, run_serial, run_serial_session, run_threaded_ranks, solver_registry,
    Control, Deck, RankOutput,
};
use tea_comms::StatsSnapshot;
use tea_core::{Precision, PreconKind, SetupCache};

const N: usize = 24;
const STEPS: u64 = 3;

/// The pinned decks: `(label, deck)`.
fn decks() -> Vec<(&'static str, Deck)> {
    let deck = |solver: &str, tweak: &dyn Fn(&mut Control)| {
        let mut deck = crooked_pipe_deck(N, solver);
        deck.control = Control {
            solver: solver.into(),
            end_step: STEPS,
            summary_frequency: 1,
            ..Default::default()
        };
        tweak(&mut deck.control);
        deck
    };
    vec![
        ("cg", deck("cg", &|_| {})),
        (
            "cg+jac_block",
            deck("cg", &|c| c.precon = PreconKind::BlockJacobi),
        ),
        ("cg/d4", deck("cg", &|c| c.ppcg_halo_depth = 4)),
        ("chebyshev", deck("chebyshev", &|_| {})),
        (
            "ppcg/d4+jac_diag",
            deck("ppcg", &|c| {
                c.ppcg_halo_depth = 4;
                c.precon = PreconKind::Diagonal;
            }),
        ),
        (
            "ppcg/d4/mixed",
            deck("ppcg", &|c| {
                c.ppcg_halo_depth = 4;
                c.precision = Some(Precision::Mixed);
            }),
        ),
        ("amg", deck("amg", &|_| {})),
        ("auto/s3", deck("auto", &|c| c.tune_seed = 3)),
    ]
}

fn fnv(bits: impl Iterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for word in bits {
        for byte in word.to_le_bytes() {
            h = (h ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn comm(c: &StatsSnapshot) -> String {
    let StatsSnapshot {
        msgs_sent,
        elems_sent_f64,
        elems_sent_f32,
        msgs_received,
        elems_received_f64,
        elems_received_f32,
        reductions,
        reduction_elems_f64,
        reduction_elems_f32,
        barriers,
    } = c;
    format!(
        "tx{msgs_sent}/{elems_sent_f64}/{elems_sent_f32} \
         rx{msgs_received}/{elems_received_f64}/{elems_received_f32} \
         red{reductions}/{reduction_elems_f64}/{reduction_elems_f32} bar{barriers}"
    )
}

/// Everything pinned about one run: `root` is the rank whose records
/// and gathered field are described, `comms` the `comm` snapshot of
/// every rank in rank order.
fn describe(root: &RankOutput, comms: &[StatsSnapshot]) -> String {
    let steps: Vec<String> = root
        .steps
        .iter()
        .map(|s| {
            format!(
                "{}{}:{:016x}:{:016x}",
                s.iterations,
                if s.converged { "" } else { "!" },
                s.initial_residual.to_bits(),
                s.final_residual.to_bits()
            )
        })
        .collect();
    let u = root.final_u.as_ref().expect("rank 0 holds the field");
    let u_hash = fnv((0..u.ny() as isize)
        .flat_map(|k| (0..u.nx() as isize).map(move |j| (j, k)))
        .map(|(j, k)| u.at(j, k).to_bits()));
    let comms: Vec<String> = comms.iter().map(comm).collect();
    let tune = match &root.tune {
        Some(t) => format!("{}x{}", t.winner.as_deref().unwrap_or("-"), t.reuses),
        None => "-".into(),
    };
    format!(
        "steps=[{}] u={u_hash:016x} outer={} inner={} red={} halo={} comm=[{}] mg={} tune={tune}",
        steps.join(" "),
        root.trace.outer_iterations,
        root.trace.inner_iterations,
        root.trace.reductions,
        root.trace.total_halo_exchanges(),
        comms.join(" | "),
        if root.mg_trace.is_some() { "y" } else { "n" },
    )
}

fn fingerprints() -> Vec<String> {
    let cache = SetupCache::new();
    let mut rows = Vec::new();
    for (label, deck) in decks() {
        let serial = run_serial(&deck).expect("deck runs");
        rows.push(format!(
            "{label} serial: {}",
            describe(&serial, &[serial.comm])
        ));

        let solver = deck.control.effective_solver().expect("solver resolves");
        let meta = solver_registry().resolve(&solver).expect("registered");
        if !meta.serial_only {
            let ranks = run_threaded_ranks(&deck, 4).expect("deck runs decomposed");
            let comms: Vec<StatsSnapshot> = ranks.iter().map(|r| r.comm).collect();
            rows.push(format!("{label} ranks4: {}", describe(&ranks[0], &comms)));
        }

        for road in ["cold", "warm"] {
            let out = run_serial_session(&deck, &cache).expect("deck runs");
            let stats = cache.stats();
            rows.push(format!(
                "{label} session-{road}: {} cache={}/{}/{}",
                describe(&out, &[out.comm]),
                stats.hits,
                stats.misses,
                stats.prepares
            ));
        }
    }
    rows
}

#[test]
fn every_driver_entry_point_matches_its_pinned_fingerprint() {
    let actual = fingerprints();
    let mismatches: Vec<String> = (0..actual.len().max(EXPECTED.len()))
        .filter(|&i| actual.get(i).map(String::as_str) != EXPECTED.get(i).copied())
        .map(|i| {
            format!(
                "  expected: {}\n  actual:   {}",
                EXPECTED.get(i).copied().unwrap_or("<no row>"),
                actual.get(i).map_or("<no row>", String::as_str)
            )
        })
        .collect();
    if !mismatches.is_empty() {
        let table: Vec<String> = actual.iter().map(|row| format!("    {row:?},")).collect();
        panic!(
            "{} of {} fingerprints differ:\n{}\n\nthe table this build computes:\n{}",
            mismatches.len(),
            actual.len(),
            mismatches.join("\n"),
            table.join("\n")
        );
    }
}

#[rustfmt::skip]
const EXPECTED: &[&str] = &[
    "cg serial: steps=[43:406879fe5d254f92:3e4c4e21863bb95a 45:40416ca82f2ce538:3e2187bdd45807fa 45:40228befb6a4068c:3e0745806230d514] u=a084f0e4993beba6 outer=133 inner=0 red=269 halo=136 comm=[tx0/0/0 rx0/0/0 red272/281/0 bar0] mg=n tune=-",
    "cg ranks4: steps=[43:406879fe5d254f8f:3e4c4e21863bb913 45:40416ca82f2ce535:3e2187bdd45807dc 45:40228befb6a4068d:3e0745806230d53f] u=6b47f6197dfa0ef6 outer=133 inner=0 red=269 halo=136 comm=[tx272/3536/0 rx272/3536/0 red272/281/0 bar0 | tx272/3536/0 rx272/3536/0 red272/281/0 bar0 | tx272/3536/0 rx272/3536/0 red272/281/0 bar0 | tx272/3536/0 rx272/3536/0 red272/281/0 bar0] mg=n tune=-",
    "cg session-cold: steps=[43:406879fe5d254f92:3e4c4e21863bb95a 45:40416ca82f2ce538:3e2187bdd45807fa 45:40228befb6a4068c:3e0745806230d514] u=a084f0e4993beba6 outer=133 inner=0 red=269 halo=136 comm=[tx0/0/0 rx0/0/0 red272/281/0 bar0] mg=n tune=- cache=0/1/1",
    "cg session-warm: steps=[43:406879fe5d254f92:3e4c4e21863bb95a 45:40416ca82f2ce538:3e2187bdd45807fa 45:40228befb6a4068c:3e0745806230d514] u=a084f0e4993beba6 outer=133 inner=0 red=269 halo=136 comm=[tx0/0/0 rx0/0/0 red272/281/0 bar0] mg=n tune=- cache=1/1/1",
    "cg+jac_block serial: steps=[31:40521fdd879a42c1:3e3c60875feb48a3 32:402dd430be17aec6:3e070696236d48da 32:401147cea093fc49:3de9e9d1fe1611c1] u=03c071e711f57387 outer=95 inner=0 red=193 halo=98 comm=[tx0/0/0 rx0/0/0 red196/205/0 bar0] mg=n tune=-",
    "cg+jac_block ranks4: steps=[31:40521fdd879a42c1:3e3c60875feb48a3 32:402dd430be17aec4:3e070696236d48d4 32:401147cea093fc4d:3de9e9d1fe1611a7] u=457a2f19c5961fa4 outer=95 inner=0 red=193 halo=98 comm=[tx196/2548/0 rx196/2548/0 red196/205/0 bar0 | tx196/2548/0 rx196/2548/0 red196/205/0 bar0 | tx196/2548/0 rx196/2548/0 red196/205/0 bar0 | tx196/2548/0 rx196/2548/0 red196/205/0 bar0] mg=n tune=-",
    "cg+jac_block session-cold: steps=[31:40521fdd879a42c1:3e3c60875feb48a3 32:402dd430be17aec6:3e070696236d48da 32:401147cea093fc49:3de9e9d1fe1611c1] u=03c071e711f57387 outer=95 inner=0 red=193 halo=98 comm=[tx0/0/0 rx0/0/0 red196/205/0 bar0] mg=n tune=- cache=1/2/2",
    "cg+jac_block session-warm: steps=[31:40521fdd879a42c1:3e3c60875feb48a3 32:402dd430be17aec6:3e070696236d48da 32:401147cea093fc49:3de9e9d1fe1611c1] u=03c071e711f57387 outer=95 inner=0 red=193 halo=98 comm=[tx0/0/0 rx0/0/0 red196/205/0 bar0] mg=n tune=- cache=2/2/2",
    "cg/d4 serial: steps=[43:406879fe5d254f92:3e4c4e21863bb95a 45:40416ca82f2ce538:3e2187bdd45807fa 45:40228befb6a4068c:3e0745806230d514] u=a084f0e4993beba6 outer=133 inner=0 red=269 halo=136 comm=[tx0/0/0 rx0/0/0 red272/281/0 bar0] mg=n tune=-",
    "cg/d4 ranks4: steps=[43:406879fe5d254f8f:3e4c4e21863bb913 45:40416ca82f2ce535:3e2187bdd45807dc 45:40228befb6a4068d:3e0745806230d53f] u=6b47f6197dfa0ef6 outer=133 inner=0 red=269 halo=136 comm=[tx272/3536/0 rx272/3536/0 red272/281/0 bar0 | tx272/3536/0 rx272/3536/0 red272/281/0 bar0 | tx272/3536/0 rx272/3536/0 red272/281/0 bar0 | tx272/3536/0 rx272/3536/0 red272/281/0 bar0] mg=n tune=-",
    "cg/d4 session-cold: steps=[43:406879fe5d254f92:3e4c4e21863bb95a 45:40416ca82f2ce538:3e2187bdd45807fa 45:40228befb6a4068c:3e0745806230d514] u=a084f0e4993beba6 outer=133 inner=0 red=269 halo=136 comm=[tx0/0/0 rx0/0/0 red272/281/0 bar0] mg=n tune=- cache=2/3/3",
    "cg/d4 session-warm: steps=[43:406879fe5d254f92:3e4c4e21863bb95a 45:40416ca82f2ce538:3e2187bdd45807fa 45:40228befb6a4068c:3e0745806230d514] u=a084f0e4993beba6 outer=133 inner=0 red=269 halo=136 comm=[tx0/0/0 rx0/0/0 red272/281/0 bar0] mg=n tune=- cache=3/3/3",
    "chebyshev serial: steps=[50:406879fe5d254f92:3e1e07beabfa5002 50:40416ca82f2ce41b:3e0ac8c56a762a67 50:40228befb6a3fb83:3df0e7c17df64767] u=7db9f7a8f96e3188 outer=150 inner=0 red=189 halo=156 comm=[tx0/0/0 rx0/0/0 red192/201/0 bar0] mg=n tune=-",
    "chebyshev ranks4: steps=[50:406879fe5d254f8f:3e1e07beac492650 50:40416ca82f2ce41d:3e0ac8c56ac21481 50:40228befb6a3fb7e:3df0e7c17f2e0254] u=1d9c416e95076d35 outer=150 inner=0 red=189 halo=156 comm=[tx312/4056/0 rx312/4056/0 red192/201/0 bar0 | tx312/4056/0 rx312/4056/0 red192/201/0 bar0 | tx312/4056/0 rx312/4056/0 red192/201/0 bar0 | tx312/4056/0 rx312/4056/0 red192/201/0 bar0] mg=n tune=-",
    "chebyshev session-cold: steps=[50:406879fe5d254f92:3e1e07beabfa5002 50:40416ca82f2ce41b:3e0ac8c56a762a67 50:40228befb6a3fb83:3df0e7c17df64767] u=7db9f7a8f96e3188 outer=150 inner=0 red=189 halo=156 comm=[tx0/0/0 rx0/0/0 red192/201/0 bar0] mg=n tune=- cache=3/4/4",
    "chebyshev session-warm: steps=[50:406879fe5d254f92:3e1e07beabfa5002 50:40416ca82f2ce41b:3e0ac8c56a762a67 50:40228befb6a3fb83:3df0e7c17df64767] u=7db9f7a8f96e3188 outer=150 inner=0 red=189 halo=156 comm=[tx0/0/0 rx0/0/0 red192/201/0 bar0] mg=n tune=- cache=4/4/4",
    "ppcg/d4+jac_diag serial: steps=[31:40536fd5a46bf272:3df90a045a0810e8 31:402e2549f0265f39:3ddddecc265b6687 31:40108f3f211c700e:3dc4b391abbd4ce9] u=5997bb1ea97b2a24 outer=93 inner=96 red=192 halo=123 comm=[tx0/0/0 rx0/0/0 red195/204/0 bar0] mg=n tune=-",
    "ppcg/d4+jac_diag ranks4: steps=[31:40536fd5a46bf272:3df90a045c9ed038 31:402e2549f0265f39:3ddddecc20d57350 31:40108f3f211c700e:3dc4b391b6b6cc9f] u=4051b6265bb2de1b outer=93 inner=96 red=192 halo=123 comm=[tx246/7950/0 rx246/7950/0 red195/204/0 bar0 | tx246/7950/0 rx246/7950/0 red195/204/0 bar0 | tx246/7950/0 rx246/7950/0 red195/204/0 bar0 | tx246/7950/0 rx246/7950/0 red195/204/0 bar0] mg=n tune=-",
    "ppcg/d4+jac_diag session-cold: steps=[31:40536fd5a46bf272:3df90a045a0810e8 31:402e2549f0265f39:3ddddecc265b6687 31:40108f3f211c700e:3dc4b391abbd4ce9] u=5997bb1ea97b2a24 outer=93 inner=96 red=192 halo=123 comm=[tx0/0/0 rx0/0/0 red195/204/0 bar0] mg=n tune=- cache=4/5/5",
    "ppcg/d4+jac_diag session-warm: steps=[31:40536fd5a46bf272:3df90a045a0810e8 31:402e2549f0265f39:3ddddecc265b6687 31:40108f3f211c700e:3dc4b391abbd4ce9] u=5997bb1ea97b2a24 outer=93 inner=96 red=192 halo=123 comm=[tx0/0/0 rx0/0/0 red195/204/0 bar0] mg=n tune=- cache=5/5/5",
    "ppcg/d4/mixed serial: steps=[31:406879fe5d254f92:3e36713413095bb6 31:40416ca82f2ce380:3e227ed8c5353288 31:40228befb6a3dbdb:3e06aad37b5e7375] u=675edafda1e1ab04 outer=93 inner=96 red=192 halo=123 comm=[tx0/0/0 rx0/0/0 red195/204/0 bar0] mg=n tune=-",
    "ppcg/d4/mixed ranks4: steps=[31:406879fe5d254f8f:3e3671262066a244 31:40416ca82f2ce39a:3e227edf2c9fc147 31:40228befb6a3dbee:3e06aac6e4cf7c72] u=db1d56fc2bc570a8 outer=93 inner=96 red=192 halo=123 comm=[tx246/2574/5376 rx246/2574/5376 red195/204/0 bar0 | tx246/2574/5376 rx246/2574/5376 red195/204/0 bar0 | tx246/2574/5376 rx246/2574/5376 red195/204/0 bar0 | tx246/2574/5376 rx246/2574/5376 red195/204/0 bar0] mg=n tune=-",
    "ppcg/d4/mixed session-cold: steps=[31:406879fe5d254f92:3e36713413095bb6 31:40416ca82f2ce380:3e227ed8c5353288 31:40228befb6a3dbdb:3e06aad37b5e7375] u=675edafda1e1ab04 outer=93 inner=96 red=192 halo=123 comm=[tx0/0/0 rx0/0/0 red195/204/0 bar0] mg=n tune=- cache=5/6/6",
    "ppcg/d4/mixed session-warm: steps=[31:406879fe5d254f92:3e36713413095bb6 31:40416ca82f2ce380:3e227ed8c5353288 31:40228befb6a3dbdb:3e06aad37b5e7375] u=675edafda1e1ab04 outer=93 inner=96 red=192 halo=123 comm=[tx0/0/0 rx0/0/0 red195/204/0 bar0] mg=n tune=- cache=6/6/6",
    "amg serial: steps=[8:4053816c68df98d1:3e33cee33e03bdeb 9:40310dc8ae7e5c3a:3de4907c507c38e5 9:401637d69f0acdb6:3dd35b2445e8582b] u=8dc928d6a9e36dd6 outer=26 inner=0 red=55 halo=29 comm=[tx0/0/0 rx0/0/0 red58/67/0 bar0] mg=y tune=-",
    "amg session-cold: steps=[8:4053816c68df98d1:3e33cee33e03bdeb 9:40310dc8ae7e5c3a:3de4907c507c38e5 9:401637d69f0acdb6:3dd35b2445e8582b] u=8dc928d6a9e36dd6 outer=26 inner=0 red=55 halo=29 comm=[tx0/0/0 rx0/0/0 red58/67/0 bar0] mg=y tune=- cache=6/7/7",
    "amg session-warm: steps=[8:4053816c68df98d1:3e33cee33e03bdeb 9:40310dc8ae7e5c3a:3de4907c507c38e5 9:401637d69f0acdb6:3dd35b2445e8582b] u=8dc928d6a9e36dd6 outer=26 inner=0 red=55 halo=29 comm=[tx0/0/0 rx0/0/0 red58/67/0 bar0] mg=y tune=- cache=7/7/7",
    "auto/s3 serial: steps=[43:406879fe5d254f92:3e4c4e21863bb95a 45:40416ca82f2ce538:3e2187bdd45807fa 45:40228befb6a4068c:3e0745806230d514] u=a084f0e4993beba6 outer=368 inner=0 red=713 halo=385 comm=[tx0/0/0 rx0/0/0 red716/518/235 bar0] mg=n tune=cgx2",
    "auto/s3 session-cold: steps=[43:406879fe5d254f92:3e4c4e21863bb95a 45:40416ca82f2ce538:3e2187bdd45807fa 45:40228befb6a4068c:3e0745806230d514] u=a084f0e4993beba6 outer=368 inner=0 red=713 halo=385 comm=[tx0/0/0 rx0/0/0 red716/518/235 bar0] mg=n tune=cgx2 cache=7/8/8",
    "auto/s3 session-warm: steps=[43:406879fe5d254f92:3e4c4e21863bb95a 45:40416ca82f2ce538:3e2187bdd45807fa 45:40228befb6a4068c:3e0745806230d514] u=a084f0e4993beba6 outer=133 inner=0 red=269 halo=136 comm=[tx0/0/0 rx0/0/0 red272/281/0 bar0] mg=n tune=cgx5 cache=8/8/8",
];
