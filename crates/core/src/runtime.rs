//! Execution-runtime knobs: how many worker threads the kernels use and
//! how large a sweep must be before it goes parallel.
//!
//! Both knobs can be set programmatically (benchmarks and the
//! bit-identity tests flip them within one process); the worker count
//! also resolves lazily from the environment on first use:
//!
//! * `TEA_NUM_THREADS` / [`set_num_threads`] — worker count for every
//!   `par_*` region (default: available cores; `1` restores pure
//!   sequential execution bit-for-bit);
//! * [`set_par_threshold`] — minimum swept cells before a kernel takes
//!   its parallel path (default [`PAR_THRESHOLD`]).
//!
//! A *user-facing* worker count — `TEA_NUM_THREADS`, the CLI's
//! `--threads`, a deck's `tl_num_threads` — is clamped to
//! [`hardware_threads`] ([`request_num_threads`]): more workers than
//! cores only time-slice the same sweeps (every committed "speedup"
//! measured that way was a 0.62–0.98× slowdown), and results are
//! bit-identical at any count, so nothing is lost. The clamp is
//! reported, not silent ([`thread_warning`]). The programmatic
//! [`set_num_threads`] stays unclamped: the determinism tests
//! oversubscribe on purpose to exercise real threading on 1-core CI.
//!
//! Thread count lives in the vendored `rayon` runtime; this module is
//! the one spot that calls its configuration shim. When the workspace is
//! swapped onto crates.io rayon (one manifest line), only the two
//! one-line bodies of [`set_num_threads`] / [`num_threads`] need
//! adapting to `ThreadPoolBuilder` / `rayon::current_num_threads` — the
//! kernels themselves use nothing beyond rayon's standard iterator API.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Default cell-count threshold below which a sweep stays serial (the
/// scoped-team dispatch overhead dominates under this size).
pub const PAR_THRESHOLD: usize = 1 << 15;

static THRESHOLD: OnceLock<AtomicUsize> = OnceLock::new();

/// The last user request [`request_num_threads`] had to clamp (0: none).
static OVERSUBSCRIBED: AtomicUsize = AtomicUsize::new(0);

/// The environment, read once on the first touch of either knob — every
/// kernel asks for the threshold before it can open a parallel region,
/// so an over-subscribed `TEA_NUM_THREADS` is clamped before it is used.
fn threshold_cell() -> &'static AtomicUsize {
    THRESHOLD.get_or_init(|| {
        let requested = std::env::var("TEA_NUM_THREADS").ok();
        if let Some(requested) = requested.and_then(|v| v.trim().parse().ok()) {
            rayon::set_num_threads(grant_threads(requested, hardware_threads()));
        }
        AtomicUsize::new(PAR_THRESHOLD)
    })
}

/// The active parallel threshold in swept cells.
///
/// Sweeps and reductions over at least this many cells take the
/// threaded path; smaller ones stay serial. Results are bit-identical
/// either way — the threshold only moves the crossover point.
pub fn par_threshold() -> usize {
    threshold_cell().load(Ordering::Relaxed)
}

/// Overrides the parallel threshold for subsequent kernel calls.
/// `0` forces every sweep parallel; `usize::MAX` forces everything
/// serial.
pub fn set_par_threshold(cells: usize) {
    threshold_cell().store(cells, Ordering::Relaxed);
}

/// Whether a sweep over `cells` cells opens a parallel region — the one
/// predicate of every row dispatch in [`crate::vector`]: large enough
/// *and* more than one worker to share it, so a single worker never
/// pays for a region (its slot vector, the team's dispatch) it would
/// run alone.
pub fn parallel_sweep(cells: usize) -> bool {
    cells >= par_threshold() && num_threads() > 1
}

/// The number of worker threads parallel sweeps currently use.
pub fn num_threads() -> usize {
    threshold_cell();
    rayon::current_num_threads()
}

/// Overrides the worker count for subsequent parallel sweeps (clamped
/// to `1..=1024`; `1` is exact sequential execution). Not clamped to
/// the hardware — tests and benches oversubscribe deliberately; user
/// requests go through [`request_num_threads`].
pub fn set_num_threads(threads: usize) {
    threshold_cell(); // so the lazy environment read cannot overwrite this
    rayon::set_num_threads(threads);
}

/// Hardware threads the OS grants this process (1 when it will not say).
pub fn hardware_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The worker count a user request for `requested` resolves to on
/// `hardware` threads, remembering a clamped request for
/// [`thread_warning`].
fn grant_threads(requested: usize, hardware: usize) -> usize {
    let clamped = if requested > hardware { requested } else { 0 };
    OVERSUBSCRIBED.store(clamped, Ordering::Relaxed);
    requested.clamp(1, hardware)
}

/// Applies a user-facing worker-count request (CLI `--threads`, deck
/// `tl_num_threads`), clamped to [`hardware_threads`]; returns the count
/// granted.
pub fn request_num_threads(requested: usize) -> usize {
    let granted = grant_threads(requested, hardware_threads());
    set_num_threads(granted);
    granted
}

/// One line for the run summary when the latest user request (or
/// `TEA_NUM_THREADS`) asked for more workers than the hardware has.
pub fn thread_warning() -> Option<String> {
    threshold_cell();
    let requested = OVERSUBSCRIBED.load(Ordering::Relaxed);
    (requested > 0).then(|| {
        format!(
            "{requested} worker threads requested, clamped to the {} hardware thread(s) available",
            hardware_threads()
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_roundtrips() {
        let before = par_threshold();
        set_par_threshold(123);
        assert_eq!(par_threshold(), 123);
        set_par_threshold(before);
    }

    #[test]
    fn thread_count_roundtrips_and_clamps() {
        // safe to assert on the process-global count here: no other test
        // in the tea-core binary writes it
        let before = num_threads();
        set_num_threads(3);
        assert_eq!(num_threads(), 3);
        assert!(parallel_sweep(usize::MAX), "any threshold is met");
        set_num_threads(1);
        assert!(!parallel_sweep(usize::MAX), "one worker opens no region");
        set_num_threads(0);
        assert_eq!(num_threads(), 1);
        set_num_threads(usize::MAX);
        assert_eq!(num_threads(), 1024, "runaway counts must clamp");

        // user requests clamp to the hardware and say so; a request the
        // hardware can serve clears the warning again
        let hw = hardware_threads();
        assert_eq!(request_num_threads(hw + 3), hw);
        assert_eq!(num_threads(), hw);
        let warning = thread_warning().expect("over-subscription must be reported");
        assert!(warning.starts_with(&format!("{} worker threads requested", hw + 3)));
        assert_eq!(request_num_threads(1), 1);
        assert_eq!(thread_warning(), None);
        assert_eq!(request_num_threads(0), 1, "zero workers means one");
        set_num_threads(before);
    }
}
