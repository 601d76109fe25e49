//! Multi-rank communicator backed by OS threads and channels.
//!
//! [`run_threaded`] spawns one thread per rank, hands each a
//! [`ThreadedComm`] handle, and joins them — the in-process equivalent of
//! `mpirun -n R`. Point-to-point messages travel over dedicated
//! per-(sender, receiver) FIFO channels, so message order between a pair
//! of ranks is preserved exactly as MPI guarantees for matching
//! signatures.
//!
//! Reductions are **deterministic**: each rank deposits its contribution
//! into a rank-indexed slot and the last arrival folds the slots in rank
//! order. The result is therefore bit-identical from run to run for a
//! fixed rank count — the property TeaLeaf relies on when validating
//! decomposed runs against serial ones.

use crate::stats::CommStats;
use crate::sync::lock_tolerant;
use crate::wire::{Payload, WireScalar};
use crate::Communicator;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

/// One point-to-point message: a typed payload travelling under a tag.
struct Msg {
    tag: u64,
    data: Payload,
}

/// Reduction / barrier rendezvous state (generation-counted). Slots are
/// typed payloads so an f32 reduction folds in f32 end to end.
struct ReduceState {
    generation: u64,
    deposited: usize,
    slots: Vec<Payload>,
    /// The last fold: the folded payload, or the protocol error every
    /// rank of that generation panics with.
    result: Result<Payload, String>,
}

/// State shared by every rank of one simulated machine: the reduction
/// rendezvous. The channels are not shared — each rank owns its ends.
struct Shared {
    size: usize,
    reduce: Mutex<ReduceState>,
    reduce_cv: Condvar,
}

impl Shared {
    fn new(size: usize) -> Arc<Self> {
        Arc::new(Shared {
            size,
            reduce: Mutex::new(ReduceState {
                generation: 0,
                deposited: 0,
                slots: vec![Payload::F64(Vec::new()); size],
                result: Ok(Payload::F64(Vec::new())),
            }),
            reduce_cv: Condvar::new(),
        })
    }

    /// Generic rendezvous: every rank deposits `locals`; the last arrival
    /// sums all slots in rank order; everyone returns the folded payload
    /// (a barrier is the sum of empty deposits). Every rank must deposit
    /// the same width and length — a mismatch is a protocol error, and
    /// every rank of the rendezvous panics with it: the last arrival
    /// publishes it and wakes the waiting ranks before it panics, so none
    /// is left blocked and [`run_threaded`] returns the panic.
    fn rendezvous(&self, rank: usize, locals: Payload) -> Payload {
        let mut st = lock_tolerant(&self.reduce);
        st.slots[rank] = locals;
        st.deposited += 1;
        let result = if st.deposited == self.size {
            // fold in rank order for determinism, in the deposited width
            let result = match &st.slots[0] {
                Payload::F64(_) => fold_slots::<f64>(&st.slots),
                Payload::F32(_) => fold_slots::<f32>(&st.slots),
            };
            st.result = result.clone();
            st.deposited = 0;
            st.generation = st.generation.wrapping_add(1);
            drop(st);
            self.reduce_cv.notify_all();
            result
        } else {
            let my_gen = st.generation;
            let st = self
                .reduce_cv
                .wait_while(st, |st| st.generation == my_gen)
                .unwrap_or_else(PoisonError::into_inner);
            st.result.clone()
        };
        result.unwrap_or_else(|error| panic!("{error}"))
    }
}

/// One rank's ends of the per-(sender, receiver) FIFO channels:
/// `(senders[to], receivers[from])`.
type Ends = (Vec<Sender<Msg>>, Vec<Receiver<Msg>>);

/// Every rank's [`Ends`], in rank order.
fn links(size: usize) -> Vec<Ends> {
    let mut senders: Vec<Vec<Sender<Msg>>> = (0..size).map(|_| Vec::new()).collect();
    let mut receivers: Vec<Vec<Receiver<Msg>>> = (0..size).map(|_| Vec::new()).collect();
    for from in senders.iter_mut() {
        for to in receivers.iter_mut() {
            let (tx, rx) = channel();
            from.push(tx);
            to.push(rx);
        }
    }
    senders.into_iter().zip(receivers).collect()
}

/// Sums rank-ordered slots element-wise in the payload's own precision.
/// The accumulator starts from rank 0's contribution, so no width-specific
/// identity constants are needed and a single-rank fold returns the local
/// values bit-exactly.
///
/// # Errors
/// Names the first rank whose deposit has another width or length than
/// rank 0's.
fn fold_slots<S: WireScalar>(slots: &[Payload]) -> Result<Payload, String> {
    let first = S::payload_slice(&slots[0]).expect("fold width chosen from slot 0");
    let mut result: Vec<S> = first.to_vec();
    for (r, slot) in slots.iter().enumerate().skip(1) {
        let vals = S::payload_slice(slot).map_err(|e| {
            format!(
                "rank {r} joined a {} reduction with a mismatched deposit — {e} \
                 (every rank must deposit the same wire precision)",
                S::NAME,
            )
        })?;
        if vals.len() != result.len() {
            return Err(format!(
                "rank {r} joined a reduction with mismatched element count \
                 ({} elements against rank 0's {})",
                vals.len(),
                result.len()
            ));
        }
        for (acc, &v) in result.iter_mut().zip(vals) {
            *acc += v;
        }
    }
    Ok(S::into_payload(result))
}

/// Per-rank handle onto the threaded machine.
// audit:allow(dead_pub) — the handle every `run_threaded` closure receives (tea-app's driver.rs,
// tests/failure_modes.rs); callers never spell the type
pub struct ThreadedComm {
    rank: usize,
    shared: Arc<Shared>,
    /// `senders[to]`: this rank's end of its channel to each rank.
    senders: Vec<Sender<Msg>>,
    /// `receivers[from]`: this rank's end of each rank's channel to it.
    receivers: Vec<Receiver<Msg>>,
    stats: CommStats,
}

impl std::fmt::Debug for ThreadedComm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadedComm")
            .field("rank", &self.rank)
            .field("size", &self.shared.size)
            .finish()
    }
}

impl Communicator for ThreadedComm {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.shared.size
    }

    fn allreduce_sum_payload(&self, locals: Payload) -> Payload {
        // width-native: an F32 deposit is accounted at 4 bytes/element
        // and folded in f32, never touching f64 on the "wire"
        self.stats.count_reduction_payload(&locals);
        self.shared.rendezvous(self.rank, locals)
    }

    fn barrier(&self) {
        self.stats.count_barrier();
        self.shared.rendezvous(self.rank, Payload::F64(Vec::new()));
    }

    fn send(&self, to: usize, tag: u64, data: Payload) {
        assert!(to < self.shared.size, "send to rank {to} out of range");
        assert_ne!(to, self.rank, "self-sends are a protocol error");
        self.stats.count_send(&data);
        self.senders[to]
            .send(Msg { tag, data })
            .expect("receiver rank terminated while messages were in flight");
    }

    fn recv(&self, from: usize, tag: u64) -> Payload {
        assert!(
            from < self.shared.size,
            "recv from rank {from} out of range"
        );
        let msg = self.receivers[from]
            .recv()
            .expect("sender rank terminated before sending expected message");
        assert_eq!(
            msg.tag,
            tag,
            "protocol mismatch: rank {} expected tag {tag} from {from}, got {} \
             (a {}-element {} payload)",
            self.rank,
            msg.tag,
            msg.data.len(),
            msg.data.scalar_name()
        );
        self.stats.count_recv(&msg.data);
        msg.data
    }

    fn stats(&self) -> &CommStats {
        &self.stats
    }

    fn as_dyn(&self) -> &dyn Communicator {
        self
    }
}

/// Runs `f` on `ranks` threads, each with its own [`ThreadedComm`].
/// Returns the per-rank results in rank order.
///
/// Panics in any rank propagate after all threads complete or unwind
/// (matching `mpirun` aborting the job).
pub fn run_threaded<T, F>(ranks: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(&ThreadedComm) -> T + Sync,
{
    assert!(ranks > 0, "need at least one rank");
    let shared = Shared::new(ranks);
    std::thread::scope(|scope| {
        let handles: Vec<_> = links(ranks)
            .into_iter()
            .enumerate()
            .map(|(rank, (senders, receivers))| {
                let shared = Arc::clone(&shared);
                let f = &f;
                scope.spawn(move || {
                    let comm = ThreadedComm {
                        rank,
                        shared,
                        senders,
                        receivers,
                        stats: CommStats::new(),
                    };
                    f(&comm)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rank thread panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::AssertUnwindSafe;

    #[test]
    fn allreduce_sum_is_deterministic_and_correct() {
        for _ in 0..20 {
            let results = run_threaded(5, |c| c.allreduce_sum((c.rank() + 1) as f64));
            assert!(results.iter().all(|&r| r == 15.0));
        }
    }

    #[test]
    fn fused_reduction_matches_individual() {
        let fused = run_threaded(3, |c| {
            c.allreduce_sum_many(&[c.rank() as f64, 2.0 * c.rank() as f64, 1.0])
        });
        for r in fused {
            assert_eq!(r, vec![3.0, 6.0, 3.0]);
        }
    }

    #[test]
    fn repeated_reductions_stay_in_sync() {
        let results = run_threaded(4, |c| {
            let mut acc = 0.0;
            for i in 0..100 {
                acc += c.allreduce_sum(i as f64 + c.rank() as f64);
            }
            acc
        });
        let expected: f64 = (0..100).map(|i| 4.0 * i as f64 + 6.0).sum();
        assert!(results.iter().all(|&r| r == expected));
    }

    #[test]
    fn point_to_point_ring() {
        let results = run_threaded(4, |c| {
            let next = (c.rank() + 1) % 4;
            let prev = (c.rank() + 3) % 4;
            c.send(next, 7, vec![c.rank() as f64].into());
            let got: Vec<f64> = c.recv(prev, 7).try_into_vec().unwrap();
            got[0]
        });
        assert_eq!(results, vec![3.0, 0.0, 1.0, 2.0]);
    }

    #[test]
    fn message_order_preserved_per_pair() {
        let results = run_threaded(2, |c| {
            if c.rank() == 0 {
                for i in 0..50 {
                    c.send(1, i, vec![i as f64].into());
                }
                0.0
            } else {
                let mut last = -1.0;
                for i in 0..50 {
                    let d: Vec<f64> = c.recv(0, i).try_into_vec().unwrap();
                    assert!(d[0] > last);
                    last = d[0];
                }
                last
            }
        });
        assert_eq!(results[1], 49.0);
    }

    #[test]
    fn barrier_synchronises() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let before = AtomicUsize::new(0);
        run_threaded(4, |c| {
            before.fetch_add(1, Ordering::SeqCst);
            c.barrier();
            // after the barrier every rank must observe all 4 increments
            assert_eq!(before.load(Ordering::SeqCst), 4);
        });
    }

    #[test]
    fn stats_count_messages() {
        let snaps = run_threaded(2, |c| {
            if c.rank() == 0 {
                c.send(1, 0, vec![1.0f64, 2.0, 3.0].into());
                c.send(1, 1, vec![1.0f32, 2.0].into());
            } else {
                let _ = c.recv(0, 0);
                let _ = c.recv(0, 1);
            }
            c.barrier();
            c.stats().snapshot()
        });
        assert_eq!(snaps[0].msgs_sent, 2);
        assert_eq!(snaps[0].elems_sent_f64, 3);
        assert_eq!(snaps[0].elems_sent_f32, 2);
        assert_eq!(snaps[0].bytes_sent(), 3 * 8 + 2 * 4);
        assert_eq!(snaps[1].msgs_received, 2);
        assert_eq!(snaps[1].elems_received_f64, 3);
        assert_eq!(snaps[1].elems_received_f32, 2);
        assert_eq!(snaps[1].bytes_received(), 32);
        assert_eq!(snaps[0].barriers, 1);
    }

    #[test]
    fn f32_payload_reduction_folds_natively() {
        let results = run_threaded(4, |c| {
            let local = Payload::F32(vec![c.rank() as f32 + 0.5, 1.0]);
            let folded = c.allreduce_sum_payload(local);
            let snap = c.stats().snapshot();
            (folded, snap)
        });
        for (folded, snap) in results {
            // rank-order f32 fold: 0.5 + 1.5 + 2.5 + 3.5, exactly
            assert_eq!(folded, Payload::F32(vec![8.0, 4.0]));
            assert_eq!(snap.reductions, 1);
            assert_eq!(snap.reduction_elems_f32, 2);
            assert_eq!(snap.reduction_elems_f64, 0);
            assert_eq!(snap.reduction_bytes(), 2 * 4);
        }
    }

    #[test]
    fn f64_payload_reduction_matches_allreduce_sum_many() {
        let results = run_threaded(3, |c| {
            let locals = vec![c.rank() as f64, 2.0 * c.rank() as f64];
            let many = c.allreduce_sum_many(&locals);
            let payload = c.allreduce_sum_payload(Payload::F64(locals));
            (many, payload)
        });
        for (many, payload) in results {
            assert_eq!(Payload::F64(many), payload);
        }
    }

    #[test]
    fn mixed_width_reduction_is_a_protocol_error() {
        let error = fold_slots::<f64>(&[Payload::F64(vec![1.0]), Payload::F32(vec![1.0])])
            .expect_err("a mixed fold must fail");
        assert!(error.contains("same wire precision"), "{error}");
        let error = fold_slots::<f64>(&[Payload::F64(vec![1.0]), Payload::F64(vec![1.0, 2.0])])
            .expect_err("a ragged fold must fail");
        assert!(error.contains("element count"), "{error}");
    }

    /// Runs a two-rank machine whose ranks deposit `deposits[rank]`
    /// under a watchdog, each rank catching its own panic: what every
    /// rank's reduction ended with, or a test failure after 30 s if the
    /// machine hangs.
    fn mismatched_rendezvous(deposits: [Payload; 2]) -> Vec<Result<Payload, String>> {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let ranks = run_threaded(2, |c| {
                let deposit = deposits[c.rank()].clone();
                std::panic::catch_unwind(AssertUnwindSafe(|| c.allreduce_sum_payload(deposit)))
                    .map_err(|panic| {
                        panic
                            .downcast_ref::<String>()
                            .cloned()
                            .unwrap_or_else(|| "a panic without a message".to_owned())
                    })
            });
            let _ = tx.send(ranks);
        });
        rx.recv_timeout(std::time::Duration::from_secs(30))
            .expect("a mismatched rendezvous hung: the waiting rank was never woken")
    }

    #[test]
    fn mismatched_rendezvous_panics_every_rank_instead_of_hanging() {
        // whichever rank arrives last finds the mismatch; the other is
        // already waiting and must be woken with the same error
        for (deposits, error) in [
            (
                [Payload::F64(vec![1.0]), Payload::F32(vec![1.0])],
                "same wire precision",
            ),
            (
                [Payload::F32(vec![1.0]), Payload::F32(vec![1.0; 2])],
                "element count",
            ),
        ] {
            let ranks = mismatched_rendezvous(deposits);
            assert_eq!(ranks.len(), 2);
            assert_eq!(ranks[0], ranks[1], "every rank ends with the one error");
            let message = ranks[0].as_ref().expect_err("a mismatch must not fold");
            assert!(message.contains(error), "{message}");
        }
    }

    #[test]
    #[should_panic]
    fn tag_mismatch_is_detected() {
        run_threaded(2, |c| {
            if c.rank() == 0 {
                c.send(1, 1, vec![0.0f64].into());
            } else {
                let _ = c.recv(0, 2);
            }
        });
    }

    #[test]
    fn single_rank_machine_works() {
        let r = run_threaded(1, |c| c.allreduce_sum(5.0));
        assert_eq!(r, vec![5.0]);
    }
}
