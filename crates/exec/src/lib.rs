//! Deterministic fan-out execution for batch evaluation.
//!
//! Every throughput-bound loop in this workspace — GA population
//! evaluation, Monte-Carlo campaigns, value-iteration sweeps, batched
//! encounter simulation — has the same shape: map a pure function over a
//! list of independent jobs and collect the results *in job order*. This
//! crate provides that one primitive, [`Executor`], with the guarantees
//! the validation tooling depends on:
//!
//! * **Determinism**: results are identical for any thread count,
//!   because each job is a pure function of its input (seeds travel with
//!   jobs) and results are placed by job index, never by completion
//!   order.
//! * **Work stealing**: workers pull the next job from a shared atomic
//!   counter, so uneven job costs (encounters that alert simulate slower
//!   than ones that do not) cannot starve the pool the way fixed
//!   chunking does.
//! * **Worker-local scratch**: [`Executor::map_with`] gives every worker
//!   one lazily initialized scratch value, which is how the simulation
//!   layer reuses avoider and world allocations across thousands of runs
//!   (see `uavca_validation`'s `BatchRunner`).
//!
//! Threads are scoped (std scoped threads): no pool lives beyond a call,
//! so there is no shutdown protocol and borrowed job lists are fine.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A fan-out executor with a fixed degree of parallelism.
///
/// `Executor` is a value, not a handle to live threads: it records how
/// many workers a [`map`](Executor::map) call may spawn. Cloning and
/// sharing it is free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Executor {
    threads: usize,
}

impl Executor {
    /// An executor with `threads` workers; `0` selects the machine's
    /// available parallelism.
    pub fn new(threads: usize) -> Self {
        Self { threads }
    }

    /// A strictly serial executor (the in-thread fast path; used by
    /// nested evaluation sites that are already inside a worker).
    pub fn serial() -> Self {
        Self { threads: 1 }
    }

    /// The number of workers a call over `jobs` jobs will actually use.
    pub fn resolved_threads(&self, jobs: usize) -> usize {
        let hw = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let t = if self.threads == 0 { hw } else { self.threads };
        t.clamp(1, jobs.max(1))
    }

    /// Maps `f` over `items`, returning results in item order.
    ///
    /// `f` must be pure with respect to each item for the determinism
    /// guarantee to hold (all randomness must come seeded from the item).
    pub fn map<T, O, F>(&self, items: &[T], f: F) -> Vec<O>
    where
        T: Sync,
        O: Send,
        F: Fn(&T) -> O + Sync,
    {
        self.map_with(items, || (), move |(), item| f(item))
    }

    /// Maps `f` over `items` with one worker-local scratch value, created
    /// by `init` at most once per worker.
    ///
    /// Scratch must not influence results (allocation reuse, caches):
    /// which worker runs which job is scheduling-dependent.
    pub fn map_with<T, S, O, I, F>(&self, items: &[T], init: I, f: F) -> Vec<O>
    where
        T: Sync,
        O: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, &T) -> O + Sync,
    {
        let threads = self.resolved_threads(items.len());
        if threads <= 1 {
            let mut scratch = init();
            return items.iter().map(|item| f(&mut scratch, item)).collect();
        }

        let slots: Vec<Mutex<Option<O>>> = (0..items.len()).map(|_| Mutex::new(None)).collect();
        let cursor = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    let mut scratch: Option<S> = None;
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        let scratch = scratch.get_or_insert_with(&init);
                        let out = f(scratch, &items[i]);
                        *slots[i].lock().expect("result slot poisoned") = Some(out);
                    }
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("result slot poisoned")
                    .expect("every job index was claimed exactly once")
            })
            .collect()
    }
}

impl Default for Executor {
    /// Hardware parallelism.
    fn default() -> Self {
        Self::new(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn map_preserves_order_for_any_thread_count() {
        let items: Vec<u64> = (0..257).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in [1, 2, 3, 8, 0] {
            let got = Executor::new(threads).map(&items, |x| x * x);
            assert_eq!(got, expect, "threads = {threads}");
        }
    }

    #[test]
    fn uneven_job_costs_still_collect_in_order() {
        let items: Vec<usize> = (0..64).collect();
        let got = Executor::new(4).map(&items, |&i| {
            if i % 7 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            i * 3
        });
        assert_eq!(got, items.iter().map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn scratch_is_initialized_at_most_once_per_worker() {
        let items: Vec<usize> = (0..100).collect();
        for threads in [1, 4] {
            let inits = AtomicUsize::new(0);
            let got = Executor::new(threads).map_with(
                &items,
                || {
                    inits.fetch_add(1, Ordering::Relaxed);
                    0usize
                },
                |count, &i| {
                    *count += 1;
                    i + 1
                },
            );
            assert_eq!(got, (1..=100).collect::<Vec<_>>(), "threads = {threads}");
            let inits = inits.load(Ordering::Relaxed);
            assert!(
                (1..=threads).contains(&inits),
                "threads = {threads}: one scratch per worker at most, got {inits}"
            );
        }
    }

    #[test]
    fn empty_and_single_item_batches() {
        let empty: Vec<u32> = Vec::new();
        assert!(Executor::default().map(&empty, |x| *x).is_empty());
        assert_eq!(Executor::new(0).map(&[41u32], |x| x + 1), vec![42]);
    }

    #[test]
    fn resolved_threads_clamps_to_jobs() {
        let e = Executor::new(16);
        assert_eq!(e.resolved_threads(3), 3);
        assert_eq!(e.resolved_threads(0), 1);
        assert_eq!(Executor::serial().resolved_threads(100), 1);
        assert!(Executor::new(0).resolved_threads(usize::MAX) >= 1);
    }
}
