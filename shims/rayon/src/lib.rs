//! Minimal, dependency-free stand-in for the `rayon` crate.
//!
//! The build environment has no registry access, so the workspace vendors a
//! small but *real* data-parallel iterator: work is distributed over
//! `std::thread::scope` workers that pull items from a shared queue
//! (dynamic load balancing — synthesis candidates vary wildly in cost), and
//! results are re-ordered by input index so every adaptor is
//! order-preserving. Parallel and sequential execution therefore produce
//! identical outputs for pure per-item functions.
//!
//! Unlike upstream rayon, adaptors evaluate eagerly: each `map` is one
//! parallel pass. Chains of adaptors insert a barrier per stage, which is
//! fine for the coarse-grained fan-outs this workspace runs. [`join`] forks
//! two closures the same way, on one extra scoped thread.
//!
//! Every fan-out is as wide as [`current_num_threads`]. A [`ThreadPool`]
//! holds no threads: [`ThreadPool::install`] runs its closure on the caller
//! with the pool's width pinned, and the scoped workers of a fan-out inside
//! it inherit that width.

use std::cell::Cell;
use std::convert::Infallible;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Mutex;

thread_local! {
    /// The width [`ThreadPool::install`] pinned on this thread; 0 when
    /// none is, and the default width applies.
    static PINNED: Cell<usize> = const { Cell::new(0) };
}

/// Number of worker threads a parallel pass will use.
///
/// Inside [`ThreadPool::install`], the pool's width. Otherwise honors
/// `RAYON_NUM_THREADS` when set (like upstream), else the machine's
/// available parallelism.
pub fn current_num_threads() -> usize {
    let pinned = PINNED.get();
    if pinned >= 1 {
        return pinned;
    }
    if let Ok(v) = std::env::var("RAYON_NUM_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Builds a [`ThreadPool`] (upstream rayon's builder, width only).
#[derive(Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    /// A builder for a pool of the default width.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the pool's width; 0 (the default) means the width
    /// [`current_num_threads`] reports outside any pool.
    pub fn num_threads(mut self, num_threads: usize) -> Self {
        self.num_threads = num_threads;
        self
    }

    /// Creates the pool. Unlike upstream's, this cannot fail: a pool
    /// spawns no threads up front.
    pub fn build(self) -> Result<ThreadPool, Infallible> {
        Ok(ThreadPool {
            num_threads: self.num_threads,
        })
    }
}

/// A fan-out width to run code under ([`ThreadPool::install`]).
pub struct ThreadPool {
    num_threads: usize,
}

impl ThreadPool {
    /// Runs `op` on the caller with every fan-out inside it as wide as the
    /// pool, and returns its result. The previous width comes back when
    /// `op` returns or unwinds.
    pub fn install<OP, R>(&self, op: OP) -> R
    where
        OP: FnOnce() -> R + Send,
        R: Send,
    {
        struct Restore(usize);
        impl Drop for Restore {
            fn drop(&mut self) {
                PINNED.set(self.0);
            }
        }
        let _restore = Restore(PINNED.replace(self.num_threads));
        op()
    }
}

/// Applies `f` to every item on a pool of scoped workers, preserving input
/// order in the output. Items are claimed one at a time from a shared
/// queue, so uneven per-item cost still keeps all workers busy.
fn parallel_map<T, U, F>(items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    let len = items.len();
    let workers = current_num_threads().min(len);
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }
    let pinned = PINNED.get();
    let queue = Mutex::new(items.into_iter().enumerate());
    let results: Mutex<Vec<(usize, U)>> = Mutex::new(Vec::with_capacity(len));
    let mut panic_payload = None;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    PINNED.set(pinned);
                    loop {
                        let next = queue.lock().unwrap().next();
                        let Some((index, item)) = next else { break };
                        let out = f(item);
                        results.lock().unwrap().push((index, out));
                    }
                })
            })
            .collect();
        // Join explicitly so a worker's panic payload survives (the scope
        // itself would rethrow a generic "a scoped thread panicked").
        for handle in handles {
            if let Err(payload) = handle.join() {
                panic_payload.get_or_insert(payload);
            }
        }
    });
    if let Some(payload) = panic_payload {
        resume_unwind(payload);
    }
    let mut indexed = match results.into_inner() {
        Ok(v) => v,
        Err(poisoned) => poisoned.into_inner(),
    };
    indexed.sort_unstable_by_key(|&(index, _)| index);
    indexed.into_iter().map(|(_, out)| out).collect()
}

/// Runs `oper_a` and `oper_b`, potentially in parallel, and returns both
/// results (upstream rayon's signature).
///
/// `oper_b` runs on one extra scoped thread while `oper_a` runs on the
/// caller; at one thread ([`current_num_threads`]) both run on the caller,
/// `oper_a` first, and no thread is spawned. A panic in either closure is
/// re-raised with its original payload once both have finished; when both
/// panic, `oper_a`'s payload wins, as upstream.
pub fn join<A, B, RA, RB>(oper_a: A, oper_b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    if current_num_threads() <= 1 {
        return (oper_a(), oper_b());
    }
    let pinned = PINNED.get();
    std::thread::scope(|scope| {
        let handle = scope.spawn(move || {
            PINNED.set(pinned);
            oper_b()
        });
        let ra = catch_unwind(AssertUnwindSafe(oper_a));
        // Joined explicitly so `oper_b`'s own payload survives (the scope
        // would rethrow a generic "a scoped thread panicked").
        match (ra, handle.join()) {
            (Ok(ra), Ok(rb)) => (ra, rb),
            (Err(payload), _) | (_, Err(payload)) => resume_unwind(payload),
        }
    })
}

/// An order-preserving parallel iterator over an owned buffer of items.
pub struct ParIter<T> {
    items: Vec<T>,
}

impl<T: Send> ParIter<T> {
    /// Parallel `map`; output order matches input order.
    pub fn map<U: Send, F: Fn(T) -> U + Sync>(self, f: F) -> ParIter<U> {
        ParIter {
            items: parallel_map(self.items, f),
        }
    }

    /// Gathers the items into any `FromIterator` collection, in order.
    pub fn collect<C: FromIterator<T>>(self) -> C {
        self.items.into_iter().collect()
    }
}

/// Conversion of borrowed collections into a parallel iterator.
pub trait IntoParallelRefIterator<'a> {
    /// Item type (a shared reference).
    type Item: Send;

    /// Parallel iterator over `&self`'s items.
    fn par_iter(&'a self) -> ParIter<Self::Item>;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = &'a T;

    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

pub mod prelude {
    //! Glob-import surface mirroring `rayon::prelude`.
    pub use crate::{IntoParallelRefIterator, ParIter};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::{current_num_threads, join, ThreadPool, ThreadPoolBuilder};
    use std::any::Any;
    use std::panic::catch_unwind;
    use std::sync::{Barrier, Mutex};
    use std::thread;

    fn pool(width: usize) -> ThreadPool {
        ThreadPoolBuilder::new().num_threads(width).build().unwrap()
    }

    fn panic_message(payload: &(dyn Any + Send)) -> &str {
        payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .unwrap_or_default()
    }

    #[test]
    fn map_preserves_order() {
        let items: Vec<usize> = (0..1000).collect();
        let out: Vec<usize> = items.par_iter().map(|&x| x * 2).collect();
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn uneven_work_still_completes() {
        let items: Vec<u64> = (0..64).collect();
        let out: Vec<u64> = items
            .par_iter()
            .map(|&x| (0..(x % 7) * 1000).fold(x, |a, b| a.wrapping_add(b)))
            .collect();
        assert_eq!(out.len(), 64);
    }

    #[test]
    fn worker_panic_payload_is_propagated() {
        // A 4-wide pool runs the threaded path even on single-CPU machines
        // (without touching the process environment).
        let items: Vec<u32> = (0..32).collect();
        let result = catch_unwind(|| {
            pool(4).install(|| {
                items
                    .par_iter()
                    .map(|&x| {
                        assert!(x != 17, "original message");
                        x
                    })
                    .collect::<Vec<_>>()
            })
        });
        let payload = result.expect_err("map must panic");
        let message = panic_message(&*payload);
        assert!(
            message.contains("original message"),
            "payload lost: {message:?}"
        );
    }

    #[test]
    fn par_iter_borrows() {
        // A `Vec` reaches `par_iter` through the `[T]` impl.
        let v: Vec<i32> = (1..=3).collect();
        let s: i32 = v.par_iter().map(|&x| x).collect::<Vec<_>>().iter().sum();
        assert_eq!(s, 6);
        assert_eq!(v.len(), 3);
    }

    #[test]
    fn install_pins_the_width_and_restores_it_on_return_and_unwind() {
        let outside = current_num_threads();
        pool(2).install(|| {
            assert_eq!(current_num_threads(), 2);
            assert_eq!(pool(3).install(current_num_threads), 3);
            assert_eq!(current_num_threads(), 2, "restored after return");
            let unwound = catch_unwind(|| pool(5).install(|| panic!("inside")));
            assert_eq!(panic_message(&*unwound.unwrap_err()), "inside");
            assert_eq!(current_num_threads(), 2, "restored after unwind");
            // A fan-out's workers inherit the pool's width.
            let widths: Vec<usize> = [(), ()].par_iter().map(|_| current_num_threads()).collect();
            assert_eq!(widths, [2, 2]);
        });
        assert_eq!(current_num_threads(), outside);
    }

    #[test]
    fn a_two_wide_pool_runs_two_items_at_once() {
        // Each item waits for the other at the barrier, so this completes
        // only if two threads run them, on any host and under any
        // `RAYON_NUM_THREADS`.
        let barrier = Barrier::new(2);
        let ids: Vec<thread::ThreadId> = pool(2).install(|| {
            [(), ()]
                .par_iter()
                .map(|_| {
                    barrier.wait();
                    thread::current().id()
                })
                .collect()
        });
        assert_ne!(ids[0], ids[1]);
    }

    #[test]
    fn a_one_wide_pool_maps_on_the_caller() {
        let caller = thread::current().id();
        let items: Vec<u8> = (0..8).collect();
        let ids: Vec<thread::ThreadId> =
            pool(1).install(|| items.par_iter().map(|_| thread::current().id()).collect());
        assert!(ids.iter().all(|&id| id == caller));
    }

    #[test]
    fn join_returns_both_results() {
        // A 2-wide pool so the forked path runs on any machine.
        let caller = thread::current().id();
        let (a, (b, b_thread)) = pool(2).install(|| {
            join(
                || (0..100u64).sum::<u64>(),
                || ("right".to_string(), thread::current().id()),
            )
        });
        assert_eq!((a, b.as_str()), (4950, "right"));
        assert_ne!(b_thread, caller, "oper_b must run on the forked thread");
        assert_eq!(join(|| 1, || 2), (1, 2));
    }

    #[test]
    fn join_reraises_either_closures_panic_with_its_message() {
        for width in [1, 2] {
            let a = catch_unwind(|| pool(width).install(|| join(|| panic!("left failed"), || 2)));
            assert_eq!(panic_message(&*a.unwrap_err()), "left failed");
            let b = catch_unwind(|| pool(width).install(|| join(|| 1, || panic!("right failed"))));
            assert_eq!(panic_message(&*b.unwrap_err()), "right failed");
        }
        // Both panic: the first closure's payload wins, as upstream.
        let both = catch_unwind(|| {
            pool(2).install(|| {
                join(
                    || -> u8 { panic!("left failed") },
                    || -> u8 { panic!("right failed") },
                )
            })
        });
        assert_eq!(panic_message(&*both.unwrap_err()), "left failed");
    }

    #[test]
    fn join_at_one_thread_runs_both_closures_on_the_caller_in_order() {
        let caller = thread::current().id();
        let order = Mutex::new(Vec::new());
        let (a, b) = pool(1).install(|| {
            join(
                || {
                    order.lock().unwrap().push('a');
                    thread::current().id()
                },
                || {
                    order.lock().unwrap().push('b');
                    thread::current().id()
                },
            )
        });
        assert_eq!((a, b), (caller, caller));
        assert_eq!(*order.lock().unwrap(), ['a', 'b']);
    }
}
