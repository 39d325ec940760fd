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

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Mutex;

/// Number of worker threads a parallel pass will use.
///
/// Honors `RAYON_NUM_THREADS` when set (like upstream), otherwise the
/// machine's available parallelism.
pub fn current_num_threads() -> usize {
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

/// Applies `f` to every item on a pool of scoped workers, preserving input
/// order in the output. Items are claimed one at a time from a shared
/// queue, so uneven per-item cost still keeps all workers busy.
fn parallel_map<T, U, F>(items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    let workers = current_num_threads().min(items.len());
    parallel_map_with_workers(items, f, workers)
}

fn parallel_map_with_workers<T, U, F>(items: Vec<T>, f: F, workers: usize) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    let len = items.len();
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }
    let queue = Mutex::new(items.into_iter().enumerate());
    let results: Mutex<Vec<(usize, U)>> = Mutex::new(Vec::with_capacity(len));
    let mut panic_payload = None;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| loop {
                    let next = queue.lock().unwrap().next();
                    let Some((index, item)) = next else { break };
                    let out = f(item);
                    results.lock().unwrap().push((index, out));
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
/// caller; with one thread (`RAYON_NUM_THREADS=1`) both run on the caller,
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
    join_with_threads(oper_a, oper_b, current_num_threads())
}

fn join_with_threads<A, B, RA, RB>(oper_a: A, oper_b: B, threads: usize) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    if threads <= 1 {
        return (oper_a(), oper_b());
    }
    std::thread::scope(|scope| {
        let handle = scope.spawn(oper_b);
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
    use std::any::Any;
    use std::thread;

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
        // Pin the worker count so the threaded path runs even on
        // single-CPU machines (without touching the process environment).
        let result = std::panic::catch_unwind(|| {
            crate::parallel_map_with_workers(
                (0..32).collect::<Vec<u32>>(),
                |x| {
                    assert!(x != 17, "original message");
                    x
                },
                4,
            )
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
    fn join_returns_both_results() {
        // Pinned to two threads so the forked path runs on any machine.
        let caller = thread::current().id();
        let (a, (b, b_thread)) = crate::join_with_threads(
            || (0..100u64).sum::<u64>(),
            || ("right".to_string(), thread::current().id()),
            2,
        );
        assert_eq!((a, b.as_str()), (4950, "right"));
        assert_ne!(b_thread, caller, "oper_b must run on the forked thread");
        assert_eq!(crate::join(|| 1, || 2), (1, 2));
    }

    #[test]
    fn join_reraises_either_closures_panic_with_its_message() {
        for threads in [1, 2] {
            let a = std::panic::catch_unwind(|| {
                crate::join_with_threads(|| panic!("left failed"), || 2, threads)
            });
            assert_eq!(panic_message(&*a.unwrap_err()), "left failed");
            let b = std::panic::catch_unwind(|| {
                crate::join_with_threads(|| 1, || panic!("right failed"), threads)
            });
            assert_eq!(panic_message(&*b.unwrap_err()), "right failed");
        }
        // Both panic: the first closure's payload wins, as upstream.
        let both = std::panic::catch_unwind(|| {
            crate::join_with_threads(
                || -> u8 { panic!("left failed") },
                || -> u8 { panic!("right failed") },
                2,
            )
        });
        assert_eq!(panic_message(&*both.unwrap_err()), "left failed");
    }

    #[test]
    fn join_at_one_thread_runs_both_closures_on_the_caller_in_order() {
        let caller = thread::current().id();
        let order = std::sync::Mutex::new(Vec::new());
        let (a, b) = crate::join_with_threads(
            || {
                order.lock().unwrap().push('a');
                thread::current().id()
            },
            || {
                order.lock().unwrap().push('b');
                thread::current().id()
            },
            1,
        );
        assert_eq!((a, b), (caller, caller));
        assert_eq!(*order.lock().unwrap(), ['a', 'b']);
    }
}
