//! Offline stand-in for the subset of [`rayon`](https://docs.rs/rayon) used by
//! this workspace. The container building this repository cannot reach
//! crates.io, so this shim reimplements data-parallel iteration on
//! `std::thread::scope`: items are split into one contiguous share per
//! available core, the calling thread maps the last share while one scoped
//! OS thread maps each other share, and results are reassembled in order.
//! Unlike real rayon there is no pool and no work stealing — shares are
//! static — which is adequate for the uniform per-item workloads this
//! workspace parallelizes (candidate-strategy evaluation). A panic in any
//! share, the caller's included, propagates out of the call with its
//! original payload.
//!
//! Supported surface: `par_iter()` / `into_par_iter()` on slices, `Vec`, and
//! `Range<usize>`, with `map`, `filter`, `filter_map`, `flat_map`, `collect`
//! into `Vec`, `min_by`/`max_by`, `sum`, and `count`.

#![forbid(unsafe_code)]

use std::sync::OnceLock;
use std::thread;

/// Returns the number of worker threads the shim will use (one per core).
/// Read from the OS once per process: `available_parallelism` parses
/// cgroup files on Linux, which would otherwise cost every parallel call
/// tens of microseconds.
pub fn current_num_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Runs `f` over `items` in parallel, preserving order. An `n`-share call
/// spawns `n − 1` threads: the calling thread, which would otherwise only
/// wait for them, maps the last share itself.
fn par_map_vec<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let len = items.len();
    let workers = current_num_threads().min(len);
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }
    let share_len = len.div_ceil(workers);
    let mut shares: Vec<Vec<T>> = Vec::with_capacity(workers);
    let mut it = items.into_iter();
    while it.len() > 0 {
        shares.push(it.by_ref().take(share_len).collect());
    }
    let own = shares.pop().expect("at least two items");
    let f = &f;
    thread::scope(|scope| {
        let handles: Vec<_> = shares
            .into_iter()
            .map(|share| scope.spawn(move || share.into_iter().map(f).collect::<Vec<R>>()))
            .collect();
        let own: Vec<R> = own.into_iter().map(f).collect();
        let mut out = Vec::with_capacity(len);
        for handle in handles {
            match handle.join() {
                Ok(part) => out.extend(part),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        out.extend(own);
        out
    })
}

/// A parallel iterator over owned items.
///
/// The pipeline is materialized: every adapter runs one parallel pass. That
/// differs from rayon's fused lazy pipelines but keeps identical results.
pub struct ParIter<T> {
    items: Vec<T>,
}

impl<T: Send> ParIter<T> {
    /// Applies `f` to every item in parallel.
    pub fn map<R: Send, F: Fn(T) -> R + Sync>(self, f: F) -> ParIter<R> {
        ParIter { items: par_map_vec(self.items, f) }
    }

    /// Keeps the items for which `pred` returns `true`.
    pub fn filter<F: Fn(&T) -> bool + Sync>(self, pred: F) -> ParIter<T> {
        ParIter {
            items: par_map_vec(self.items, |t| if pred(&t) { Some(t) } else { None })
                .into_iter()
                .flatten()
                .collect(),
        }
    }

    /// Applies `f` in parallel and keeps the `Some` results.
    pub fn filter_map<R: Send, F: Fn(T) -> Option<R> + Sync>(self, f: F) -> ParIter<R> {
        ParIter { items: par_map_vec(self.items, f).into_iter().flatten().collect() }
    }

    /// Maps each item to an iterator and concatenates the results in order.
    pub fn flat_map<R, I, F>(self, f: F) -> ParIter<R>
    where
        R: Send,
        I: IntoIterator<Item = R>,
        F: Fn(T) -> I + Sync,
        I::IntoIter: Send,
    {
        ParIter {
            items: par_map_vec(self.items, |t| f(t).into_iter().collect::<Vec<R>>())
                .into_iter()
                .flatten()
                .collect(),
        }
    }

    /// Collects the items into a container (currently `Vec<T>`).
    pub fn collect<C: FromParIter<T>>(self) -> C {
        C::from_par_iter(self)
    }

    /// Returns the minimum item under `cmp`, or `None` when empty.
    pub fn min_by<F: Fn(&T, &T) -> std::cmp::Ordering>(self, cmp: F) -> Option<T> {
        self.items.into_iter().min_by(|a, b| cmp(a, b))
    }

    /// Returns the maximum item under `cmp`, or `None` when empty.
    pub fn max_by<F: Fn(&T, &T) -> std::cmp::Ordering>(self, cmp: F) -> Option<T> {
        self.items.into_iter().max_by(|a, b| cmp(a, b))
    }

    /// Number of items remaining in the pipeline.
    pub fn count(self) -> usize {
        self.items.len()
    }

    /// Sums the items.
    pub fn sum<S: std::iter::Sum<T>>(self) -> S {
        self.items.into_iter().sum()
    }
}

/// Conversion from a [`ParIter`] pipeline into a collection.
pub trait FromParIter<T> {
    /// Builds the collection from the pipeline's items.
    fn from_par_iter(iter: ParIter<T>) -> Self;
}

impl<T> FromParIter<T> for Vec<T> {
    fn from_par_iter(iter: ParIter<T>) -> Self {
        iter.items
    }
}

/// Types convertible into a parallel iterator over owned items.
pub trait IntoParallelIterator {
    /// The item type produced.
    type Item: Send;
    /// Converts `self` into a parallel iterator.
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

impl IntoParallelIterator for std::ops::Range<usize> {
    type Item = usize;
    fn into_par_iter(self) -> ParIter<usize> {
        ParIter { items: self.collect() }
    }
}

/// Types whose references are parallel-iterable (`par_iter`).
pub trait IntoParallelRefIterator<'a> {
    /// The reference item type produced.
    type Item: Send + 'a;
    /// Returns a parallel iterator over references to `self`'s items.
    fn par_iter(&'a self) -> ParIter<Self::Item>;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = &'a T;
    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter { items: self.iter().collect() }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = &'a T;
    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter { items: self.iter().collect() }
    }
}

/// The traits needed to call `par_iter()`/`into_par_iter()`.
pub mod prelude {
    pub use crate::{FromParIter, IntoParallelIterator, IntoParallelRefIterator, ParIter};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn map_preserves_order() {
        // Lengths that split into uneven shares on any core count.
        for n in [1usize, 2, 3, 5, 17, 101, 1000] {
            let doubled: Vec<usize> = (0..n).into_par_iter().map(|i| i * 2).collect();
            assert_eq!(doubled, (0..n).map(|i| i * 2).collect::<Vec<_>>(), "{n} items");
        }
    }

    #[test]
    fn filter_map_matches_serial() {
        let v: Vec<u64> = (0..257).collect();
        let par: Vec<u64> = v.par_iter().filter_map(|&x| (x % 3 == 0).then_some(x * x)).collect();
        let ser: Vec<u64> = v.iter().filter_map(|&x| (x % 3 == 0).then_some(x * x)).collect();
        assert_eq!(par, ser);
    }

    #[test]
    fn min_by_and_empty_cases() {
        let v: Vec<i32> = vec![5, -3, 7, 0];
        assert_eq!(v.clone().into_par_iter().min_by(|a, b| a.cmp(b)), Some(-3));
        assert_eq!(v.into_par_iter().max_by(|a, b| a.cmp(b)), Some(7));
        let empty: Vec<i32> = Vec::new();
        assert_eq!(empty.into_par_iter().min_by(|a, b| a.cmp(b)), None);
        let none: Vec<i32> = Vec::new();
        assert_eq!(none.into_par_iter().map(|x| x).collect::<Vec<_>>(), Vec::<i32>::new());
    }

    #[test]
    fn flat_map_concatenates_in_order() {
        let out: Vec<usize> = (0..5).into_par_iter().flat_map(|i| vec![i; i]).collect();
        assert_eq!(out, vec![1, 2, 2, 3, 3, 3, 4, 4, 4, 4]);
    }

    #[test]
    fn the_calling_thread_maps_the_last_share() {
        let me = std::thread::current().id();
        for n in [1usize, 2, 3, 7, 64] {
            let ids: Vec<_> = (0..n).into_par_iter().map(|_| std::thread::current().id()).collect();
            assert_eq!(ids.last(), Some(&me), "{n} items");
        }
    }

    #[test]
    fn thread_count_is_stable_across_calls() {
        let first = super::current_num_threads();
        assert!(first >= 1);
        for _ in 0..16 {
            assert_eq!(super::current_num_threads(), first);
        }
    }

    #[test]
    fn a_panic_in_any_share_propagates_with_its_payload() {
        let n = 16usize;
        // Item `n - 1` lies in the calling thread's share, item 0 in a
        // spawned one whenever more than one core is available.
        for bad in [0, n / 2, n - 1] {
            let caught = std::panic::catch_unwind(|| {
                (0..n)
                    .into_par_iter()
                    .map(|i| if i == bad { panic!("share item {i}") } else { i })
                    .collect::<Vec<usize>>()
            });
            let payload = caught.expect_err("the panic propagates");
            let message = payload.downcast_ref::<String>().expect("formatted payload");
            assert_eq!(message, &format!("share item {bad}"));
        }
    }

    #[test]
    fn actually_runs_on_multiple_threads_when_available() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        let seen = Mutex::new(HashSet::new());
        let _: Vec<()> = (0..64)
            .into_par_iter()
            .map(|_| {
                seen.lock().unwrap().insert(std::thread::current().id());
            })
            .collect();
        let distinct = seen.lock().unwrap().len();
        assert!(distinct <= super::current_num_threads().max(1));
        assert!(distinct >= 1);
    }
}
