//! A small deterministic thread-parallel map, shared by the experiment
//! sweeps (100 flow sets per point, 100 mappings per topology), the
//! serving layer's shards and the buffer-depth fill of
//! [`AnalysisContext::warm_buffer_depths`](crate::context::AnalysisContext::warm_buffer_depths).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Applies `f` to every index in `0..n` across `threads` worker threads and
/// returns the results in index order (fully deterministic regardless of
/// scheduling). With one worker to run — `threads` or `n` is 1 — every
/// item runs on the calling thread and no thread is spawned.
///
/// # Examples
///
/// ```
/// # use noc_analysis::runner::par_map_indexed;
/// let squares = par_map_indexed(8, 4, |i| i * i);
/// assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
/// ```
///
/// # Panics
///
/// Panics if `threads == 0`. If `f` panics, the panic is re-raised on the
/// calling thread with its own payload, once every worker has stopped.
pub fn par_map_indexed<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    assert!(threads > 0, "need at least one worker thread");
    let threads = threads.min(n);
    if threads <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let results: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let value = f(i);
                    *results[i].lock().expect("poisoned result slot") = Some(value);
                })
            })
            .collect();
        for worker in workers {
            if let Err(panic) = worker.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });
    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("poisoned result slot")
                .expect("every index was processed")
        })
        .collect()
}

/// Default worker count: the machine's available parallelism, capped at 16.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get().min(16))
        .unwrap_or(4)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_in_index_order() {
        let out = par_map_indexed(100, 7, |i| i * 2);
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn single_thread_works() {
        assert_eq!(par_map_indexed(3, 1, |i| i + 1), vec![1, 2, 3]);
    }

    #[test]
    fn zero_items_is_empty() {
        let out: Vec<usize> = par_map_indexed(0, 4, |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn more_threads_than_items() {
        assert_eq!(par_map_indexed(2, 16, |i| i), vec![0, 1]);
    }

    #[test]
    fn one_worker_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        for (n, threads) in [(3, 1), (1, 4)] {
            let ran_on = par_map_indexed(n, threads, |_| std::thread::current().id());
            assert!(ran_on.iter().all(|&id| id == caller), "{n} items");
        }
    }

    #[test]
    fn a_panicking_item_surfaces_its_own_message() {
        let caught = std::panic::catch_unwind(|| {
            par_map_indexed(8, 4, |i| {
                assert_ne!(i, 5, "item {i} failed");
                i
            })
        });
        let payload = caught.expect_err("item 5 panics");
        let message = payload.downcast_ref::<String>().map(String::as_str);
        assert!(
            message.is_some_and(|m| m.contains("item 5 failed")),
            "{message:?}"
        );
    }

    #[test]
    fn default_threads_positive() {
        assert!(default_threads() >= 1);
    }
}
