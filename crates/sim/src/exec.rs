//! The workspace's one parallel loop: an ordered fan-out over scoped
//! threads, built only on `std::thread` and a mutex-guarded queue.
//!
//! The paper sweep (`harmonia_bench::all_tables`) is its only library
//! caller: its independent tables are coarse enough to share out across
//! threads, while every loop underneath a table runs serially (see
//! DESIGN.md, "Why the paper sweep is the only parallel loop"). The
//! calling thread is one of the workers, so a sweep at width `w` spawns
//! `w − 1` threads. The contract that makes it safe in deterministic
//! code:
//!
//! * **Ordered reassembly** — results come back in submission order, so
//!   the output is the serial loop's at any width.
//! * **Deterministic panic propagation** — if several items panic, the
//!   panic of the lowest-index item is the one re-raised on the caller,
//!   matching what the serial loop would have hit first.
//!
//! The width is [`std::thread::available_parallelism`]; nothing reads
//! the environment.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Mutex;

/// Applies `f` to every point of `grid` on scoped threads, returning the
/// results in grid order.
///
/// # Panics
///
/// Re-raises the panic of the lowest-index point that panicked.
pub fn par_sweep<T, R, F>(grid: impl IntoIterator<Item = T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    sweep_at(width(), grid, f)
}

/// The machine's available parallelism (at least one).
fn width() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// [`par_sweep`] on at most `workers` threads, the calling thread being
/// one of them; one worker (or at most one point) runs inline.
fn sweep_at<T, R, F>(workers: usize, grid: impl IntoIterator<Item = T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let items: Vec<T> = grid.into_iter().collect();
    let n = items.len();
    if workers <= 1 || n <= 1 {
        return items.into_iter().map(f).collect();
    }

    // Every worker, the caller included, takes the next item off the
    // shared queue until it is empty and returns what it ran, by index.
    let queue = Mutex::new(items.into_iter().enumerate());
    let work = || {
        let mut ran = Vec::new();
        loop {
            // Hold the lock only for the dequeue.
            let next = queue.lock().expect("queue lock never poisoned").next();
            let Some((idx, item)) = next else { break ran };
            ran.push((idx, catch_unwind(AssertUnwindSafe(|| f(item)))));
        }
    };

    let mut ran = std::thread::scope(|s| {
        let helpers: Vec<_> = (1..workers.min(n)).map(|_| s.spawn(work)).collect();
        let mut ran = work();
        for helper in helpers {
            ran.extend(helper.join().expect("item panics are caught"));
        }
        ran
    });

    // Reassemble by index; the first panic in index order wins.
    ran.sort_unstable_by_key(|&(idx, _)| idx);
    ran.into_iter()
        .map(|(_, out)| out.unwrap_or_else(|payload| resume_unwind(payload)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Condvar;

    /// How many items have finished, and a condvar to wait on it.
    #[derive(Default)]
    struct Progress {
        finished: Mutex<u64>,
        changed: Condvar,
    }

    /// Marks an item finished when dropped, even if the item panics.
    struct Finish<'a>(&'a Progress);

    impl Drop for Finish<'_> {
        fn drop(&mut self) {
            *self.0.finished.lock().expect("progress lock") += 1;
            self.0.changed.notify_all();
        }
    }

    /// Sweeps `0..n` at `workers`, holding item `last` back until every
    /// other item has finished, so completion order differs from
    /// submission order. One worker runs inline and cannot hold back.
    fn sweep_finishing_last<R: Send>(
        workers: usize,
        n: u64,
        last: u64,
        f: impl Fn(u64) -> R + Sync,
    ) -> Vec<R> {
        let progress = Progress::default();
        sweep_at(workers, 0..n, |i| {
            if i == last && workers > 1 {
                let finished = progress.finished.lock().expect("progress lock");
                let wait = progress.changed.wait_while(finished, |done| *done < n - 1);
                drop(wait.expect("progress lock"));
                return f(i);
            }
            let _finish = Finish(&progress);
            f(i)
        })
    }

    #[test]
    fn threads_is_at_least_one() {
        assert!(width() >= 1);
    }

    fn squares(workers: usize, n: u64) -> Vec<u64> {
        sweep_finishing_last(workers, n, 0, |i| i * i)
    }

    #[test]
    fn serial_and_parallel_agree_in_order() {
        let want: Vec<u64> = (0..37).map(|i| i * i).collect();
        for workers in [1, 2, 3, 8, 64] {
            assert_eq!(squares(workers, 37), want, "{workers} workers");
        }
    }

    #[test]
    fn empty_and_single_job_sets() {
        for workers in [1, 4] {
            assert_eq!(squares(workers, 0), Vec::<u64>::new(), "{workers} workers");
            assert_eq!(squares(workers, 1), vec![0], "{workers} workers");
        }
    }

    #[test]
    fn more_workers_than_jobs() {
        assert_eq!(squares(16, 3), vec![0, 1, 4]);
    }

    #[test]
    fn lowest_index_panic_wins() {
        for workers in [2, 3, 8] {
            let err = catch_unwind(|| {
                // Item 2 panics after every later item has panicked.
                sweep_finishing_last(workers, 8, 2, |i| match i {
                    0 | 1 => i,
                    2 => panic!("second"),
                    _ => panic!("later"),
                })
            })
            .expect_err("must panic");
            let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
            assert_eq!(msg, "second", "{workers} workers");
        }
    }
}
