//! The workspace's one parallel loop: an ordered fan-out over scoped
//! threads, built only on `std::thread` and channels.
//!
//! The paper sweep (`harmonia_bench::all_tables`) is its only library
//! caller: twelve independent generators are coarse enough to pay for a
//! thread each, while every loop underneath them runs serially (see
//! DESIGN.md, "Why the paper sweep is the only parallel loop"). The
//! contract that makes it safe in deterministic code:
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
use std::sync::{mpsc, Mutex};

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

/// [`par_sweep`] on at most `workers` threads; one worker (or at most
/// one point) runs inline on the calling thread.
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

    // Pre-load the whole queue so a worker's `recv` never blocks: it
    // either takes an item or sees the dropped sender and exits.
    let (item_tx, item_rx) = mpsc::channel();
    for pair in items.into_iter().enumerate() {
        item_tx.send(pair).expect("receiver alive until scope end");
    }
    drop(item_tx);
    let queue = Mutex::new(item_rx);
    let (res_tx, res_rx) = mpsc::channel();

    let mut slots: Vec<Option<std::thread::Result<R>>> =
        std::iter::repeat_with(|| None).take(n).collect();
    std::thread::scope(|s| {
        for _ in 0..workers.min(n) {
            let (queue, f, res_tx) = (&queue, &f, res_tx.clone());
            s.spawn(move || loop {
                // Hold the lock only for the non-blocking dequeue.
                let msg = queue.lock().expect("queue lock never poisoned").recv();
                let Ok((idx, item)) = msg else { break };
                let out = catch_unwind(AssertUnwindSafe(|| f(item)));
                if res_tx.send((idx, out)).is_err() {
                    break;
                }
            });
        }
        drop(res_tx);
        for (idx, out) in res_rx {
            slots[idx] = Some(out);
        }
    });

    // Reassemble by index; the first panic in index order wins.
    slots
        .into_iter()
        .enumerate()
        .map(|(idx, slot)| match slot {
            Some(Ok(r)) => r,
            Some(Err(payload)) => resume_unwind(payload),
            None => panic!("item {idx} produced no result"),
        })
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
