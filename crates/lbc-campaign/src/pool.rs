//! The ordered worker pool behind campaign execution, adversary search and
//! `lbc serve`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Runs `job(worker, index)` for every `index` in `0..count` on up to
/// `workers` threads (never more than `count`) and returns the results in
/// index order, whatever the completion order.
///
/// Workers claim the next unclaimed index from a shared counter, so indices
/// start in ascending order and a slow job holds up only the worker running
/// it (static chunking could leave one worker with every slow cell). With
/// one worker every job runs on the calling thread.
pub(crate) fn run_ordered<R, F>(workers: usize, count: usize, job: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize, usize) -> R + Sync,
{
    let workers = workers.min(count);
    if workers <= 1 {
        return (0..count).map(|index| job(0, index)).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..count).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for worker in 0..workers {
            let (next, slots, job) = (&next, &slots, &job);
            scope.spawn(move || loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                if index >= count {
                    break;
                }
                let result = job(worker, index);
                *slots[index].lock().expect("no panics while holding slot") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("worker panicked")
                .expect("every slot is filled once the pool drains")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_single_worker_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let ids = run_ordered(1, 3, |worker, _| (worker, std::thread::current().id()));
        assert!(ids.iter().all(|&(worker, id)| worker == 0 && id == caller));
    }
}
