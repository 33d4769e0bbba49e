//! The crate's one parallel primitive: an ordered map over a slice on
//! scoped threads, with the thread count passed in by the caller.
//!
//! Nothing here is process-global, so maps run concurrently and nest
//! freely: each call starts its own workers and joins them before it
//! returns.

use std::sync::atomic::{AtomicUsize, Ordering};

/// The thread count that means all available cores (1 where the
/// machine's parallelism cannot be read).
pub(crate) const ALL_CORES: usize = 0;

/// Maps `f` over `items` on up to `threads` workers ([`ALL_CORES`] for
/// every core) and returns the results in input order.
///
/// `min(threads, items.len())` scoped workers pull indices from one
/// atomic cursor, so uneven items balance themselves; at 1 thread or
/// at most 1 item the map runs inline on the caller's thread. A panic
/// in `f` stops only its own worker: the others drain the cursor, and
/// once every worker has stopped the first panic resumes on the
/// caller.
pub(crate) fn ordered_map<T, U, F>(items: &[T], threads: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let threads = match threads {
        ALL_CORES => std::thread::available_parallelism().map_or(1, |n| n.get()),
        threads => threads,
    };
    let workers = threads.min(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    // The cursor publishes no data (results come back through the
    // joins), so its increments need no ordering.
    let cursor = AtomicUsize::new(0);
    let work = || {
        let mut local = Vec::new();
        loop {
            let index = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(index) else {
                return local;
            };
            local.push((index, f(item)));
        }
    };
    let joined: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers).map(|_| scope.spawn(work)).collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    let mut pairs = Vec::with_capacity(items.len());
    for result in joined {
        pairs.extend(result.unwrap_or_else(|payload| std::panic::resume_unwind(payload)));
    }
    pairs.sort_by_key(|&(index, _)| index);
    pairs.into_iter().map(|(_, value)| value).collect()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::mpsc;
    use std::time::Duration;

    /// Runs `f` on a thread of its own and returns its result, failing
    /// the test if it has not finished within 60 s, so a map that hangs
    /// fails instead of stalling the suite. A panic in `f` resumes here.
    pub(crate) fn within_a_minute<R: Send + 'static>(f: impl FnOnce() -> R + Send + 'static) -> R {
        let (send, receive) = mpsc::channel();
        let handle = std::thread::spawn(move || send.send(f()).unwrap());
        let received = receive.recv_timeout(Duration::from_secs(60));
        if let Err(mpsc::RecvTimeoutError::Timeout) = received {
            panic!("did not finish within 60 s");
        }
        // The thread sent its result or panicked: either way it ended.
        if let Err(payload) = handle.join() {
            std::panic::resume_unwind(payload);
        }
        received.expect("the thread sent its result")
    }

    #[test]
    fn starts_at_most_one_worker_per_item() {
        let workers = |items: usize, threads: usize| {
            let input = vec![(); items];
            let ids = ordered_map(&input, threads, |_| std::thread::current().id());
            ids.into_iter().collect::<HashSet<_>>()
        };
        assert!(workers(3, 64).len() <= 3);
        let inline = HashSet::from([std::thread::current().id()]);
        assert_eq!(workers(5, 1), inline);
        assert_eq!(workers(1, 8), inline);
    }

    #[test]
    fn a_panicking_f_panics_the_caller_after_every_worker_stops() {
        let (calls, outcome) = within_a_minute(|| {
            let calls = AtomicUsize::new(0);
            let input: Vec<usize> = (0..257).collect();
            let outcome = std::panic::catch_unwind(|| {
                ordered_map(&input, 3, |&i| {
                    calls.fetch_add(1, Ordering::Relaxed);
                    assert_ne!(i, 100, "boom");
                    i
                })
            });
            (
                calls.into_inner(),
                outcome.map_err(|p| *p.downcast::<String>().unwrap()),
            )
        });
        // The other workers drained the cursor: every item was handed
        // to `f` once, and the panic arrived with its own message.
        assert_eq!(calls, 257);
        let message = outcome.unwrap_err();
        assert!(message.contains("boom"), "{message}");
    }
}
