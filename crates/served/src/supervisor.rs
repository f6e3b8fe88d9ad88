//! Worker supervision: restart panicked workers with capped, jittered
//! exponential backoff; give up after a bounded number of restarts.
//!
//! Each worker body runs under `std::panic::catch_unwind`. A clean
//! return means the worker observed shutdown and exited — the
//! supervisor stops. A panic (organic, or injected via the
//! `served.ingest` fault site) is counted, published as
//! `served.supervisor.restarts`, and the body is re-run after the next
//! backoff sleep from a seeded [`RetryPolicy`] schedule — the same
//! bounded decorrelated-jitter discipline the format reader uses, so a
//! crash-looping worker backs off deterministically for a fixed seed
//! instead of spinning hot. After `max_restarts` restarts the
//! supervisor *trips*: it stops restarting, records the trip, and the
//! daemon reports degraded (exit code 2) — crash loops become a visible
//! degraded state, not an invisible busy loop.
//!
//! Shared state accessed by workers is guarded by poison-tolerant locks
//! (`lock().unwrap_or_else(|e| e.into_inner())`, the repo-wide idiom),
//! so `AssertUnwindSafe` is sound here: a panicking worker leaves no
//! lock permanently unusable, and per-stream consistency is restored by
//! the journal redelivery path, not by lock poisoning.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use caliper_format::retry::RetryPolicy;

/// Shared view of one supervised worker slot's health.
#[derive(Debug, Default)]
pub struct WorkerHealth {
    restarts: AtomicU64,
    tripped: AtomicBool,
}

impl WorkerHealth {
    /// Times the worker body panicked and was restarted.
    pub fn restarts(&self) -> u64 {
        self.restarts.load(Ordering::Relaxed)
    }

    /// True once the supervisor exhausted its restart budget and gave
    /// up on this slot.
    pub fn tripped(&self) -> bool {
        self.tripped.load(Ordering::Relaxed)
    }
}

/// Spawn `body` on a supervised thread. The supervisor restarts the
/// body on panic (up to `max_restarts` times, sleeping the seeded
/// `backoff` schedule between restarts, re-capped at its final delay
/// for restarts beyond the schedule length) and stops on clean return.
/// `on_restart` runs after each panic is caught — the hook that bumps
/// the restart metric — and `on_exit` once, as the thread ends.
pub fn supervise(
    name: &str,
    max_restarts: u32,
    backoff: RetryPolicy,
    health: Arc<WorkerHealth>,
    on_restart: impl Fn(u64) + Send + 'static,
    on_exit: impl FnOnce() + Send + 'static,
    body: impl Fn() + Send + 'static,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(name.to_string())
        .spawn(move || {
            let delays = backoff.delays();
            loop {
                if catch_unwind(AssertUnwindSafe(&body)).is_ok() {
                    break; // clean exit (shutdown observed)
                }
                let restarts = health.restarts.fetch_add(1, Ordering::Relaxed) + 1;
                on_restart(restarts);
                if restarts > u64::from(max_restarts) {
                    health.tripped.store(true, Ordering::Relaxed);
                    break;
                }
                // Beyond the schedule, keep sleeping the final (capped)
                // delay rather than restarting immediately.
                let idx = (restarts as usize - 1).min(delays.len().saturating_sub(1));
                if let Some(delay) = delays.get(idx).filter(|d| !d.is_zero()) {
                    std::thread::sleep(*delay);
                }
            }
            on_exit();
        })
        .unwrap_or_else(|e| panic!("spawning supervised thread '{name}': {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;
    use std::time::Duration;

    fn no_backoff() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            base_delay: Duration::ZERO,
            max_delay: Duration::ZERO,
            jitter_seed: None,
        }
    }

    #[test]
    fn restarts_until_body_succeeds() {
        let attempts = Arc::new(AtomicU32::new(0));
        let health = Arc::new(WorkerHealth::default());
        let a = Arc::clone(&attempts);
        let handle = supervise("test-worker", 5, no_backoff(), Arc::clone(&health), |_| {}, || {}, move || {
            if a.fetch_add(1, Ordering::Relaxed) < 2 {
                panic!("injected");
            }
        });
        handle.join().unwrap();
        assert_eq!(attempts.load(Ordering::Relaxed), 3);
        assert_eq!(health.restarts(), 2);
        assert!(!health.tripped());
    }

    #[test]
    fn trips_after_restart_budget() {
        let health = Arc::new(WorkerHealth::default());
        let hook_calls = Arc::new(AtomicU32::new(0));
        let h = Arc::clone(&hook_calls);
        let handle = supervise(
            "crash-loop",
            2,
            no_backoff(),
            Arc::clone(&health),
            move |_| {
                h.fetch_add(1, Ordering::Relaxed);
            },
            || {},
            || panic!("always"),
        );
        handle.join().unwrap();
        // Initial run + 2 restarts all panicked; the third panic trips.
        assert_eq!(health.restarts(), 3);
        assert!(health.tripped());
        assert_eq!(hook_calls.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn clean_body_runs_once() {
        let attempts = Arc::new(AtomicU32::new(0));
        let health = Arc::new(WorkerHealth::default());
        let a = Arc::clone(&attempts);
        supervise("calm", 5, no_backoff(), Arc::clone(&health), |_| {}, || {}, move || {
            a.fetch_add(1, Ordering::Relaxed);
        })
        .join()
        .unwrap();
        assert_eq!(attempts.load(Ordering::Relaxed), 1);
        assert_eq!(health.restarts(), 0);
    }
}
