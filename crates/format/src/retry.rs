//! Bounded exponential-backoff retry for transient I/O errors.
//!
//! Transient failures — `EINTR`, timeouts, injected faults from
//! [`caliper_faults`] — are the normal case at scale (see the Recorder
//! tracing paper in PAPERS.md), and aborting a whole aggregation because
//! one `read` hiccuped is the wrong trade. This module gives the format
//! reader and the journal writer one shared, bounded retry discipline:
//!
//! * only [`is_transient`] error kinds are retried — corrupt data,
//!   missing files, and permission errors fail immediately;
//! * backoff doubles from [`RetryPolicy::base_delay`] up to
//!   [`RetryPolicy::max_delay`], so a genuinely stuck resource fails in
//!   bounded time;
//! * a seeded policy ([`RetryPolicy::with_jitter`]) spreads the doubling
//!   schedule with bounded *decorrelated jitter*, so many shards
//!   retrying the same failed file don't stampede it in lock-step —
//!   while staying fully deterministic for a fixed seed (call sites
//!   seed with the hashed path, so a rerun backs off identically);
//! * no sleep is taken after the final attempt — once the budget is
//!   spent the error is returned immediately;
//! * the number of retries taken is reported back so call sites can
//!   publish it (`format.reader.retries`, `runtime.journal.retries`).
//!
//! Injected faults surface as [`std::io::ErrorKind::Interrupted`], so a
//! `CALI_FAULTS="io.read=fail(2)"` spec exercises exactly this loop.

use std::io;
use std::time::Duration;

/// True for error kinds worth retrying: the operation may succeed if
/// simply attempted again.
pub fn is_transient(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::Interrupted | io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock
    )
}

/// A bounded exponential-backoff schedule, optionally jittered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts (first try included). 1 disables retrying.
    pub max_attempts: u32,
    /// Sleep before the first retry; doubles per retry.
    pub base_delay: Duration,
    /// Backoff ceiling.
    pub max_delay: Duration,
    /// Decorrelated-jitter seed. `None` keeps the plain doubling
    /// schedule; `Some(seed)` spreads each sleep pseudo-randomly in
    /// `[base_delay, min(max_delay, 3 × previous))` — deterministically
    /// for a fixed seed (see [`RetryPolicy::delays`]).
    pub jitter_seed: Option<u64>,
}

impl Default for RetryPolicy {
    /// Four attempts with 1 ms / 2 ms / 4 ms backoff — enough to ride
    /// out `EINTR`-class transients without stalling a failed shard for
    /// a human-visible time. No jitter; call sites opt in with
    /// [`RetryPolicy::with_jitter`], seeding from the resource name so
    /// independent shards decorrelate but reruns reproduce exactly.
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(20),
            jitter_seed: None,
        }
    }
}

/// One round of the splitmix64 mixer: a tiny, well-distributed pure
/// function of its input, used to derive the jittered sleep for each
/// (seed, retry) pair without any global random state.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl RetryPolicy {
    /// A policy that never retries (strict one-shot semantics).
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        }
    }

    /// This policy with decorrelated jitter derived from `seed`. Seed
    /// with a stable per-resource value (e.g.
    /// `caliper_faults::stable_hash(path)`): different resources then
    /// back off on decorrelated schedules, while the same resource backs
    /// off identically on every run.
    pub fn with_jitter(mut self, seed: u64) -> RetryPolicy {
        self.jitter_seed = Some(seed);
        self
    }

    /// The exact sleep schedule [`RetryPolicy::run`] uses: one entry per
    /// retry that can be taken, i.e. `max_attempts - 1` entries — there
    /// is never a sleep after the final attempt.
    ///
    /// Without a seed this is the plain capped doubling series
    /// (`base, 2·base, 4·base, …`). With a seed it is the bounded
    /// *decorrelated jitter* series: each sleep is drawn from
    /// `[base_delay, min(max_delay, 3 × previous_sleep))` by a pure hash
    /// of `(seed, retry index)`, so every entry stays within
    /// `[base_delay, max_delay]` and the whole schedule is a
    /// deterministic function of the policy alone.
    pub fn delays(&self) -> Vec<Duration> {
        let retries = self.max_attempts.max(1) - 1;
        let mut out = Vec::with_capacity(retries as usize);
        let base = self.base_delay.min(self.max_delay);
        let mut prev = base;
        for retry in 0..retries {
            let next = match self.jitter_seed {
                None => prev,
                Some(seed) => {
                    let lo = base.as_micros() as u64;
                    let hi = (prev.as_micros() as u64)
                        .saturating_mul(3)
                        .min(self.max_delay.as_micros() as u64);
                    let span = hi.saturating_sub(lo);
                    let pick = if span == 0 {
                        lo
                    } else {
                        lo + splitmix64(seed ^ u64::from(retry).wrapping_mul(0x0123_4567_89ab_cdef))
                            % span
                    };
                    Duration::from_micros(pick)
                }
            };
            out.push(next);
            prev = if self.jitter_seed.is_some() {
                next.max(base)
            } else {
                (prev * 2).min(self.max_delay)
            };
        }
        out
    }

    /// Run `op` under this policy. Retries only [`is_transient`] errors,
    /// sleeping per [`RetryPolicy::delays`] between attempts (never
    /// after the last one). Returns the final result and the number of
    /// retries taken (0 = first try succeeded or failed non-transiently).
    pub fn run<T>(&self, mut op: impl FnMut() -> io::Result<T>) -> (io::Result<T>, u32) {
        let delays = self.delays();
        let mut retries = 0;
        loop {
            match op() {
                Ok(v) => return (Ok(v), retries),
                Err(e) if is_transient(&e) && (retries as usize) < delays.len() => {
                    let delay = delays[retries as usize];
                    if !delay.is_zero() {
                        std::thread::sleep(delay);
                    }
                    retries += 1;
                }
                Err(e) => return (Err(e), retries),
            }
        }
    }
}

/// The `io::Error` used for injected transient faults; recognized by
/// [`is_transient`].
pub fn injected_error(site: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::Interrupted,
        format!("injected fault at {site}"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            base_delay: Duration::ZERO,
            max_delay: Duration::ZERO,
            jitter_seed: None,
        }
    }

    #[test]
    fn retries_transient_until_success() {
        let mut calls = 0;
        let (res, retries) = fast().run(|| {
            calls += 1;
            if calls < 3 {
                Err(injected_error("t"))
            } else {
                Ok(calls)
            }
        });
        assert_eq!(res.unwrap(), 3);
        assert_eq!(retries, 2);
    }

    #[test]
    fn exhausts_after_max_attempts() {
        let mut calls = 0;
        let (res, retries) = fast().run(|| -> io::Result<()> {
            calls += 1;
            Err(injected_error("t"))
        });
        assert!(res.is_err());
        assert_eq!(calls, 4);
        assert_eq!(retries, 3);
    }

    #[test]
    fn non_transient_fails_immediately() {
        let mut calls = 0;
        let (res, retries) = fast().run(|| -> io::Result<()> {
            calls += 1;
            Err(io::Error::new(io::ErrorKind::NotFound, "gone"))
        });
        assert!(res.is_err());
        assert_eq!(calls, 1);
        assert_eq!(retries, 0);
    }

    #[test]
    fn none_policy_is_one_shot() {
        let mut calls = 0;
        let (res, retries) = RetryPolicy::none().run(|| -> io::Result<()> {
            calls += 1;
            Err(injected_error("t"))
        });
        assert!(res.is_err());
        assert_eq!(calls, 1);
        assert_eq!(retries, 0);
    }

    #[test]
    fn unjittered_schedule_is_capped_doubling() {
        let p = RetryPolicy {
            max_attempts: 6,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(6),
            jitter_seed: None,
        };
        let ms: Vec<u64> = p.delays().iter().map(|d| d.as_millis() as u64).collect();
        assert_eq!(ms, vec![1, 2, 4, 6, 6]);
    }

    #[test]
    fn schedule_never_sleeps_after_final_attempt() {
        // max_attempts attempts but only max_attempts - 1 sleeps, for
        // jittered and plain policies alike.
        for policy in [
            RetryPolicy::default(),
            RetryPolicy::default().with_jitter(7),
        ] {
            assert_eq!(policy.delays().len(), policy.max_attempts as usize - 1);
        }
        assert!(RetryPolicy::none().delays().is_empty());
        assert!(RetryPolicy::none().with_jitter(7).delays().is_empty());
    }

    #[test]
    fn jittered_schedule_is_deterministic_and_bounded() {
        let p = RetryPolicy {
            max_attempts: 8,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(20),
            jitter_seed: None,
        };
        let a = p.with_jitter(0xfeed).delays();
        let b = p.with_jitter(0xfeed).delays();
        assert_eq!(a, b, "fixed seed must reproduce the exact schedule");
        for d in &a {
            assert!(*d >= p.base_delay, "jitter below base: {d:?}");
            assert!(*d <= p.max_delay, "jitter above cap: {d:?}");
        }
        // Different seeds decorrelate: at least one sleep differs.
        let c = p.with_jitter(0xbeef).delays();
        assert_ne!(a, c, "distinct seeds should produce distinct schedules");
        // And the jittered schedule is not the lock-step doubling one.
        assert_ne!(a, p.delays());
    }

    #[test]
    fn jittered_run_counts_retries_like_plain() {
        // Zero-delay jittered policy: behavioral parity with `fast()`.
        let p = RetryPolicy {
            max_attempts: 4,
            base_delay: Duration::ZERO,
            max_delay: Duration::ZERO,
            jitter_seed: Some(42),
        };
        let mut calls = 0;
        let (res, retries) = p.run(|| -> io::Result<()> {
            calls += 1;
            Err(injected_error("t"))
        });
        assert!(res.is_err());
        assert_eq!(calls, 4);
        assert_eq!(retries, 3);
    }
}
