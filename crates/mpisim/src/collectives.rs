//! The collective operation, built on point-to-point messages:
//! [`reduce_tree`], the binomial-tree reduction the
//! paper's parallel query application uses (§IV-C): "'leaf' processes
//! send the local aggregation results to their parent, where the
//! partial results are aggregated again. The scheme continues on the
//! next level of the tree until we reach the root process." It is the
//! blocking, fault-free reference; every fault-tolerant, timed or
//! many-rank reduction is the one [`ReduceTask`](crate::task::ReduceTask)
//! state machine, which [`reduce_tree_resilient`] adapts to a [`Comm`].

use std::time::Duration;

use crate::comm::{Comm, CommError, Tag};

const TAG_BASE: Tag = 0xC0DE;
/// Base tag of the resilient reduction; each tree level uses its own
/// tag (`TAG_RESIL + level`) so a straggler's late message from one
/// level can never be mistaken for traffic of a later one.
pub(crate) const TAG_RESIL: Tag = 0xC0DE + 0x100;

/// Binomial-tree reduction toward rank 0. Every rank passes its `value`;
/// rank 0 returns `Some(combined)`, all other ranks `None`.
///
/// `merge(accumulator, incoming)` must be associative for the result to
/// be independent of the world size — the property the property-based
/// tests of `caliper-query` establish for aggregation databases.
pub fn reduce_tree<T, F>(comm: &mut Comm, value: T, mut merge: F) -> Result<Option<T>, CommError>
where
    T: Send + 'static,
    F: FnMut(T, T) -> T,
{
    let rank = comm.rank();
    let size = comm.size();
    let mut acc = value;
    let mut step = 1usize;
    while step < size {
        if rank.is_multiple_of(2 * step) {
            let partner = rank + step;
            if partner < size {
                let incoming: T = comm.recv(partner, TAG_BASE)?;
                acc = merge(acc, incoming);
            }
        } else {
            let parent = rank - step;
            comm.send(parent, TAG_BASE, acc)?;
            return Ok(None);
        }
        step *= 2;
    }
    Ok(Some(acc))
}

/// Tuning knobs for [`reduce_tree_resilient`].
///
/// `timeout` and `backoff` are *base* (tree level 0) values; the
/// reduction doubles them per level, because a partner at level *l* may
/// legitimately stall for its own full timeout budget at every level
/// below before it can forward. With doubling, the budget at level *l*
/// strictly exceeds the sum of all lower-level budgets, so cascaded
/// waits below a slow-but-alive partner never get misread as a death.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResilienceOptions {
    /// Base wait per receive before suspecting the partner.
    pub timeout: Duration,
    /// Additional receive attempts after the first timeout. Retries
    /// exist for stragglers, not corpses: a delayed partner's message
    /// arrives during a retry, a dead partner's never does.
    pub retries: u32,
    /// Extra wait added per retry attempt (linear backoff): attempt
    /// *n* waits `timeout + n * backoff`.
    pub backoff: Duration,
}

impl Default for ResilienceOptions {
    fn default() -> ResilienceOptions {
        ResilienceOptions {
            timeout: Duration::from_millis(250),
            retries: 2,
            backoff: Duration::from_millis(100),
        }
    }
}

impl ResilienceOptions {
    /// Worst-case total wait for one level-0 partner before declaring
    /// it lost. (At level *l* the budget is this, times `2^l`.)
    pub fn total_wait(&self) -> Duration {
        let mut total = Duration::ZERO;
        for attempt in 0..=self.retries {
            total += self.timeout + self.backoff * attempt;
        }
        total
    }

    /// The options with timeout and backoff scaled for tree `level`.
    pub(crate) fn at_level(&self, level: u32) -> ResilienceOptions {
        let scale = 1u32 << level.min(20); // 2^20 × base ≫ any sane tree
        ResilienceOptions {
            timeout: self.timeout * scale,
            retries: self.retries,
            backoff: self.backoff * scale,
        }
    }
}

/// Which ranks' contributions made it into a resilient reduction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReduceCoverage {
    /// Ranks whose values are folded into the result, ascending.
    pub included: Vec<usize>,
    /// Ranks whose values were lost (dead, or stranded behind a dead
    /// ancestor), ascending. Complement of `included` in `0..size`.
    pub lost: Vec<usize>,
}

impl ReduceCoverage {
    /// True if every rank's contribution arrived.
    pub fn is_complete(&self) -> bool {
        self.lost.is_empty()
    }
}

/// Fault-tolerant binomial-tree reduction toward rank 0: dead subtrees
/// are routed around instead of deadlocking or aborting the survivors.
///
/// Same tree as [`reduce_tree`], with two changes:
///
/// * every internal receive is bounded ([`Comm::recv_timeout`]) and
///   retried per `opts`; a partner that stays silent is written off and
///   the reduction continues without its subtree;
/// * the payload carries, alongside the partial value, the list of
///   ranks folded into it, so the root knows *exactly* which
///   contributions the result covers — not just that "something" was
///   lost.
///
/// Rank 0 returns `Some((merged, coverage))`; all other ranks `None`.
/// When a partner dies *mid*-protocol (after receiving its children's
/// values, before forwarding), its whole subtree is lost with it — the
/// coverage report charges every rank of that subtree, which is exactly
/// the set of values the dead rank had already absorbed.
///
/// The result is deterministic in the fault pattern: merge order is the
/// tree order restricted to surviving subtrees, so for a fixed set of
/// lost ranks the merged value equals a serial reduction over
/// `coverage.included` in rank order (given associative `merge`).
///
/// The protocol itself lives in [`ReduceTask`](crate::task::ReduceTask)
/// — this function merely drives that state machine against the calling
/// rank's blocking [`Comm`], so the thread engine and the event engine
/// execute the exact same collective code.
pub fn reduce_tree_resilient<T, F>(
    comm: &mut Comm,
    value: T,
    merge: F,
    opts: &ResilienceOptions,
) -> Result<Option<(T, ReduceCoverage)>, CommError>
where
    T: Send + 'static,
    F: FnMut(T, T) -> T + Send + 'static,
{
    let task = crate::task::ReduceTask::new(
        comm.rank(),
        comm.size(),
        crate::task::Topology::Flat,
        move || value,
        merge,
        *opts,
    );
    Ok(crate::world::drive_task(comm, task))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::run;

    #[test]
    fn reduce_tree_sums() {
        for size in [1, 2, 3, 4, 5, 8, 13, 16] {
            let results = run(size, |mut comm| {
                let local = comm.rank() as u64;
                reduce_tree(&mut comm, local, |a, b| a + b).unwrap()
            });
            let expect: u64 = (0..size as u64).sum();
            assert_eq!(results[0], Some(expect), "size {size}");
            assert!(results[1..].iter().all(Option::is_none));
        }
    }

    #[test]
    fn reduce_is_deterministic_for_noncommutative_merge() {
        // Tree reduction applies merge in a fixed structure; with an
        // associative (but non-commutative) merge the result must be
        // the in-order concatenation.
        let results = run(8, |mut comm| {
            let local = comm.rank().to_string();
            reduce_tree(&mut comm, local, |a, b| a + &b).unwrap()
        });
        assert_eq!(results[0].as_deref(), Some("01234567"));
    }
}
