//! Deterministic fault injection for the simulated world.
//!
//! A [`FaultPlan`] describes, ahead of a run, which ranks misbehave and
//! when. "When" is measured in **communication operations**: every
//! send a rank's task makes and every receive it asks for (bounded or
//! not, named source or wildcard) counts as one step, starting from 0. Pinning faults to the op counter
//! rather than wall-clock time makes failure tests reproducible: killing
//! rank 2 at op 1 kills it *after* it received its child's contribution
//! and *before* it forwarded the merged value, every single run.
//!
//! Faults are injected *at* the fault point, before the operation takes
//! effect:
//!
//! * a **kill** ends the rank (later sends to it fail with
//!   [`CommError::Disconnected`](crate::CommError::Disconnected) and
//!   pending receives from it time out);
//! * a **delay** holds the rank back before the operation proceeds —
//!   a wall-clock sleep on the thread engine, a jump of the rank's
//!   local clock on the event engine — modelling a straggler rather
//!   than a crash.
//!
//! Plans are executed by either engine's
//! [`Executor::run`](crate::task::Executor::run); an empty plan injects
//! nothing.
//!
//! Plans share the workspace fault-spec grammar (`caliper-faults`):
//! [`FaultPlan::from_spec`] lifts `mpi.kill=at(rank,op)` and
//! `mpi.delay=at(rank,op,ms)` rules from a spec string, and
//! [`FaultPlan::from_global`] from the process-wide `CALI_FAULTS`
//! registry, so one `CALI_FAULTS` setting can script I/O faults and
//! simulated rank deaths together.

use std::time::Duration;

use caliper_faults::{sites, FaultAction, FaultRule, SpecError};

/// Scripted faults for one simulated world run.
///
/// Build with the fluent constructors and hand to
/// [`Executor::run`](crate::task::Executor::run):
///
/// ```
/// use std::time::Duration;
/// use mpisim::FaultPlan;
///
/// let plan = FaultPlan::new()
///     .kill(3, 0)                                  // rank 3 dies at its first comm op
///     .delay(1, 0, Duration::from_millis(20));     // rank 1 stalls before its first op
/// assert!(!plan.is_empty());
/// ```
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    kills: Vec<(usize, u64)>,
    delays: Vec<(usize, u64, Duration)>,
}

impl FaultPlan {
    /// An empty plan: no faults.
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Build a plan from a `caliper-faults` spec string, lifting the
    /// `at(...)` schedules armed on the [`sites::MPI_KILL`] and
    /// [`sites::MPI_DELAY`] sites:
    ///
    /// ```
    /// use mpisim::FaultPlan;
    ///
    /// let plan = FaultPlan::from_spec("mpi.kill=at(2,0);mpi.delay=at(1,0,20)").unwrap();
    /// assert!(plan.has_kills());
    /// ```
    ///
    /// Rules on other sites are ignored here (they arm I/O failpoints
    /// elsewhere in the workspace). A kill rule's optional third
    /// argument is ignored; a delay rule without one delays by 0 ms.
    pub fn from_spec(spec: &str) -> Result<FaultPlan, SpecError> {
        let set = caliper_faults::FaultSet::parse(spec)?;
        Ok(FaultPlan::from_rules(set.rules()))
    }

    /// Build a plan from the process-global `CALI_FAULTS` registry.
    /// Empty when no spec is installed or it schedules no MPI faults.
    pub fn from_global() -> FaultPlan {
        match caliper_faults::global() {
            Some(set) => FaultPlan::from_rules(set.rules()),
            None => FaultPlan::new(),
        }
    }

    fn from_rules(rules: &[FaultRule]) -> FaultPlan {
        let mut plan = FaultPlan::new();
        for rule in rules {
            let FaultAction::At { rank, op, delay_ms } = rule.action else {
                continue;
            };
            match rule.site.as_str() {
                sites::MPI_KILL => plan = plan.kill(rank, op),
                sites::MPI_DELAY => {
                    plan = plan.delay(rank, op, Duration::from_millis(delay_ms.unwrap_or(0)));
                }
                _ => {}
            }
        }
        plan
    }

    /// Kill `rank` when it reaches communication operation `at_op`
    /// (0-based). The rank's thread unwinds at that point; its return
    /// value in the run's output is `None`.
    pub fn kill(mut self, rank: usize, at_op: u64) -> FaultPlan {
        self.kills.push((rank, at_op));
        self
    }

    /// Delay `rank` by `by` immediately before its communication
    /// operation `at_op` (0-based). The rank survives; it is merely a
    /// straggler.
    pub fn delay(mut self, rank: usize, at_op: u64, by: Duration) -> FaultPlan {
        self.delays.push((rank, at_op, by));
        self
    }

    /// True if the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.kills.is_empty() && self.delays.is_empty()
    }

    /// True if the plan kills any rank anywhere.
    pub fn has_kills(&self) -> bool {
        !self.kills.is_empty()
    }

    /// A reproducible plan of `kills` distinct victims for a world of
    /// `size` ranks, derived from `seed` with a splitmix64 stream.
    /// Victims are drawn from `1..size` (never the root, whose death
    /// would make a root-reduction vacuous) and each dies within its
    /// first three communication ops. Same `(seed, kills, size)` →
    /// same plan, on every platform — the seed the scaled determinism
    /// smokes and the fig4 `--kill-seed` flag build on.
    pub fn seeded_kills(seed: u64, kills: usize, size: usize) -> FaultPlan {
        fn splitmix64(state: &mut u64) -> u64 {
            *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = *state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        let mut plan = FaultPlan::new();
        if size < 2 {
            return plan;
        }
        let mut state = seed;
        let mut victims = Vec::new();
        // Bounded draw loop: at most size-1 distinct victims exist.
        while victims.len() < kills.min(size - 1) {
            let rank = 1 + (splitmix64(&mut state) % (size as u64 - 1)) as usize;
            if !victims.contains(&rank) {
                victims.push(rank);
            }
        }
        for rank in victims {
            let op = splitmix64(&mut state) % 3;
            plan = plan.kill(rank, op);
        }
        plan
    }

    pub(crate) fn kill_at(&self, rank: usize, op: u64) -> bool {
        self.kills.iter().any(|&(r, o)| r == rank && o == op)
    }

    pub(crate) fn delay_at(&self, rank: usize, op: u64) -> Option<Duration> {
        self.delays
            .iter()
            .filter(|&&(r, o, _)| r == rank && o == op)
            .map(|&(_, _, d)| d)
            .reduce(|a, b| a + b)
    }
}

/// Panic payload used to unwind a rank scheduled for death. The world
/// launcher downcasts for it to tell an injected kill (expected, maps to
/// `None`) from a genuine bug in rank code (propagated).
pub(crate) struct RankKilled;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_spec_lifts_mpi_sites() {
        let plan =
            FaultPlan::from_spec("mpi.kill=at(2,0);mpi.delay=at(1,3,40);io.read=fail(1)").unwrap();
        assert!(plan.has_kills());
        assert!(plan.kill_at(2, 0));
        assert!(!plan.kill_at(1, 3));
        assert_eq!(plan.delay_at(1, 3), Some(Duration::from_millis(40)));
        assert_eq!(plan.delay_at(2, 0), None);
    }

    #[test]
    fn from_spec_ignores_non_mpi_rules() {
        let plan = FaultPlan::from_spec("io.read=err(0.5);v2.block=corrupt(bitflip)").unwrap();
        assert!(plan.is_empty());
    }

    #[test]
    fn from_spec_rejects_bad_grammar() {
        assert!(FaultPlan::from_spec("mpi.kill=at(x,0)").is_err());
    }

    #[test]
    fn seeded_kills_is_reproducible_and_spares_the_root() {
        let a = FaultPlan::seeded_kills(7, 5, 1024);
        let b = FaultPlan::seeded_kills(7, 5, 1024);
        assert_eq!(a.kills, b.kills);
        assert_eq!(a.kills.len(), 5);
        assert!(a
            .kills
            .iter()
            .all(|&(r, op)| (1..1024).contains(&r) && op < 3));
        let mut victims: Vec<usize> = a.kills.iter().map(|&(r, _)| r).collect();
        victims.sort_unstable();
        victims.dedup();
        assert_eq!(victims.len(), 5, "victims are distinct");
        let c = FaultPlan::seeded_kills(8, 5, 1024);
        assert_ne!(a.kills, c.kills, "different seed, different plan");
    }

    #[test]
    fn seeded_kills_caps_at_world_size() {
        let plan = FaultPlan::seeded_kills(1, 100, 4);
        assert_eq!(plan.kills.len(), 3, "at most size-1 victims");
        assert!(FaultPlan::seeded_kills(1, 3, 1).is_empty());
    }
}
