//! Adversarial validation of the happens-before analyzer: generated
//! families of deliberately racy rank programs must always be flagged,
//! and the matching well-ordered control programs must stay clean.

use std::time::Duration;

use mpisim::{
    analyze, Action, EventEngine, Executor, FaultPlan, RankTask, TaskCtx, ThreadEngine, Wake,
};
use proptest::prelude::*;

const TAG: mpisim::Tag = 0xbeef;

/// Deliberately racy: every non-root rank fires `per` sends at the
/// root as soon as it starts, and the root soaks them up with wildcard
/// receives. With ≥2 sender ranks the sends are pairwise HB-concurrent,
/// so every wildcard match is schedule-dependent.
struct RacyGather {
    rank: usize,
    size: usize,
    per: usize,
    got: usize,
}

impl RankTask for RacyGather {
    type Out = usize;

    fn step(&mut self, ctx: &mut dyn TaskCtx, wake: Wake) -> Action {
        if self.rank != 0 {
            for _ in 0..self.per {
                let _ = ctx.send(0, TAG, Box::new(()));
            }
            return Action::Done;
        }
        if let Wake::Message(_) = wake {
            self.got += 1;
        }
        if self.got == (self.size - 1) * self.per {
            return Action::Done;
        }
        Action::Recv {
            src: None,
            tag: TAG,
            timeout: None,
        }
    }

    fn into_output(self) -> usize {
        self.got
    }
}

/// The well-ordered control: the same gather, but the root names each
/// source in turn, so every match is forced and race-free.
struct OrderedGather {
    rank: usize,
    size: usize,
    per: usize,
    got: usize,
}

impl RankTask for OrderedGather {
    type Out = usize;

    fn step(&mut self, ctx: &mut dyn TaskCtx, wake: Wake) -> Action {
        if self.rank != 0 {
            for _ in 0..self.per {
                let _ = ctx.send(0, TAG, Box::new(()));
            }
            return Action::Done;
        }
        if let Wake::Message(_) = wake {
            self.got += 1;
        }
        if self.got == (self.size - 1) * self.per {
            return Action::Done;
        }
        Action::Recv {
            src: Some(1 + self.got / self.per),
            tag: TAG,
            timeout: None,
        }
    }

    fn into_output(self) -> usize {
        self.got
    }
}

/// Sequential token ring: rank 0 starts the token, each rank passes it
/// on, rank 0 finally receives it back. Fully ordered even though rank
/// 0's closing receive is a wildcard — there is only ever one token.
struct TokenRing {
    rank: usize,
    size: usize,
}

impl RankTask for TokenRing {
    type Out = ();

    fn step(&mut self, ctx: &mut dyn TaskCtx, wake: Wake) -> Action {
        match wake {
            Wake::Start if self.rank == 0 => {
                if self.size == 1 {
                    return Action::Done;
                }
                let _ = ctx.send(1, TAG, Box::new(()));
                Action::Recv {
                    src: None,
                    tag: TAG,
                    timeout: None,
                }
            }
            Wake::Start => Action::Recv {
                src: Some(self.rank - 1),
                tag: TAG,
                timeout: None,
            },
            Wake::Message(_) => {
                if self.rank != 0 {
                    let _ = ctx.send((self.rank + 1) % self.size, TAG, Box::new(()));
                }
                Action::Done
            }
            Wake::Timeout => Action::Done,
        }
    }

    fn into_output(self) {}
}

/// A wait ring over the first `k` ranks (the rest finish immediately):
/// a deliberate deadlock whose cycle the analyzer must name exactly.
struct PartialWaitRing {
    rank: usize,
    k: usize,
}

impl RankTask for PartialWaitRing {
    type Out = ();

    fn step(&mut self, _ctx: &mut dyn TaskCtx, wake: Wake) -> Action {
        match wake {
            Wake::Start if self.rank < self.k => Action::Recv {
                src: Some((self.rank + 1) % self.k),
                tag: TAG,
                timeout: None,
            },
            _ => Action::Done,
        }
    }

    fn into_output(self) {}
}

/// A sender delayed past the receiver's timeout: the N001 hazard.
struct Straggler {
    rank: usize,
}

impl RankTask for Straggler {
    type Out = ();

    fn step(&mut self, ctx: &mut dyn TaskCtx, wake: Wake) -> Action {
        match (self.rank, wake) {
            (0, Wake::Start) => Action::Recv {
                src: Some(1),
                tag: TAG,
                timeout: Some(Duration::from_millis(5)),
            },
            (1, Wake::Start) => {
                let _ = ctx.send(0, TAG, Box::new(()));
                Action::Done
            }
            _ => Action::Done,
        }
    }

    fn into_output(self) {}
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every generated racy gather is flagged M001, on any worker pool.
    #[test]
    fn racy_gathers_are_always_flagged(
        size in 3usize..12,
        per in 1usize..3,
        workers in 1usize..4,
    ) {
        let engine = EventEngine::with_workers(workers);
        let make = move |rank, size| RacyGather {
            rank,
            size,
            per,
            got: 0,
        };
        let run = engine.run(size, FaultPlan::new(), make, true);
        prop_assert!(run.outputs.is_ok());
        let analysis = analyze(&run.trace);
        prop_assert!(
            analysis.diagnostics.iter().any(|d| d.code == "M001"),
            "racy gather (size {size}, {per} msg/rank) escaped:\n{}",
            analysis.render()
        );
        prop_assert_eq!(analysis.exit_code(false), 2);
    }

    /// The source-naming control of the same shape is always clean.
    #[test]
    fn ordered_gathers_are_always_clean(size in 2usize..12, per in 1usize..3) {
        let engine = EventEngine::default();
        let make = move |rank, size| OrderedGather {
            rank,
            size,
            per,
            got: 0,
        };
        let run = engine.run(size, FaultPlan::new(), make, true);
        prop_assert!(run.outputs.is_ok());
        let analysis = analyze(&run.trace);
        prop_assert!(analysis.is_clean(), "{}", analysis.render());
    }

    /// A single token in flight is never a race, wildcard or not.
    #[test]
    fn token_rings_are_always_clean(size in 1usize..16) {
        let engine = EventEngine::default();
        let make = |rank, size| TokenRing {
            rank,
            size,
        };
        let run = engine.run(size, FaultPlan::new(), make, true);
        prop_assert!(run.outputs.is_ok());
        let analysis = analyze(&run.trace);
        prop_assert!(analysis.is_clean(), "{}", analysis.render());
    }

    /// Every generated wait ring deadlocks, and the M002 diagnostic
    /// names the exact member ranks.
    #[test]
    fn wait_rings_name_their_exact_cycle(size in 2usize..12, k in 2usize..8) {
        let k = k.min(size);
        let engine = EventEngine::default();
        let make = move |rank, _| PartialWaitRing {
            rank,
            k,
        };
        let run = engine.run(size, FaultPlan::new(), make, true);
        prop_assert!(run.outputs.is_err(), "a wait ring must be a scheduler deadlock");
        let analysis = analyze(&run.trace);
        let cycle: Vec<String> = (0..k).chain([0]).map(|r| r.to_string()).collect();
        let rendered = cycle.join(" -> ");
        prop_assert!(
            analysis
                .diagnostics
                .iter()
                .any(|d| d.code == "M002" && d.message.contains(&rendered)),
            "expected cycle '{rendered}' in:\n{}",
            analysis.render()
        );
    }
}

/// The straggler hazard is a warning, and `--deny-warnings` semantics
/// turn it into exit code 1.
#[test]
fn straggler_is_a_timeout_hazard_warning() {
    let engine = EventEngine::default();
    let plan = FaultPlan::new().delay(1, 0, Duration::from_millis(50));
    let run = engine.run(4, plan, |rank, _| Straggler { rank }, true);
    assert!(run.outputs.is_ok());
    let analysis = analyze(&run.trace);
    assert!(
        analysis.diagnostics.iter().any(|d| d.code == "N001"),
        "{}",
        analysis.render()
    );
    assert_eq!(analysis.errors(), 0, "{}", analysis.render());
    assert_eq!(analysis.exit_code(false), 0);
    assert_eq!(analysis.exit_code(true), 1);
}

/// The thread engine's trace has wall-clock timestamps but the same
/// happens-before structure, so the analyzer must flag the same race.
#[test]
fn thread_engine_traces_expose_the_same_race() {
    let make = |rank, size| RacyGather {
        rank,
        size,
        per: 1,
        got: 0,
    };
    let run = ThreadEngine.run(6, FaultPlan::new(), make, true);
    assert!(run.outputs.is_ok());
    let analysis = analyze(&run.trace);
    assert!(
        analysis.diagnostics.iter().any(|d| d.code == "M001"),
        "{}",
        analysis.render()
    );
}
