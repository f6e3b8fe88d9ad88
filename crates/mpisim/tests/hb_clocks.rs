//! Vector-clock laws and clock edge cases of the happens-before
//! analyzer, on both synthetic clocks (proptest) and real traces.

use std::time::Duration;

use mpisim::hb::{self, VClock};
use mpisim::{EventEngine, Executor, FaultPlan, ReduceTask, ResilienceOptions, Topology, TraceKind};
use proptest::prelude::*;

/// Build a clock from a dense assignment: `ticks[r]` ticks of rank `r`.
fn clock_of(ticks: &[u64]) -> VClock {
    let mut c = VClock::new();
    for (rank, &n) in ticks.iter().enumerate() {
        for _ in 0..n {
            c.tick(rank);
        }
    }
    c
}

fn dense_clock(max_ranks: usize, max_ticks: u64) -> impl Strategy<Value = VClock> {
    proptest::collection::vec(0..=max_ticks, 1..=max_ranks).prop_map(|t| clock_of(&t))
}

proptest! {
    /// `leq` is a partial order: reflexive, antisymmetric, transitive.
    #[test]
    fn leq_is_a_partial_order(
        a in dense_clock(6, 4),
        b in dense_clock(6, 4),
        c in dense_clock(6, 4),
    ) {
        prop_assert!(a.leq(&a));
        if a.leq(&b) && b.leq(&a) {
            prop_assert_eq!(&a, &b);
        }
        if a.leq(&b) && b.leq(&c) {
            prop_assert!(a.leq(&c));
        }
    }

    /// `join` is the least upper bound: an upper bound of both inputs,
    /// and ≤ any other upper bound.
    #[test]
    fn join_is_the_least_upper_bound(
        a in dense_clock(6, 4),
        b in dense_clock(6, 4),
        other in dense_clock(6, 6),
    ) {
        let mut j = a.clone();
        j.join(&b);
        prop_assert!(a.leq(&j));
        prop_assert!(b.leq(&j));
        // Component-wise, the join takes exactly the max.
        for rank in 0..8 {
            prop_assert_eq!(j.get(rank), a.get(rank).max(b.get(rank)));
        }
        if a.leq(&other) && b.leq(&other) {
            prop_assert!(j.leq(&other));
        }
    }

    /// `join` is commutative, associative, and idempotent.
    #[test]
    fn join_laws(
        a in dense_clock(6, 4),
        b in dense_clock(6, 4),
        c in dense_clock(6, 4),
    ) {
        let mut ab = a.clone();
        ab.join(&b);
        let mut ba = b.clone();
        ba.join(&a);
        prop_assert_eq!(&ab, &ba);

        let mut ab_c = ab.clone();
        ab_c.join(&c);
        let mut bc = b.clone();
        bc.join(&c);
        let mut a_bc = a.clone();
        a_bc.join(&bc);
        prop_assert_eq!(&ab_c, &a_bc);

        let mut aa = a.clone();
        aa.join(&a);
        prop_assert_eq!(&aa, &a);
    }

    /// `partial_cmp_hb` and `concurrent` agree with `leq`.
    #[test]
    fn comparison_views_agree(a in dense_clock(6, 4), b in dense_clock(6, 4)) {
        use std::cmp::Ordering;
        match a.partial_cmp_hb(&b) {
            Some(Ordering::Equal) => prop_assert!(a.leq(&b) && b.leq(&a)),
            Some(Ordering::Less) => prop_assert!(a.leq(&b) && !b.leq(&a)),
            Some(Ordering::Greater) => prop_assert!(b.leq(&a) && !a.leq(&b)),
            None => prop_assert!(!a.leq(&b) && !b.leq(&a)),
        }
        prop_assert_eq!(a.concurrent(&b), a.partial_cmp_hb(&b).is_none());
    }
}

/// A 1-rank world has a trivial linear trace: every event's clock is
/// strictly below the next, and the analysis is clean.
#[test]
fn one_rank_world_is_linear_and_clean() {
    let engine = EventEngine::default();
    let make = |rank, size| {
        ReduceTask::new(
            rank,
            size,
            Topology::Flat,
            move || 1u64,
            |a: u64, b: u64| a + b,
            ResilienceOptions::default(),
        )
    };
    let run = engine.run(1, FaultPlan::new(), make, true);
    assert_eq!(run.trace.size(), 1);
    let clocks = hb::clocks(&run.trace);
    for pair in clocks[0].windows(2) {
        assert!(pair[0].leq(&pair[1]) && pair[0] != pair[1], "program order must advance the clock");
    }
    let analysis = mpisim::analyze(&run.trace);
    assert!(analysis.is_clean(), "{}", analysis.render());
}

/// A killed rank's clock freezes at its kill: the `Killed` event is its
/// last, and its own component never advances afterwards anywhere.
#[test]
fn killed_ranks_clocks_freeze_at_kill_time() {
    // Rank 4 in a flat 16-rank binomial tree receives twice before its
    // send, so killing at its second op leaves a partial trace behind.
    let victim = 4;
    let engine = EventEngine::default();
    let plan = FaultPlan::new().kill(victim, 1);
    let make = |rank, size| {
        ReduceTask::new(
            rank,
            size,
            Topology::Flat,
            move || 1u64,
            |a: u64, b: u64| a + b,
            ResilienceOptions {
                timeout: Duration::from_millis(20),
                ..ResilienceOptions::default()
            },
        )
    };
    let run = engine.run(16, plan, make, true);
    let events = &run.trace.events[victim];
    assert!(
        matches!(events.last().map(|e| &e.kind), Some(TraceKind::Killed)),
        "the kill must be the victim's final trace event: {events:?}"
    );
    let clocks = hb::clocks(&run.trace);
    let frozen = clocks[victim].last().expect("victim has events").get(victim);
    for (rank, rank_clocks) in clocks.iter().enumerate() {
        for c in rank_clocks {
            assert!(
                c.get(victim) <= frozen,
                "rank {rank} observed the dead rank {victim} past its frozen clock"
            );
        }
    }
    let analysis = mpisim::analyze(&run.trace);
    assert_eq!(analysis.errors(), 0, "{}", analysis.render());
}

/// The derived clocks — not just the raw traces — are identical across
/// event-engine worker pools.
#[test]
fn clocks_are_worker_invariant() {
    let mk = |rank: usize, size: usize| {
        ReduceTask::new(
            rank,
            size,
            Topology::two_level_for(96, 8),
            move || rank as u64,
            |a: u64, b: u64| a + b,
            ResilienceOptions {
                timeout: Duration::from_millis(20),
                ..ResilienceOptions::default()
            },
        )
    };
    let plan = || FaultPlan::new().kill(7, 1).delay(3, 0, Duration::from_millis(2));
    let baseline = hb::clocks(&EventEngine::with_workers(1).run(96, plan(), mk, true).trace);
    for workers in [2, 4] {
        let clocks = hb::clocks(
            &EventEngine::with_workers(workers)
                .run(96, plan(), mk, true)
                .trace,
        );
        assert_eq!(baseline, clocks, "clocks diverged with {workers} workers");
    }
}
