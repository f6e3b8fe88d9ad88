//! Failure injection for the simulated MPI world: scripted rank deaths
//! and delays against the tree reduction, on the thread engine (real
//! threads, wall-clock timeouts).
//!
//! The deadlock regression and lost-set tests here pin the failure
//! model documented in DESIGN.md: a dead rank makes its parent's
//! bounded receive time out (never hang), and the reduction reports
//! *exactly* which ranks' contributions the merged result covers.

use std::time::Duration;

use mpisim::{
    Executor, FaultPlan, ReduceCoverage, ReduceTask, ResilienceOptions, ThreadEngine, Topology,
};

/// Runs `f` on a watchdog thread; panics if it does not finish within
/// `limit`. Guards the deadlock-regression tests: if bounded receives
/// regress into unbounded ones, the test fails instead of hanging the
/// whole suite.
fn with_deadline<R: Send + 'static>(limit: Duration, f: impl FnOnce() -> R + Send + 'static) -> R {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(limit)
        .expect("world did not finish within the deadline: deadlock regression")
}

fn quick_opts() -> ResilienceOptions {
    ResilienceOptions {
        timeout: Duration::from_millis(100),
        retries: 1,
        backoff: Duration::from_millis(50),
    }
}

/// One rank-bit per contribution: the merged value states exactly which
/// ranks were folded in, so coverage claims are checkable bit-for-bit.
fn rank_bit(rank: usize) -> u64 {
    1u64 << rank
}

fn bits_of(ranks: &[usize]) -> u64 {
    ranks.iter().map(|&r| rank_bit(r)).fold(0, |a, b| a | b)
}

type Outputs = Vec<Option<Option<(u64, ReduceCoverage)>>>;

/// The rank-bit reduction on `size` threads under `plan`, each rank's
/// output (`None` for a killed rank), under the deadline watchdog.
fn reduce_bits(size: usize, plan: FaultPlan, opts: ResilienceOptions, limit: Duration) -> Outputs {
    with_deadline(limit, move || {
        let make = move |rank, size| {
            ReduceTask::new(
                rank,
                size,
                Topology::Flat,
                move || rank_bit(rank),
                |a, b| a | b,
                opts,
            )
        };
        ThreadEngine
            .run(size, plan, make, false)
            .outputs
            .expect("the thread engine detects no deadlock")
    })
}

/// The root's merged value and coverage.
fn root(outputs: &Outputs) -> &(u64, ReduceCoverage) {
    outputs[0]
        .as_ref()
        .expect("the root survives")
        .as_ref()
        .expect("rank 0 is the root")
}

#[test]
fn resilient_reduction_reports_a_killed_leaf_exactly() {
    let results = reduce_bits(
        8,
        FaultPlan::new().kill(5, 0),
        quick_opts(),
        Duration::from_secs(20),
    );
    let (merged, coverage) = root(&results);
    assert_eq!(coverage.lost, vec![5], "exact lost set");
    assert_eq!(coverage.included, vec![0, 1, 2, 3, 4, 6, 7]);
    assert_eq!(*merged, bits_of(&coverage.included));
    assert!(!coverage.is_complete());
}

#[test]
fn resilient_reduction_loses_a_dead_internal_nodes_subtree() {
    // Rank 2's comm ops in an 8-rank tree: op 0 = recv from rank 3
    // (level 0), op 1 = send to rank 0 (level 1). Killing it at op 1
    // means it dies *holding* rank 3's contribution — the classic
    // mid-protocol failure. The root must charge the whole {2, 3}
    // subtree as lost, and the merged value must cover exactly the
    // survivors' contributions.
    let results = reduce_bits(
        8,
        FaultPlan::new().kill(2, 1),
        quick_opts(),
        Duration::from_secs(20),
    );
    assert!(results[2].is_none());
    let (merged, coverage) = root(&results);
    assert_eq!(coverage.lost, vec![2, 3]);
    assert_eq!(coverage.included, vec![0, 1, 4, 5, 6, 7]);
    assert_eq!(*merged, bits_of(&coverage.included));
}

#[test]
fn fault_free_reduction_is_the_in_order_fold() {
    for size in [1usize, 2, 3, 5, 8, 13] {
        let results = reduce_bits(
            size,
            FaultPlan::new(),
            ResilienceOptions::default(),
            Duration::from_secs(20),
        );
        let (merged, coverage) = root(&results);
        let serial = (0..size).map(rank_bit).fold(0, |a, b| a | b);
        assert_eq!(*merged, serial, "size {size}");
        assert!(coverage.is_complete(), "size {size}: {coverage:?}");
        assert_eq!(coverage.included, (0..size).collect::<Vec<_>>());
        assert!(results[1..]
            .iter()
            .all(|out| out.as_ref().unwrap().is_none()));
    }
}

#[test]
fn delayed_straggler_is_still_included() {
    // Rank 1 stalls 150ms before its send; a single 100ms receive
    // attempt would give up, but the retry budget (100 + 150 = 250ms
    // total) comfortably covers the straggler. Nothing may be lost.
    let opts = quick_opts();
    assert!(opts.total_wait() > Duration::from_millis(150));
    let plan = FaultPlan::new().delay(1, 0, Duration::from_millis(150));
    let results = reduce_bits(4, plan, opts, Duration::from_secs(20));
    let (merged, coverage) = root(&results);
    assert!(coverage.is_complete(), "{coverage:?}");
    assert_eq!(*merged, bits_of(&[0, 1, 2, 3]));
}

#[test]
fn every_single_rank_kill_is_self_consistent() {
    // Whatever single non-root rank dies, and whenever (op 0 or 1), the
    // root's answer must satisfy the coverage invariants: included and
    // lost partition the world, the killed rank is lost, and the merged
    // bits equal exactly the included set.
    let size = 8usize;
    for victim in 1..size {
        // Leaves (odd ranks) issue exactly one comm op (their level-0
        // send); internal nodes issue at least two. Only script kills
        // at ops the victim actually reaches.
        let victim_ops = if victim % 2 == 1 { 1 } else { 2 };
        for op in 0..victim_ops as u64 {
            let plan = FaultPlan::new().kill(victim, op);
            let results = reduce_bits(size, plan, quick_opts(), Duration::from_secs(30));
            assert!(results[victim].is_none(), "victim {victim} op {op}");
            let (merged, ReduceCoverage { included, lost }) = root(&results);
            let mut all: Vec<usize> = included.iter().chain(lost.iter()).copied().collect();
            all.sort_unstable();
            assert_eq!(
                all,
                (0..size).collect::<Vec<_>>(),
                "victim {victim} op {op}"
            );
            assert!(lost.contains(&victim), "victim {victim} op {op}: {lost:?}");
            assert_eq!(*merged, bits_of(included), "victim {victim} op {op}");
        }
    }
}
