//! Fault-matrix sweep at 1024 simulated ranks: kill/delay schedules
//! written in the shared `--faults` grammar (`mpi.kill=at(rank,op)`,
//! `mpi.delay=at(rank,op,ms)`) are applied to the event engine's
//! resilient reduction, and the ranks-lost accounting is asserted
//! *exactly* — a victim's whole binomial subtree, nothing more,
//! nothing less — so coverage can never exceed the surviving subtrees.

use mpisim::{
    EventEngine, FaultPlan, ReduceCoverage, ReduceTask, ResilienceOptions, SchedStats, Topology,
};

const SIZE: usize = 1024;

/// Run a sum-reduction over `SIZE` ranks under a `--faults` spec.
fn run_spec(spec: &str) -> (u64, ReduceCoverage, SchedStats) {
    let plan = FaultPlan::from_spec(spec).expect("spec parses");
    let opts = ResilienceOptions::default();
    let (mut outs, stats) =
        EventEngine::new().run_tasks_with_stats(SIZE, plan, move |rank, size| {
            ReduceTask::new(
                rank,
                size,
                Topology::Flat,
                move || rank as u64,
                |a, b| a + b,
                opts,
            )
        });
    let (sum, coverage) = outs[0].take().expect("root survives").expect("root output");
    (sum, coverage, stats)
}

/// The binomial subtree rooted at `r` (for `SIZE` a power of two):
/// exactly the ranks whose contributions die with `r`.
fn subtree(r: usize) -> Vec<usize> {
    (r..r + (1usize << r.trailing_zeros())).collect()
}

fn sum_of(ranks: impl Iterator<Item = usize>) -> u64 {
    ranks.map(|r| r as u64).sum()
}

/// Shared assertions: lost is exactly `expect_lost` (ascending),
/// included is its complement, and the merged value is the sum over
/// exactly the included ranks.
fn assert_exact_loss(sum: u64, coverage: &ReduceCoverage, expect_lost: &[usize]) {
    assert_eq!(coverage.lost, expect_lost);
    let expect_included: Vec<usize> = (0..SIZE).filter(|r| !expect_lost.contains(r)).collect();
    assert_eq!(coverage.included, expect_included);
    assert_eq!(sum, sum_of(coverage.included.iter().copied()));
}

#[test]
fn a_kill_at_op_zero_loses_exactly_the_victims_subtree() {
    for victim in [1usize, 2, 4, 8, 96, 512, 513, 768] {
        let (sum, coverage, stats) = run_spec(&format!("mpi.kill=at({victim},0)"));
        let lost = subtree(victim);
        assert_exact_loss(sum, &coverage, &lost);
        assert_eq!(stats.ranks_lost, 1, "victim {victim}");
        assert_eq!(
            sum,
            sum_of(0..SIZE) - sum_of(lost.iter().copied()),
            "victim {victim}"
        );
    }
}

#[test]
fn a_mid_protocol_kill_charges_the_absorbed_children_too() {
    // Rank 8 dies at op 1: after receiving rank 9's contribution
    // (op 0), before receiving rank 10's. Rank 9's value is absorbed
    // into the corpse, ranks 10..16 send into a dead inbox — the whole
    // subtree {8..16} is lost either way, and is charged exactly.
    let (sum, coverage, _) = run_spec("mpi.kill=at(8,1)");
    assert_exact_loss(sum, &coverage, &subtree(8));

    // Same at a big internal node: rank 512 dies at op 2, having
    // absorbed {513} and {514, 515}; all of {512..1024} dies with it.
    let (sum, coverage, _) = run_spec("mpi.kill=at(512,2)");
    assert_exact_loss(sum, &coverage, &subtree(512));
}

#[test]
fn multi_kill_specs_lose_the_union_of_subtrees() {
    // Disjoint subtrees: {4..8} ∪ {9} ∪ {640..768}.
    let (sum, coverage, stats) = run_spec("mpi.kill=at(4,0);mpi.kill=at(9,0);mpi.kill=at(640,0)");
    let mut lost: Vec<usize> = subtree(4);
    lost.extend(subtree(9));
    lost.extend(subtree(640));
    lost.sort_unstable();
    assert_exact_loss(sum, &coverage, &lost);
    assert_eq!(stats.ranks_lost, 3);

    // Nested: rank 18 lies inside rank 16's subtree {16..32}; the
    // union is still exactly {16..32} — no double charge, no leak.
    let (sum, coverage, stats) = run_spec("mpi.kill=at(16,0);mpi.kill=at(18,0)");
    assert_exact_loss(sum, &coverage, &subtree(16));
    assert_eq!(stats.ranks_lost, 2);
}

#[test]
fn coverage_never_exceeds_the_surviving_subtrees() {
    // Sweep a few victims at several kill ops; whatever the op, an
    // included rank must never lie inside any victim's subtree.
    for (victims, ops) in [
        (vec![32usize, 200], vec![0u64, 1]),
        (vec![128, 129, 130], vec![2, 0, 1]),
        (vec![512, 256, 64], vec![1, 1, 1]),
    ] {
        let spec: Vec<String> = victims
            .iter()
            .zip(&ops)
            .map(|(v, o)| format!("mpi.kill=at({v},{o})"))
            .collect();
        let (sum, coverage, _) = run_spec(&spec.join(";"));
        for &victim in &victims {
            let sub = subtree(victim);
            assert!(
                coverage.included.iter().all(|r| !sub.contains(r)),
                "victims {victims:?} ops {ops:?}: included rank inside lost subtree {victim}"
            );
        }
        assert_eq!(coverage.included.len() + coverage.lost.len(), SIZE);
        assert_eq!(sum, sum_of(coverage.included.iter().copied()));
    }
}

#[test]
fn delays_are_stragglers_not_corpses() {
    // Delays well under the 250 ms base budget: full coverage, no
    // timeout ever fires as a wake, and the virtual clock shows the
    // straggling (the 60 ms delay is on rank 513's only op, its send).
    let (sum, coverage, stats) = run_spec("mpi.delay=at(1,0,40);mpi.delay=at(513,0,60)");
    assert!(coverage.is_complete());
    assert_eq!(sum, sum_of(0..SIZE));
    assert_eq!(stats.ranks_lost, 0);
    assert_eq!(
        stats.timeouts, 0,
        "stragglers this small never time anyone out"
    );
    assert!(stats.virtual_time_ns >= 60_000_000);
}

#[test]
fn kills_and_delays_compose_in_one_spec() {
    let (sum, coverage, stats) = run_spec("mpi.kill=at(256,0);mpi.delay=at(3,0,30)");
    assert_exact_loss(sum, &coverage, &subtree(256));
    assert!(
        coverage.included.contains(&3),
        "the delayed rank still counts"
    );
    assert_eq!(stats.ranks_lost, 1);
}
