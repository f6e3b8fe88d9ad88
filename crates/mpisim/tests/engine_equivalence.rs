//! Engine equivalence: the event engine and the thread engine drive the
//! same `ReduceTask` state machine, so for any (size, topology, payload,
//! fault plan) whose delays are decisively smaller than the timeout
//! budgets, their outputs — merged values *and* `ReduceCoverage`, on
//! every rank — must be byte-identical.
//!
//! The fault plans come from `FaultPlan::seeded_kills`, i.e. both
//! engines run under the same kill seed, plus a couple of seeded small
//! delays (a few ms against a 25 ms base timeout, so the thread
//! engine's wall-clock timers cannot misread a straggler as a corpse).

use std::time::Duration;

use mpisim::{
    EventEngine, Executor, FaultPlan, ReduceTask, ResilienceOptions, ThreadEngine, Topology,
};
use proptest::prelude::*;

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Run the resilient reduction on `engine` and render every rank's
/// output (value + coverage) to one string for byte-wise comparison.
/// The merge (string concatenation) is associative but non-commutative,
/// so any difference in merge *order* between the engines shows up too.
fn reduce_render<E: Executor>(
    engine: &E,
    size: usize,
    nodes: usize,
    plan: FaultPlan,
    seed: u64,
) -> String {
    let opts = ResilienceOptions {
        timeout: Duration::from_millis(25),
        retries: 1,
        backoff: Duration::from_millis(10),
    };
    let topology = if nodes > 1 {
        Topology::two_level_for(size, nodes)
    } else {
        Topology::Flat
    };
    let make = move |rank, size| {
        ReduceTask::new(
            rank,
            size,
            topology,
            move || format!("{:x}.", seed.wrapping_add(rank as u64) & 0xFFFF),
            |a, b| a + &b,
            opts,
        )
    };
    format!("{:?}", engine.run(size, plan, make, false).outputs.unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random (ranks ≤ 64, node fanout, payload seed, kill seed):
    /// event and thread engines produce byte-identical results and
    /// identical coverage under the same `FaultPlan` seed.
    #[test]
    fn engines_are_byte_identical(
        size in 2usize..=64,
        nodes in 1usize..=4,
        kills in 0usize..=2,
        seed in any::<u64>(),
    ) {
        let mut plan = FaultPlan::seeded_kills(seed, kills, size);
        // A couple of seeded delays, small against the 25 ms budget.
        let mut s = seed ^ 0xD3;
        for _ in 0..(splitmix64(&mut s) % 3) {
            let rank = (splitmix64(&mut s) % size as u64) as usize;
            let op = splitmix64(&mut s) % 2;
            let ms = 1 + splitmix64(&mut s) % 4;
            plan = plan.delay(rank, op, Duration::from_millis(ms));
        }

        let event = reduce_render(&EventEngine::new(), size, nodes, plan.clone(), seed);
        let threads = reduce_render(&ThreadEngine, size, nodes, plan, seed);
        prop_assert_eq!(event, threads);
    }
}

/// A fixed worst-case-ish scenario kept outside the proptest so it
/// always runs: a mid-protocol kill plus a straggler in a two-level
/// tree, compared across engines.
#[test]
fn engines_agree_on_a_mid_protocol_kill_in_a_two_level_tree() {
    let plan = FaultPlan::new()
        .kill(8, 1)
        .delay(3, 0, Duration::from_millis(4));
    let event = reduce_render(&EventEngine::new(), 32, 4, plan.clone(), 99);
    let threads = reduce_render(&ThreadEngine, 32, 4, plan, 99);
    assert_eq!(event, threads);
}
