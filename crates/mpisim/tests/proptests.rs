//! Property-based tests for the MPI substrate's one reduction.

use mpisim::{
    EventEngine, Executor, FaultPlan, ReduceTask, ResilienceOptions, ThreadEngine, Topology,
};
use proptest::prelude::*;

/// `ReduceTask` over `values` (one per rank) on `engine` under
/// `topology`, with concatenation as the merge: rank 0's result.
fn concat<E: Executor>(engine: &E, values: &[String], topology: Topology) -> Option<String> {
    let input = std::sync::Arc::new(values.to_vec());
    let make = move |rank: usize, size| {
        let local = input[rank].clone();
        ReduceTask::new(
            rank,
            size,
            topology,
            move || local,
            |a, b| a + &b,
            ResilienceOptions::default(),
        )
    };
    let outputs = engine
        .run(values.len(), FaultPlan::new(), make, false)
        .outputs
        .unwrap();
    assert!(outputs[1..]
        .iter()
        .all(|out| out.as_ref().unwrap().is_none()));
    let (total, coverage) = outputs[0].clone().unwrap()?;
    assert!(coverage.is_complete());
    Some(total)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The reduction computes the serial in-order fold for any world
    /// size and payloads, with an associative, non-commutative merge
    /// (concatenation) — on both engines, flat and two-level — so tree
    /// shape does not leak into the result.
    #[test]
    fn reduction_is_the_in_order_fold(
        values in prop::collection::vec("[a-z]{0,4}", 1..12),
        nodes in 1usize..4,
    ) {
        let expect = Some(values.concat());
        for topology in [Topology::Flat, Topology::two_level_for(values.len(), nodes)] {
            prop_assert_eq!(&concat(&EventEngine::new(), &values, topology), &expect);
            prop_assert_eq!(&concat(&ThreadEngine, &values, topology), &expect);
        }
    }
}
