//! Property-based tests for the MPI substrate's reference reduction.

use mpisim::{reduce_tree, run};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Tree reduction computes the in-order fold for any world size and
    /// payloads, with an associative, non-commutative merge
    /// (concatenation) — so tree shape does not leak into the result.
    #[test]
    fn reduce_tree_is_in_order_fold(
        values in prop::collection::vec("[a-z]{0,4}", 1..12),
    ) {
        let expect = values.concat();
        let shared = std::sync::Arc::new(values);
        let input = std::sync::Arc::clone(&shared);
        let results = run(shared.len(), move |mut comm| {
            let local = input[comm.rank()].clone();
            reduce_tree(&mut comm, local, |a, b| a + &b).unwrap()
        });
        prop_assert_eq!(results[0].as_deref(), Some(expect.as_str()));
        prop_assert!(results[1..].iter().all(Option::is_none));
    }
}
