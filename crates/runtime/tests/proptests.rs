//! Property-based tests for the runtime: the blackboard must behave
//! like a reference model (per-attribute stacks) under arbitrary
//! begin/end/set sequences, snapshot processing must be lossless, and
//! the trace buffer's blocks must hold what copies of the snapshots
//! hold. The on-line aggregate is held to the reference evaluator in the
//! root package's `tests/every_path.rs`; the snapshot shapes it hands to
//! the row path are built by hand below.

use std::collections::HashMap;
use std::sync::Arc;

use caliper_data::{
    Attribute, AttributeStore, ContextTree, Entry, FlatRecord, Properties, SnapshotRecord, Value,
    ValueType, NODE_NONE,
};
use caliper_format::{cali, to_binary_v2, Dataset};
use caliper_query::{parse_query, run_query, AggregationSpec, Aggregator};
use caliper_runtime::{Blackboard, Clock, ProcCtx, Service, TraceService, Trigger};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Begin(usize, String),
    End(usize),
    Set(usize, String),
    Snapshot,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..4, "[a-z]{1,6}").prop_map(|(a, v)| Op::Begin(a, v)),
        (0usize..4).prop_map(Op::End),
        (0usize..4, "[a-z]{1,6}").prop_map(|(a, v)| Op::Set(a, v)),
        Just(Op::Snapshot),
    ]
}

/// Reference model: an independent value stack per attribute.
#[derive(Default)]
struct Model {
    stacks: HashMap<usize, Vec<String>>,
}

impl Model {
    fn begin(&mut self, attr: usize, value: &str) {
        self.stacks.entry(attr).or_default().push(value.to_string());
    }
    fn end(&mut self, attr: usize) -> bool {
        self.stacks.entry(attr).or_default().pop().is_some()
    }
    fn set(&mut self, attr: usize, value: &str) {
        let stack = self.stacks.entry(attr).or_default();
        stack.pop();
        stack.push(value.to_string());
    }
    fn top(&self, attr: usize) -> Option<&String> {
        self.stacks.get(&attr).and_then(|s| s.last())
    }
    fn values(&self, attr: usize) -> Vec<String> {
        self.stacks.get(&attr).cloned().unwrap_or_default()
    }
}

fn setup(nested: bool) -> (Arc<ContextTree>, Vec<Attribute>, Blackboard) {
    let store = AttributeStore::new();
    let tree = Arc::new(ContextTree::new());
    let props = if nested {
        Properties::NESTED
    } else {
        Properties::AS_VALUE
    };
    let attrs: Vec<Attribute> = (0..4)
        .map(|i| {
            store
                .create(&format!("attr.{i}"), ValueType::Str, props)
                .unwrap()
        })
        .collect();
    let bb = Blackboard::new(Arc::clone(&tree));
    (tree, attrs, bb)
}

fn check_model(
    ops: &[Op],
    nested: bool,
) -> Result<(), TestCaseError> {
    let (tree, attrs, mut bb) = setup(nested);
    let mut model = Model::default();
    for op in ops {
        match op {
            Op::Begin(a, v) => {
                bb.begin(&attrs[*a], Value::str(v.as_str()));
                model.begin(*a, v);
            }
            Op::End(a) => {
                let model_ok = model.end(*a);
                let bb_result = bb.end(&attrs[*a]);
                prop_assert_eq!(
                    model_ok,
                    bb_result.is_ok(),
                    "end behaviour diverged for attr {}",
                    a
                );
            }
            Op::Set(a, v) => {
                bb.set(&attrs[*a], Value::str(v.as_str()));
                model.set(*a, v);
            }
            Op::Snapshot => {
                let flat = bb.snapshot().unpack(&tree);
                for (i, attr) in attrs.iter().enumerate() {
                    // The innermost value must match the model's top.
                    let expect = model.top(i).map(|s| Value::str(s.as_str()));
                    prop_assert_eq!(
                        flat.get(attr.id()).cloned(),
                        expect,
                        "innermost of attr {} diverged",
                        i
                    );
                    if nested {
                        // For nested attributes the snapshot carries the
                        // whole stack, in order.
                        let got: Vec<String> =
                            flat.all(attr.id()).map(|v| v.to_string()).collect();
                        prop_assert_eq!(got, model.values(i));
                    }
                }
            }
        }
    }
    Ok(())
}

proptest! {
    /// Nested (context-tree) attributes behave like per-attribute stacks
    /// even though they share one node chain.
    #[test]
    fn nested_blackboard_matches_stack_model(ops in prop::collection::vec(arb_op(), 0..120)) {
        check_model(&ops, true)?;
    }

    /// AS_VALUE attributes behave like per-attribute stacks.
    #[test]
    fn immediate_blackboard_matches_stack_model(ops in prop::collection::vec(arb_op(), 0..120)) {
        check_model(&ops, false)?;
    }

    /// Snapshots never panic and are internally consistent for random
    /// interleavings; the blackboard is empty after ending everything.
    #[test]
    fn balanced_sequences_drain_the_blackboard(
        values in prop::collection::vec((0usize..4, "[a-z]{1,4}"), 1..40),
    ) {
        let (_tree, attrs, mut bb) = setup(true);
        for (a, v) in &values {
            bb.begin(&attrs[*a], Value::str(v.as_str()));
        }
        // End in reverse order (well nested).
        for (a, _) in values.iter().rev() {
            prop_assert!(bb.end(&attrs[*a]).is_ok());
        }
        prop_assert!(bb.is_empty());
    }

    /// The trace buffer's blocks hold what a copy of every snapshot
    /// holds: a dataset of `rec.clone()`s is the oracle for the flushed
    /// one's length, rows (floats by their bits), bytes in both
    /// writers and answers to an aggregating and a pass-through query —
    /// over values of every type, one of another type than its attribute
    /// declares, set events and a late attribute, the steps played
    /// `rounds` times so that blocks fill and are cut.
    #[test]
    fn trace_blocks_hold_what_copies_of_the_snapshots_hold(
        steps in prop::collection::vec(arb_step_over(ATTRS.len() + MORE_ATTRS.len()), 0..80),
        late_nested in any::<bool>(),
        rounds in 1usize..100,
    ) {
        let store = Arc::new(AttributeStore::new());
        let tree = Arc::new(ContextTree::new());
        let clock = Clock::virtual_clock();
        let ctx = ProcCtx { store: &store, tree: &tree, clock: &clock, trigger: Trigger::User };
        let specs: Vec<AttrSpec> = ATTRS.iter().chain(&MORE_ATTRS).copied().collect();
        let steps: Vec<Step> = steps.iter().cycle().take(steps.len() * rounds).cloned().collect();
        let mut trace = TraceService::new();
        let mut oracle = Dataset::with_context(Arc::clone(&store), Arc::clone(&tree));
        play_over(&specs, &store, &tree, &steps, late_nested, |rec| {
            trace.consume(&ctx, rec);
            oracle.push(rec.clone());
        });
        let mut traced = Dataset::with_context(Arc::clone(&store), Arc::clone(&tree));
        trace.flush(&ctx, &mut traced);

        prop_assert_eq!(traced.len(), oracle.len());
        let rows = |ds: &Dataset| -> Vec<String> {
            ds.flat_records().map(|row| described(&row, &ds.store)).collect()
        };
        prop_assert_eq!(rows(&traced), rows(&oracle));
        prop_assert_eq!(cali::to_bytes(&traced), cali::to_bytes(&oracle));
        prop_assert_eq!(to_binary_v2(&traced), to_binary_v2(&oracle));
        for query in TRACE_QUERIES {
            let answer = |ds: &Dataset| {
                let result = run_query(ds, query).unwrap();
                let rows: Vec<String> =
                    result.records.iter().map(|row| described(&row, &result.store)).collect();
                (rows, result.render())
            };
            prop_assert_eq!(answer(&traced), answer(&oracle), "{}", query);
        }
    }
}

/// What the trace test asks of a traced dataset: an aggregation keyed
/// by a nested path, a bool and the attribute of mistyped values, and a
/// pass-through query.
const TRACE_QUERIES: [&str; 2] = [
    "AGGREGATE count, sum(v.float), avg(n.int), max(v.odd), min(v.uint), max(late) \
     GROUP BY n.str, v.bool, v.odd",
    "SELECT * WHERE n.tag",
];

// ---------------------------------------------------------------------
// The on-line aggregate's two paths. CleverLeaf's own schemes A, B and
// C are held to the snapshot path in `crates/bench/tests/schemes.rs`.

/// An attribute a generated run annotates: its label, declared type and
/// properties, and the type of the values the run gives it.
type AttrSpec = (&'static str, ValueType, Properties, ValueType);

/// The attributes a generated run annotates: nested strings and ints,
/// and values of three types.
const ATTRS: [AttrSpec; 6] = [
    ("n.str", ValueType::Str, Properties::NESTED, ValueType::Str),
    ("n.int", ValueType::Int, Properties::NESTED, ValueType::Int),
    ("n.tag", ValueType::Str, Properties::NESTED, ValueType::Str),
    ("v.int", ValueType::Int, Properties::AS_VALUE, ValueType::Int),
    ("v.str", ValueType::Str, Properties::AS_VALUE, ValueType::Str),
    ("v.float", ValueType::Float, Properties::AS_VALUE, ValueType::Float),
];

/// What a traced run annotates beyond [`ATTRS`]: values of the two
/// types those lack, and an attribute whose values are of another type
/// than it declares.
const MORE_ATTRS: [AttrSpec; 3] = [
    ("v.uint", ValueType::UInt, Properties::AS_VALUE, ValueType::UInt),
    ("v.bool", ValueType::Bool, Properties::AS_VALUE, ValueType::Bool),
    ("v.odd", ValueType::Int, Properties::AS_VALUE, ValueType::Float),
];

#[derive(Debug, Clone)]
enum Step {
    Begin(usize, usize),
    End(usize),
    Set(usize, usize),
    Snapshot,
    CreateLate,
}

/// A step over `attrs` attributes and the late one after them.
fn arb_step_over(attrs: usize) -> impl Strategy<Value = Step> {
    let attr = 0usize..attrs + 1;
    prop_oneof![
        (attr.clone(), 0usize..4).prop_map(|(a, v)| Step::Begin(a, v)),
        attr.clone().prop_map(Step::End),
        (attr, 0usize..4).prop_map(|(a, v)| Step::Set(a, v)),
        Just(Step::Snapshot),
        Just(Step::Snapshot),
        Just(Step::CreateLate),
    ]
}

/// The `v`th value of a type: few, so keys repeat, and `"x/y"`, which a
/// nested `x`, `y` joins to as well.
fn value(vtype: ValueType, v: usize) -> Value {
    match vtype {
        ValueType::Int => Value::Int(v as i64 % 3),
        ValueType::UInt => Value::UInt([0, 7, u64::MAX, 7][v]),
        ValueType::Float => Value::Float([0.5, 1.5, -0.0, 0.0][v]),
        ValueType::Bool => Value::Bool(v % 2 == 1),
        ValueType::Str => Value::str(["x", "y", "x/y", "z"][v]),
    }
}

/// Play `steps` on a blackboard over `tree` annotating `specs` (and,
/// once a step asks, `late`, a string attribute), handing each snapshot
/// to `take` as it is taken.
fn play_over(
    specs: &[AttrSpec],
    store: &AttributeStore,
    tree: &Arc<ContextTree>,
    steps: &[Step],
    late_nested: bool,
    mut take: impl FnMut(&SnapshotRecord),
) {
    let mut attrs: Vec<(Attribute, ValueType)> = specs
        .iter()
        .map(|&(label, vtype, properties, values)| {
            (store.create(label, vtype, properties).unwrap(), values)
        })
        .collect();
    let mut bb = Blackboard::new(Arc::clone(tree));
    let mut rec = SnapshotRecord::new();
    for step in steps {
        match *step {
            Step::Begin(a, v) if a < attrs.len() => bb.begin(&attrs[a].0, value(attrs[a].1, v)),
            Step::End(a) if a < attrs.len() => drop(bb.end(&attrs[a].0)),
            Step::Set(a, v) if a < attrs.len() => bb.set(&attrs[a].0, value(attrs[a].1, v)),
            Step::Snapshot => {
                bb.snapshot_into(&mut rec);
                take(&rec);
            }
            Step::CreateLate if attrs.len() == specs.len() => {
                let properties = if late_nested {
                    Properties::NESTED
                } else {
                    Properties::AS_VALUE
                };
                let late = store.create("late", ValueType::Str, properties).unwrap();
                attrs.push((late, ValueType::Str));
            }
            _ => {}
        }
    }
}

/// An aggregator's flushed rows, result attributes interned in `out`.
fn flushed(agg: &Aggregator, out: &AttributeStore) -> Vec<String> {
    agg.flush(out)
        .iter()
        .map(|row| described(&row, out))
        .collect()
}

/// A row as `label=value,…`, and its floats by their bits, which the
/// text rounds.
fn described(row: &FlatRecord, store: &AttributeStore) -> String {
    let bits: Vec<u64> = row
        .pairs()
        .iter()
        .filter_map(|(_, value)| match value {
            Value::Float(x) => Some(x.to_bits()),
            _ => None,
        })
        .collect();
    format!("{} {bits:x?}", row.describe(store))
}

/// Each shape the snapshot path hands to the row path, built by hand,
/// takes it, and a plain snapshot does not; either way the flush is the
/// row path's.
#[test]
fn fallback_shapes_take_the_row_path() {
    let store = Arc::new(AttributeStore::new());
    let tree = ContextTree::new();
    let create = |label, vtype, properties| store.create(label, vtype, properties).unwrap().id();
    let n = create("n.str", ValueType::Str, Properties::NESTED);
    let tag = create("n.tag", ValueType::Str, Properties::NESTED);
    let v = create("v.str", ValueType::Str, Properties::AS_VALUE);
    let f = create("v.float", ValueType::Float, Properties::AS_VALUE);
    let main = tree.get_child(NODE_NONE, n, &Value::str("main"));
    let foo = tree.get_child(main, n, &Value::str("foo"));
    let tagged = tree.get_child(foo, tag, &Value::str("t"));
    let text = |attr, s: &str| Entry::Imm(attr, Value::str(s));
    let time = Entry::Imm(f, Value::Float(1.5));

    // (shape, key, ops, group cap, records, snapshots the row path takes)
    let cases = [
        (
            "plain",
            "n.str,v.str,n.tag",
            "count,sum(v.float)",
            None,
            vec![
                vec![Entry::Node(foo), text(v, "a"), time.clone()],
                vec![Entry::Node(tagged), time.clone()],
                vec![text(v, "b")],
                vec![],
            ],
            0,
        ),
        (
            "two node entries",
            "n.str",
            "count,sum(v.float)",
            None,
            vec![vec![Entry::Node(main), Entry::Node(tagged), time.clone()]],
            1,
        ),
        (
            "a key on the path and an immediate",
            "n.str",
            "count",
            None,
            vec![vec![Entry::Node(foo), text(n, "x")], vec![Entry::Node(foo)]],
            1,
        ),
        (
            "a key twice an immediate",
            "v.str",
            "count",
            None,
            vec![vec![text(v, "a"), text(v, "b")], vec![text(v, "a")]],
            1,
        ),
        (
            "an op target on the path",
            "v.str",
            "count,max(n.tag)",
            None,
            vec![
                vec![Entry::Node(tagged), text(v, "a")],
                vec![Entry::Node(foo)],
            ],
            1,
        ),
        (
            "a node the tree does not know",
            "n.str",
            "count",
            None,
            vec![vec![Entry::Node(99)], vec![Entry::Node(NODE_NONE)]],
            2,
        ),
        (
            "key strings turned away at capacity",
            "n.str,v.str",
            "count",
            Some(1),
            vec![
                vec![text(v, "a")],
                vec![Entry::Node(foo), text(v, "a")],
                vec![text(v, "b")],
                vec![text(v, "a")],
            ],
            2,
        ),
        (
            "at capacity, a key of no new string",
            "v.str,n.tag",
            "count",
            Some(1),
            vec![
                vec![text(v, "a")],
                vec![Entry::Node(foo)],
                vec![text(v, "a"), time.clone()],
            ],
            0,
        ),
    ];
    for (name, key, ops, cap, records, fallbacks) in cases {
        let spec = AggregationSpec::from_query(
            &parse_query(&format!("AGGREGATE {ops} GROUP BY {key}")).unwrap(),
        );
        let mut snapshots = Aggregator::new(spec.clone(), Arc::clone(&store));
        let mut rows = Aggregator::new(spec, Arc::clone(&store));
        snapshots.set_max_groups(cap);
        rows.set_max_groups(cap);
        for entries in records {
            let rec = SnapshotRecord::from_entries(entries);
            snapshots.add_snapshot(&rec, &tree);
            rows.add(&rec.unpack(&tree));
        }
        assert_eq!(snapshots.snapshot_fallbacks(), fallbacks, "{name}");
        assert_eq!(
            flushed(&snapshots, &AttributeStore::new()),
            flushed(&rows, &AttributeStore::new()),
            "{name}"
        );
    }
}

/// A snapshot's node is cached per tree: another tree with the same ids
/// — here, one after another, likely at one address — starts the cache
/// over.
#[test]
fn another_tree_starts_the_node_cache_over() {
    let store = Arc::new(AttributeStore::new());
    let n = store
        .create("n.str", ValueType::Str, Properties::NESTED)
        .unwrap()
        .id();
    let spec = AggregationSpec::from_query(&parse_query("AGGREGATE count GROUP BY n.str").unwrap());
    let mut snapshots = Aggregator::new(spec.clone(), Arc::clone(&store));
    let mut rows = Aggregator::new(spec, Arc::clone(&store));
    for name in ["main", "other"] {
        let tree = ContextTree::new();
        let node = tree.get_child(NODE_NONE, n, &Value::str(name));
        let rec = SnapshotRecord::from_entries(vec![Entry::Node(node)]);
        snapshots.add_snapshot(&rec, &tree);
        rows.add(&rec.unpack(&tree));
    }
    assert_eq!(snapshots.snapshot_fallbacks(), 0);
    let out = AttributeStore::new();
    assert_eq!(
        flushed(&snapshots, &out),
        ["n.str=main,count=1 []", "n.str=other,count=1 []"]
    );
    assert_eq!(flushed(&snapshots, &out), flushed(&rows, &out));
}
