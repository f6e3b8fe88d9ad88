//! The fold's laws, op by op, in bits.
//!
//! Every execution path folds records into per-file or per-rank states
//! and merges those states (DESIGN.md §6), so what each op's merge
//! promises decides which paths may agree. For each of the ten
//! `OpKind`s this runs the real column code through [`Reducer`] over
//! generated sequences of one input class and checks four laws,
//! comparing finished results bit for bit:
//!
//! * **F** — `finish(fold(a ++ b)) == finish(merge(fold a, fold b))`;
//! * **C** — `merge` is commutative;
//! * **A** — `merge` is associative;
//! * **I** — the empty state is an identity on either side.
//!
//! The classes: integers (among them `i64::MAX`, `i64::MIN` and values
//! either side of 2⁵³), non-integer doubles (among them `-0.0`, NaN,
//! ±∞ and subnormals), the two mixed, and strings mixed with numbers
//! (`min` / `max` only: the other ops pass over strings). Sequences are
//! short, so a `percentile` reservoir never thins. The test asserts the
//! table of the laws that fail, which DESIGN.md §6 prints: a law that
//! starts or stops holding is a change to what the paths can promise.

use caliper_data::Value;
use caliper_query::{AggOp, OpKind, Reducer};

const OPS: [OpKind; 10] = [
    OpKind::Count,
    OpKind::Sum,
    OpKind::Min,
    OpKind::Max,
    OpKind::Avg,
    OpKind::Histogram,
    OpKind::PercentTotal,
    OpKind::Variance,
    OpKind::Stddev,
    OpKind::Percentile,
];

const CLASSES: [&str; 4] = ["int", "float", "mixed", "str"];

/// What the finished results must show, per op and class: the laws
/// that fail (`-` where all four hold; `n/a` where the op reads no such
/// input).
const TABLE: &str = "\
op            int   float mixed str
count         -     -     -     -
sum           FA    FCA   FCA   n/a
min           -     -     -     -
max           -     -     -     -
avg           FA    FCA   FCA   n/a
histogram     -     -     -     n/a
percent_total FA    FA    FA    n/a
variance      FCA   FCA   FCA   n/a
stddev        FCA   FCA   FCA   n/a
percentile    -     -     -     n/a
";

/// splitmix64: the inputs are the same on every run.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn pick<T: Clone>(&mut self, from: &[T]) -> T {
        from[(self.next() % from.len() as u64) as usize].clone()
    }
}

fn int(rng: &mut Rng) -> Value {
    const TWO_53: i64 = 1 << 53;
    let special = [
        0,
        1,
        -1,
        3,
        TWO_53 - 1,
        TWO_53,
        TWO_53 + 1,
        -TWO_53,
        -TWO_53 - 1,
        i64::MAX,
        i64::MIN,
    ];
    match rng.next() % 2 {
        0 => Value::Int(rng.pick(&special)),
        _ => Value::Int((rng.next() % 2001) as i64 - 1000),
    }
}

fn float(rng: &mut Rng) -> Value {
    let special = [
        -0.0,
        0.0,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        5e-324,
        f64::MIN_POSITIVE / 3.0,
        1e308,
        0.1,
        1.0,
        -2.5,
    ];
    match rng.next() % 2 {
        0 => Value::Float(rng.pick(&special)),
        // Non-integer doubles in [-4, 4): ordinary rounding.
        _ => Value::Float((rng.next() % 8000) as f64 / 1000.0 - 4.0 + 1e-3 / 3.0),
    }
}

fn input(class: &str, rng: &mut Rng) -> Value {
    match (class, rng.next() % 3) {
        ("int", _) => int(rng),
        ("float", _) => float(rng),
        ("str", 0) => Value::str(rng.pick(&["", "a", "b", "ab", "z"])),
        (_, 1) => int(rng),
        _ => float(rng),
    }
}

fn op(kind: OpKind) -> AggOp {
    let mut op = AggOp::new(kind, (kind != OpKind::Count).then_some("t"));
    op.args = match kind {
        OpKind::Histogram => vec![Value::Float(-0.5), Value::Float(3.5), Value::Int(8)],
        OpKind::Percentile => vec![Value::Float(50.0)],
        _ => Vec::new(),
    };
    op
}

fn fold(op: &AggOp, values: &[Value]) -> Reducer {
    let mut r = Reducer::new(op);
    values.iter().for_each(|v| r.update(v));
    r
}

fn merged(op: &AggOp, parts: &[&[Value]]) -> Reducer {
    let mut acc = fold(op, parts[0]);
    for part in &parts[1..] {
        acc.merge(&fold(op, part));
    }
    acc
}

/// A finished result, every bit of it: a float by its bit pattern, so
/// `-0.0`, `0.0` and NaN payloads are told apart, and the value type.
fn bits(r: &Reducer) -> String {
    match r.finish(3.0) {
        Some(Value::Float(f)) => format!("float {:016x}", f.to_bits()),
        other => format!("{other:?}"),
    }
}

/// The laws (of `FCAI`) that some generated input breaks for `kind`.
fn broken(kind: OpKind, class: &str) -> String {
    let op = op(kind);
    let mut rng = Rng(kind as u64 * 31 + class.as_bytes()[0] as u64);
    let mut failed = [false; 4];
    for _ in 0..4000 {
        let mut seq = || -> Vec<Value> {
            let n = rng.next() % 6;
            (0..n).map(|_| input(class, &mut rng)).collect()
        };
        let (a, b, c) = (seq(), seq(), seq());
        let ab: Vec<Value> = a.iter().chain(&b).cloned().collect();
        let fa = bits(&fold(&op, &a));
        failed[0] |= bits(&fold(&op, &ab)) != bits(&merged(&op, &[&a, &b]));
        failed[1] |= bits(&merged(&op, &[&a, &b])) != bits(&merged(&op, &[&b, &a]));
        let mut right = fold(&op, &a);
        right.merge(&merged(&op, &[&b, &c]));
        failed[2] |= bits(&merged(&op, &[&a, &b, &c])) != bits(&right);
        failed[3] |= bits(&merged(&op, &[&a, &[]])) != fa || bits(&merged(&op, &[&[], &a])) != fa;
    }
    let laws: String = "FCAI"
        .chars()
        .zip(failed)
        .filter(|(_, f)| *f)
        .map(|(l, _)| l)
        .collect();
    if laws.is_empty() {
        "-".to_string()
    } else {
        laws
    }
}

#[test]
fn each_ops_laws_hold_or_fail_as_the_table_says() {
    let mut table = String::from("op            int   float mixed str\n");
    for kind in OPS {
        table.push_str(&format!("{:<14}", kind.name()));
        for class in CLASSES {
            let strings = class == "str";
            let cell = if strings && !matches!(kind, OpKind::Count | OpKind::Min | OpKind::Max) {
                "n/a".to_string()
            } else {
                broken(kind, class)
            };
            table.push_str(&format!("{cell:<6}"));
        }
        table = table.trim_end().to_string() + "\n";
    }
    assert_eq!(table, TABLE, "observed:\n{table}");
}
