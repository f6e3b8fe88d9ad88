//! Property tests for the CalQL render/parse round trip.
//!
//! `display.rs` promises `parse(render(spec)) == spec` for every
//! representable spec. Instead of fuzzing query *text* (which mostly
//! produces parse errors), these tests generate random [`QuerySpec`]
//! values directly, render them to canonical text, re-parse, and
//! require the result to be equal — covering quoting of hostile
//! labels, keyword/operator-name collisions, numeric literal typing
//! (`1.0` must stay a float), LET expressions, and ORDER BY direction.

use caliper_data::Value;
use caliper_query::parse_query;
use caliper_query::{
    AggOp, CmpOp, Filter, FormatOpt, LetDef, LetExpr, OpKind, OutputFormat, QuerySpec, SortDir,
    SortKey,
};
use proptest::prelude::*;

/// Attribute labels: bare identifiers, strings needing quoting
/// (spaces, punctuation, quotes, backslashes), and the pathological
/// cases — clause keywords and operator names used as labels.
fn label() -> impl Strategy<Value = String> {
    prop_oneof![
        "[a-z][a-z0-9_.#]{0,8}",
        // printable ASCII incl. '"', '\\', '(' and friends
        "[ -~]{1,10}",
        Just("select".to_string()),
        Just("order".to_string()),
        Just("desc".to_string()),
        Just("limit".to_string()),
        Just("count".to_string()),
        Just("sum".to_string()),
        Just(String::new()),
    ]
}

/// Literal values for WHERE comparisons: every numeric flavor
/// (including integral floats, the classic round-trip trap) plus
/// strings that collide with numbers or keywords.
fn literal_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        (-1_000_000i64..1_000_000).prop_map(Value::Int),
        (u64::MAX - 1000..u64::MAX).prop_map(Value::UInt),
        (-400_000i64..400_000).prop_map(|n| Value::Float(n as f64 / 100.0)),
        (-1000i64..1000).prop_map(|n| Value::Float(n as f64)), // integral floats
        "[ -~]{0,8}".prop_map(Value::str),
        Just(Value::str("123")), // a string that looks like a number
    ]
}

fn agg_op() -> impl Strategy<Value = AggOp> {
    let simple = prop_oneof![
        Just(OpKind::Count),
        Just(OpKind::Sum),
        Just(OpKind::Min),
        Just(OpKind::Max),
        Just(OpKind::Avg),
        Just(OpKind::PercentTotal),
        Just(OpKind::Variance),
        Just(OpKind::Stddev),
    ];
    prop_oneof![
        // count with no target
        Just(AggOp::new(OpKind::Count, None)),
        (simple, label()).prop_map(|(kind, target)| AggOp::new(kind, Some(&target))),
        // histogram(attr, lo, hi, nbins)
        (label(), -100i64..100, 0i64..1000, 1i64..32).prop_map(|(target, lo, span, nbins)| {
            let mut op = AggOp::new(OpKind::Histogram, Some(&target));
            op.args = vec![Value::Int(lo), Value::Int(lo + 1 + span), Value::Int(nbins)];
            op
        }),
        // percentile(attr, p)
        (label(), 1i64..100).prop_map(|(target, p)| {
            let mut op = AggOp::new(OpKind::Percentile, Some(&target));
            op.args = vec![Value::Int(p)];
            op
        }),
    ]
}

fn aliased_op() -> impl Strategy<Value = AggOp> {
    (agg_op(), 0u8..3, label()).prop_map(|(mut op, has_alias, alias)| {
        if has_alias == 0 && !alias.is_empty() {
            op.alias = Some(alias);
        }
        op
    })
}

fn filter() -> impl Strategy<Value = Filter> {
    let cmp = prop_oneof![
        Just(CmpOp::Eq),
        Just(CmpOp::Ne),
        Just(CmpOp::Lt),
        Just(CmpOp::Le),
        Just(CmpOp::Gt),
        Just(CmpOp::Ge),
    ];
    prop_oneof![
        label().prop_map(Filter::Exists),
        label().prop_map(Filter::NotExists),
        (label(), cmp, literal_value()).prop_map(|(attr, op, value)| Filter::Cmp {
            attr,
            op,
            value
        }),
    ]
}

fn let_def() -> impl Strategy<Value = LetDef> {
    let expr = prop_oneof![
        (label(), -100_000i64..100_000)
            .prop_map(|(attr, f)| LetExpr::Scale(attr, f as f64 / 100.0)),
        (label(), label()).prop_map(|(a, b)| LetExpr::Ratio(a, b)),
        prop::collection::vec(label(), 1..4).prop_map(LetExpr::First),
        (label(), 1i64..100_000).prop_map(|(attr, w)| LetExpr::Truncate(attr, w as f64 / 100.0)),
    ];
    (label(), expr).prop_map(|(name, expr)| LetDef { name, expr })
}

fn sort_key() -> impl Strategy<Value = SortKey> {
    (label(), 0u8..2).prop_map(|(attr, d)| SortKey {
        attr,
        dir: if d == 0 { SortDir::Asc } else { SortDir::Desc },
    })
}

fn output_format() -> impl Strategy<Value = OutputFormat> {
    prop_oneof![
        Just(OutputFormat::Table),
        Just(OutputFormat::Csv),
        Just(OutputFormat::Json),
        Just(OutputFormat::Expand),
        Just(OutputFormat::Cali),
        Just(OutputFormat::Flamegraph),
    ]
}

/// Formatter options: bare flags and `opt=value` pairs, with hostile
/// names and every literal flavor as the value.
fn format_opt() -> impl Strategy<Value = FormatOpt> {
    (label(), 0u8..2, literal_value()).prop_map(|(name, has_value, value)| FormatOpt {
        name,
        value: (has_value == 0).then_some(value),
    })
}

fn query_spec() -> impl Strategy<Value = QuerySpec> {
    (
        (
            prop::collection::vec(aliased_op(), 0..4),
            prop::collection::vec(label(), 0..3),
            prop::collection::vec(filter(), 0..3),
        ),
        (
            prop::collection::vec(let_def(), 0..3),
            prop::collection::vec(sort_key(), 0..3),
        ),
        (0u8..2, prop::collection::vec(label(), 1..3)),
        (0u8..2, 0usize..1000),
        (output_format(), prop::collection::vec(format_opt(), 0..3)),
    )
        .prop_map(
            |(
                (ops, key, filters),
                (lets, order_by),
                (has_select, select),
                (has_limit, limit),
                (format, format_opts),
            )| {
                QuerySpec {
                    ops,
                    key,
                    filters,
                    select: (has_select == 0).then_some(select),
                    lets,
                    order_by,
                    limit: (has_limit == 0).then_some(limit),
                    format,
                    format_opts,
                }
            },
        )
}

proptest! {
    /// The core property: rendering a spec and re-parsing the text
    /// reproduces the spec exactly.
    #[test]
    fn render_parse_roundtrip(spec in query_spec()) {
        let rendered = spec.to_string();
        let reparsed = parse_query(&rendered)
            .map_err(|e| TestCaseError::fail(format!("rendered '{rendered}' fails to parse: {e}")))?;
        prop_assert_eq!(&spec, &reparsed, "via '{}'", rendered);
    }

    /// Rendering is a fixpoint: render(parse(render(spec))) is stable,
    /// so canonical text can be shipped across processes repeatedly
    /// (the mpi-caliquery path) without drifting.
    #[test]
    fn render_is_canonical(spec in query_spec()) {
        let once = spec.to_string();
        let twice = parse_query(&once)
            .map_err(|e| TestCaseError::fail(format!("'{once}' fails to parse: {e}")))?
            .to_string();
        prop_assert_eq!(once, twice);
    }
}
