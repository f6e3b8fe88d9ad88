//! Property tests for the semantic analyzer.
//!
//! Whatever spec the parser accepts, [`analyze`] must return without
//! panicking — with or without spans, with or without a schema — and
//! its output must be deterministic and sorted. The spec generator is
//! the round-trip one: random [`QuerySpec`] values are rendered to
//! canonical text and re-parsed to obtain genuine parser spans. The
//! parser itself meets damaged text: the example queries of
//! docs/CALQL.md, corrupted as `caliper_faults` corrupts bytes.

use caliper_data::{Properties, Value, ValueType};
use caliper_format::Schema;
use caliper_query::{analyze, parse_query_spanned, Severity};
use caliper_query::{
    AggOp, CmpOp, Filter, FormatOpt, LetDef, LetExpr, OpKind, OutputFormat, QuerySpec, SortDir,
    SortKey,
};
use proptest::prelude::*;

/// A small attribute universe so generated queries sometimes hit known
/// names (exercising the type checks) and sometimes miss (exercising
/// E002 and the suggestion machinery).
fn schema() -> Schema {
    let mut s = Schema::new();
    s.observe("function", ValueType::Str, Properties::NESTED);
    s.observe("mpi.rank", ValueType::Int, Properties::GLOBAL);
    s.observe(
        "time.duration",
        ValueType::Float,
        Properties::AS_VALUE | Properties::AGGREGATABLE,
    );
    s.observe("flag", ValueType::Bool, Properties::DEFAULT);
    s
}

/// Labels biased toward the schema universe plus hostile strays.
fn label() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("function".to_string()),
        Just("mpi.rank".to_string()),
        Just("time.duration".to_string()),
        Just("time.duraton".to_string()), // near-miss for suggestions
        Just("flag".to_string()),
        "[a-z][a-z0-9_.#]{0,8}",
        "[ -~]{1,8}",
        Just(String::new()),
    ]
}

fn literal_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        (-1000i64..1000).prop_map(Value::Int),
        (0u64..1000).prop_map(Value::UInt),
        (-1000i64..1000).prop_map(|n| Value::Float(n as f64 / 4.0)),
        "[ -~]{0,6}".prop_map(Value::str),
    ]
}

fn agg_op() -> impl Strategy<Value = AggOp> {
    let kind = prop_oneof![
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
        (kind, label()).prop_map(|(kind, target)| AggOp::new(kind, Some(&target))),
        Just(AggOp::new(OpKind::Count, None)),
        // histogram with arbitrary (possibly invalid) bounds
        (label(), -50i64..50, -50i64..50, 0i64..8).prop_map(|(target, lo, hi, nbins)| {
            let mut op = AggOp::new(OpKind::Histogram, Some(&target));
            op.args = vec![Value::Int(lo), Value::Int(hi), Value::Int(nbins)];
            op
        }),
        // percentile with arbitrary (possibly out-of-range) p
        (label(), -10i64..120).prop_map(|(target, p)| {
            let mut op = AggOp::new(OpKind::Percentile, Some(&target));
            op.args = vec![Value::Int(p)];
            op
        }),
    ]
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
        (label(), -100i64..100).prop_map(|(attr, f)| LetExpr::Scale(attr, f as f64)),
        (label(), label()).prop_map(|(a, b)| LetExpr::Ratio(a, b)),
        prop::collection::vec(label(), 1..3).prop_map(LetExpr::First),
        (label(), 1i64..100).prop_map(|(attr, w)| LetExpr::Truncate(attr, w as f64)),
    ];
    (label(), expr).prop_map(|(name, expr)| LetDef { name, expr })
}

fn query_spec() -> impl Strategy<Value = QuerySpec> {
    (
        (
            prop::collection::vec(agg_op(), 0..4),
            prop::collection::vec(label(), 0..3),
            prop::collection::vec(filter(), 0..4),
        ),
        (
            prop::collection::vec(let_def(), 0..3),
            prop::collection::vec(
                (label(), 0u8..2).prop_map(|(attr, d)| SortKey {
                    attr,
                    dir: if d == 0 { SortDir::Asc } else { SortDir::Desc },
                }),
                0..3,
            ),
        ),
        (0u8..2, prop::collection::vec(label(), 1..3)),
        prop_oneof![Just(OutputFormat::Table), Just(OutputFormat::Csv)],
        prop::collection::vec(
            (label(), 0u8..2, literal_value()).prop_map(|(name, hv, value)| FormatOpt {
                name,
                value: (hv == 0).then_some(value),
            }),
            0..3,
        ),
    )
        .prop_map(
            |((ops, key, filters), (lets, order_by), (has_select, select), format, format_opts)| {
                QuerySpec {
                    ops,
                    key,
                    filters,
                    select: (has_select == 0).then_some(select),
                    lets,
                    order_by,
                    limit: None,
                    format,
                    format_opts,
                }
            },
        )
}

proptest! {
    /// Any parser-accepted query analyzes without panicking; the result
    /// is sorted, deterministic, and every diagnostic's span (when
    /// present) lies within the query text.
    #[test]
    fn analyze_never_panics(spec in query_spec()) {
        let rendered = spec.to_string();
        let (reparsed, spans) = parse_query_spanned(&rendered)
            .map_err(|e| TestCaseError::fail(format!("'{rendered}' fails to parse: {e}")))?;
        let schema = schema();
        for s in [Some(&schema), None] {
            let diags = analyze(&reparsed, Some(&spans), s);
            let again = analyze(&reparsed, Some(&spans), s);
            prop_assert_eq!(&diags, &again);
            for d in &diags {
                prop_assert!(matches!(d.severity, Severity::Error | Severity::Warning));
                prop_assert!(!d.message.is_empty());
                if let Some(span) = d.span {
                    prop_assert!(span.start <= span.end && span.end <= rendered.len(),
                        "span {:?} outside '{}'", span, rendered);
                }
            }
            // Spanless analysis must also hold up.
            analyze(&reparsed, None, s);
        }
    }

    /// Rendering a diagnostic never panics either, whatever the query
    /// text shape (multi-byte-safe caret placement).
    #[test]
    fn diagnostics_render(spec in query_spec()) {
        let rendered = spec.to_string();
        let (reparsed, spans) = parse_query_spanned(&rendered)
            .map_err(|e| TestCaseError::fail(format!("'{rendered}' fails to parse: {e}")))?;
        let schema = schema();
        for d in analyze(&reparsed, Some(&spans), Some(&schema)) {
            let text = d.render("<query>", &rendered);
            prop_assert!(text.contains(d.code));
            let json = d.render_json(&rendered);
            prop_assert!(caliper_format::parse_json(&json).is_ok(), "bad json: {json}");
        }
    }
}

/// The example queries of docs/CALQL.md: its `calql` code blocks.
fn doc_queries() -> Vec<String> {
    let doc = include_str!("../../../docs/CALQL.md");
    doc.split("```calql\n")
        .skip(1)
        .map(|block| block.split("```").next().unwrap().to_string())
        .collect()
}

/// Every doc query, corrupted one to three times over by each of
/// `caliper_faults`' modes for a fixed budget of seeds, parses to a
/// query or an error and analyzes, and what comes back is bounded by
/// the text: an error points into it, and there are not more
/// diagnostics than bytes.
#[test]
fn damaged_doc_queries_parse_and_analyze_without_panicking() {
    use caliper_faults::{corrupt_bytes, CorruptMode};
    let modes = [CorruptMode::Bitflip, CorruptMode::Truncate, CorruptMode::GarbageBlock];
    let queries = doc_queries();
    assert!(queries.len() >= 4, "docs/CALQL.md lost its examples");
    let schema = schema();
    for query in &queries {
        for seed in 0..600u64 {
            let mut bytes = query.clone().into_bytes();
            for round in 0..=seed % 3 {
                corrupt_bytes(modes[(seed + round) as usize % 3], seed * 3 + round, &mut bytes);
            }
            let text = String::from_utf8_lossy(&bytes);
            match parse_query_spanned(&text) {
                Ok((spec, spans)) => {
                    for s in [Some(&schema), None] {
                        let diags = analyze(&spec, Some(&spans), s);
                        assert!(diags.len() <= text.len() + 8, "{} diagnostics of '{text}'", diags.len());
                        analyze(&spec, None, s);
                    }
                }
                Err(e) => {
                    assert!(e.pos <= e.end && e.end <= text.len(), "{e:?} outside '{text}'");
                    assert!(e.message.len() <= text.len() + 256, "{e:?}");
                }
            }
        }
    }
}
