//! Semantic analysis of parsed CalQL queries.
//!
//! [`analyze`] checks a [`QuerySpec`] — optionally against a [`Schema`]
//! inferred from the input streams — and returns structured,
//! severity-ranked [`Diagnostic`]s: unknown attributes (with
//! did-you-mean suggestions), numeric operators over non-numeric
//! columns, invalid operator arguments, duplicate output columns,
//! SELECT/ORDER BY columns that name nothing the query produces,
//! contradictory or type-incompatible WHERE clauses, LET-binding
//! hygiene, and unknown FORMAT options.
//!
//! The pass is purely static — it never touches snapshot data — and
//! deterministic: diagnostics come back sorted by span, then code, so
//! `cali-query --check` output can be golden-tested byte for byte.
//!
//! Error codes (`E…` fail a check; `W…` only warn):
//!
//! | code | meaning |
//! |------|---------|
//! | E001 | syntax error (from the parser, not this pass) |
//! | E002 | unknown attribute |
//! | E003 | numeric operator over a non-numeric attribute |
//! | E004 | invalid operator argument |
//! | E005 | duplicate output column |
//! | E006 | SELECT/ORDER BY names no produced column |
//! | E007 | contradictory WHERE clauses (provably empty) |
//! | E008 | unknown FORMAT option |
//! | W001 | unused LET binding |
//! | W002 | self-referential LET binding |
//! | W003 | shadowing LET binding |
//! | W004 | type-incompatible WHERE comparison (constant result) |
//! | W005 | likely-contradictory WHERE clauses |
//! | W006 | LET numeric function over a non-numeric input |
//! | W007 | WHERE predicate is not pushdown-eligible (no block skipping) |

use std::collections::BTreeMap;

use caliper_data::ValueType;
use caliper_format::pushdown::cmp_types_compatible;
use caliper_format::schema::Schema;

use crate::ast::{CmpOp, Filter, LetExpr, OpKind, QuerySpec};
use crate::diag::{suggest, Diagnostic, Span};
use crate::parser::SpanMap;

/// The result-column label of `count` ops (cf.
/// [`AggOp::result_label`](crate::ast::AggOp::result_label)).
const COUNT_LABEL: &str = "count";

/// Analyze a query spec, optionally against parser spans (for precise
/// diagnostic locations) and a schema (for name/type checks; without
/// one, only schema-independent checks run).
///
/// Diagnostics are returned sorted by span then code — deterministic
/// for identical inputs.
pub fn analyze(
    spec: &QuerySpec,
    spans: Option<&SpanMap>,
    schema: Option<&Schema>,
) -> Vec<Diagnostic> {
    let ctx = Context {
        spec,
        spans,
        schema,
        let_types: let_output_types(spec),
    };
    let mut diags = Vec::new();
    check_ops(&ctx, &mut diags);
    check_keys(&ctx, &mut diags);
    check_filters(&ctx, &mut diags);
    check_lets(&ctx, &mut diags);
    check_outputs(&ctx, &mut diags);
    check_format(&ctx, &mut diags);
    Diagnostic::sort(&mut diags);
    diags
}

struct Context<'a> {
    spec: &'a QuerySpec,
    spans: Option<&'a SpanMap>,
    schema: Option<&'a Schema>,
    /// LET name → output type (by definition order; later duplicates
    /// overwrite, matching evaluation order).
    let_types: BTreeMap<&'a str, ValueType>,
}

/// A LET output's value type is fixed by its function: `scale`,
/// `ratio`, and `truncate` produce floats, `first` copies path values
/// as strings (cf. `LetSet::new`).
fn let_output_types(spec: &QuerySpec) -> BTreeMap<&str, ValueType> {
    spec.lets
        .iter()
        .map(|def| {
            let vtype = match def.expr {
                LetExpr::First(_) => ValueType::Str,
                _ => ValueType::Float,
            };
            (def.name.as_str(), vtype)
        })
        .collect()
}

impl<'a> Context<'a> {
    fn op_span(&self, i: usize) -> Option<Span> {
        self.spans.and_then(|s| s.ops.get(i)).copied()
    }
    fn key_span(&self, i: usize) -> Option<Span> {
        self.spans.and_then(|s| s.keys.get(i)).copied()
    }
    fn filter_span(&self, i: usize) -> Option<Span> {
        self.spans.and_then(|s| s.filters.get(i)).copied()
    }
    fn let_span(&self, i: usize) -> Option<Span> {
        self.spans.and_then(|s| s.lets.get(i)).copied()
    }
    fn select_span(&self, i: usize) -> Option<Span> {
        self.spans.and_then(|s| s.select.get(i)).copied()
    }
    fn order_by_span(&self, i: usize) -> Option<Span> {
        self.spans.and_then(|s| s.order_by.get(i)).copied()
    }
    fn format_opt_span(&self, i: usize) -> Option<Span> {
        self.spans.and_then(|s| s.format_opts.get(i)).copied()
    }

    /// Is `name` a known input attribute (schema or LET output)?
    /// Without a schema everything is presumed known.
    fn input_known(&self, name: &str) -> bool {
        match self.schema {
            None => true,
            Some(schema) => schema.get(name).is_some() || self.let_types.contains_key(name),
        }
    }

    /// The type of input attribute `name`, when known. LET outputs take
    /// precedence (they shadow same-named stream attributes at
    /// evaluation time). `None` = unknown or mixed — don't warn.
    fn input_type(&self, name: &str) -> Option<ValueType> {
        if let Some(t) = self.let_types.get(name) {
            return Some(*t);
        }
        self.schema.and_then(|s| s.get(name)).and_then(|a| a.value_type)
    }

    /// Sorted candidate names for did-you-mean suggestions on input
    /// attributes.
    fn input_candidates(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self
            .schema
            .map(|s| s.names().collect())
            .unwrap_or_default();
        names.extend(self.let_types.keys().copied());
        names.sort_unstable();
        names.dedup();
        names
    }

    /// Attach a did-you-mean help line when a close candidate exists.
    fn with_suggestion(&self, diag: Diagnostic, name: &str, candidates: &[&str]) -> Diagnostic {
        match suggest(name, candidates.iter().copied()) {
            Some(hit) => diag.with_help(format!("did you mean '{hit}'?")),
            None => diag,
        }
    }

    /// E002 for an unknown input attribute reference.
    fn unknown_input(&self, name: &str, what: &str, span: Option<Span>) -> Diagnostic {
        let diag = Diagnostic::error(
            "E002",
            span,
            format!("unknown attribute '{name}' in {what}"),
        );
        self.with_suggestion(diag, name, &self.input_candidates())
    }
}

/// Operators whose reduction is arithmetic and therefore requires a
/// numeric target (`min`/`max` also order strings, so they are exempt).
fn op_requires_numeric(kind: OpKind) -> bool {
    matches!(
        kind,
        OpKind::Sum
            | OpKind::Avg
            | OpKind::Histogram
            | OpKind::PercentTotal
            | OpKind::Variance
            | OpKind::Stddev
            | OpKind::Percentile
    )
}

fn check_ops(ctx: &Context<'_>, diags: &mut Vec<Diagnostic>) {
    for (i, op) in ctx.spec.ops.iter().enumerate() {
        let span = ctx.op_span(i);
        if let Some(target) = &op.target {
            if !ctx.input_known(target) {
                diags.push(ctx.unknown_input(
                    target,
                    &format!("{}()", op.kind.name()),
                    span,
                ));
            } else if op_requires_numeric(op.kind) {
                if let Some(vtype) = ctx.input_type(target) {
                    if !vtype.is_numeric() {
                        diags.push(Diagnostic::error(
                            "E003",
                            span,
                            format!(
                                "{}() requires a numeric attribute, but '{}' has type {}",
                                op.kind.name(),
                                target,
                                vtype.name()
                            ),
                        ));
                    }
                }
            }
        }
        check_op_args(op, span, diags);
    }
}

/// E004: argument validation beyond the parser's arity checks.
fn check_op_args(op: &crate::ast::AggOp, span: Option<Span>, diags: &mut Vec<Diagnostic>) {
    match op.kind {
        OpKind::Histogram => {
            let nums: Vec<Option<f64>> = op.args.iter().map(|v| v.to_f64()).collect();
            match (
                nums.first().copied().flatten(),
                nums.get(1).copied().flatten(),
                nums.get(2).copied().flatten(),
            ) {
                (Some(lo), Some(hi), Some(nbins)) => {
                    if lo >= hi {
                        diags.push(Diagnostic::error(
                            "E004",
                            span,
                            format!("histogram bounds are empty: lo {lo} >= hi {hi}"),
                        ));
                    }
                    if nbins < 1.0 {
                        diags.push(Diagnostic::error(
                            "E004",
                            span,
                            format!("histogram needs at least one bin, got {nbins}"),
                        ));
                    }
                }
                _ => diags.push(Diagnostic::error(
                    "E004",
                    span,
                    "histogram bounds must be numeric: histogram(attr, lo, hi, nbins)"
                        .to_string(),
                )),
            }
        }
        OpKind::Percentile => {
            if let Some(p) = op.args.first().and_then(|v| v.to_f64()) {
                if !(p > 0.0 && p < 100.0) {
                    diags.push(Diagnostic::error(
                        "E004",
                        span,
                        format!("percentile must be in (0, 100), got {p}"),
                    ));
                }
            }
        }
        _ => {}
    }
}

fn check_keys(ctx: &Context<'_>, diags: &mut Vec<Diagnostic>) {
    for (i, key) in ctx.spec.key.iter().enumerate() {
        if !ctx.input_known(key) {
            diags.push(ctx.unknown_input(key, "GROUP BY", ctx.key_span(i)));
        }
    }
}

fn check_filters(ctx: &Context<'_>, diags: &mut Vec<Diagnostic>) {
    // Per-filter checks: unknown attributes and constant-result
    // comparisons.
    for (i, filter) in ctx.spec.filters.iter().enumerate() {
        let span = ctx.filter_span(i);
        let attr = filter.label();
        if !ctx.input_known(attr) {
            diags.push(ctx.unknown_input(attr, "WHERE", span));
            continue;
        }
        check_pushdown_eligibility(ctx, filter, span, diags);
        if let Filter::Cmp { attr, op, value } = filter {
            if let Some(attr_type) = ctx.input_type(attr) {
                let literal_type = value.value_type();
                if !cmp_types_compatible(*op, attr_type, literal_type) {
                    let outcome = if *op == CmpOp::Ne {
                        "always true"
                    } else {
                        "never true"
                    };
                    diags.push(
                        Diagnostic::warning(
                            "W004",
                            span,
                            format!(
                                "comparison of {} attribute '{}' with {} literal {} is {}",
                                attr_type.name(),
                                attr,
                                literal_type.name(),
                                value,
                                outcome
                            ),
                        )
                        .with_help(format!(
                            "write the literal as a {} value",
                            attr_type.name()
                        )),
                    );
                }
            }
        }
    }
    check_filter_contradictions(ctx, diags);
}

/// W007: the WHERE clause is correct but cannot use the CALB v2
/// columnar block-skip fast path — [`Filter::pushable`], the rule
/// `build_pushdown` applies, refuses it — so the reader decodes every
/// block. Purely advisory — results are unaffected.
fn check_pushdown_eligibility(
    ctx: &Context<'_>,
    filter: &Filter,
    span: Option<Span>,
    diags: &mut Vec<Diagnostic>,
) {
    let attr = filter.label();
    if !filter.pushable(ctx.spec.lets.iter().map(|l| l.name.as_str())) {
        diags.push(
            Diagnostic::warning(
                "W007",
                span,
                format!(
                    "WHERE on '{attr}' cannot use the columnar block-skip fast \
                     path: '{attr}' is computed by LET after decode"
                ),
            )
            .with_help(
                "filter on a stream attribute instead, or accept a full decode \
                 of every block",
            ),
        );
    }
}

/// E007 (provable) and W005 (likely) contradictions between AND-ed
/// clauses on the same attribute. Value-level contradictions are only
/// warnings: a nested attribute can carry several values per record, so
/// `function=a AND function=b` is satisfiable.
fn check_filter_contradictions(ctx: &Context<'_>, diags: &mut Vec<Diagnostic>) {
    let filters = &ctx.spec.filters;
    for (j, fj) in filters.iter().enumerate() {
        let span = ctx.filter_span(j);
        for fi in filters.iter().take(j) {
            match (fi, fj) {
                // exists(a) ∧ not(a) — no record passes, whatever the data.
                (Filter::Exists(a), Filter::NotExists(b))
                | (Filter::NotExists(a), Filter::Exists(b))
                    if a == b =>
                {
                    diags.push(Diagnostic::error(
                        "E007",
                        span,
                        format!("'{a}' is required both present and absent"),
                    ));
                }
                // cmp(a) requires presence; not(a) forbids it.
                (Filter::NotExists(a), Filter::Cmp { attr, .. })
                | (Filter::Cmp { attr, .. }, Filter::NotExists(a))
                    if a == attr =>
                {
                    diags.push(Diagnostic::error(
                        "E007",
                        span,
                        format!(
                            "comparison on '{attr}' can never hold: not({attr}) \
                             requires the attribute to be absent"
                        ),
                    ));
                }
                (
                    Filter::Cmp {
                        attr: a,
                        op: op_a,
                        value: va,
                    },
                    Filter::Cmp {
                        attr: b,
                        op: op_b,
                        value: vb,
                    },
                ) if a == b => {
                    if let Some(msg) = cmp_pair_contradiction(*op_a, va, *op_b, vb) {
                        diags.push(
                            Diagnostic::warning(
                                "W005",
                                span,
                                format!("WHERE clauses on '{a}' are contradictory: {msg}"),
                            )
                            .with_help(
                                "only a record carrying several values for the attribute \
                                 can satisfy both"
                                    .to_string(),
                            ),
                        );
                    }
                }
                _ => {}
            }
        }
    }
}

/// Detect a pair of comparisons on the same attribute that no single
/// value satisfies.
fn cmp_pair_contradiction(
    op_a: CmpOp,
    va: &caliper_data::Value,
    op_b: CmpOp,
    vb: &caliper_data::Value,
) -> Option<String> {
    use CmpOp::*;
    // Equality against two different literals.
    if op_a == Eq && op_b == Eq && va != vb {
        return Some(format!("= {va} and = {vb}"));
    }
    // x = v and x != v.
    if ((op_a == Eq && op_b == Ne) || (op_a == Ne && op_b == Eq)) && va == vb {
        return Some(format!("= {va} and != {va}"));
    }
    // Empty numeric ranges: lower bound above upper bound.
    let (na, nb) = (va.to_f64(), vb.to_f64());
    if let (Some(na), Some(nb)) = (na, nb) {
        let lower = |op: CmpOp, n: f64| match op {
            Gt => Some((n, true)),
            Ge => Some((n, false)),
            Eq => Some((n, false)),
            _ => None,
        };
        let upper = |op: CmpOp, n: f64| match op {
            Lt => Some((n, true)),
            Le => Some((n, false)),
            Eq => Some((n, false)),
            _ => None,
        };
        let pairs = [
            (lower(op_a, na), upper(op_b, nb)),
            (lower(op_b, nb), upper(op_a, na)),
        ];
        for (lo, hi) in pairs {
            if let (Some((lo, lo_strict)), Some((hi, hi_strict))) = (lo, hi) {
                if lo > hi || (lo == hi && (lo_strict || hi_strict)) {
                    return Some(format!("the value range is empty ({lo} vs {hi})"));
                }
            }
        }
    }
    None
}

fn check_lets(ctx: &Context<'_>, diags: &mut Vec<Diagnostic>) {
    let spec = ctx.spec;
    let mut defined: Vec<&str> = Vec::new();
    for (i, def) in spec.lets.iter().enumerate() {
        let span = ctx.let_span(i);
        let inputs: Vec<&String> = match &def.expr {
            LetExpr::Scale(a, _) | LetExpr::Truncate(a, _) => vec![a],
            LetExpr::Ratio(a, b) => vec![a, b],
            LetExpr::First(attrs) => attrs.iter().collect(),
        };
        // W002: the binding reads its own output (evaluation is
        // sequential, so the input is simply missing).
        if inputs.iter().any(|a| a.as_str() == def.name) {
            diags.push(Diagnostic::warning(
                "W002",
                span,
                format!("LET '{}' refers to itself", def.name),
            ));
        }
        // W003: duplicate definition or shadowing a stream attribute.
        if defined.contains(&def.name.as_str()) {
            diags.push(Diagnostic::warning(
                "W003",
                span,
                format!("LET '{}' is defined more than once", def.name),
            ));
        } else if ctx
            .schema
            .map(|s| s.get(&def.name).is_some())
            .unwrap_or(false)
        {
            diags.push(Diagnostic::warning(
                "W003",
                span,
                format!("LET '{}' shadows an input attribute of the same name", def.name),
            ));
        }
        defined.push(def.name.as_str());
        // Input checks: unknown names (E002) and non-numeric inputs to
        // numeric functions (W006). Only previously defined LET names
        // count as known (sequential evaluation).
        let numeric_fn = !matches!(def.expr, LetExpr::First(_));
        for input in inputs {
            if input.as_str() == def.name {
                continue; // already reported as W002
            }
            let known_let = defined.contains(&input.as_str());
            let known = match ctx.schema {
                None => true,
                Some(schema) => known_let || schema.get(input).is_some(),
            };
            if !known {
                diags.push(ctx.unknown_input(input, "LET", span));
                continue;
            }
            if numeric_fn {
                let vtype = if known_let {
                    ctx.let_types.get(input.as_str()).copied()
                } else {
                    ctx.schema.and_then(|s| s.get(input)).and_then(|a| a.value_type)
                };
                if let Some(vtype) = vtype {
                    if !vtype.is_numeric() {
                        diags.push(Diagnostic::warning(
                            "W006",
                            span,
                            format!(
                                "LET '{}' applies a numeric function to '{}', which has type {}",
                                def.name,
                                input,
                                vtype.name()
                            ),
                        ));
                    }
                }
            }
        }
    }
    // W001: a binding nothing downstream reads.
    for (i, def) in spec.lets.iter().enumerate() {
        let name = def.name.as_str();
        let used_by_ops = spec.ops.iter().any(|op| op.target.as_deref() == Some(name));
        let used_by_key = spec.key.iter().any(|k| k == name);
        let used_by_filters = spec.filters.iter().any(|f| f.label() == name);
        let used_by_select = spec
            .select
            .as_ref()
            .is_some_and(|cols| cols.iter().any(|c| c == name));
        let used_by_order = spec.order_by.iter().any(|k| k.attr == name);
        let used_by_later_let = spec.lets.iter().skip(i + 1).any(|other| {
            let inputs: Vec<&String> = match &other.expr {
                LetExpr::Scale(a, _) | LetExpr::Truncate(a, _) => vec![a],
                LetExpr::Ratio(a, b) => vec![a, b],
                LetExpr::First(attrs) => attrs.iter().collect(),
            };
            inputs.iter().any(|a| a.as_str() == name)
        });
        if !(used_by_ops
            || used_by_key
            || used_by_filters
            || used_by_select
            || used_by_order
            || used_by_later_let)
        {
            diags.push(Diagnostic::warning(
                "W001",
                ctx.let_span(i),
                format!("LET '{name}' is never used"),
            ));
        }
    }
}

/// E005/E006: output-column hygiene. Aggregation queries produce
/// exactly the group keys plus one column per operator; SELECT and
/// ORDER BY must draw from that set, and the set must not collide with
/// itself.
fn check_outputs(ctx: &Context<'_>, diags: &mut Vec<Diagnostic>) {
    let spec = ctx.spec;
    if !spec.is_aggregation() {
        // Pass-through: SELECT/ORDER BY reference input attributes.
        if let Some(cols) = &spec.select {
            for (i, col) in cols.iter().enumerate() {
                if !ctx.input_known(col) {
                    diags.push(ctx.unknown_input(col, "SELECT", ctx.select_span(i)));
                }
            }
        }
        for (i, key) in spec.order_by.iter().enumerate() {
            if !ctx.input_known(&key.attr) {
                diags.push(ctx.unknown_input(&key.attr, "ORDER BY", ctx.order_by_span(i)));
            }
        }
        return;
    }

    // E005: duplicate result labels (including group-key collisions).
    let mut produced: Vec<String> = spec.key.clone();
    for (i, op) in spec.ops.iter().enumerate() {
        let label = op.result_label(COUNT_LABEL);
        if produced.contains(&label) {
            let what = if spec.key.contains(&label) {
                format!("collides with group key '{label}'")
            } else {
                format!("'{label}' is produced more than once")
            };
            diags.push(Diagnostic::error(
                "E005",
                ctx.op_span(i),
                format!("duplicate output column: {what}"),
            ));
        }
        produced.push(label);
    }

    let candidates: Vec<&str> = {
        let mut c: Vec<&str> = produced.iter().map(String::as_str).collect();
        c.sort_unstable();
        c.dedup();
        c
    };
    if let Some(cols) = &spec.select {
        for (i, col) in cols.iter().enumerate() {
            if !produced.iter().any(|p| p == col) {
                let diag = Diagnostic::error(
                    "E006",
                    ctx.select_span(i),
                    format!(
                        "SELECT column '{col}' names neither a group key nor an \
                         aggregate output"
                    ),
                );
                diags.push(ctx.with_suggestion(diag, col, &candidates));
            }
        }
    }
    for (i, key) in spec.order_by.iter().enumerate() {
        if !produced.iter().any(|p| p == &key.attr) {
            let diag = Diagnostic::error(
                "E006",
                ctx.order_by_span(i),
                format!(
                    "ORDER BY column '{}' names neither a group key nor an \
                     aggregate output",
                    key.attr
                ),
            );
            diags.push(ctx.with_suggestion(diag, &key.attr, &candidates));
        }
    }
}

/// E008: FORMAT options the chosen formatter does not understand.
fn check_format(ctx: &Context<'_>, diags: &mut Vec<Diagnostic>) {
    let spec = ctx.spec;
    let known = spec.format.known_options();
    for (i, opt) in spec.format_opts.iter().enumerate() {
        let span = ctx.format_opt_span(i);
        let hit = known
            .iter()
            .find(|k| k.eq_ignore_ascii_case(&opt.name));
        match hit {
            None => {
                let diag = Diagnostic::error(
                    "E008",
                    span,
                    format!(
                        "format '{}' has no option '{}'",
                        spec.format.name(),
                        opt.name
                    ),
                );
                let diag = ctx.with_suggestion(diag, &opt.name, known);
                let diag = if known.is_empty() {
                    diag.with_help(format!(
                        "format '{}' takes no options",
                        spec.format.name()
                    ))
                } else {
                    diag
                };
                diags.push(diag);
            }
            Some(k) => {
                // All currently known options are flags.
                if opt.value.is_some() {
                    diags.push(Diagnostic::error(
                        "E008",
                        span,
                        format!("format option '{k}' does not take a value"),
                    ));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Severity;
    use crate::parser::parse_query_spanned;
    use caliper_data::Properties;

    fn schema() -> Schema {
        let mut s = Schema::new();
        s.observe("function", ValueType::Str, Properties::NESTED);
        s.observe("mpi.rank", ValueType::Int, Properties::GLOBAL);
        s.observe(
            "time.duration",
            ValueType::Float,
            Properties::AS_VALUE | Properties::AGGREGATABLE,
        );
        s.observe("loop.iteration", ValueType::Int, Properties::AS_VALUE);
        s
    }

    fn run(query: &str) -> Vec<Diagnostic> {
        let (spec, spans) = parse_query_spanned(query).unwrap();
        analyze(&spec, Some(&spans), Some(&schema()))
    }

    fn codes(diags: &[Diagnostic]) -> Vec<&str> {
        diags.iter().map(|d| d.code).collect()
    }

    #[test]
    fn clean_query_has_no_diagnostics() {
        let diags = run(
            "AGGREGATE count, sum(time.duration) AS total \
             WHERE mpi.rank=0, function \
             GROUP BY function, loop.iteration \
             ORDER BY total desc LIMIT 10 FORMAT csv(noheader)",
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn unknown_attribute_suggests_a_fix() {
        let diags = run("AGGREGATE sum(time.duraton) GROUP BY function");
        assert_eq!(codes(&diags), ["E002"]);
        assert_eq!(
            diags[0].help.as_deref(),
            Some("did you mean 'time.duration'?")
        );
        assert!(diags[0].span.is_some());
    }

    #[test]
    fn numeric_op_over_string_is_an_error() {
        let diags = run("AGGREGATE sum(function) GROUP BY mpi.rank");
        assert_eq!(codes(&diags), ["E003"]);
        // min/max order strings fine.
        assert!(run("AGGREGATE min(function), max(function) GROUP BY mpi.rank").is_empty());
    }

    #[test]
    fn histogram_and_percentile_argument_checks() {
        let diags = run("AGGREGATE histogram(time.duration, 10, 0, 4) GROUP BY function");
        assert_eq!(codes(&diags), ["E004"]);
        let diags = run("AGGREGATE histogram(time.duration, 0, 10, 0) GROUP BY function");
        assert_eq!(codes(&diags), ["E004"]);
        let diags = run("AGGREGATE percentile(time.duration, 150) GROUP BY function");
        assert_eq!(codes(&diags), ["E004"]);
        assert!(run("AGGREGATE percentile(time.duration, 95) GROUP BY function").is_empty());
    }

    #[test]
    fn duplicate_output_columns() {
        let diags =
            run("AGGREGATE sum(time.duration) AS t, avg(time.duration) AS t GROUP BY function");
        assert_eq!(codes(&diags), ["E005"]);
        let diags = run("AGGREGATE count AS function GROUP BY function");
        assert_eq!(codes(&diags), ["E005"]);
        assert!(diags[0].message.contains("group key"));
    }

    #[test]
    fn select_and_order_by_must_name_outputs() {
        let diags = run("AGGREGATE count GROUP BY function SELECT function, cout");
        assert_eq!(codes(&diags), ["E006"]);
        assert_eq!(diags[0].help.as_deref(), Some("did you mean 'count'?"));
        let diags = run("AGGREGATE count GROUP BY function ORDER BY time.duration");
        assert_eq!(codes(&diags), ["E006"]);
    }

    #[test]
    fn passthrough_select_checks_inputs() {
        let diags = run("SELECT function, nope WHERE mpi.rank=0");
        assert_eq!(codes(&diags), ["E002"]);
    }

    #[test]
    fn contradictions_hard_and_soft() {
        let diags = run("AGGREGATE count GROUP BY function WHERE function, not(function)");
        assert_eq!(codes(&diags), ["E007"]);
        let diags = run("AGGREGATE count GROUP BY function WHERE not(mpi.rank), mpi.rank=0");
        assert_eq!(codes(&diags), ["E007"]);
        // Value-level: warning only (multi-valued nested attributes).
        let diags = run("AGGREGATE count GROUP BY function WHERE function=a, function=b");
        assert_eq!(codes(&diags), ["W005"]);
        let diags =
            run("AGGREGATE count GROUP BY function WHERE mpi.rank>5, mpi.rank<2");
        assert_eq!(codes(&diags), ["W005"]);
        let diags = run("AGGREGATE count GROUP BY function WHERE mpi.rank>=2, mpi.rank<2");
        assert_eq!(codes(&diags), ["W005"]);
        assert!(run("AGGREGATE count GROUP BY function WHERE mpi.rank>=2, mpi.rank<=2")
            .is_empty());
    }

    #[test]
    fn type_incompatible_comparison_warns() {
        // Float attribute, Int literal: class-strict equality never holds.
        let diags = run("AGGREGATE count GROUP BY function WHERE time.duration=2");
        assert_eq!(codes(&diags), ["W004"]);
        assert_eq!(diags[0].severity, Severity::Warning);
        // Ordering between numbers is fine.
        assert!(run("AGGREGATE count GROUP BY function WHERE time.duration>2").is_empty());
        // String attribute ordered against a number: constant.
        let diags = run("AGGREGATE count GROUP BY function WHERE function>2");
        assert_eq!(codes(&diags), ["W004"]);
    }

    #[test]
    fn let_hygiene() {
        let diags = run("LET x = scale(time.duration, 2) AGGREGATE count GROUP BY function");
        assert_eq!(codes(&diags), ["W001"]);
        let diags = run("LET x = scale(x, 2) AGGREGATE sum(x) GROUP BY function");
        assert_eq!(codes(&diags), ["W002"]);
        let diags = run(
            "LET x = scale(time.duration, 2), x = scale(time.duration, 3) \
             AGGREGATE sum(x) GROUP BY function",
        );
        assert_eq!(codes(&diags), ["W003"]);
        let diags = run(
            "LET function = first(mpi.rank) AGGREGATE count GROUP BY function",
        );
        assert_eq!(codes(&diags), ["W003"]);
        let diags = run("LET x = scale(function, 2) AGGREGATE sum(x) GROUP BY mpi.rank");
        assert_eq!(codes(&diags), ["W006"]);
        // A LET feeding a later LET is used.
        assert!(run(
            "LET a = scale(time.duration, 2), b = scale(a, 3) \
             AGGREGATE sum(b) GROUP BY function"
        )
        .is_empty());
    }

    #[test]
    fn format_option_checks() {
        let diags = run("AGGREGATE count GROUP BY function FORMAT csv(nohead)");
        assert_eq!(codes(&diags), ["E008"]);
        assert_eq!(diags[0].help.as_deref(), Some("did you mean 'noheader'?"));
        let diags = run("AGGREGATE count GROUP BY function FORMAT csv(noheader=2)");
        assert_eq!(codes(&diags), ["E008"]);
        let diags = run("AGGREGATE count GROUP BY function FORMAT expand(x)");
        assert_eq!(codes(&diags), ["E008"]);
        assert!(diags[0].help.as_deref().unwrap().contains("takes no options"));
    }

    #[test]
    fn without_schema_only_static_checks_run() {
        let (spec, spans) = parse_query_spanned(
            "AGGREGATE sum(anything) GROUP BY whatever WHERE x=1, not(x)",
        )
        .unwrap();
        let diags = analyze(&spec, Some(&spans), None);
        // No E002 without a schema, but the contradiction still fires.
        assert_eq!(codes(&diags), ["E007"]);
    }

    #[test]
    fn where_on_a_let_output_warns_pushdown_ineligible() {
        let diags = run(
            "LET ms = scale(time.duration, 1000) AGGREGATE sum(ms) \
             WHERE ms > 5 GROUP BY function",
        );
        assert_eq!(codes(&diags), ["W007"]);
        assert_eq!(diags[0].severity, Severity::Warning);
        assert!(diags[0].message.contains("computed by LET after decode"));
        // Fires without a schema too — the exclusion is schema-independent.
        let (spec, spans) = parse_query_spanned(
            "LET ms = scale(time.duration, 1000) AGGREGATE sum(ms) \
             WHERE ms GROUP BY function",
        )
        .unwrap();
        assert_eq!(codes(&analyze(&spec, Some(&spans), None)), ["W007"]);
    }

    #[test]
    fn a_mixed_typed_attribute_is_compared_without_comment() {
        // Every file is decoded against its own dictionary, so the
        // comparison is pushed down; and with no one type to hold the
        // literal against, W004 stays silent too.
        let mut s = schema();
        s.observe("mpi.rank", ValueType::Str, Properties::GLOBAL); // now mixed
        for q in [
            "AGGREGATE count WHERE mpi.rank = 3 GROUP BY function",
            "AGGREGATE count WHERE mpi.rank = \"3\" GROUP BY function",
            "AGGREGATE count WHERE mpi.rank GROUP BY function",
        ] {
            let (spec, spans) = parse_query_spanned(q).unwrap();
            assert!(analyze(&spec, Some(&spans), Some(&s)).is_empty(), "{q}");
        }
    }

    #[test]
    fn diagnostics_are_sorted_and_deterministic() {
        let q = "AGGREGATE sum(function), sum(nope) GROUP BY bogus WHERE function>1";
        let a = run(q);
        let b = run(q);
        assert_eq!(a, b);
        let spans: Vec<usize> = a
            .iter()
            .map(|d| d.span.map(|s| s.start).unwrap_or(usize::MAX))
            .collect();
        let mut sorted = spans.clone();
        sorted.sort_unstable();
        assert_eq!(spans, sorted);
        assert_eq!(a.len(), 4);
    }
}
