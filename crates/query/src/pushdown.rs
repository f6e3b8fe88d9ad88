//! Bridge from a validated CalQL WHERE clause to the format layer's
//! zone-map [`Pushdown`].
//!
//! The query engine owns the decision of *which* predicates are safe to
//! evaluate against CALB v2 block zone maps before any record decodes;
//! the format layer only knows how to apply them
//! ([`caliper_format::pushdown`]). One predicate shape is excluded
//! here, and omission is always sound — a dropped conjunct can only
//! make the reader decode more, never change what a query returns:
//! filters on **LET-derived attributes**. LET runs after decode (and
//! before WHERE), so zone maps describe the wrong values — when a LET
//! shadows a stream attribute it even rewrites the same attribute id.
//! (`sema` surfaces this case to users as the W007 advisory.)
//!
//! Nothing about the corpus enters: every file is decoded, and its zone
//! maps judged, against the types that file declares, so one attribute
//! typed differently by different files is pushed like any other. A
//! query has one pushdown, and the same [`Pushdown`] instance is handed
//! to every reader and every parallel worker, which — together with
//! per-block zone maps being a pure function of the input bytes — keeps
//! `format.reader.blocks_skipped` and all query output byte-identical
//! across `--threads` counts.

use caliper_format::pushdown::{Predicate, Pushdown, PushdownOp};
use caliper_format::Schema;

use crate::ast::{CmpOp, Filter, QuerySpec};

/// Convert a parsed query's WHERE clause into a zone-map pushdown,
/// omitting predicates that are not pushdown-eligible (see the module
/// docs). The schema plays no part; the parameter stays until the
/// benchmark package, which passes `None`, can change with it.
pub fn build_pushdown(spec: &QuerySpec, _schema: Option<&Schema>) -> Pushdown {
    let mut pd = Pushdown::new();
    for filter in &spec.filters {
        let name = match filter {
            Filter::Exists(a) | Filter::NotExists(a) => a,
            Filter::Cmp { attr, .. } => attr,
        };
        if spec.lets.iter().any(|l| &l.name == name) {
            continue;
        }
        match filter {
            Filter::Exists(a) => pd.push(Predicate::Exists(a.clone())),
            Filter::NotExists(a) => pd.push(Predicate::NotExists(a.clone())),
            Filter::Cmp { attr, op, value } => pd.push(Predicate::Cmp {
                attr: attr.clone(),
                op: convert_op(*op),
                value: value.clone(),
            }),
        }
    }
    pd
}

fn convert_op(op: CmpOp) -> PushdownOp {
    match op {
        CmpOp::Eq => PushdownOp::Eq,
        CmpOp::Ne => PushdownOp::Ne,
        CmpOp::Lt => PushdownOp::Lt,
        CmpOp::Le => PushdownOp::Le,
        CmpOp::Gt => PushdownOp::Gt,
        CmpOp::Ge => PushdownOp::Ge,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use caliper_data::Value;

    fn pushdown_for(query: &str) -> Pushdown {
        build_pushdown(&parse_query(query).unwrap(), None)
    }

    #[test]
    fn all_filter_shapes_convert() {
        let pd = pushdown_for(
            "AGGREGATE count WHERE region, not(mpi.function), rank = 3, time > 1.5 GROUP BY region",
        );
        assert_eq!(pd.predicates().len(), 4);
        assert!(pd
            .predicates()
            .contains(&Predicate::Exists("region".into())));
        assert!(pd
            .predicates()
            .contains(&Predicate::NotExists("mpi.function".into())));
        assert!(pd.predicates().contains(&Predicate::Cmp {
            attr: "rank".into(),
            op: PushdownOp::Eq,
            value: Value::Int(3),
        }));
        assert!(pd.predicates().contains(&Predicate::Cmp {
            attr: "time".into(),
            op: PushdownOp::Gt,
            value: Value::Float(1.5),
        }));
    }

    #[test]
    fn let_targets_are_never_pushed_down() {
        let pd = pushdown_for(
            "LET ms = scale(time.duration, 1000) AGGREGATE sum(ms) WHERE ms > 5, rank = 0 GROUP BY region",
        );
        assert_eq!(pd.predicates().len(), 1);
        assert_eq!(pd.predicates()[0].attr(), "rank");
    }

    #[test]
    fn no_filters_means_empty_pushdown() {
        assert!(pushdown_for("AGGREGATE count GROUP BY region").is_empty());
    }
}
