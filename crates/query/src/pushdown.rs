//! A query's WHERE clause as the format layer's zone-map [`Pushdown`]:
//! its conditions that [`Filter::pushable`](caliper_format::Filter::pushable)
//! admits — all but those on a LET output, which `sema` surfaces to
//! users as the W007 advisory. Omission is always sound: a dropped
//! conjunct can only make the reader decode more, never change what a
//! query returns.
//!
//! Nothing about the corpus enters: every file is decoded, and its zone
//! maps judged, against the types that file declares, so one attribute
//! typed differently by different files is pushed like any other. A
//! query has one pushdown, and the same [`Pushdown`] instance is handed
//! to every reader and every parallel worker, which — together with
//! per-block zone maps being a pure function of the input bytes — keeps
//! `format.reader.blocks_skipped` and all query output byte-identical
//! across `--threads` counts.

use caliper_format::pushdown::Pushdown;
use caliper_format::Schema;

use crate::ast::QuerySpec;

/// Convert a parsed query's WHERE clause into a zone-map pushdown,
/// omitting conditions that are not pushdown-eligible (see the module
/// docs). The schema plays no part; the parameter stays until the
/// benchmark package, which passes `None`, can change with it.
pub fn build_pushdown(spec: &QuerySpec, _schema: Option<&Schema>) -> Pushdown {
    let mut pd = Pushdown::new();
    let lets = || spec.lets.iter().map(|l| l.name.as_str());
    for filter in spec.filters.iter().filter(|f| f.pushable(lets())) {
        pd.push(filter.clone());
    }
    pd
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{CmpOp, Filter};
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
        assert_eq!(
            pd.filters(),
            [
                Filter::Exists("region".into()),
                Filter::NotExists("mpi.function".into()),
                Filter::Cmp {
                    attr: "rank".into(),
                    op: CmpOp::Eq,
                    value: Value::Int(3),
                },
                Filter::Cmp {
                    attr: "time".into(),
                    op: CmpOp::Gt,
                    value: Value::Float(1.5),
                },
            ]
        );
    }

    #[test]
    fn let_targets_are_never_pushed_down() {
        let pd = pushdown_for(
            "LET ms = scale(time.duration, 1000) AGGREGATE sum(ms) WHERE ms > 5, rank = 0 GROUP BY region",
        );
        assert_eq!(pd.filters().len(), 1);
        assert_eq!(pd.filters()[0].label(), "rank");
    }

    #[test]
    fn no_filters_means_empty_pushdown() {
        assert!(pushdown_for("AGGREGATE count GROUP BY region").is_empty());
    }
}
