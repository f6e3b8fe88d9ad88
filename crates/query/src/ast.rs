//! Abstract syntax of the aggregation description language (§III-B).
//!
//! A query is a set of clauses:
//!
//! ```text
//! AGGREGATE count, sum(time.duration)
//! GROUP BY  function, loop.iteration
//! WHERE     not(mpi.function), mpi.rank = 0
//! SELECT    function, sum#time.duration
//! ORDER BY  sum#time.duration desc
//! LET       time.ms = scale(time.duration, 0.001)
//! FORMAT    table
//! ```
//!
//! `AGGREGATE`, `GROUP BY` and `WHERE` are the clauses described in the
//! paper; `SELECT`, `ORDER BY`, `LET` and `FORMAT` are the natural
//! extensions the Caliper query tool grew (and that the paper's related
//! work discussion attributes to Cube's derived-metric language).
//!
//! A WHERE condition ([`Filter`], [`CmpOp`]) is defined beside the
//! zone-map pushdown in `caliper_format::pushdown`, which decides both
//! whether a row passes it and whether a block can be skipped.

use caliper_data::Value;
pub use caliper_format::pushdown::{CmpOp, Filter};

/// Reduction operator kinds.
///
/// `Count`, `Sum`, `Min`, `Max` are the four operators implemented in the
/// paper (§IV-B); `Avg`, `Histogram` and `PercentTotal` are extensions
/// (the paper's introduction names histograms as a motivating complex
/// reduction).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Number of input records per key.
    Count,
    /// Sum of an attribute's values.
    Sum,
    /// Minimum of an attribute's values.
    Min,
    /// Maximum of an attribute's values.
    Max,
    /// Arithmetic mean of an attribute's values.
    Avg,
    /// Fixed-width histogram of an attribute's values.
    Histogram,
    /// Share (in %) of this key's sum in the global sum.
    PercentTotal,
    /// Population variance of an attribute's values (Welford).
    Variance,
    /// Population standard deviation of an attribute's values.
    Stddev,
    /// Approximate percentile via a deterministic bounded reservoir:
    /// `percentile(attr, p)` with `p` in (0, 100).
    Percentile,
}

impl OpKind {
    /// The operator name as written in queries.
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Count => "count",
            OpKind::Sum => "sum",
            OpKind::Min => "min",
            OpKind::Max => "max",
            OpKind::Avg => "avg",
            OpKind::Histogram => "histogram",
            OpKind::PercentTotal => "percent_total",
            OpKind::Variance => "variance",
            OpKind::Stddev => "stddev",
            OpKind::Percentile => "percentile",
        }
    }

    /// Parse an operator name (case-insensitive).
    pub fn from_name(name: &str) -> Option<OpKind> {
        match name.to_ascii_lowercase().as_str() {
            "count" => Some(OpKind::Count),
            "sum" => Some(OpKind::Sum),
            "min" => Some(OpKind::Min),
            "max" => Some(OpKind::Max),
            "avg" | "mean" => Some(OpKind::Avg),
            "histogram" => Some(OpKind::Histogram),
            "percent_total" => Some(OpKind::PercentTotal),
            "variance" | "var" => Some(OpKind::Variance),
            "stddev" | "sd" => Some(OpKind::Stddev),
            "percentile" => Some(OpKind::Percentile),
            _ => None,
        }
    }

    /// Whether the operator requires a target attribute argument.
    pub fn needs_target(self) -> bool {
        !matches!(self, OpKind::Count)
    }
}

/// One aggregation operation: `op(target, args...) [AS alias]`.
#[derive(Debug, Clone, PartialEq)]
pub struct AggOp {
    /// The reduction operator.
    pub kind: OpKind,
    /// The attribute whose values are aggregated (`None` for `count`).
    pub target: Option<String>,
    /// Extra arguments (e.g. histogram bounds `lo, hi, nbins`).
    pub args: Vec<Value>,
    /// Output label override (`AS alias`).
    pub alias: Option<String>,
}

impl AggOp {
    /// Create an op without extra args or alias.
    pub fn new(kind: OpKind, target: Option<&str>) -> AggOp {
        AggOp {
            kind,
            target: target.map(str::to_string),
            args: Vec::new(),
            alias: None,
        }
    }

    /// The label of the op's result attribute: the alias if given, else
    /// `count` for count and `op#target` otherwise (the `sum#time`
    /// convention from the paper's §III-B result table).
    pub fn result_label(&self, count_label: &str) -> String {
        if let Some(alias) = &self.alias {
            return alias.clone();
        }
        match (&self.kind, &self.target) {
            (OpKind::Count, _) => count_label.to_string(),
            (OpKind::Percentile, Some(target)) => {
                // Include the requested percentile in the label, e.g.
                // `percentile.95#time.duration`.
                let p = self
                    .args
                    .first()
                    .map(|v| v.to_string())
                    .unwrap_or_else(|| "50".to_string());
                format!("percentile.{p}#{target}")
            }
            (kind, Some(target)) => format!("{}#{}", kind.name(), target),
            (kind, None) => kind.name().to_string(),
        }
    }
}

/// Derived-attribute definition: `LET name = func(args...)`.
#[derive(Debug, Clone, PartialEq)]
pub enum LetExpr {
    /// `scale(attr, factor)` — numeric value times a constant.
    Scale(String, f64),
    /// `ratio(a, b)` — quotient of two numeric attributes.
    Ratio(String, String),
    /// `first(a1, a2, ...)` — the first attribute present in the record.
    First(Vec<String>),
    /// `truncate(attr, width)` — floor(value / width) * width, for
    /// binning e.g. iteration numbers or timestamps.
    Truncate(String, f64),
}

/// A `LET` binding.
#[derive(Debug, Clone, PartialEq)]
pub struct LetDef {
    /// The derived attribute's label.
    pub name: String,
    /// The defining expression.
    pub expr: LetExpr,
}

/// Sort direction for ORDER BY.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SortDir {
    /// Ascending (default).
    #[default]
    Asc,
    /// Descending.
    Desc,
}

/// One ORDER BY key.
#[derive(Debug, Clone, PartialEq)]
pub struct SortKey {
    /// Attribute label to sort on.
    pub attr: String,
    /// Direction.
    pub dir: SortDir,
}

/// Output format selector for the FORMAT clause.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OutputFormat {
    /// Aligned text table (default).
    #[default]
    Table,
    /// Comma-separated values.
    Csv,
    /// JSON array of objects.
    Json,
    /// `label=value,...` per record.
    Expand,
    /// Re-encode as a `.cali` stream.
    Cali,
    /// Collapsed stacks for flame graphs (`frame;frame value`).
    Flamegraph,
}

impl OutputFormat {
    /// Parse a format name (case-insensitive).
    pub fn from_name(name: &str) -> Option<OutputFormat> {
        match name.to_ascii_lowercase().as_str() {
            "table" => Some(OutputFormat::Table),
            "csv" => Some(OutputFormat::Csv),
            "json" => Some(OutputFormat::Json),
            "expand" => Some(OutputFormat::Expand),
            "cali" => Some(OutputFormat::Cali),
            "flamegraph" | "folded" => Some(OutputFormat::Flamegraph),
            _ => None,
        }
    }

    /// The canonical format name as written in queries.
    pub fn name(self) -> &'static str {
        match self {
            OutputFormat::Table => "table",
            OutputFormat::Csv => "csv",
            OutputFormat::Json => "json",
            OutputFormat::Expand => "expand",
            OutputFormat::Cali => "cali",
            OutputFormat::Flamegraph => "flamegraph",
        }
    }

    /// The option names this formatter understands in
    /// `FORMAT name(opt, ...)`. All current options are value-less
    /// flags; the sema pass rejects anything else (code `E008`).
    pub fn known_options(self) -> &'static [&'static str] {
        match self {
            OutputFormat::Table => &["noheader"],
            OutputFormat::Csv => &["noheader"],
            OutputFormat::Json => &["pretty"],
            OutputFormat::Expand | OutputFormat::Cali | OutputFormat::Flamegraph => &[],
        }
    }
}

/// One formatter option from `FORMAT name(opt[=value], ...)`, e.g.
/// `FORMAT csv(noheader)`. Options are validated against
/// [`OutputFormat::known_options`] by the sema pass and interpreted by
/// the formatter at render time.
#[derive(Debug, Clone, PartialEq)]
pub struct FormatOpt {
    /// Option name as written (matched case-insensitively).
    pub name: String,
    /// Optional `=value` literal.
    pub value: Option<Value>,
}

/// A parsed query: the aggregation scheme plus output control.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QuerySpec {
    /// AGGREGATE ops (empty means pass-through, no aggregation).
    pub ops: Vec<AggOp>,
    /// GROUP BY key attribute labels (the *aggregation key*).
    pub key: Vec<String>,
    /// WHERE conditions (AND-combined).
    pub filters: Vec<Filter>,
    /// SELECT column labels (`None` = infer key + op results).
    pub select: Option<Vec<String>>,
    /// LET derived attributes, applied before WHERE and AGGREGATE.
    pub lets: Vec<LetDef>,
    /// ORDER BY keys.
    pub order_by: Vec<SortKey>,
    /// Output format.
    pub format: OutputFormat,
    /// Formatter options (`FORMAT csv(noheader)`).
    pub format_opts: Vec<FormatOpt>,
    /// Maximum number of output records (`LIMIT n`), applied after
    /// ORDER BY.
    pub limit: Option<usize>,
}

impl QuerySpec {
    /// Whether this query performs aggregation (has ops or a key).
    pub fn is_aggregation(&self) -> bool {
        !self.ops.is_empty() || !self.key.is_empty()
    }

    /// Column labels to output if no SELECT was given: key attributes in
    /// order, then op result labels.
    pub fn default_columns(&self, count_label: &str) -> Vec<String> {
        let mut cols = self.key.clone();
        for op in &self.ops {
            cols.push(op.result_label(count_label));
        }
        cols
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_result_labels() {
        let sum = AggOp::new(OpKind::Sum, Some("time.duration"));
        assert_eq!(sum.result_label("count"), "sum#time.duration");
        let count = AggOp::new(OpKind::Count, None);
        assert_eq!(count.result_label("count"), "count");
        assert_eq!(count.result_label("aggregate.count"), "aggregate.count");
        let mut aliased = sum.clone();
        aliased.alias = Some("total".into());
        assert_eq!(aliased.result_label("count"), "total");
    }

    #[test]
    fn op_kind_roundtrip() {
        for kind in [
            OpKind::Count,
            OpKind::Sum,
            OpKind::Min,
            OpKind::Max,
            OpKind::Avg,
            OpKind::Histogram,
            OpKind::PercentTotal,
        ] {
            assert_eq!(OpKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(OpKind::from_name("SUM"), Some(OpKind::Sum));
        assert_eq!(OpKind::from_name("bogus"), None);
    }

    #[test]
    fn default_columns_are_key_then_ops() {
        let spec = QuerySpec {
            ops: vec![
                AggOp::new(OpKind::Count, None),
                AggOp::new(OpKind::Sum, Some("time")),
            ],
            key: vec!["function".into(), "loop.iteration".into()],
            ..QuerySpec::default()
        };
        assert_eq!(
            spec.default_columns("count"),
            vec!["function", "loop.iteration", "count", "sum#time"]
        );
        assert!(spec.is_aggregation());
        assert!(!QuerySpec::default().is_aggregation());
    }
}
