//! Canonical text rendering of query specs.
//!
//! `spec.to_string()` produces query text that parses back to an
//! equivalent spec (`parse(render(spec)) == spec`, verified by property
//! tests). No query crosses the simulated MPI substrate as text — every
//! rank of `mpi-caliquery` folds with the one parsed spec — so this is
//! the normalized form of a query for whoever prints one, and the round
//! trip the property tests hold the parser to.

use std::fmt;

use caliper_data::Value;

use crate::ast::{AggOp, Filter, LetExpr, OpKind, OutputFormat, QuerySpec, SortDir};

/// Quote a label if it contains characters the lexer would not accept
/// inside a bare identifier.
fn quote_label(label: &str) -> String {
    let bare_ok = !label.is_empty()
        && label.chars().next().map(|c| c.is_alphabetic() || c == '_') == Some(true)
        && label
            .chars()
            .all(|c| c.is_alphanumeric() || matches!(c, '_' | '.' | '#' | ':' | '-' | '/'));
    // Keywords would be swallowed as clause starts; operator names
    // would trigger SELECT's `select sum(x)` sugar and re-parse as an
    // aggregation op instead of a column label.
    let lower = label.to_ascii_lowercase();
    let keywordish = matches!(
        lower.as_str(),
        "aggregate" | "group" | "by" | "where" | "select" | "format" | "order" | "let" | "as"
            | "not" | "asc" | "desc" | "limit"
    ) || OpKind::from_name(&lower).is_some();
    if bare_ok && !keywordish {
        label.to_string()
    } else {
        format!("\"{}\"", label.replace('\\', "\\\\").replace('"', "\\\""))
    }
}

/// Render a literal value for WHERE clauses and op arguments.
fn render_value(value: &Value) -> String {
    match value {
        Value::Str(s) => format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\"")),
        // An integral float must keep a decimal point: `1.0` rendered
        // as "1" would re-parse as Int and break spec round-tripping.
        Value::Float(x) if x.is_finite() && x.fract() == 0.0 => format!("{x:.1}"),
        other => other.to_string(),
    }
}

fn render_op(op: &AggOp, out: &mut String) {
    out.push_str(op.kind.name());
    if op.target.is_some() || !op.args.is_empty() {
        out.push('(');
        if let Some(target) = &op.target {
            out.push_str(&quote_label(target));
        }
        for arg in &op.args {
            out.push_str(", ");
            out.push_str(&render_value(arg));
        }
        out.push(')');
    }
    if let Some(alias) = &op.alias {
        out.push_str(" AS ");
        out.push_str(&quote_label(alias));
    }
}

impl fmt::Display for QuerySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut clauses: Vec<String> = Vec::new();

        if !self.lets.is_empty() {
            let mut s = String::from("LET ");
            for (i, def) in self.lets.iter().enumerate() {
                if i > 0 {
                    s.push_str(", ");
                }
                s.push_str(&quote_label(&def.name));
                s.push_str(" = ");
                match &def.expr {
                    LetExpr::Scale(attr, factor) => {
                        s.push_str(&format!("scale({}, {})", quote_label(attr), factor));
                    }
                    LetExpr::Ratio(a, b) => {
                        s.push_str(&format!("ratio({}, {})", quote_label(a), quote_label(b)));
                    }
                    LetExpr::First(attrs) => {
                        s.push_str("first(");
                        for (j, a) in attrs.iter().enumerate() {
                            if j > 0 {
                                s.push_str(", ");
                            }
                            s.push_str(&quote_label(a));
                        }
                        s.push(')');
                    }
                    LetExpr::Truncate(attr, width) => {
                        s.push_str(&format!("truncate({}, {})", quote_label(attr), width));
                    }
                }
            }
            clauses.push(s);
        }

        if !self.ops.is_empty() {
            let mut s = String::from("AGGREGATE ");
            for (i, op) in self.ops.iter().enumerate() {
                if i > 0 {
                    s.push_str(", ");
                }
                render_op(op, &mut s);
            }
            clauses.push(s);
        }

        if !self.filters.is_empty() {
            let mut s = String::from("WHERE ");
            for (i, filter) in self.filters.iter().enumerate() {
                if i > 0 {
                    s.push_str(", ");
                }
                match filter {
                    Filter::Exists(label) => s.push_str(&quote_label(label)),
                    Filter::NotExists(label) => {
                        s.push_str(&format!("not({})", quote_label(label)))
                    }
                    Filter::Cmp { attr, op, value } => {
                        s.push_str(&format!(
                            "{} {} {}",
                            quote_label(attr),
                            op.symbol(),
                            render_value(value)
                        ));
                    }
                }
            }
            clauses.push(s);
        }

        if !self.key.is_empty() {
            let labels: Vec<String> = self.key.iter().map(|l| quote_label(l)).collect();
            clauses.push(format!("GROUP BY {}", labels.join(", ")));
        }

        if let Some(select) = &self.select {
            let labels: Vec<String> = select.iter().map(|l| quote_label(l)).collect();
            clauses.push(format!("SELECT {}", labels.join(", ")));
        }

        if !self.order_by.is_empty() {
            let mut s = String::from("ORDER BY ");
            for (i, key) in self.order_by.iter().enumerate() {
                if i > 0 {
                    s.push_str(", ");
                }
                s.push_str(&quote_label(&key.attr));
                if key.dir == SortDir::Desc {
                    s.push_str(" desc");
                }
            }
            clauses.push(s);
        }

        if let Some(limit) = self.limit {
            clauses.push(format!("LIMIT {limit}"));
        }

        if self.format != OutputFormat::default() || !self.format_opts.is_empty() {
            let mut s = format!("FORMAT {}", self.format.name());
            if !self.format_opts.is_empty() {
                s.push('(');
                for (i, opt) in self.format_opts.iter().enumerate() {
                    if i > 0 {
                        s.push_str(", ");
                    }
                    s.push_str(&quote_label(&opt.name));
                    if let Some(value) = &opt.value {
                        s.push_str(" = ");
                        s.push_str(&render_value(value));
                    }
                }
                s.push(')');
            }
            clauses.push(s);
        }

        // A completely empty spec still needs to round-trip: SELECT *.
        if clauses.is_empty() {
            clauses.push("SELECT *".to_string());
        }
        f.write_str(&clauses.join(" "))
    }
}

// A compact description of just the aggregation op list, used by the
// runtime to echo its configured scheme.
impl fmt::Display for AggOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        render_op(self, &mut s);
        f.write_str(&s)
    }
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use crate::parser::parse_query;

    fn roundtrip(query: &str) {
        let spec = parse_query(query).unwrap();
        let rendered = spec.to_string();
        let reparsed = parse_query(&rendered)
            .unwrap_or_else(|e| panic!("rendered '{rendered}' fails to parse: {e}"));
        assert_eq!(spec, reparsed, "roundtrip of '{query}' via '{rendered}'");
    }

    #[test]
    fn roundtrips_paper_queries() {
        roundtrip("AGGREGATE count, sum(time) GROUP BY function, loop.iteration");
        roundtrip(
            "AGGREGATE sum(time.duration) WHERE not(mpi.function) GROUP BY amr.level,iteration#mainloop",
        );
        roundtrip("AGGREGATE count GROUP BY kernel");
        roundtrip("AGGREGATE sum(aggregate.count) GROUP BY kernel");
    }

    #[test]
    fn roundtrips_extensions() {
        roundtrip("SELECT kernel, count GROUP BY kernel ORDER BY count desc FORMAT json");
        roundtrip(
            "LET ms = scale(time.duration, 0.001), r = ratio(a, b), f = first(x, y), t = truncate(i, 10) \
             AGGREGATE sum(ms) AS total, histogram(ms, 0, 10, 4), percentile(ms, 95), stddev(ms) \
             WHERE a > 1.5, b != \"x y\", c GROUP BY f ORDER BY total",
        );
        roundtrip("SELECT *");
        roundtrip("GROUP BY \"weird label\"");
        roundtrip("AGGREGATE count GROUP BY k ORDER BY count desc LIMIT 10");
        roundtrip("AGGREGATE count GROUP BY k FORMAT csv(noheader)");
        roundtrip("SELECT * FORMAT json(pretty, indent = 2)");
    }

    #[test]
    fn quoting_kicks_in_for_odd_labels() {
        let spec = parse_query("GROUP BY \"has space\", \"select\"").unwrap();
        let rendered = spec.to_string();
        assert!(rendered.contains("\"has space\""));
        assert!(rendered.contains("\"select\""));
    }
}
