//! Recursive-descent parser for the aggregation description language.

use std::fmt;

use caliper_data::Value;

use crate::ast::{
    AggOp, CmpOp, Filter, FormatOpt, LetDef, LetExpr, OpKind, OutputFormat, QuerySpec, SortDir,
    SortKey,
};
use crate::diag::Span;
use crate::lexer::{tokenize, LexError, Token, TokenKind};

/// Parse error with a byte span.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Byte offset in the query text (or text length at end of input).
    pub pos: usize,
    /// Byte offset one past the offending token (== `pos` at end of
    /// input).
    pub end: usize,
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at offset {}", self.message, self.pos)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> ParseError {
        ParseError {
            pos: e.pos,
            end: e.end,
            message: e.message,
        }
    }
}

/// Byte spans for the elements of a parsed [`QuerySpec`], kept in a
/// side table (parallel vectors) so the AST itself stays comparable by
/// value — the render/parse round-trip property compares specs with
/// `==`, and two specs with different formatting must stay equal.
///
/// Each vector parallels the same-named `QuerySpec` field; `ops` also
/// covers operators added through `SELECT sum(x)` sugar.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanMap {
    /// Spans of `spec.ops` entries.
    pub ops: Vec<Span>,
    /// Spans of `spec.key` entries.
    pub keys: Vec<Span>,
    /// Spans of `spec.filters` entries.
    pub filters: Vec<Span>,
    /// Spans of `spec.lets` entries (the whole binding).
    pub lets: Vec<Span>,
    /// Spans of `spec.select` entries (empty for `SELECT *`).
    pub select: Vec<Span>,
    /// Spans of `spec.order_by` entries.
    pub order_by: Vec<Span>,
    /// Span of the FORMAT name, if a FORMAT clause appeared.
    pub format: Option<Span>,
    /// Spans of `spec.format_opts` entries.
    pub format_opts: Vec<Span>,
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    end: usize,
    spans: SpanMap,
}

impl Parser {
    fn peek(&self) -> Option<&TokenKind> {
        self.tokens.get(self.pos).map(|t| &t.kind)
    }

    fn peek2(&self) -> Option<&TokenKind> {
        self.tokens.get(self.pos + 1).map(|t| &t.kind)
    }

    fn here(&self) -> usize {
        self.tokens.get(self.pos).map(|t| t.pos).unwrap_or(self.end)
    }

    /// End offset of the current token (or end of input).
    fn here_end(&self) -> usize {
        self.tokens.get(self.pos).map(|t| t.end).unwrap_or(self.end)
    }

    /// End offset of the most recently consumed token.
    fn prev_end(&self) -> usize {
        if self.pos > 0 {
            self.tokens[self.pos - 1].end
        } else {
            self.here()
        }
    }

    /// Span from `start` through the most recently consumed token.
    fn span_from(&self, start: usize) -> Span {
        Span::new(start, self.prev_end())
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            pos: self.here(),
            end: self.here_end(),
            message: message.into(),
        }
    }

    /// Is the current token the given keyword (case-insensitive)?
    fn at_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(TokenKind::Ident(s)) if s.eq_ignore_ascii_case(kw))
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.at_keyword(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(self.error(format!("expected '{kw}'")))
        }
    }

    fn expect(&mut self, kind: &TokenKind) -> Result<(), ParseError> {
        if self.peek() == Some(kind) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected {kind}")))
        }
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.peek() == Some(kind) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// An attribute label: identifier or quoted string.
    fn label(&mut self) -> Result<String, ParseError> {
        match self.peek() {
            Some(TokenKind::Ident(s)) | Some(TokenKind::Str(s)) => {
                let s = s.clone();
                self.pos += 1;
                Ok(s)
            }
            _ => Err(self.error("expected attribute label")),
        }
    }

    /// A literal value: number, quoted string, or bare identifier
    /// (treated as a string, so `kernel=calc-dt` works unquoted).
    fn literal(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(TokenKind::Number(text)) => {
                let v = Value::parse_guess(text);
                self.pos += 1;
                Ok(v)
            }
            Some(TokenKind::Str(s)) => {
                let v = Value::str(s.as_str());
                self.pos += 1;
                Ok(v)
            }
            Some(TokenKind::Ident(s)) => {
                let v = Value::parse_guess(s);
                self.pos += 1;
                Ok(v)
            }
            _ => Err(self.error("expected literal value")),
        }
    }

    /// Does the token start a new clause keyword?
    fn at_clause_start(&self) -> bool {
        const CLAUSES: &[&str] = &[
            "aggregate",
            "group",
            "where",
            "select",
            "format",
            "order",
            "let",
            "limit",
        ];
        match self.peek() {
            Some(TokenKind::Ident(s)) => {
                let lower = s.to_ascii_lowercase();
                // `group` and `order` only open a clause when followed by `by`.
                match lower.as_str() {
                    "group" | "order" => {
                        matches!(self.peek2(), Some(TokenKind::Ident(by)) if by.eq_ignore_ascii_case("by"))
                    }
                    _ => CLAUSES.contains(&lower.as_str()),
                }
            }
            _ => false,
        }
    }

    fn parse_agg_list(&mut self, spec: &mut QuerySpec) -> Result<(), ParseError> {
        loop {
            let start = self.here();
            let name = self.label()?;
            let kind = OpKind::from_name(&name)
                .ok_or_else(|| self.error(format!("unknown aggregation operator '{name}'")))?;
            let mut op = AggOp::new(kind, None);
            if self.eat(&TokenKind::LParen) && !self.eat(&TokenKind::RParen) {
                // first argument: target attribute
                op.target = Some(self.label()?);
                while self.eat(&TokenKind::Comma) {
                    let arg = self.literal()?;
                    op.args.push(arg);
                }
                self.expect(&TokenKind::RParen)?;
            }
            if kind.needs_target() && op.target.is_none() {
                return Err(self.error(format!(
                    "operator '{}' requires a target attribute",
                    kind.name()
                )));
            }
            if kind == OpKind::Histogram && op.args.len() != 3 {
                return Err(self.error(
                    "histogram requires bounds: histogram(attr, lo, hi, nbins)".to_string(),
                ));
            }
            if kind == OpKind::Percentile && (op.args.len() != 1 || op.args[0].to_f64().is_none()) {
                return Err(self.error("percentile requires percentile(attr, p) with numeric p"));
            }
            if self.eat_keyword("as") {
                op.alias = Some(self.label()?);
            }
            self.spans.ops.push(self.span_from(start));
            spec.ops.push(op);
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        Ok(())
    }

    fn parse_group_by(&mut self, spec: &mut QuerySpec) -> Result<(), ParseError> {
        loop {
            let start = self.here();
            spec.key.push(self.label()?);
            self.spans.keys.push(self.span_from(start));
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        Ok(())
    }

    fn parse_where(&mut self, spec: &mut QuerySpec) -> Result<(), ParseError> {
        loop {
            let start = self.here();
            let filter = if self.at_keyword("not") && self.peek2() == Some(&TokenKind::LParen) {
                self.pos += 2;
                let label = self.label()?;
                self.expect(&TokenKind::RParen)?;
                Filter::NotExists(label)
            } else {
                let label = self.label()?;
                let op = match self.peek() {
                    Some(TokenKind::Eq) => Some(CmpOp::Eq),
                    Some(TokenKind::Ne) => Some(CmpOp::Ne),
                    Some(TokenKind::Lt) => Some(CmpOp::Lt),
                    Some(TokenKind::Le) => Some(CmpOp::Le),
                    Some(TokenKind::Gt) => Some(CmpOp::Gt),
                    Some(TokenKind::Ge) => Some(CmpOp::Ge),
                    _ => None,
                };
                match op {
                    Some(op) => {
                        self.pos += 1;
                        let value = self.literal()?;
                        Filter::Cmp {
                            attr: label,
                            op,
                            value,
                        }
                    }
                    None => Filter::Exists(label),
                }
            };
            self.spans.filters.push(self.span_from(start));
            spec.filters.push(filter);
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        Ok(())
    }

    fn parse_select(&mut self, spec: &mut QuerySpec) -> Result<(), ParseError> {
        if self.eat(&TokenKind::Star) {
            spec.select = None;
            return Ok(());
        }
        let mut cols = Vec::new();
        loop {
            let start = self.here();
            // Allow `select sum(time.duration)` as sugar: it both adds the
            // aggregation op and selects its result column.
            if let Some(TokenKind::Ident(name)) = self.peek() {
                if let Some(kind) = OpKind::from_name(name) {
                    if self.peek2() == Some(&TokenKind::LParen)
                        || (kind == OpKind::Count && self.peek2() != Some(&TokenKind::Comma))
                    {
                        let before = self.pos;
                        // Try parsing as an op; fall back to a plain label.
                        let mut sub = QuerySpec::default();
                        if self.parse_agg_item(&mut sub).is_ok() {
                            let op = sub.ops.pop().expect("one op parsed");
                            cols.push(op.result_label("count"));
                            self.spans.select.push(self.span_from(start));
                            if !spec.ops.contains(&op) {
                                self.spans.ops.push(self.span_from(start));
                                spec.ops.push(op);
                            }
                            if !self.eat(&TokenKind::Comma) {
                                break;
                            }
                            continue;
                        }
                        self.pos = before;
                    }
                }
            }
            cols.push(self.label()?);
            self.spans.select.push(self.span_from(start));
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        spec.select = Some(cols);
        Ok(())
    }

    /// Parse exactly one AGGREGATE item into `spec.ops`.
    fn parse_agg_item(&mut self, spec: &mut QuerySpec) -> Result<(), ParseError> {
        let save = self.pos;
        let name = self.label()?;
        let kind = match OpKind::from_name(&name) {
            Some(k) => k,
            None => {
                self.pos = save;
                return Err(self.error("not an operator"));
            }
        };
        let mut op = AggOp::new(kind, None);
        if self.eat(&TokenKind::LParen) && !self.eat(&TokenKind::RParen) {
            op.target = Some(self.label()?);
            while self.eat(&TokenKind::Comma) {
                op.args.push(self.literal()?);
            }
            self.expect(&TokenKind::RParen)?;
        }
        if kind.needs_target() && op.target.is_none() {
            self.pos = save;
            return Err(self.error("operator requires target"));
        }
        if self.eat_keyword("as") {
            op.alias = Some(self.label()?);
        }
        spec.ops.push(op);
        Ok(())
    }

    fn parse_order_by(&mut self, spec: &mut QuerySpec) -> Result<(), ParseError> {
        loop {
            let start = self.here();
            let attr = self.label()?;
            let dir = if self.eat_keyword("desc") {
                SortDir::Desc
            } else {
                self.eat_keyword("asc");
                SortDir::Asc
            };
            self.spans.order_by.push(self.span_from(start));
            spec.order_by.push(SortKey { attr, dir });
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        Ok(())
    }

    fn parse_let(&mut self, spec: &mut QuerySpec) -> Result<(), ParseError> {
        loop {
            let start = self.here();
            let name = self.label()?;
            self.expect(&TokenKind::Eq)?;
            let func = self.label()?;
            self.expect(&TokenKind::LParen)?;
            let expr = match func.to_ascii_lowercase().as_str() {
                "scale" => {
                    let attr = self.label()?;
                    self.expect(&TokenKind::Comma)?;
                    let factor = self
                        .literal()?
                        .to_f64()
                        .ok_or_else(|| self.error("scale factor must be numeric"))?;
                    LetExpr::Scale(attr, factor)
                }
                "ratio" => {
                    let a = self.label()?;
                    self.expect(&TokenKind::Comma)?;
                    let b = self.label()?;
                    LetExpr::Ratio(a, b)
                }
                "first" => {
                    let mut attrs = vec![self.label()?];
                    while self.eat(&TokenKind::Comma) {
                        attrs.push(self.label()?);
                    }
                    LetExpr::First(attrs)
                }
                "truncate" => {
                    let attr = self.label()?;
                    self.expect(&TokenKind::Comma)?;
                    let width = self
                        .literal()?
                        .to_f64()
                        .ok_or_else(|| self.error("truncate width must be numeric"))?;
                    if width <= 0.0 {
                        return Err(self.error("truncate width must be positive"));
                    }
                    LetExpr::Truncate(attr, width)
                }
                other => {
                    return Err(self.error(format!("unknown LET function '{other}'")));
                }
            };
            self.expect(&TokenKind::RParen)?;
            self.spans.lets.push(self.span_from(start));
            spec.lets.push(LetDef { name, expr });
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        Ok(())
    }

    /// Parse `FORMAT name` with optional `(opt, opt=value, ...)`.
    fn parse_format(&mut self, spec: &mut QuerySpec) -> Result<(), ParseError> {
        let start = self.here();
        let name = self.label()?;
        spec.format = OutputFormat::from_name(&name)
            .ok_or_else(|| self.error(format!("unknown format '{name}'")))?;
        self.spans.format = Some(self.span_from(start));
        if self.eat(&TokenKind::LParen) && !self.eat(&TokenKind::RParen) {
            loop {
                let opt_start = self.here();
                let opt_name = self.label()?;
                let value = if self.eat(&TokenKind::Eq) {
                    Some(self.literal()?)
                } else {
                    None
                };
                self.spans.format_opts.push(self.span_from(opt_start));
                spec.format_opts.push(FormatOpt {
                    name: opt_name,
                    value,
                });
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect(&TokenKind::RParen)?;
        }
        Ok(())
    }

    fn parse_query(&mut self) -> Result<QuerySpec, ParseError> {
        let mut spec = QuerySpec::default();
        while self.peek().is_some() {
            if self.eat_keyword("aggregate") {
                self.parse_agg_list(&mut spec)?;
            } else if self.at_keyword("group") {
                self.pos += 1;
                self.expect_keyword("by")?;
                self.parse_group_by(&mut spec)?;
            } else if self.eat_keyword("where") {
                self.parse_where(&mut spec)?;
            } else if self.eat_keyword("select") {
                self.parse_select(&mut spec)?;
            } else if self.at_keyword("order") {
                self.pos += 1;
                self.expect_keyword("by")?;
                self.parse_order_by(&mut spec)?;
            } else if self.eat_keyword("let") {
                self.parse_let(&mut spec)?;
            } else if self.eat_keyword("limit") {
                match self.peek() {
                    Some(TokenKind::Number(text)) => {
                        let n: usize = text
                            .parse()
                            .map_err(|_| self.error("LIMIT requires a non-negative integer"))?;
                        self.pos += 1;
                        spec.limit = Some(n);
                    }
                    _ => return Err(self.error("LIMIT requires a number")),
                }
            } else if self.eat_keyword("format") {
                self.parse_format(&mut spec)?;
            } else {
                return Err(self.error("expected a clause (AGGREGATE, GROUP BY, WHERE, SELECT, ORDER BY, LET, LIMIT, FORMAT)"));
            }
            // Clauses may be comma-separated in some tools' spellings;
            // tolerate a trailing comma between clauses.
            while !self.at_clause_start() && self.eat(&TokenKind::Comma) {}
            if !self.at_clause_start() && self.peek().is_some() {
                return Err(self.error("unexpected input after clause"));
            }
        }
        Ok(spec)
    }
}

/// Parse a query text into a [`QuerySpec`].
pub fn parse_query(input: &str) -> Result<QuerySpec, ParseError> {
    parse_query_spanned(input).map(|(spec, _)| spec)
}

/// Parse a query text into a [`QuerySpec`] plus a [`SpanMap`] giving
/// the byte span of each spec element, for diagnostics.
pub fn parse_query_spanned(input: &str) -> Result<(QuerySpec, SpanMap), ParseError> {
    let tokens = tokenize(input)?;
    let mut parser = Parser {
        tokens,
        pos: 0,
        end: input.len(),
        spans: SpanMap::default(),
    };
    let spec = parser.parse_query()?;
    Ok((spec, parser.spans))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_paper_listing_example() {
        // §III-B: the time-series function profile scheme.
        let spec =
            parse_query("AGGREGATE count, sum(time)\nGROUP BY function, loop.iteration").unwrap();
        assert_eq!(spec.ops.len(), 2);
        assert_eq!(spec.ops[0].kind, OpKind::Count);
        assert_eq!(spec.ops[1].kind, OpKind::Sum);
        assert_eq!(spec.ops[1].target.as_deref(), Some("time"));
        assert_eq!(spec.key, vec!["function", "loop.iteration"]);
        assert!(spec.filters.is_empty());
    }

    #[test]
    fn parses_amr_level_query() {
        // §VI-E: the AMR refinement-level query with WHERE not(...) and
        // a line continuation.
        let spec = parse_query(
            "AGGREGATE sum(time.duration)\nWHERE not(mpi.function)\nGROUP BY amr.level,\\\niteration#mainloop",
        )
        .unwrap();
        assert_eq!(spec.ops.len(), 1);
        assert_eq!(spec.filters, vec![Filter::NotExists("mpi.function".into())]);
        assert_eq!(spec.key, vec!["amr.level", "iteration#mainloop"]);
    }

    #[test]
    fn parses_comparison_filters() {
        let spec = parse_query(
            "AGGREGATE count GROUP BY kernel WHERE mpi.rank=0, time.duration>2.5, kernel!=idle",
        )
        .unwrap();
        assert_eq!(spec.filters.len(), 3);
        assert_eq!(
            spec.filters[0],
            Filter::Cmp {
                attr: "mpi.rank".into(),
                op: CmpOp::Eq,
                value: Value::Int(0)
            }
        );
        assert_eq!(
            spec.filters[1],
            Filter::Cmp {
                attr: "time.duration".into(),
                op: CmpOp::Gt,
                value: Value::Float(2.5)
            }
        );
        assert_eq!(
            spec.filters[2],
            Filter::Cmp {
                attr: "kernel".into(),
                op: CmpOp::Ne,
                value: Value::str("idle")
            }
        );
    }

    #[test]
    fn parses_exists_filter() {
        let spec = parse_query("AGGREGATE count GROUP BY x WHERE mpi.function").unwrap();
        assert_eq!(spec.filters, vec![Filter::Exists("mpi.function".into())]);
    }

    #[test]
    fn parses_alias_order_by_format() {
        let spec = parse_query(
            "AGGREGATE sum(time.duration) AS total GROUP BY kernel ORDER BY total desc, kernel FORMAT csv",
        )
        .unwrap();
        assert_eq!(spec.ops[0].alias.as_deref(), Some("total"));
        assert_eq!(spec.order_by.len(), 2);
        assert_eq!(spec.order_by[0].dir, SortDir::Desc);
        assert_eq!(spec.order_by[1].dir, SortDir::Asc);
        assert_eq!(spec.format, OutputFormat::Csv);
    }

    #[test]
    fn parses_histogram_with_bounds() {
        let spec =
            parse_query("AGGREGATE histogram(time.duration, 0, 100, 10) GROUP BY kernel").unwrap();
        assert_eq!(spec.ops[0].kind, OpKind::Histogram);
        assert_eq!(
            spec.ops[0].args,
            vec![Value::Int(0), Value::Int(100), Value::Int(10)]
        );
        assert!(parse_query("AGGREGATE histogram(x) GROUP BY k").is_err());
    }

    #[test]
    fn parses_let_definitions() {
        let spec = parse_query(
            "LET time.ms = scale(time.duration, 0.001), phase = first(annotation, function) AGGREGATE sum(time.ms) GROUP BY phase",
        )
        .unwrap();
        assert_eq!(spec.lets.len(), 2);
        assert_eq!(
            spec.lets[0].expr,
            LetExpr::Scale("time.duration".into(), 0.001)
        );
        assert_eq!(
            spec.lets[1].expr,
            LetExpr::First(vec!["annotation".into(), "function".into()])
        );
    }

    #[test]
    fn parses_select_with_op_sugar() {
        let spec = parse_query("SELECT kernel, sum(time.duration) GROUP BY kernel").unwrap();
        assert_eq!(
            spec.select,
            Some(vec!["kernel".to_string(), "sum#time.duration".to_string()])
        );
        assert_eq!(spec.ops.len(), 1);
        assert_eq!(spec.ops[0].kind, OpKind::Sum);
    }

    #[test]
    fn select_star_means_all() {
        let spec = parse_query("SELECT * WHERE kernel").unwrap();
        assert_eq!(spec.select, None);
        assert!(!spec.is_aggregation());
    }

    #[test]
    fn group_without_by_is_error() {
        assert!(parse_query("GROUP kernel").is_err());
        assert!(parse_query("AGGREGATE bogus(x) GROUP BY k").is_err());
        assert!(parse_query("AGGREGATE sum GROUP BY k").is_err());
        assert!(parse_query("FORMAT nosuch").is_err());
    }

    #[test]
    fn errors_carry_position() {
        let err = parse_query("AGGREGATE count GROUP BY").unwrap_err();
        assert!(err.pos >= 24);
        assert!(err.end >= err.pos);
    }

    #[test]
    fn spans_cover_spec_elements() {
        let text = "AGGREGATE count, sum(time) GROUP BY function WHERE mpi.rank=0";
        let (spec, spans) = parse_query_spanned(text).unwrap();
        assert_eq!(spans.ops.len(), spec.ops.len());
        assert_eq!(spans.keys.len(), spec.key.len());
        assert_eq!(spans.filters.len(), spec.filters.len());
        assert_eq!(&text[spans.ops[0].start..spans.ops[0].end], "count");
        assert_eq!(&text[spans.ops[1].start..spans.ops[1].end], "sum(time)");
        assert_eq!(&text[spans.keys[0].start..spans.keys[0].end], "function");
        assert_eq!(
            &text[spans.filters[0].start..spans.filters[0].end],
            "mpi.rank=0"
        );
    }

    #[test]
    fn select_sugar_records_op_span_once() {
        let text = "SELECT kernel, sum(time.duration) GROUP BY kernel";
        let (spec, spans) = parse_query_spanned(text).unwrap();
        assert_eq!(spec.ops.len(), 1);
        assert_eq!(spans.ops.len(), 1);
        assert_eq!(spans.select.len(), 2);
        assert_eq!(
            &text[spans.ops[0].start..spans.ops[0].end],
            "sum(time.duration)"
        );
    }

    #[test]
    fn parses_format_options() {
        let spec = parse_query("AGGREGATE count GROUP BY k FORMAT csv(noheader)").unwrap();
        assert_eq!(spec.format, OutputFormat::Csv);
        assert_eq!(spec.format_opts.len(), 1);
        assert_eq!(spec.format_opts[0].name, "noheader");
        assert_eq!(spec.format_opts[0].value, None);

        let spec = parse_query("SELECT * FORMAT json(pretty, indent=2)").unwrap();
        assert_eq!(spec.format_opts.len(), 2);
        assert_eq!(spec.format_opts[1].name, "indent");
        assert_eq!(spec.format_opts[1].value, Some(Value::Int(2)));

        // Empty parens are tolerated.
        let spec = parse_query("SELECT * FORMAT json()").unwrap();
        assert!(spec.format_opts.is_empty());

        assert!(parse_query("SELECT * FORMAT json(pretty").is_err());
    }

    #[test]
    fn parses_limit() {
        let spec = parse_query("AGGREGATE count GROUP BY k ORDER BY count desc LIMIT 10").unwrap();
        assert_eq!(spec.limit, Some(10));
        assert!(parse_query("SELECT * LIMIT").is_err());
        assert!(parse_query("SELECT * LIMIT x").is_err());
        assert_eq!(parse_query("SELECT * LIMIT 0").unwrap().limit, Some(0));
    }

    #[test]
    fn quoted_labels_allowed() {
        let spec = parse_query("GROUP BY \"odd label\", 'another one'").unwrap();
        assert_eq!(spec.key, vec!["odd label", "another one"]);
    }

    #[test]
    fn clause_order_is_free() {
        let a = parse_query("GROUP BY k AGGREGATE count WHERE x FORMAT json").unwrap();
        let b = parse_query("FORMAT json WHERE x AGGREGATE count GROUP BY k").unwrap();
        assert_eq!(a, b);
    }
}
