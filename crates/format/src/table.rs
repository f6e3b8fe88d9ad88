//! Aligned text-table formatter — renders aggregation results like the
//! `function loop.iteration count sum#time` table in §III-B of the paper.

use std::fmt::Write;

use caliper_data::{Attribute, FlatRecord, Value};

/// A rendered table with a header row and data rows.
#[derive(Debug, Clone, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
    numeric: Vec<bool>,
}

impl Table {
    /// Create a table with the given column headers.
    pub fn new(headers: Vec<String>) -> Table {
        let n = headers.len();
        Table {
            headers,
            rows: Vec::new(),
            numeric: vec![true; n],
        }
    }

    /// Column headers.
    pub fn headers(&self) -> &[String] {
        &self.headers
    }

    /// Data rows (cell strings).
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Append a row of cells. Missing cells render empty; extra cells are
    /// truncated to the header width.
    pub fn push_row(&mut self, mut cells: Vec<String>) {
        cells.resize(self.headers.len(), String::new());
        for (i, cell) in cells.iter().enumerate() {
            // A column is right-aligned while every non-empty cell in it
            // parses as a number.
            if !cell.is_empty() && cell.parse::<f64>().is_err() {
                self.numeric[i] = false;
            }
        }
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render with space-aligned columns: strings left-aligned, numeric
    /// columns right-aligned.
    pub fn render(&self) -> String {
        self.render_opts(true)
    }

    /// Render, optionally suppressing the header row (`FORMAT
    /// table(noheader)`). Column widths still account for the headers so
    /// output aligns with and without them.
    pub fn render_opts(&self, header: bool) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(ncols) {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let mut out = String::new();
        let write_row = |cells: &[String], out: &mut String| {
            for (i, cell) in cells.iter().enumerate().take(ncols) {
                if i > 0 {
                    out.push(' ');
                }
                let pad = widths[i].saturating_sub(cell.chars().count());
                let last = i + 1 == ncols;
                if self.numeric[i] {
                    for _ in 0..pad {
                        out.push(' ');
                    }
                    out.push_str(cell);
                } else {
                    out.push_str(cell);
                    if !last {
                        for _ in 0..pad {
                            out.push(' ');
                        }
                    }
                }
            }
            while out.ends_with(' ') {
                out.pop();
            }
            out.push('\n');
        };
        if header {
            write_row(&self.headers, &mut out);
        }
        for row in &self.rows {
            write_row(row, &mut out);
        }
        out
    }
}

/// Round a float cell to a fixed precision to keep tables readable;
/// integers print without a decimal point.
pub fn format_value(value: &Value) -> String {
    let mut out = String::new();
    write_value(&mut out, value);
    out
}

/// [`format_value`] appended to `out`.
pub(crate) fn write_value(out: &mut String, value: &Value) {
    let written = match value {
        Value::Float(f) if f.fract() == 0.0 && f.abs() < 1e15 => write!(out, "{}", *f as i64),
        Value::Float(f) => write!(out, "{f:.6}"),
        other => write!(out, "{other}"),
    };
    written.expect("writing to a String");
}

/// Build a table from flat records and a column (attribute) list, in the
/// spirit of `cali-query`'s `format table` output. Missing attributes
/// render as empty cells.
pub fn records_to_table(columns: &[Attribute], records: &[FlatRecord]) -> Table {
    let mut table = Table::new(columns.iter().map(|a| a.name().to_string()).collect());
    for rec in records {
        let cells = columns
            .iter()
            .map(|a| {
                rec.path_string(a.id())
                    .map(|v| format_value(&v))
                    .unwrap_or_default()
            })
            .collect();
        table.push_row(cells);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use caliper_data::{AttributeStore, ValueType};

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(vec!["function".into(), "count".into()]);
        t.push_row(vec!["foo".into(), "2".into()]);
        t.push_row(vec!["barbaz".into(), "40".into()]);
        let out = t.render();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3);
        // count column is right-aligned
        assert!(lines[1].ends_with(" 2"));
        assert!(lines[2].ends_with("40"));
        // function column is left-aligned
        assert!(lines[1].starts_with("foo "));
    }

    #[test]
    fn short_rows_pad_and_long_rows_truncate() {
        let mut t = Table::new(vec!["a".into(), "b".into()]);
        t.push_row(vec!["1".into()]);
        t.push_row(vec!["1".into(), "2".into(), "3".into()]);
        let out = t.render();
        assert_eq!(out.lines().count(), 3);
        assert!(!out.contains('3'));
    }

    #[test]
    fn render_opts_can_drop_header() {
        let mut t = Table::new(vec!["function".into(), "count".into()]);
        t.push_row(vec!["foo".into(), "2".into()]);
        let with = t.render_opts(true);
        let without = t.render_opts(false);
        assert!(with.starts_with("function"));
        assert!(!without.contains("function"));
        assert_eq!(with.lines().last(), without.lines().last());
    }

    #[test]
    fn format_value_trims_integral_floats() {
        assert_eq!(format_value(&Value::Float(10.0)), "10");
        assert_eq!(format_value(&Value::Float(2.5)), "2.500000");
        assert_eq!(format_value(&Value::Int(-3)), "-3");
        assert_eq!(format_value(&Value::str("x")), "x");
    }

    #[test]
    fn records_to_table_uses_path_strings() {
        let store = AttributeStore::new();
        let func = store.create_simple("function", ValueType::Str);
        let count = store.create_simple("count", ValueType::UInt);
        let mut rec = FlatRecord::new();
        rec.push(func.id(), Value::str("main"));
        rec.push(func.id(), Value::str("foo"));
        rec.push(count.id(), Value::UInt(3));
        let t = records_to_table(&[func, count], &[rec]);
        let out = t.render();
        assert!(out.contains("main/foo"));
        assert!(out.contains('3'));
    }
}
