//! CSV output for aggregation results — the format the benchmark
//! harnesses emit so figures can be re-plotted with any tool.

use std::fmt::Write;

use caliper_data::{Attribute, FlatRecord};

use crate::table::write_value;

/// Quote a CSV field per RFC 4180 when needed.
pub fn csv_field(input: &str) -> String {
    let mut out = String::with_capacity(input.len() + 2);
    push_field(&mut out, input);
    out
}

/// Append `input` to `out` as a CSV field ([`csv_field`]).
fn push_field(out: &mut String, input: &str) {
    if input.contains([',', '"', '\n', '\r']) {
        out.push('"');
        for ch in input.chars() {
            if ch == '"' {
                out.push('"');
            }
            out.push(ch);
        }
        out.push('"');
    } else {
        out.push_str(input);
    }
}

/// Render records as CSV with one column per attribute in `columns`.
pub fn records_to_csv(columns: &[Attribute], records: &[FlatRecord]) -> String {
    records_to_csv_opts(columns, records, true)
}

/// Render records as CSV, optionally without the header row (`FORMAT
/// csv(noheader)`). A cell is its value as
/// [`format_value`](crate::table::format_value) prints it — a nested
/// attribute's `/`-joined path ([`FlatRecord::path_string`]) as text —
/// written into one buffer that every cell reuses, and quoted from there.
pub fn records_to_csv_opts(
    columns: &[Attribute],
    records: &[FlatRecord],
    header: bool,
) -> String {
    let mut out = String::new();
    if header {
        for (i, col) in columns.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_field(&mut out, col.name());
        }
        out.push('\n');
    }
    let mut cell = String::new();
    for rec in records {
        for (i, col) in columns.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            cell.clear();
            let mut values = rec.all(col.id());
            match (values.next(), values.next()) {
                (None, _) => continue,
                (Some(value), None) => write_value(&mut cell, value),
                (Some(first), Some(second)) => {
                    write!(cell, "{first}/{second}").expect("writing to a String");
                    for value in values {
                        write!(cell, "/{value}").expect("writing to a String");
                    }
                }
            }
            push_field(&mut out, &cell);
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use caliper_data::{AttributeStore, Value, ValueType};

    #[test]
    fn quoting_rules() {
        assert_eq!(csv_field("plain"), "plain");
        assert_eq!(csv_field("a,b"), "\"a,b\"");
        assert_eq!(csv_field("say \"hi\""), "\"say \"\"hi\"\"\"");
        assert_eq!(csv_field("line\nbreak"), "\"line\nbreak\"");
    }

    #[test]
    fn renders_header_and_rows() {
        let store = AttributeStore::new();
        let k = store.create_simple("kernel", ValueType::Str);
        let n = store.create_simple("count", ValueType::UInt);
        let mut rec = FlatRecord::new();
        rec.push(k.id(), Value::str("advec,cell"));
        rec.push(n.id(), Value::UInt(5));
        let csv = records_to_csv(&[k, n], &[rec]);
        assert_eq!(csv, "kernel,count\n\"advec,cell\",5\n");
    }

    #[test]
    fn noheader_drops_first_line() {
        let store = AttributeStore::new();
        let k = store.create_simple("kernel", ValueType::Str);
        let mut rec = FlatRecord::new();
        rec.push(k.id(), Value::str("advec"));
        let csv = records_to_csv_opts(&[k], &[rec], false);
        assert_eq!(csv, "advec\n");
    }

    #[test]
    fn cells_render_as_their_path_strings_format() {
        // One value as `format_value` prints it; several as the text of
        // their `/`-joined path; either quoted when it needs to be.
        let store = AttributeStore::new();
        let f = store.create_simple("function", ValueType::Str);
        let t = store.create_simple("time", ValueType::Float);
        let mut rec = FlatRecord::new();
        rec.push(f.id(), Value::str("main"));
        rec.push(f.id(), Value::str("a,b"));
        rec.push(t.id(), Value::Float(2.5));
        let mut nested = FlatRecord::new();
        nested.push(t.id(), Value::Float(2.5));
        nested.push(t.id(), Value::Float(3.0));
        let csv = records_to_csv_opts(&[f, t], &[rec, nested], false);
        assert_eq!(csv, "\"main/a,b\",2.500000\n,2.5/3\n");
    }

    #[test]
    fn missing_cells_are_empty() {
        let store = AttributeStore::new();
        let k = store.create_simple("kernel", ValueType::Str);
        let n = store.create_simple("count", ValueType::UInt);
        let mut rec = FlatRecord::new();
        rec.push(n.id(), Value::UInt(5));
        let csv = records_to_csv(&[k, n], &[rec]);
        assert_eq!(csv, "kernel,count\n,5\n");
    }
}
