//! CSV output for aggregation results — the format the benchmark
//! harnesses emit so figures can be re-plotted with any tool.

use caliper_data::Attribute;

use crate::binary_v2::Cell;
use crate::rows::{BlockRows, Escapes, Picker};
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

/// Render rows as CSV with one column per attribute in `columns`,
/// optionally without the header row (`FORMAT csv(noheader)`). A cell
/// is its value as the table formatter writes it — a nested
/// attribute's several values as the text of their `/`-joined path —
/// quoted where it needs to be; each string of the rows' table is
/// quoted once.
pub fn write_csv(rows: &BlockRows, columns: &[Attribute], header: bool) -> String {
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
    let mut picker = Picker::new(rows, columns.iter().map(Attribute::id));
    let mut quoted = Escapes::new(rows.strings());
    let mut path = String::new();
    for i in 0..rows.len() {
        picker.pick(rows, i);
        for j in 0..columns.len() {
            if j > 0 {
                out.push(',');
            }
            let slot = picker.slot(j);
            match picker.found(slot) {
                (0, ..) => {}
                // A number never needs quoting.
                (1, k, _) => match rows.cell_at(k) {
                    Cell::Str(code) => quoted.push(&mut out, rows.strings(), code, |text, to| {
                        push_field(to, text)
                    }),
                    number => write_value(&mut out, &rows.value(number)),
                },
                _ => {
                    path.clear();
                    rows.write_path(&mut path, picker.cells(rows, slot));
                    push_field(&mut out, &path);
                }
            }
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rows::tests::rows_of;
    use caliper_data::{AttributeStore, FlatRecord, Value, ValueType};

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
        let csv = write_csv(&rows_of(&[rec]), &[k, n], true);
        assert_eq!(csv, "kernel,count\n\"advec,cell\",5\n");
    }

    #[test]
    fn noheader_drops_first_line() {
        let store = AttributeStore::new();
        let k = store.create_simple("kernel", ValueType::Str);
        let mut rec = FlatRecord::new();
        rec.push(k.id(), Value::str("advec"));
        let csv = write_csv(&rows_of(&[rec]), &[k], false);
        assert_eq!(csv, "advec\n");
    }

    #[test]
    fn cells_render_as_their_path_strings_format() {
        // One value as `write_value` writes it; several as the text of
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
        let csv = write_csv(&rows_of(&[rec, nested]), &[f, t], false);
        assert_eq!(csv, "\"main/a,b\",2.500000\n,2.5/3\n");
    }

    #[test]
    fn missing_cells_are_empty() {
        let store = AttributeStore::new();
        let k = store.create_simple("kernel", ValueType::Str);
        let n = store.create_simple("count", ValueType::UInt);
        let mut rec = FlatRecord::new();
        rec.push(n.id(), Value::UInt(5));
        let csv = write_csv(&rows_of(&[rec]), &[k, n], true);
        assert_eq!(csv, "kernel,count\n,5\n");
    }
}
