//! The "expand" formatter: one record per line as
//! `label=value,label=value,...` — Caliper's human-greppable debug
//! output for record streams.

use std::fmt::Write;

use caliper_data::Attribute;

use crate::binary_v2::Cell;
use crate::escape::escape_into;
use crate::rows::{BlockRows, Escapes, Picker};

/// Render rows one per line, each as its immediates of the attributes
/// in `columns`, in the row's own order, as `label=value` pairs — a
/// nested attribute's values one pair each — with `.cali` escaping.
/// Each string of the rows' table is escaped once.
pub fn write_expand(rows: &BlockRows, columns: &[Attribute]) -> String {
    let picker = Picker::new(rows, columns.iter().map(Attribute::id));
    // Per slot: its label, escaped, and the `=`.
    let mut labels = Vec::new();
    for (j, column) in columns.iter().enumerate() {
        if picker.slot(j) == labels.len() {
            let mut label = String::new();
            escape_into(column.name(), &mut label);
            label.push('=');
            labels.push(label);
        }
    }
    let mut escaped = Escapes::new(rows.strings());
    let mut out = String::new();
    for i in 0..rows.len() {
        let mut first = true;
        for k in rows.span(i) {
            let Some(slot) = picker.slot_at(rows, k) else {
                continue;
            };
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&labels[slot]);
            match rows.cell_at(k) {
                Cell::Str(code) => escaped.push(&mut out, rows.strings(), code, escape_into),
                // A number's text holds nothing to escape.
                number => write!(out, "{}", rows.value(number)).expect("writing to a String"),
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
    fn expands_in_record_order() {
        let store = AttributeStore::new();
        let a = store.create_simple("function", ValueType::Str);
        let b = store.create_simple("loop.iteration", ValueType::Int);
        let mut rec = FlatRecord::new();
        rec.push(a.id(), Value::str("main"));
        rec.push(a.id(), Value::str("foo"));
        rec.push(b.id(), Value::Int(17));
        let rows = rows_of(&[rec]);
        assert_eq!(
            write_expand(&rows, &[b.clone(), a.clone()]),
            "function=main,function=foo,loop.iteration=17\n"
        );
        assert_eq!(write_expand(&rows, &[b]), "loop.iteration=17\n");
    }

    #[test]
    fn escapes_separators_in_values() {
        let store = AttributeStore::new();
        let a = store.create_simple("x", ValueType::Str);
        let mut rec = FlatRecord::new();
        rec.push(a.id(), Value::str("a,b=c"));
        assert_eq!(
            write_expand(&rows_of(&[rec.clone(), rec]), &[a]),
            "x=a\\,b\\=c\nx=a\\,b\\=c\n"
        );
    }

    #[test]
    fn multiple_records_one_per_line() {
        let store = AttributeStore::new();
        let a = store.create_simple("x", ValueType::Int);
        let mut r1 = FlatRecord::new();
        r1.push(a.id(), Value::Int(1));
        let mut r2 = FlatRecord::new();
        r2.push(a.id(), Value::Int(2));
        assert_eq!(write_expand(&rows_of(&[r1, r2]), &[a]), "x=1\nx=2\n");
    }
}
