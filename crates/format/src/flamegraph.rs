//! Collapsed-stack ("flamegraph") output.
//!
//! Renders aggregation results in the `folded` format consumed by
//! Brendan Gregg's `flamegraph.pl` and by `inferno`:
//!
//! ```text
//! main;hydro_cycle;calc-dt 4242
//! ```
//!
//! Path components come from the selected key columns in order (nested
//! attributes contribute their whole `a/b/c` path, split on `/`); the
//! value is the last selected column, rounded to an integer as the
//! format requires.

use std::fmt::Write;

use caliper_data::Attribute;

use crate::rows::{BlockRows, Picker};

/// Render rows as collapsed stacks. `path_columns` build the stack
/// (left = outermost); `value_column` supplies the sample weight (a
/// row's last value of it). Rows missing the value column are skipped;
/// a row with no path at all is `(root)`.
pub fn write_flamegraph(
    rows: &BlockRows,
    path_columns: &[Attribute],
    value_column: &Attribute,
) -> String {
    let columns = path_columns.iter().chain([value_column]);
    let mut picker = Picker::new(rows, columns.map(Attribute::id));
    let value_slot = picker.slot(path_columns.len());
    let (mut out, mut path) = (String::new(), String::new());
    for i in 0..rows.len() {
        picker.pick(rows, i);
        let (count, _, last) = picker.found(value_slot);
        let value = (count > 0).then(|| rows.value(rows.cell_at(last)).to_f64());
        let Some(Some(value)) = value else { continue };
        let line = out.len();
        for j in 0..path_columns.len() {
            path.clear();
            rows.write_path(&mut path, picker.cells(rows, picker.slot(j)));
            for frame in path.split('/').filter(|frame| !frame.is_empty()) {
                if out.len() > line {
                    out.push(';');
                }
                // The folded format reserves ';' and ' '.
                out.extend(
                    frame
                        .chars()
                        .map(|c| if c == ';' || c == ' ' { '_' } else { c }),
                );
            }
        }
        if out.len() == line {
            out.push_str("(root)");
        }
        writeln!(out, " {}", value.round() as i64).expect("writing to a String");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rows::tests::rows_of;
    use caliper_data::{AttributeStore, FlatRecord, Value, ValueType};

    #[test]
    fn renders_folded_stacks() {
        let store = AttributeStore::new();
        let func = store.create_simple("function", ValueType::Str);
        let kernel = store.create_simple("kernel", ValueType::Str);
        let time = store.create_simple("time", ValueType::Float);

        let mut rec = FlatRecord::new();
        rec.push(func.id(), Value::str("main"));
        rec.push(func.id(), Value::str("hydro cycle"));
        rec.push(kernel.id(), Value::str("calc-dt"));
        rec.push(time.id(), Value::Float(42.4));

        let out = write_flamegraph(&rows_of(&[rec]), &[func, kernel], &time);
        assert_eq!(out, "main;hydro_cycle;calc-dt 42\n");
    }

    #[test]
    fn records_without_value_are_skipped() {
        let store = AttributeStore::new();
        let func = store.create_simple("function", ValueType::Str);
        let time = store.create_simple("time", ValueType::Float);
        let mut rec = FlatRecord::new();
        rec.push(func.id(), Value::str("main"));
        let out = write_flamegraph(&rows_of(&[rec]), &[func], &time);
        assert!(out.is_empty());
    }

    #[test]
    fn pathless_records_get_a_root_frame() {
        let store = AttributeStore::new();
        let func = store.create_simple("function", ValueType::Str);
        let time = store.create_simple("time", ValueType::Float);
        let mut rec = FlatRecord::new();
        rec.push(time.id(), Value::Float(7.0));
        let out = write_flamegraph(&rows_of(&[rec]), &[func], &time);
        assert_eq!(out, "(root) 7\n");
    }
}
