//! Aligned text-table formatter — renders aggregation results like the
//! `function loop.iteration count sum#time` table in §III-B of the paper.

use std::fmt::Write;

use caliper_data::{Attribute, Value};

use crate::cali::{push_int, push_u64};
use crate::rows::{BlockRows, Picker};

/// Render rows as a table with space-aligned columns, one per attribute
/// in `columns`, optionally without the header row (`FORMAT
/// table(noheader)`; column widths still account for the headers, so
/// output aligns with and without them). A cell is its value as
/// `write_value` writes it, a nested attribute's `/`-joined path as
/// text, and empty where the row has no value. A column is
/// right-aligned while every non-empty cell in it parses as a number,
/// left-aligned otherwise; trailing spaces are trimmed from each line.
pub fn write_table(rows: &BlockRows, columns: &[Attribute], header: bool) -> String {
    let ncols = columns.len();
    let mut widths: Vec<usize> = columns.iter().map(|a| a.name().chars().count()).collect();
    let mut numeric = vec![true; ncols];
    // Every cell's text, one after the other, and where each ends.
    let (mut text, mut ends) = (String::new(), Vec::with_capacity(rows.len() * ncols));
    let mut picker = Picker::new(rows, columns.iter().map(Attribute::id));
    for i in 0..rows.len() {
        picker.pick(rows, i);
        for j in 0..ncols {
            let (start, slot) = (text.len(), picker.slot(j));
            // A number's text parses as one, whatever it is.
            let number = match picker.found(slot) {
                (0, ..) => true,
                (1, k, _) => {
                    let value = rows.value(rows.cell_at(k));
                    write_value(&mut text, &value);
                    matches!(*value, Value::Int(_) | Value::UInt(_) | Value::Float(_))
                }
                _ => {
                    rows.write_path(&mut text, picker.cells(rows, slot));
                    false
                }
            };
            let cell = &text[start..];
            if numeric[j] && !number && !cell.is_empty() && cell.parse::<f64>().is_err() {
                numeric[j] = false;
            }
            widths[j] = widths[j].max(cell.chars().count());
            ends.push(text.len());
        }
    }

    let mut out = String::new();
    let mut write_row = |cells: &mut dyn Iterator<Item = &str>| {
        for (j, cell) in cells.enumerate() {
            if j > 0 {
                out.push(' ');
            }
            let pad = widths[j].saturating_sub(cell.chars().count());
            if numeric[j] {
                out.extend(std::iter::repeat_n(' ', pad));
                out.push_str(cell);
            } else {
                out.push_str(cell);
                if j + 1 < ncols {
                    out.extend(std::iter::repeat_n(' ', pad));
                }
            }
        }
        while out.ends_with(' ') {
            out.pop();
        }
        out.push('\n');
    };
    if header {
        write_row(&mut columns.iter().map(Attribute::name));
    }
    let mut start = 0;
    for i in 0..rows.len() {
        write_row(&mut ends[i * ncols..(i + 1) * ncols].iter().map(|&end| {
            let cell = &text[start..end];
            start = end;
            cell
        }));
    }
    out
}

/// Append one value's cell text to `out`: a float rounded to six
/// decimals to keep tables readable, an integer (or an integral float)
/// without a decimal point. The text is `write!`'s for that format;
/// numbers are written without the formatting machinery, which costs
/// more than the rest of a CSV render of many groups.
pub(crate) fn write_value(out: &mut String, value: &Value) {
    match value {
        Value::Str(s) => out.push_str(s),
        Value::Int(i) => push_int(out, i.unsigned_abs(), *i < 0),
        Value::UInt(u) => push_u64(out, *u),
        Value::Float(f) if f.fract() == 0.0 && f.abs() < 1e15 => {
            let i = *f as i64;
            push_int(out, i.unsigned_abs(), i < 0)
        }
        Value::Float(f) => push_fixed6(out, *f),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
    }
}

/// `f` as `format!("{f:.6}")` writes it: the exact binary value rounded
/// to six decimals, ties to even. Worked out in integers where the
/// value's integer part fits 64 bits; the formatter writes the rest.
fn push_fixed6(out: &mut String, f: f64) {
    const SCALE: u128 = 1_000_000;
    let bits = f.to_bits();
    let (exponent, fraction) = (((bits >> 52) & 0x7ff) as i32, bits & ((1 << 52) - 1));
    // f = mantissa * 2^power
    let (mantissa, power) = match exponent {
        0 => (fraction, -1074),
        _ => (fraction | 1 << 52, exponent - 1075),
    };
    let (int, micros) = match power {
        // Infinite, NaN, or an integer of more than 63 bits.
        _ if exponent == 0x7ff || power > 10 => {
            write!(out, "{f:.6}").expect("writing to a String");
            return;
        }
        0.. => (mantissa << power, 0),
        // Under 2^-57: rounds to zero.
        ..-110 => (0, 0),
        _ => {
            let shift = -power as u32;
            let int = if shift < 64 { mantissa >> shift } else { 0 };
            let below = u128::from(mantissa) & ((1u128 << shift) - 1);
            let scaled = below * SCALE;
            let (mut micros, rest) = (scaled >> shift, scaled & ((1u128 << shift) - 1));
            let half = 1u128 << (shift - 1);
            if rest > half || (rest == half && micros % 2 == 1) {
                micros += 1;
            }
            if micros == SCALE {
                (int + 1, 0)
            } else {
                (int, micros as u64)
            }
        }
    };
    push_int(out, int, bits >> 63 == 1);
    out.push('.');
    let mut digits = [b'0'; 6];
    let mut rest = micros;
    for digit in digits.iter_mut().rev() {
        *digit = b'0' + (rest % 10) as u8;
        rest /= 10;
    }
    out.push_str(std::str::from_utf8(&digits).expect("ASCII digits"));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rows::tests::rows_of;
    use caliper_data::{AttributeStore, FlatRecord, ValueType};

    /// Rows of (function, count) pairs under those two columns.
    fn render(cells: &[(&str, u64)], header: bool) -> String {
        let store = AttributeStore::new();
        let func = store.create_simple("function", ValueType::Str);
        let count = store.create_simple("count", ValueType::UInt);
        let records: Vec<FlatRecord> = cells
            .iter()
            .map(|(f, n)| {
                let mut rec = FlatRecord::new();
                rec.push(func.id(), Value::str(*f));
                rec.push(count.id(), Value::UInt(*n));
                rec
            })
            .collect();
        write_table(&rows_of(&records), &[func, count], header)
    }

    /// A value's cell text.
    fn text(value: Value) -> String {
        let mut out = String::new();
        write_value(&mut out, &value);
        out
    }

    #[test]
    fn renders_aligned_columns() {
        let out = render(&[("foo", 2), ("barbaz", 40)], true);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3);
        // count column is right-aligned
        assert!(lines[1].ends_with(" 2"));
        assert!(lines[2].ends_with("40"));
        // function column is left-aligned
        assert!(lines[1].starts_with("foo "));
    }

    #[test]
    fn missing_cells_render_empty_and_trailing_spaces_go() {
        let store = AttributeStore::new();
        let a = store.create_simple("a", ValueType::Str);
        let b = store.create_simple("b", ValueType::Int);
        let mut rec = FlatRecord::new();
        rec.push(b.id(), Value::Int(1));
        let mut other = FlatRecord::new();
        other.push(a.id(), Value::str("x"));
        let out = write_table(&rows_of(&[rec, other]), &[a, b], true);
        assert_eq!(out, "a b\n  1\nx\n");
    }

    #[test]
    fn header_can_be_dropped() {
        let with = render(&[("foo", 2)], true);
        let without = render(&[("foo", 2)], false);
        assert!(with.starts_with("function"));
        assert!(!without.contains("function"));
        assert_eq!(with.lines().last(), without.lines().last());
    }

    #[test]
    fn format_value_trims_integral_floats() {
        assert_eq!(text(Value::Float(10.0)), "10");
        assert_eq!(text(Value::Float(2.5)), "2.500000");
        assert_eq!(text(Value::Int(-3)), "-3");
        assert_eq!(text(Value::str("x")), "x");
    }

    #[test]
    fn numbers_write_what_the_formatter_writes() {
        let mut floats = vec![
            0.0, -0.0, 0.25, 0.125, 2.5e-6, 5e-7, 1.5e-6, 1e-7, 0.9999995, 1.0000005, 0.5e-6,
            123456.0000005, 1e15, 1e15 + 0.5, 9.2e18, 1e19, 1e300, 5e-324, f64::MAX,
            f64::INFINITY, f64::NEG_INFINITY, f64::NAN, 2f64.powi(52) + 0.5, 1.0 / 3.0,
        ];
        // Ties at the sixth decimal: odd multiples of 2^-7 = 0.0078125.
        floats.extend((-400..400).map(|k| (2 * k + 1) as f64 / 128.0));
        // Values of every magnitude.
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for _ in 0..20_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let f = f64::from_bits(x);
            floats.push(f);
            floats.push((x % 1_000_000_000) as f64 / 1e6);
            floats.push((x % 1_000_000) as f64 / 2e6 - 0.25);
            floats.push((x >> 11) as f64 * 2f64.powi(-((x % 80) as i32)));
        }
        for f in floats {
            let out = text(Value::Float(f));
            let want = if f.fract() == 0.0 && f.abs() < 1e15 {
                format!("{}", f as i64)
            } else {
                format!("{f:.6}")
            };
            assert_eq!(out, want, "{f:e}");
        }
        for i in [0, 1, -1, 9, 10, -10, i64::MIN, i64::MAX, 1234567890] {
            assert_eq!(text(Value::Int(i)), i.to_string());
        }
        for u in [0, 7, 10, u64::MAX] {
            assert_eq!(text(Value::UInt(u)), u.to_string());
        }
        assert_eq!(text(Value::Bool(true)), "true");
    }

    #[test]
    fn nested_cells_are_path_strings() {
        let store = AttributeStore::new();
        let func = store.create_simple("function", ValueType::Str);
        let count = store.create_simple("count", ValueType::UInt);
        let mut rec = FlatRecord::new();
        rec.push(func.id(), Value::str("main"));
        rec.push(func.id(), Value::str("foo"));
        rec.push(count.id(), Value::UInt(3));
        let out = write_table(&rows_of(&[rec]), &[func, count], true);
        assert!(out.contains("main/foo"));
        assert!(out.contains('3'));
    }
}
