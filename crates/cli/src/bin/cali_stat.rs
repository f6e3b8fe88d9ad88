//! `cali-stat` — inspect Caliper data files: record and attribute
//! statistics, context-tree shape, and encoding footprint.
//!
//! ```text
//! cali-stat INPUT.cali...
//! ```

use std::collections::HashMap;
use std::process::ExitCode;

use cali_cli::{parse_args, read_files};
use caliper_data::ValueType;

const USAGE: &str = "usage: cali-stat INPUT.cali...

Prints dataset statistics: per-attribute occurrence counts and value
ranges, snapshot record shapes, context-tree size, and the stream
footprint in the text and binary encodings.

Options:
  -h, --help   show this help
";

struct AttrStats {
    occurrences: u64,
    numeric_min: f64,
    numeric_max: f64,
    numeric_sum: f64,
    numeric_n: u64,
    distinct: std::collections::HashSet<String>,
}

impl Default for AttrStats {
    fn default() -> AttrStats {
        AttrStats {
            occurrences: 0,
            numeric_min: f64::INFINITY,
            numeric_max: f64::NEG_INFINITY,
            numeric_sum: 0.0,
            numeric_n: 0,
            distinct: Default::default(),
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1), &[], &["h", "help"]) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("cali-stat: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    if args.has(&["h", "help"]) {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    if args.positional.is_empty() {
        eprintln!("cali-stat: no input files\n{USAGE}");
        return ExitCode::FAILURE;
    }

    let ds = match read_files(&args.positional) {
        Ok(ds) => ds,
        Err(e) => {
            eprintln!("cali-stat: {e}");
            return ExitCode::FAILURE;
        }
    };

    // Per-attribute statistics over the expanded records.
    const DISTINCT_CAP: usize = 10_000;
    let mut stats: HashMap<u32, AttrStats> = HashMap::new();
    let mut entries_total = 0u64;
    let mut expanded_total = 0u64;
    for (compressed, flat) in ds.records.iter().map(|r| (r.len(), r.unpack(&ds.tree))) {
        entries_total += compressed as u64;
        expanded_total += flat.len() as u64;
        for (attr, value) in flat.pairs() {
            let s = stats.entry(*attr).or_default();
            s.occurrences += 1;
            if let Some(v) = match value {
                caliper_data::Value::Str(_) => None,
                other => other.to_f64(),
            } {
                s.numeric_min = s.numeric_min.min(v);
                s.numeric_max = s.numeric_max.max(v);
                s.numeric_sum += v;
                s.numeric_n += 1;
            }
            if s.distinct.len() < DISTINCT_CAP {
                s.distinct.insert(value.to_string());
            }
        }
    }

    println!("files:            {}", args.positional.len());
    println!("snapshot records: {}", ds.records.len());
    println!("global records:   {}", ds.globals.len());
    println!("attributes:       {}", ds.store.len());
    println!("context tree:     {} nodes", ds.tree.len());
    if !ds.records.is_empty() {
        println!(
            "record size:      {:.2} entries compressed / {:.2} expanded (compression {:.1}x)",
            entries_total as f64 / ds.records.len() as f64,
            expanded_total as f64 / ds.records.len() as f64,
            expanded_total.max(1) as f64 / entries_total.max(1) as f64
        );
    }
    let text_size = caliper_format::cali::to_bytes(&ds).len();
    let binary_size = caliper_format::binary::to_binary(&ds).len();
    println!(
        "stream footprint: {text_size} bytes text / {binary_size} bytes binary ({:.1}x)",
        text_size as f64 / binary_size.max(1) as f64
    );
    println!();

    // Attribute table, sorted by occurrence count.
    let mut attrs = ds.store.all();
    attrs
        .sort_by_key(|a| std::cmp::Reverse(stats.get(&a.id()).map(|s| s.occurrences).unwrap_or(0)));
    println!(
        "{:<28} {:>8} {:>9} {:>12} {:>12} {:>12}  properties",
        "attribute", "type", "occurs", "min", "mean", "max"
    );
    for attr in attrs {
        let s = stats.get(&attr.id());
        let occurs = s.map(|s| s.occurrences).unwrap_or(0);
        let (min, mean, max) = match s {
            Some(s) if s.numeric_n > 0 && attr.value_type().is_numeric() => (
                format!("{:.3}", s.numeric_min),
                format!("{:.3}", s.numeric_sum / s.numeric_n as f64),
                format!("{:.3}", s.numeric_max),
            ),
            Some(s) if attr.value_type() == ValueType::Str => {
                let d = s.distinct.len();
                let label = if d >= DISTINCT_CAP {
                    format!(">{d}")
                } else {
                    d.to_string()
                };
                ("-".into(), format!("{label} distinct"), "-".into())
            }
            _ => ("-".into(), "-".into(), "-".into()),
        };
        println!(
            "{:<28} {:>8} {:>9} {:>12} {:>12} {:>12}  {}",
            attr.name(),
            attr.value_type().name(),
            occurs,
            min,
            mean,
            max,
            attr.properties().encode()
        );
    }
    ExitCode::SUCCESS
}
