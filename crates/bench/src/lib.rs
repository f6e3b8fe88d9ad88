//! # caliper-bench — harnesses regenerating the paper's tables & figures
//!
//! One binary per evaluation artifact:
//!
//! | binary   | paper artifact | content |
//! |----------|----------------|---------|
//! | `table1` | Table I        | snapshots & output records per config |
//! | `fig3`   | Figure 3       | on-line aggregation overhead (wall-clock) |
//! | `fig4`   | Figure 4       | cross-process aggregation weak scaling |
//! | `fig5`   | Figure 5       | kernel profile (sampled) |
//! | `fig6`   | Figure 6       | MPI function profile |
//! | `fig7`   | Figure 7       | load balance across ranks |
//! | `fig8`   | Figure 8       | AMR level time per timestep |
//! | `fig9`   | Figure 9       | AMR level time per MPI rank |
//!
//! One more, `ablations`, times the five either/or design questions of
//! DESIGN.md §4 (the design in use against the alternative it decided
//! against); everything else that is timed is a row of `cali-bench`
//! (`benchmark/`).
//!
//! All binaries accept `--quick` for a reduced problem size and write
//! CSV to stdout with commentary on stderr, so their output can be
//! piped into plotting tools directly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::Arc;

use caliper_data::AttributeStore;
use caliper_format::{CaliReader, Dataset, ReadPolicy, ReadReport};
use caliper_query::QueryResult;

/// The paper's three aggregation schemes (§V-B), as `aggregate.key`
/// config values over the seven CleverLeaf attributes.
pub mod schemes {
    /// Scheme A: all attributes except the iteration number.
    pub const A: &str = "function,annotation,kernel,amr.level,mpi.function,mpi.rank";
    /// Scheme B: only two attributes.
    pub const B: &str = "kernel,mpi.function";
    /// Scheme C: all attributes including the main loop iteration.
    pub const C: &str =
        "function,annotation,kernel,amr.level,iteration#mainloop,mpi.function,mpi.rank";
    /// The aggregation attributes/operators used for all schemes.
    pub const OPS: &str = "count,sum(time.duration),min(time.duration),max(time.duration)";
}

/// Merge per-rank datasets into one, as feeding all per-process `.cali`
/// files to the query tool would: one dictionary, and the snapshots as
/// blocks of typed columns over one string table (`Dataset::blocks`), so
/// that a query folds them as the tools fold files.
pub fn merge_datasets(datasets: &[Dataset]) -> Dataset {
    let mut reader = CaliReader::new();
    let mut blocks = Vec::new();
    for ds in datasets {
        let bytes = caliper_format::cali::to_bytes(ds);
        reader
            .scan_stream(
                &bytes[..],
                ReadPolicy::Strict,
                &mut ReadReport::default(),
                None,
                &mut |_, _, block| blocks.push(block.clone()),
            )
            .expect("in-memory cali roundtrip");
    }
    let strings = Arc::new(reader.strings().clone());
    let mut merged = reader.finish();
    merged.blocks = blocks.into_iter().map(|block| (Arc::clone(&strings), block)).collect();
    merged
}

/// Extract `(key column, value column)` pairs from a query result, for
/// CSV emission. Missing cells are skipped.
pub fn result_pairs(result: &QueryResult, key: &str, value: &str) -> Vec<(String, f64)> {
    let store: &Arc<AttributeStore> = &result.store;
    let (Some(k), Some(v)) = (store.find(key), store.find(value)) else {
        return Vec::new();
    };
    result
        .records
        .iter()
        .filter_map(|rec| {
            // Records where the key attribute was not set still carry
            // aggregation results (the paper's tables include such
            // entries); render their key as the empty string.
            let key = rec
                .path_string(k.id())
                .map(|v| v.to_string())
                .unwrap_or_default();
            let value = rec.get(v.id())?.to_f64()?;
            Some((key, value))
        })
        .collect()
}

/// Render a horizontal ASCII bar chart (for quick eyeballing of the
/// figure shapes in a terminal).
pub fn bar_chart(rows: &[(String, f64)], width: usize) -> String {
    let max = rows.iter().map(|(_, v)| *v).fold(0.0, f64::max);
    let label_width = rows.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
    let mut out = String::new();
    for (label, value) in rows {
        let bar = if max > 0.0 {
            ((value / max) * width as f64).round() as usize
        } else {
            0
        };
        out.push_str(&format!(
            "{label:<label_width$} |{} {value:.2}\n",
            "#".repeat(bar)
        ));
    }
    out
}

/// Basic statistics over a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stats {
    /// Arithmetic mean.
    pub mean: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

/// Median of a sample (0 for empty input).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// Compute mean/min/max of a sample (empty input yields zeros).
pub fn stats(samples: &[f64]) -> Stats {
    if samples.is_empty() {
        return Stats {
            mean: 0.0,
            min: 0.0,
            max: 0.0,
        };
    }
    let sum: f64 = samples.iter().sum();
    Stats {
        mean: sum / samples.len() as f64,
        min: samples.iter().copied().fold(f64::INFINITY, f64::min),
        max: samples.iter().copied().fold(f64::NEG_INFINITY, f64::max),
    }
}

/// Five-number summary (for the Figure 7 distribution plot).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FiveNum {
    /// Minimum.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Maximum.
    pub max: f64,
}

/// Compute the five-number summary of a sample.
pub fn five_num(samples: &[f64]) -> FiveNum {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let q = |p: f64| -> f64 {
        if sorted.is_empty() {
            return 0.0;
        }
        let idx = p * (sorted.len() - 1) as f64;
        let lo = idx.floor() as usize;
        let hi = idx.ceil() as usize;
        let frac = idx - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    };
    FiveNum {
        min: q(0.0),
        q1: q(0.25),
        median: q(0.5),
        q3: q(0.75),
        max: q(1.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_basics() {
        let s = stats(&[1.0, 2.0, 3.0]);
        assert_eq!(s.mean, 2.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
        assert_eq!(stats(&[]).mean, 0.0);
    }

    #[test]
    fn five_num_quartiles() {
        let f = five_num(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!(f.min, 1.0);
        assert_eq!(f.median, 3.0);
        assert_eq!(f.max, 5.0);
        assert_eq!(f.q1, 2.0);
        assert_eq!(f.q3, 4.0);
    }

    #[test]
    fn bar_chart_scales() {
        let chart = bar_chart(
            &[("a".to_string(), 10.0), ("bb".to_string(), 5.0)],
            10,
        );
        let lines: Vec<&str> = chart.lines().collect();
        assert!(lines[0].contains("##########"));
        assert!(lines[1].contains("#####"));
        assert!(!lines[1].contains("######"));
    }

    #[test]
    fn merge_datasets_combines_records() {
        use caliper_data::{RecordBuilder, SnapshotRecord};
        let make = |n: i64| {
            let mut ds = Dataset::new();
            let rec = RecordBuilder::new(&ds.store).with("x", n).build();
            ds.push(SnapshotRecord::from(&rec));
            ds
        };
        let merged = merge_datasets(&[make(1), make(2)]);
        assert_eq!(merged.len(), 2);
        assert!(merged.records.is_empty(), "the snapshots are blocks");
        assert_eq!(merged.store.len(), 1);
    }
}
