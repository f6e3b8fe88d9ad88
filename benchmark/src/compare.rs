//! `cali-bench compare A.json B.json`: the regression check every
//! later change is judged with.
//!
//! Per workload × end-to-end metric: both medians, the ratio with its
//! base, and a verdict against the metric's own bound —
//! `ok` (B's median is no worse than A's by more than the bound),
//! `regressed` (it is), or `unresolved` (the run-to-run spread of
//! either side is wider than the bound, so the medians cannot settle
//! it — unless every run of B reads better than every run of A).
//! Exact per-layer counts are compared for equality.

use std::collections::BTreeMap;

use crate::report::RunResult;
use crate::spec::{self, MetricDef};
use crate::stats::{median, spread};

/// Per-layer metrics that must repeat exactly between two sets of runs
/// of one commit.
const EXACT: [&str; 12] = [
    "format.text_bytes_per_rec",
    "format.v1_bytes_per_rec",
    "format.v2_bytes_per_rec",
    "format.text_decode_allocs_per_rec",
    "format.v2_decode_allocs_per_rec",
    "format.flatten_allocs_per_rec",
    "query.add_allocs_per_rec",
    "mpisim.sched_events",
    "mpisim.virtual_makespan_ns",
    "runtime.outputs_per_rank",
    "served.warm_rows",
    "format.v2_blocks_skipped_share",
];

/// The verdict on one workload × metric pairing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound.
    Ok,
    /// Worse than the bound allows.
    Regressed,
    /// Spread wider than the bound; the medians cannot settle it.
    Unresolved,
}

/// Judge `b` against `a` for one metric.
pub fn judge(def: &MetricDef, a: &[f64], b: &[f64]) -> Verdict {
    let bound = def.bound.expect("only end-to-end metrics are judged");
    let (ma, mb) = (median(a), median(b));
    // Worsening as a share of the base's median, positive = worse.
    let worse = if def.higher_is_better {
        (ma - mb) / ma
    } else {
        (mb - ma) / ma
    };
    let noisy = [a, b].iter().any(|s| s.len() >= 2 && spread(s) > bound);
    let better = |x: f64, y: f64| if def.higher_is_better { x > y } else { x < y };
    let b_always_better = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
    if noisy && !b_always_better {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

type Samples = BTreeMap<(String, String), Vec<f64>>;

/// `(workload, metric) → values` over the runs of one mode; exact
/// counts are only comparable for equal seeds, so traced runs key on
/// the seed too.
fn collect(runs: &[RunResult], trace: bool) -> Samples {
    let mut out = Samples::new();
    for run in runs.iter().filter(|r| r.trace == trace) {
        let workload = if trace {
            format!("{} seed {}", run.workload, run.seed)
        } else {
            run.workload.clone()
        };
        for m in &run.metrics {
            out.entry((workload.clone(), m.name.clone()))
                .or_default()
                .push(m.value);
        }
    }
    out
}

/// Render the comparison; the flag is true when nothing regressed,
/// nothing exact differs, and both sides were correct throughout.
pub fn compare(a: &[RunResult], b: &[RunResult]) -> (String, bool) {
    let mut out = String::new();
    let mut pass = true;
    for (label, runs) in [("A", a), ("B", b)] {
        let bad = runs.iter().filter(|r| !r.correct || r.failed > 0).count();
        if bad > 0 {
            out.push_str(&format!(
                "{label}: {bad} run(s) with failed operations or wrong output\n"
            ));
            pass = false;
        }
    }
    out.push_str(&format!(
        "{:<8} {:<22} {:>14} {:>14} {:>8} {:>7} {:>7} {:>6}  verdict\n",
        "workload", "metric", "A median", "B median", "B/A", "A iqr", "B iqr", "bound"
    ));
    let (ea, eb) = (collect(a, false), collect(b, false));
    for ((workload, metric), va) in &ea {
        let (Some(vb), Some(def)) = (
            eb.get(&(workload.clone(), metric.clone())),
            spec::find(metric),
        ) else {
            continue;
        };
        let verdict = judge(def, va, vb);
        pass &= verdict != Verdict::Regressed;
        let iqr = |v: &[f64]| {
            if v.len() >= 2 {
                format!("{:.1}%", 100.0 * spread(v))
            } else {
                "-".to_string()
            }
        };
        out.push_str(&format!(
            "{workload:<8} {metric:<22} {:>14.4} {:>14.4} {:>8.4} {:>7} {:>7} {:>6}  {}\n",
            median(va),
            median(vb),
            median(vb) / median(va),
            iqr(va),
            iqr(vb),
            def.bound.unwrap_or(0.0),
            match verdict {
                Verdict::Ok => "ok",
                Verdict::Regressed => "regressed",
                Verdict::Unresolved => "unresolved",
            }
        ));
    }
    let (la, lb) = (collect(a, true), collect(b, true));
    let (mut exact, mut differing) = (0, 0);
    for ((workload, metric), va) in &la {
        let Some(vb) = lb.get(&(workload.clone(), metric.clone())) else {
            continue;
        };
        if EXACT.contains(&metric.as_str()) {
            exact += 1;
            if va.iter().chain(vb).any(|v| *v != va[0]) {
                differing += 1;
                out.push_str(&format!(
                    "{workload:<16} {metric:<36} {:>16} {:>16}  DIFFERS\n",
                    va[0], vb[0]
                ));
            }
        }
    }
    out.push_str(&format!(
        "exact per-layer counts: {exact} compared, {differing} differ\n"
    ));
    (out, pass && differing == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(higher_is_better: bool) -> MetricDef {
        MetricDef {
            name: "m",
            unit: "s",
            higher_is_better,
            bound: Some(0.10),
        }
    }

    #[test]
    fn verdicts_follow_bound_direction_and_spread() {
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        let slower = [120.0, 121.0, 119.0, 120.5, 119.5];
        let slightly = [105.0, 106.0, 104.0, 105.5, 104.5];
        // Lower is better: +20% regresses, +5% is within the bound.
        assert_eq!(judge(&def(false), &steady, &slower), Verdict::Regressed);
        assert_eq!(judge(&def(false), &steady, &slightly), Verdict::Ok);
        assert_eq!(judge(&def(false), &slower, &steady), Verdict::Ok);
        // Higher is better: the same numbers read the other way round.
        assert_eq!(judge(&def(true), &slower, &steady), Verdict::Regressed);
        assert_eq!(judge(&def(true), &steady, &slower), Verdict::Ok);
        // A spread wider than the bound leaves the pairing unresolved…
        let noisy = [80.0, 100.0, 125.0, 90.0, 115.0];
        assert_eq!(judge(&def(false), &noisy, &slightly), Verdict::Unresolved);
        // …unless every run of B beats every run of A.
        let fast = [50.0, 51.0, 49.0];
        assert_eq!(judge(&def(false), &noisy, &fast), Verdict::Ok);
    }
}
