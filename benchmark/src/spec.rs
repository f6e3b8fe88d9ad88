//! The metrics this benchmark reports — names, units, direction and,
//! for the end-to-end ones, the regression bound. `BENCHMARK.json` at
//! the repository root states the same lists; a test keeps them equal.

/// One reported metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Name, as printed and as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `true` when a larger value is better.
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression (end-to-end only).
    pub bound: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, higher_is_better: bool) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better,
        bound: None,
    }
}

/// The workloads and why each exists.
pub const WORKLOADS: [(&str, &str); 5] = [
    ("scan", "85 groups make the aggregator trivial, so format decode and row flattening do nearly all the work; full corpus for cali-query per encoding, other stages reduced"),
    ("wide", "thousands of groups, one group per record, and a selective WHERE: the same aggregator is query-bound and decode is the minority or bypassed; other stages reduced"),
    ("served", "cali-served closed-loop ingest, warm queries, kill -9 and journal replay get most of the run: the only path with no numbers before; other stages reduced"),
    ("online", "CleverLeaf in-process on a virtual clock at 25 timesteps: per-snapshot cost of runtime and data with no file path involved; other stages reduced"),
    ("reduce", "mpi-caliquery event engine at 16384 mostly-empty ranks and 512 dense ranks: scheduler-bound and merge-bound tree reduction; other stages reduced"),
];

/// The end-to-end metrics: black-box wall-clock numbers a user of the
/// tools would see, each a median over the run's rounds, tracing off,
/// on one CPU (see [`crate::affinity`]) at reference machine speed (see
/// [`crate::calib`]). Every bound is the contract's maximum: on the
/// shared box the run-to-run spread of one commit is 5–15 % in a calm
/// stretch, and a bound below it gates noise.
pub const END_TO_END: [MetricDef; 14] = [
    e2e("scan_text_rec_per_s", "rec/s", true, 0.25),
    e2e("scan_v2_rec_per_s", "rec/s", true, 0.25),
    e2e("wide_rec_per_s", "rec/s", true, 0.25),
    e2e("distinct_rec_per_s", "rec/s", true, 0.25),
    e2e("select_ms", "ms", false, 0.25),
    e2e("ingest_rec_per_s", "rec/s", true, 0.25),
    e2e("ack_p50_us", "us", false, 0.25),
    e2e("query_p50_ms", "ms", false, 0.25),
    e2e("replay_s", "s", false, 0.25),
    e2e("snapshot_trace_ns", "ns", false, 0.25),
    e2e("snapshot_agg_ns", "ns", false, 0.25),
    e2e("reduce_16k_s", "s", false, 0.25),
    e2e("reduce_dense_s", "s", false, 0.25),
    e2e("setup_s", "s", false, 0.25),
];

/// The per-layer metrics of the traced run; layers are the crate names.
pub const PER_LAYER: [MetricDef; 60] = [
    layer("format.text_decode_ns_per_rec", "ns/rec", false),
    layer("format.text_decode_allocs_per_rec", "allocs/rec", false),
    layer("format.v1_decode_ns_per_rec", "ns/rec", false),
    layer("format.v2_decode_ns_per_rec", "ns/rec", false),
    layer("format.v2_decode_allocs_per_rec", "allocs/rec", false),
    layer("format.flatten_ns_per_rec", "ns/rec", false),
    layer("format.flatten_allocs_per_rec", "allocs/rec", false),
    layer("format.v2_blocks_skipped_share", "share", true),
    layer("format.text_bytes_per_rec", "B/rec", false),
    layer("format.v1_bytes_per_rec", "B/rec", false),
    layer("format.v2_bytes_per_rec", "B/rec", false),
    layer("format.text_encode_ns_per_rec", "ns/rec", false),
    layer("format.v2_encode_ns_per_rec", "ns/rec", false),
    layer("format.journal_append_ns_per_rec", "ns/rec", false),
    layer("format.journal_recover_ns_per_rec", "ns/rec", false),
    layer("query.parse_us", "us", false),
    layer("query.process_ns_per_rec", "ns/rec", false),
    layer("query.add_few_ns_per_rec", "ns/rec", false),
    layer("query.add_wide_ns_per_rec", "ns/rec", false),
    layer("query.add_distinct_ns_per_rec", "ns/rec", false),
    layer("query.add_allocs_per_rec", "allocs/rec", false),
    layer("query.reducer_update_ns", "ns", false),
    layer("query.merge_ns_per_group", "ns/group", false),
    layer("query.flush_ns_per_group", "ns/group", false),
    layer("query.render_ns_per_row", "ns/row", false),
    layer("query.parallel_worker_max_s", "s", false),
    layer("query.parallel_merge_s", "s", false),
    layer("data.tree_get_child_ns", "ns", false),
    layer("runtime.begin_end_ns", "ns", false),
    layer("runtime.snapshot_b_ns", "ns", false),
    layer("runtime.snapshot_c_ns", "ns", false),
    layer("runtime.snapshot_journal_ns", "ns", false),
    layer("runtime.flush_ns_per_group", "ns/group", false),
    layer("runtime.outputs_per_rank", "count", false),
    layer("mpisim.sched_events", "count", false),
    layer("mpisim.virtual_makespan_ns", "ns", false),
    layer("mpisim.max_queue_depth", "count", false),
    layer("mpisim.sched_ns_per_event", "ns/event", false),
    layer("mpisim.reduce_synth_16k_s", "s", false),
    layer("mpisim.threads_32_s", "s", false),
    layer("served.process_batch_b64_us", "us", false),
    layer("served.process_batch_b1024_us", "us", false),
    layer("served.ingest_b1024_rec_per_s", "rec/s", true),
    layer("served.ack_p99_us", "us", false),
    layer("served.busy_share", "share", false),
    layer("served.query_p90_ms", "ms", false),
    layer("served.query_cold_ms", "ms", false),
    layer("served.query_mixed_p50_ms", "ms", false),
    layer("served.warm_rows", "count", false),
    layer("served.journal_bytes_per_rec", "B/rec", false),
    layer("served.replay_ns_per_rec", "ns/rec", false),
    layer("served.command_parse_ns", "ns", false),
    layer("served.http_parse_ns", "ns", false),
    layer("cli.startup_ms", "ms", false),
    layer("cli.peak_rss_scan_mb", "MB", false),
    layer("cli.peak_rss_distinct_mb", "MB", false),
    layer("cli.scan_v2_t2_rec_per_s", "rec/s", true),
    layer("cli.wide_t2_rec_per_s", "rec/s", true),
    layer("trace_overhead_share", "share", false),
    layer("trace.scan_layers_share", "share", true),
];

/// Look a metric up by name in either list.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(&PER_LAYER).find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use caliper_format::{parse_json, Json};

    fn text(j: &Json, key: &str) -> String {
        match j.get(key) {
            Some(Json::Str(s)) => s.clone(),
            other => panic!("{key}: expected a string, got {other:?}"),
        }
    }

    fn items(j: &Json, key: &str) -> Vec<Json> {
        match j.get(key) {
            Some(Json::Array(a)) => a.clone(),
            other => panic!("{key}: expected an array, got {other:?}"),
        }
    }

    fn check_list(listed: &[Json], defs: &[MetricDef], keys: &[&str]) {
        assert_eq!(listed.len(), defs.len());
        for (j, def) in listed.iter().zip(defs) {
            assert_eq!(j.keys(), keys, "{}", def.name);
            assert_eq!(text(j, "name"), def.name);
            assert_eq!(text(j, "unit"), def.unit, "{}", def.name);
            let better = if def.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            assert_eq!(text(j, "better"), better, "{}", def.name);
            assert_eq!(
                j.get("bound").and_then(Json::as_num),
                def.bound,
                "{}",
                def.name
            );
        }
    }

    #[test]
    fn benchmark_json_states_the_same_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = parse_json(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(
            json.keys(),
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let workloads = items(&json, "workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (j, (name, why)) in workloads.iter().zip(WORKLOADS) {
            assert_eq!(j.keys(), ["name", "why"]);
            assert_eq!(
                (text(j, "name"), text(j, "why")),
                (name.to_string(), why.to_string())
            );
            assert!(why.len() <= 200 && !why.contains('\n'), "{name}");
        }
        check_list(
            &items(&json, "end_to_end"),
            &END_TO_END,
            &["name", "unit", "better", "bound"],
        );
        check_list(
            &items(&json, "per_layer"),
            &PER_LAYER,
            &["name", "unit", "better"],
        );
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok = |s: &str, extra: &str, max: usize| {
            !s.is_empty()
                && s.len() <= max
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(
                ok(m.name, "_.-", 64) && m.name.starts_with(|c: char| c.is_ascii_alphanumeric())
            );
            assert!(ok(m.unit, "_/%.-", 16), "{}", m.unit);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
            assert!(m.bound.is_none_or(|b| b > 0.0 && b <= 0.25));
        }
        assert!(find("setup_s").is_some_and(|m| m.unit == "s" && !m.higher_is_better));
    }
}
