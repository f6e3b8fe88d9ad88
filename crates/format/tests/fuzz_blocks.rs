//! Seeded never-panic loops over the decoders: text `.cali`, CALB v1
//! and CALB v2 files, damaged by every `caliper_faults::corrupt_bytes` mode,
//! scanned the way the tools scan them (`scan_path`, blocks handed to a
//! sink; a v1 file's records land in the dataset), strict and lenient,
//! with and without a `Pushdown`.
//!
//! A v2 file is damaged over the whole stream and over targeted regions
//! too — each block's payload, each block's head (the row count and the
//! zone maps lead the payload) and the footer — so that every decoder
//! sees damage whatever the seed budget. The budget is fixed: the loops
//! are deterministic and need no environment variable.
//!
//! Asserted for every damaged file: nothing panics; a lenient scan
//! never yields more rows than the clean file holds; a strict scan
//! returns `Ok` or `Err`, and when it is `Ok` the lenient scan yields
//! the same rows.

use std::ops::Range;
use std::path::{Path, PathBuf};

use caliper_data::{Properties, SnapshotRecord, Value, ValueType, NODE_NONE};
use caliper_faults::{corrupt_bytes, CorruptMode};
use caliper_format::{
    binary, cali, read_footer, scan_path, to_binary_v2_with, CmpOp, Dataset, Filter, Pushdown,
    ReadPolicy, V2WriteOptions,
};

const MODES: [CorruptMode; 3] = [CorruptMode::Bitflip, CorruptMode::Truncate, CorruptMode::GarbageBlock];
const RECORDS: i64 = 200;

/// Nested string paths plus one immediate of every other type, so the
/// zone maps carry every value encoding.
fn sample() -> Dataset {
    let mut ds = Dataset::new();
    let func = ds.attribute("function", ValueType::Str, Properties::NESTED);
    let iter = ds.attribute("iteration", ValueType::Int, Properties::AS_VALUE);
    let dur = ds.attribute(
        "time.duration",
        ValueType::Float,
        Properties::AS_VALUE | Properties::AGGREGATABLE,
    );
    let flag = ds.attribute("flag", ValueType::Bool, Properties::AS_VALUE);
    let count = ds.attribute("n", ValueType::UInt, Properties::AS_VALUE);
    let kernel = ds.attribute("kernel", ValueType::Str, Properties::AS_VALUE);
    ds.set_global("experiment", "fuzz");
    let main = ds.tree.get_child(NODE_NONE, func.id(), &Value::str("main"));
    let inner = ds.tree.get_child(main, func.id(), &Value::str("inner"));
    for i in 0..RECORDS {
        let mut rec = SnapshotRecord::new();
        rec.push_node(if i % 3 == 0 { main } else { inner });
        rec.push_imm(iter.id(), Value::Int(i));
        rec.push_imm(dur.id(), Value::Float(i as f64 * 0.25));
        if i % 5 != 0 {
            rec.push_imm(flag.id(), Value::Bool(i % 2 == 0));
            rec.push_imm(kernel.id(), Value::str(if i < RECORDS / 2 { "calc-dt" } else { "advec" }));
        }
        rec.push_imm(count.id(), Value::UInt(i as u64 * 1000));
        ds.push(rec);
    }
    ds
}

/// Pushdowns that skip some of the blocks of the sample and none.
fn pushdowns() -> Vec<Option<Pushdown>> {
    let mut late = Pushdown::new();
    late.push(Filter::Cmp { attr: "iteration".into(), op: CmpOp::Ge, value: Value::Int(150) });
    let mut kernel = Pushdown::new();
    kernel.push(Filter::Exists("kernel".into()));
    kernel.push(Filter::Cmp { attr: "kernel".into(), op: CmpOp::Eq, value: Value::str("advec") });
    vec![None, Some(late), Some(kernel)]
}

/// Rows `scan_path` hands to its block sink (or, for CALB v1, which
/// frames no blocks, appends to the dataset), or the error it returns.
fn scan_rows(path: &Path, policy: ReadPolicy, pushdown: Option<&Pushdown>) -> Result<usize, String> {
    let mut rows = 0;
    scan_path(path, Dataset::new(), policy, pushdown, &mut |_, _, block| rows += block.rows())
        .map(|(ds, _)| rows + ds.records.len())
        .map_err(|e| e.to_string())
}

/// Write `bytes` to `path` and scan them every way; `clean` is the
/// undamaged file's row count. Returns how many strict scans failed.
fn check(path: &Path, bytes: &[u8], clean: usize, what: &str) -> usize {
    std::fs::write(path, bytes).unwrap();
    let _ = read_footer(bytes);
    let mut failed = 0;
    for pushdown in pushdowns() {
        let pushdown = pushdown.as_ref();
        let lenient = scan_rows(path, ReadPolicy::lenient(), pushdown);
        if let Ok(rows) = lenient {
            assert!(rows <= clean, "{what}: lenient scan yields {rows} rows, the clean file {clean}");
        }
        match scan_rows(path, ReadPolicy::Strict, pushdown) {
            Ok(rows) => {
                assert!(rows <= clean, "{what}: strict scan yields {rows} rows, the clean file {clean}");
                assert_eq!(lenient, Ok(rows), "{what}: strict and lenient disagree on an intact read");
            }
            Err(_) => failed += 1,
        }
    }
    failed
}

/// `bytes` with `region` damaged by `mode` under `seed` (a truncation
/// cuts the region short and keeps what follows it).
fn damage(bytes: &[u8], region: Range<usize>, mode: CorruptMode, seed: u64) -> Vec<u8> {
    let mut part = bytes[region.clone()].to_vec();
    corrupt_bytes(mode, seed, &mut part);
    [&bytes[..region.start], &part[..], &bytes[region.end..]].concat()
}

fn fuzz(name: &str, bytes: &[u8], regions: &[(String, Range<usize>)], seeds: u64) {
    let path: PathBuf = std::env::temp_dir().join(format!("fuzz-blocks-{}-{name}", std::process::id()));
    std::fs::write(&path, bytes).unwrap();
    let clean = scan_rows(&path, ReadPolicy::Strict, None).expect("the clean file scans");
    assert_eq!(clean, RECORDS as usize);
    for (region_name, region) in regions {
        let mut failed = 0;
        for mode in MODES {
            for seed in 0..seeds {
                let damaged = damage(bytes, region.clone(), mode, seed);
                failed += check(&path, &damaged, clean, &format!("{name} {region_name} {mode:?} seed {seed}"));
            }
        }
        // The damage reaches the decoder: some of it is caught.
        assert!(failed > 0, "{name} {region_name}: no damaged scan failed");
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn damaged_text_files_never_panic_the_block_scan() {
    let bytes = cali::to_bytes(&sample());
    fuzz("text", &bytes, &[("stream".into(), 0..bytes.len())], 200);
}

#[test]
fn damaged_v1_files_never_panic_the_scan() {
    let bytes = binary::to_binary(&sample());
    fuzz("v1", &bytes, &[("stream".into(), 0..bytes.len())], 200);
}

#[test]
fn damaged_v2_blocks_zone_maps_and_footer_never_panic_the_block_scan() {
    let opts = V2WriteOptions { block_records: 48, footer: true };
    let bytes = to_binary_v2_with(&sample(), &opts);
    let blocks = read_footer(&bytes).expect("a clean footer");
    assert_eq!(blocks.len(), 5);
    // The footer record starts where the u32 before the end magic says.
    let footer_len = u32::from_le_bytes(bytes[bytes.len() - 8..bytes.len() - 4].try_into().unwrap());
    let footer = bytes.len() - 8 - footer_len as usize;
    let mut regions = vec![("stream".to_string(), 0..bytes.len()), ("footer".into(), footer..bytes.len())];
    for (i, block) in blocks.iter().enumerate() {
        let start = block.offset as usize;
        let end = blocks.get(i + 1).map_or(footer, |next| next.offset as usize);
        regions.push((format!("block {i}"), start..end));
        regions.push((format!("block {i} head"), start..(start + 24).min(end)));
    }
    fuzz("v2", &bytes, &regions, 24);
}
