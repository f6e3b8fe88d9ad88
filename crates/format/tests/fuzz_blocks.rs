//! Seeded never-panic loops over the decoders: text `.cali`, CALB v1
//! and CALB v2 files, damaged by every `caliper_faults::corrupt_bytes` mode,
//! scanned the way the tools scan them (`scan_path`, blocks handed to a
//! sink; a v1 file's records land in the dataset), strict and lenient,
//! with and without a `Pushdown`.
//!
//! A v2 file is damaged over the whole stream and over targeted regions
//! too — each block's payload, each block's head (the row count and the
//! zone maps lead the payload), each block's shape table, run list, node
//! references, string dictionary and string-index column, and the
//! footer — so that every decoder sees damage whatever the seed budget.
//! The budget is fixed: the loops are deterministic and need no
//! environment variable.
//!
//! Asserted for every damaged file: nothing panics; a lenient scan
//! never yields more rows than the clean file holds; a strict scan
//! returns `Ok` or `Err`, and when it is `Ok` the lenient scan yields
//! the same rows. Handcrafted blocks that claim 2^60 strings, shapes,
//! runs or rows are refused: a reader that reserved room for such a
//! count would ask for exabytes and abort the test process.
//!
//! A journal of frames — the batches as sent, behind their header lines
//! — goes through the same damage, over the whole journal, each frame
//! and each header line, and is recovered the way the daemon replays it
//! (`journal::recover_blocks`, lenient), without a deadline and with one
//! that has passed: nothing panics, and no recovery salvages more rows
//! than were written.

use std::ops::Range;
use std::path::{Path, PathBuf};

use caliper_data::{AttrId, Properties, SnapshotRecord, Value, ValueType, NODE_NONE};
use caliper_faults::{corrupt_bytes, CorruptMode};
use caliper_format::{
    binary, cali, journal, read_footer, scan_path, to_binary_v2_with, CaliReader, CaliWriter,
    CmpOp, Dataset, Filter, FlushPolicy, JournalWriter, Pushdown, ReadPolicy,
};

const MODES: [CorruptMode; 3] = [
    CorruptMode::Bitflip,
    CorruptMode::Truncate,
    CorruptMode::GarbageBlock,
];
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
            rec.push_imm(
                kernel.id(),
                Value::str(if i < RECORDS / 2 { "calc-dt" } else { "advec" }),
            );
        }
        rec.push_imm(count.id(), Value::UInt(i as u64 * 1000));
        ds.push(rec);
    }
    ds
}

/// Pushdowns that skip some of the blocks of the sample and none.
fn pushdowns() -> Vec<Option<Pushdown>> {
    let mut late = Pushdown::new();
    late.push(Filter::Cmp {
        attr: "iteration".into(),
        op: CmpOp::Ge,
        value: Value::Int(150),
    });
    let mut kernel = Pushdown::new();
    kernel.push(Filter::Exists("kernel".into()));
    kernel.push(Filter::Cmp {
        attr: "kernel".into(),
        op: CmpOp::Eq,
        value: Value::str("advec"),
    });
    vec![None, Some(late), Some(kernel)]
}

/// Rows `scan_path` hands to its block sink (or, for CALB v1, which
/// frames no blocks, appends to the dataset), or the error it returns.
fn scan_rows(
    path: &Path,
    policy: ReadPolicy,
    pushdown: Option<&Pushdown>,
) -> Result<usize, String> {
    let mut rows = 0;
    scan_path(
        path,
        Dataset::new(),
        policy,
        pushdown,
        &mut |_, _, block| rows += block.rows(),
    )
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
            assert!(
                rows <= clean,
                "{what}: lenient scan yields {rows} rows, the clean file {clean}"
            );
        }
        match scan_rows(path, ReadPolicy::Strict, pushdown) {
            Ok(rows) => {
                assert!(
                    rows <= clean,
                    "{what}: strict scan yields {rows} rows, the clean file {clean}"
                );
                assert_eq!(
                    lenient,
                    Ok(rows),
                    "{what}: strict and lenient disagree on an intact read"
                );
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
    let path: PathBuf =
        std::env::temp_dir().join(format!("fuzz-blocks-{}-{name}", std::process::id()));
    std::fs::write(&path, bytes).unwrap();
    let clean = scan_rows(&path, ReadPolicy::Strict, None).expect("the clean file scans");
    assert_eq!(clean, RECORDS as usize);
    for (region_name, region) in regions {
        let mut failed = 0;
        for mode in MODES {
            for seed in 0..seeds {
                let damaged = damage(bytes, region.clone(), mode, seed);
                failed += check(
                    &path,
                    &damaged,
                    clean,
                    &format!("{name} {region_name} {mode:?} seed {seed}"),
                );
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

/// A cursor over a block payload, reading it as `docs/CALB.md` §4.2
/// lays it out, to find where its sections are.
struct Walk<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Walk<'_> {
    fn varint(&mut self) -> u64 {
        let (mut value, mut shift) = (0, 0);
        loop {
            let byte = self.bytes[self.pos];
            self.pos += 1;
            value |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return value;
            }
            shift += 7;
        }
    }

    fn value(&mut self, vtype: ValueType) {
        match vtype {
            ValueType::Str => self.pos += self.varint() as usize,
            ValueType::Int | ValueType::UInt => {
                self.varint();
            }
            ValueType::Float => self.pos += 8,
            ValueType::Bool => self.pos += 1,
        }
    }

    /// Read `n` items with `item`, returning the span they take.
    fn span(&mut self, n: u64, mut item: impl FnMut(&mut Self)) -> Range<usize> {
        let start = self.pos;
        (0..n).for_each(|_| item(self));
        start..self.pos
    }
}

/// The sections of the block at `offset` in `bytes` (a stream of `ds`),
/// by name: the shape table, the run list, the node references, the
/// string dictionary, and each string column's indices.
fn block_sections(bytes: &[u8], offset: usize, ds: &Dataset) -> Vec<(&'static str, Range<usize>)> {
    let vtype = |id: u64| ds.store.get(id as AttrId).unwrap().value_type();
    let mut walk = Walk {
        bytes,
        pos: offset + 1,
    };
    walk.varint(); // payload_len
    let rows = walk.varint();
    let zones = walk.varint();
    walk.span(zones, |w| {
        let t = vtype(w.varint());
        w.varint();
        w.value(t);
        w.value(t);
    });
    let mut refs_per_shape = Vec::new();
    let shapes = walk.varint();
    let shapes = walk.span(shapes, |w| {
        refs_per_shape.push(w.varint());
        let imms = w.varint();
        w.span(imms, |w| {
            w.varint();
        });
    });
    let mut refs = 0;
    let runs = walk.varint();
    let runs = walk.span(runs, |w| {
        let len = w.varint();
        refs += len * refs_per_shape[w.varint() as usize];
    });
    let node_refs = walk.span(refs, |w| {
        w.varint();
    });
    let strings = walk.varint();
    let strings = walk.span(strings, |w| w.value(ValueType::Str));
    let mut sections = vec![
        ("shapes", shapes),
        ("runs", runs),
        ("node refs", node_refs),
        ("strings", strings),
    ];
    for _ in 0..walk.varint() {
        let t = vtype(walk.varint());
        let n = walk.varint();
        // A string value is an index into the dictionary.
        let values = walk.span(n, |w| {
            w.value(if t == ValueType::Str {
                ValueType::UInt
            } else {
                t
            })
        });
        if t == ValueType::Str {
            sections.push(("string indices", values));
        }
    }
    assert!(
        rows > 0 && sections.iter().all(|(_, span)| !span.is_empty()),
        "{sections:?}"
    );
    sections
}

#[test]
fn damaged_v2_blocks_zone_maps_and_footer_never_panic_the_block_scan() {
    let ds = sample();
    let bytes = to_binary_v2_with(&ds, 48);
    let blocks = read_footer(&bytes).expect("a clean footer");
    assert_eq!(blocks.len(), 5);
    // The footer record starts where the u32 before the end magic says.
    let footer_len =
        u32::from_le_bytes(bytes[bytes.len() - 8..bytes.len() - 4].try_into().unwrap());
    let footer = bytes.len() - 8 - footer_len as usize;
    let mut regions = vec![
        ("stream".to_string(), 0..bytes.len()),
        ("footer".into(), footer..bytes.len()),
    ];
    for (i, block) in blocks.iter().enumerate() {
        let start = block.offset as usize;
        let end = blocks
            .get(i + 1)
            .map_or(footer, |next| next.offset as usize);
        regions.push((format!("block {i}"), start..end));
        regions.push((format!("block {i} head"), start..(start + 24).min(end)));
        for (section, span) in block_sections(&bytes, start, &ds) {
            assert!(span.end <= end, "block {i} {section}");
            regions.push((format!("block {i} {section}"), span));
        }
    }
    fuzz("v2", &bytes, &regions, 24);
}

/// A strict scan of the sample's stream up to its first block, followed
/// by one handcrafted block.
fn scan_handcrafted(payload: &[u8]) -> Result<usize, String> {
    let bytes = to_binary_v2_with(&sample(), 48);
    let first = read_footer(&bytes).unwrap()[0].offset as usize;
    let mut stream = bytes[..first].to_vec();
    stream.push(0x05);
    put_varint(&mut stream, payload.len() as u64);
    stream.extend_from_slice(payload);
    let path = std::env::temp_dir().join(format!("fuzz-blocks-{}-handcrafted", std::process::id()));
    std::fs::write(&path, &stream).unwrap();
    let rows = scan_rows(&path, ReadPolicy::Strict, None);
    std::fs::remove_file(&path).ok();
    rows
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// A block payload of the given counts and items, in §4.2's order: the
/// rows and no zone maps, then each section as its count and its items.
fn payload(rows: u64, sections: &[(u64, &[u64])]) -> Vec<u8> {
    let mut out = Vec::new();
    put_varint(&mut out, rows);
    put_varint(&mut out, 0);
    for &(count, items) in sections {
        put_varint(&mut out, count);
        items.iter().for_each(|&item| put_varint(&mut out, item));
    }
    out
}

#[test]
fn handcrafted_counts_are_refused_before_anything_is_reserved_for_them() {
    let kernel = sample().store.find("kernel").unwrap().id() as u64;
    let huge = 1u64 << 60;
    // One row of one shape, its `kernel` the block's one string.
    let one_row = |index: u64| {
        let mut out = payload(1, &[(1, &[0, 1, kernel]), (1, &[1, 0])]);
        out.extend_from_slice(&[1, 1, b'a']);
        out.extend(payload(0, &[(1, &[kernel, 1, index])]).split_off(2));
        out
    };
    assert_eq!(
        scan_handcrafted(&one_row(0)),
        Ok(1),
        "the handcrafted block is well formed"
    );
    let mut strings = payload(1, &[(1, &[0, 0]), (1, &[1, 0])]);
    put_varint(&mut strings, huge);
    let cases = [
        (
            "2^60 rows",
            payload(huge, &[(1, &[0, 0]), (1, &[huge, 0]), (0, &[]), (0, &[])]),
        ),
        ("2^60 shapes", payload(2, &[(huge, &[0, 0])])),
        (
            "2^60 shape immediates",
            payload(2, &[(1, &[0, huge, kernel])]),
        ),
        ("2^60 runs", payload(2, &[(1, &[0, 0]), (huge, &[1, 0])])),
        ("2^60 strings", strings),
        (
            "2^60 columns",
            payload(
                1,
                &[(1, &[0, 0]), (1, &[1, 0]), (0, &[]), (huge, &[kernel, 0])],
            ),
        ),
        (
            "2^60 node references",
            payload(1, &[(1, &[huge, 0]), (1, &[1, 0]), (0, &[])]),
        ),
        (
            "runs past the rows",
            payload(2, &[(1, &[0, 0]), (2, &[2, 0, 1, 0]), (0, &[]), (0, &[])]),
        ),
        (
            "runs short of the rows",
            payload(3, &[(1, &[0, 0]), (1, &[2, 0]), (0, &[]), (0, &[])]),
        ),
        (
            "a run of no rows",
            payload(0, &[(1, &[0, 0]), (1, &[0, 0]), (0, &[]), (0, &[])]),
        ),
        (
            "a shape past the table",
            payload(1, &[(1, &[0, 0]), (1, &[1, 1]), (0, &[]), (0, &[])]),
        ),
        ("a string index past the end", one_row(1)),
    ];
    for (what, payload) in cases {
        let rows = scan_handcrafted(&payload);
        assert!(rows.is_err(), "{what}: {rows:?}");
    }
}

/// The sample as a daemon journals it: five batches of 40 snapshots,
/// each a self-describing stream (the first with the globals, the last
/// without its final newline), framed by `JournalWriter::append_batch`.
/// Returns the journal and each frame's span, header line included.
fn framed_journal() -> (Vec<u8>, Vec<Range<usize>>) {
    let ds = sample();
    let path = std::env::temp_dir().join(format!("fuzz-blocks-{}-framed", std::process::id()));
    let mut writer = JournalWriter::create(&path, FlushPolicy::default()).unwrap();
    let header = std::fs::metadata(&path).unwrap().len() as usize;
    let mut frames = Vec::new();
    for (n, chunk) in ds.records.chunks(40).enumerate() {
        let mut batch = CaliWriter::new(Vec::new());
        if n == 0 {
            batch.write_globals(&ds, &ds.globals[0]).unwrap();
        }
        for record in chunk {
            batch.write_snapshot(&ds, record).unwrap();
        }
        let mut payload = batch.finish().unwrap();
        if n == 4 {
            payload.pop();
        }
        writer
            .append_batch(n as u64 * 40, chunk.len() as u64, &payload)
            .unwrap();
        writer.flush().unwrap();
        let end = std::fs::metadata(&path).unwrap().len() as usize;
        frames.push(frames.last().map_or(header, |last: &Range<usize>| last.end)..end);
    }
    drop(writer);
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    (bytes, frames)
}

/// Rows `recover_blocks` hands on from `bytes`, leniently, under
/// `deadline`.
fn recovered_rows(bytes: &[u8], deadline: Option<&caliper_data::Deadline>) -> usize {
    let mut rows = 0;
    let report = journal::recover_blocks(
        &mut CaliReader::new(),
        bytes,
        ReadPolicy::lenient(),
        deadline,
        &mut |_, _, block| rows += block.rows(),
    )
    .expect("a lenient recovery without an error budget returns what it salvaged");
    assert_eq!(report.salvaged as usize, rows);
    rows
}

#[test]
fn damaged_framed_journals_never_panic_the_recovery() {
    let (bytes, frames) = framed_journal();
    assert_eq!(recovered_rows(&bytes, None), RECORDS as usize);
    let passed = caliper_data::Deadline::after(std::time::Duration::ZERO);
    assert_eq!(recovered_rows(&bytes, Some(&passed)), 0);
    let mut regions = vec![("journal".to_string(), 0..bytes.len(), 200)];
    for (n, frame) in frames.iter().enumerate() {
        let line = bytes[frame.clone()]
            .iter()
            .position(|&b| b == b'\n')
            .unwrap()
            + 1;
        regions.push((format!("frame {n}"), frame.clone(), 24));
        regions.push((
            format!("frame {n} header"),
            frame.start..frame.start + line,
            24,
        ));
    }
    for (name, region, seeds) in regions {
        let mut lost = 0;
        for mode in MODES {
            for seed in 0..seeds {
                let damaged = damage(&bytes, region.clone(), mode, seed);
                let what = format!("{name} {mode:?} seed {seed}");
                let rows = recovered_rows(&damaged, None);
                assert!(
                    rows <= RECORDS as usize,
                    "{what}: {rows} rows salvaged of {RECORDS}"
                );
                assert_eq!(recovered_rows(&damaged, Some(&passed)), 0, "{what}");
                let strict = journal::recover_blocks(
                    &mut CaliReader::new(),
                    &damaged,
                    ReadPolicy::Strict,
                    None,
                    &mut |_, _, _| {},
                );
                if let Ok(report) = strict {
                    assert!(
                        report.salvaged as usize <= rows,
                        "{what}: strict salvaged more"
                    );
                }
                lost += usize::from(rows < RECORDS as usize);
            }
        }
        // The damage reaches the recovery: some of it costs rows.
        assert!(lost > 0, "{name}: no damaged journal lost a row");
    }
}
