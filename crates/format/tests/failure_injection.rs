//! Failure-injection tests for the `.cali` (text) and `CALB` (binary)
//! readers: corrupted, truncated and adversarial streams must produce
//! errors (or skip cleanly, under a lenient [`ReadPolicy`]), never
//! panics or silently wrong data.

use caliper_data::{Properties, SnapshotRecord, Value, ValueType, NODE_NONE};
use caliper_format::{binary, cali, CaliReader, Dataset, ReadPolicy};
use proptest::prelude::*;

fn sample_bytes() -> Vec<u8> {
    let mut ds = Dataset::new();
    let func = ds.attribute("function", ValueType::Str, Properties::NESTED);
    let dur = ds.attribute(
        "time.duration",
        ValueType::Float,
        Properties::AS_VALUE | Properties::AGGREGATABLE,
    );
    let main = ds.tree.get_child(NODE_NONE, func.id(), &Value::str("main"));
    let inner = ds.tree.get_child(main, func.id(), &Value::str("inner"));
    for i in 0..10u32 {
        let mut rec = SnapshotRecord::new();
        rec.push_node(if i.is_multiple_of(2) { inner } else { main });
        rec.push_imm(dur.id(), Value::Float(i as f64));
        ds.push(rec);
    }
    cali::to_bytes(&ds)
}

#[test]
fn truncating_at_any_line_boundary_yields_a_prefix() {
    let bytes = sample_bytes();
    let text = String::from_utf8(bytes).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    for cut in 0..=lines.len() {
        let prefix = lines[..cut].join("\n");
        let ds = cali::from_bytes(prefix.as_bytes())
            .unwrap_or_else(|e| panic!("prefix of {cut} lines failed: {e}"));
        assert!(ds.len() <= 10);
    }
}

#[test]
fn corrupting_single_bytes_never_panics() {
    let bytes = sample_bytes();
    // Flip one byte at a time across the stream; the reader must either
    // parse (the corruption hit a value) or report an error.
    for pos in (0..bytes.len()).step_by(7) {
        let mut corrupted = bytes.clone();
        corrupted[pos] = corrupted[pos].wrapping_add(13) % 127 + 1; // keep it UTF-8-ish
        let _ = cali::from_bytes(&corrupted); // must not panic
    }
}

#[test]
fn references_to_undeclared_ids_are_errors() {
    for line in [
        "__rec=node,id=0,attr=99,data=x",
        "__rec=ctx,ref=42",
        "__rec=ctx,attr=7,data=1",
        "__rec=node,id=1,attr=0,parent=77,data=x",
    ] {
        let input = format!("__rec=attr,id=0,name=a,type=string,prop=default\n{line}\n");
        let err = cali::from_bytes(input.as_bytes()).unwrap_err();
        let text = err.to_string();
        assert!(text.contains("line 2"), "{line}: {text}");
    }
}

#[test]
fn type_mismatched_data_is_an_error() {
    let input = "__rec=attr,id=0,name=n,type=int,prop=default\n__rec=ctx,attr=0,data=not-a-number\n";
    let err = cali::from_bytes(input.as_bytes()).unwrap_err();
    assert!(err.to_string().contains("cannot parse"), "{err}");
}

#[test]
fn data_without_preceding_attr_is_an_error() {
    let input = "__rec=ctx,data=orphan\n";
    let err = cali::from_bytes(input.as_bytes()).unwrap_err();
    assert!(err.to_string().contains("without preceding attr"), "{err}");
}

#[test]
fn attr_without_data_is_an_error() {
    // An `attr` whose `data` never comes — the line ends, or another
    // `attr` or a `ref` comes first — fails its line: strict reading
    // errors, lenient reading skips exactly that line. Another key in
    // between is passed over as ever.
    let head = "__rec=attr,id=0,name=k,type=string,prop=default\n\
                __rec=attr,id=1,name=n,type=int,prop=default\n\
                __rec=node,id=0,attr=0,data=root\n";
    let kept = "__rec=ctx,attr=0,note=x,data=kept\n";
    for line in [
        "__rec=ctx,attr=0,data=a,attr=1",
        "__rec=ctx,attr=0,attr=1,data=5",
        "__rec=ctx,attr=1,ref=0,data=5",
        "__rec=ctx,attr=1,note=x",
        "__rec=globals,attr=0,data=a,attr=1",
    ] {
        let input = format!("{head}{line}\n{kept}");
        let err = cali::from_bytes(input.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("line 4: attr field without data"), "{line}: {err}");
        let (ds, report) = cali::from_bytes_with(input.as_bytes(), ReadPolicy::lenient()).unwrap();
        assert_eq!((ds.len(), ds.globals.len(), report.skipped), (1, 0, 1), "{line}");
    }
}

#[test]
fn duplicate_attribute_with_conflicting_type_is_an_error() {
    let input = "__rec=attr,id=0,name=x,type=int,prop=default\n\
                 __rec=attr,id=1,name=x,type=string,prop=default\n";
    let err = cali::from_bytes(input.as_bytes()).unwrap_err();
    assert!(err.to_string().contains("already exists"), "{err}");
}

#[test]
fn unknown_record_kinds_and_fields() {
    // Unknown kind: error. Unknown *fields* inside a known kind: ignored
    // (forward compatibility).
    assert!(cali::from_bytes(b"__rec=mystery,x=1\n").is_err());
    let input = "__rec=attr,id=0,name=a,type=string,prop=default,futurefield=zap\n\
                 __rec=ctx,attr=0,data=v,alsofuture=1\n";
    let ds = cali::from_bytes(input.as_bytes()).unwrap();
    assert_eq!(ds.len(), 1);
}

#[test]
fn blank_lines_and_comments_are_skipped() {
    let bytes = sample_bytes();
    let text = String::from_utf8(bytes).unwrap();
    let noisy: String = text
        .lines()
        .flat_map(|l| ["# comment", "", l])
        .collect::<Vec<_>>()
        .join("\n");
    let ds = cali::from_bytes(noisy.as_bytes()).unwrap();
    assert_eq!(ds.len(), 10);
}

#[test]
fn reader_survives_partial_use_after_error() {
    let mut reader = CaliReader::new();
    reader
        .read_line("__rec=attr,id=0,name=a,type=int,prop=default")
        .unwrap();
    assert!(reader.read_line("__rec=node,id=0,attr=5,data=1").is_err());
    // Continuing after an error still works for valid lines.
    reader.read_line("__rec=ctx,attr=0,data=7").unwrap();
    let ds = reader.finish();
    assert_eq!(ds.len(), 1);
}

/// Renders every snapshot record of a dataset for content comparison.
fn record_lines(ds: &Dataset) -> Vec<String> {
    ds.flat_records().map(|r| r.describe(&ds.store)).collect()
}

#[test]
fn calb_truncation_at_every_byte_is_a_prefix_of_the_clean_decode() {
    let ds = cali::from_bytes(&sample_bytes()).unwrap();
    let bytes = binary::to_binary(&ds);
    let clean = record_lines(&binary::from_binary(&bytes).unwrap());
    // The 5-byte header (magic + version) is a hard requirement even
    // when lenient; after that, every cut must yield a valid prefix.
    for cut in 0..5 {
        assert!(binary::from_binary_with(&bytes[..cut], ReadPolicy::lenient()).is_err());
    }
    let mut prev = 0usize;
    for cut in 5..=bytes.len() {
        let (prefix, report) =
            binary::from_binary_with(&bytes[..cut], ReadPolicy::lenient()).unwrap();
        let lines = record_lines(&prefix);
        assert_eq!(lines, clean[..lines.len()], "cut at {cut}");
        assert!(lines.len() >= prev, "prefix shrank at {cut}");
        prev = lines.len();
        // A cut landing exactly on a record boundary is indistinguishable
        // from a shorter file and may go unreported; the full stream must
        // decode without complaints.
        if cut == bytes.len() {
            assert!(report.is_clean(), "clean stream reported dirty: {report:?}");
        }
    }
    assert_eq!(prev, clean.len(), "full stream decodes completely");
}

#[test]
fn calb_flipped_bytes_never_panic_and_never_invent_records() {
    let ds = cali::from_bytes(&sample_bytes()).unwrap();
    let bytes = binary::to_binary(&ds);
    let clean = binary::from_binary(&bytes).unwrap().len();
    for pos in 5..bytes.len() {
        let mut corrupted = bytes.clone();
        corrupted[pos] = !corrupted[pos]; // flip every bit: lengths, tags, values
        let _ = binary::from_binary(&corrupted); // strict: must not panic
        if let Ok((ds, _)) = binary::from_binary_with(&corrupted, ReadPolicy::lenient()) {
            // A flip can change values or cut the stream short, but the
            // lenient prefix can never contain *more* records than the
            // clean stream.
            assert!(ds.len() <= clean, "flip at {pos} invented records");
        }
    }
}

#[test]
fn calb_huge_length_fields_error_instead_of_panicking() {
    // A crafted attr record whose name-length varint decodes to
    // u64::MAX must be rejected as truncation, not overflow the
    // cursor arithmetic or attempt the allocation.
    let mut bytes = b"CALB\x01".to_vec();
    bytes.push(0x01); // TAG_ATTR
    bytes.push(0x00); // id 0
    bytes.extend_from_slice(&[0xFF; 9]); // varint: u64::MAX
    bytes.push(0x01);
    assert!(binary::from_binary(&bytes).is_err());
    let (ds, report) = binary::from_binary_with(&bytes, ReadPolicy::lenient()).unwrap();
    assert_eq!(ds.len(), 0);
    assert!(report.truncated);
}

#[test]
fn calb_garbage_tail_is_skipped_leniently() {
    let ds = cali::from_bytes(&sample_bytes()).unwrap();
    let mut bytes = binary::to_binary(&ds);
    let clean = record_lines(&binary::from_binary(&bytes).unwrap());
    bytes.extend_from_slice(&[0xFE; 64]);
    assert!(binary::from_binary(&bytes).is_err(), "strict must reject the tail");
    let (back, report) = binary::from_binary_with(&bytes, ReadPolicy::lenient()).unwrap();
    assert_eq!(record_lines(&back), clean);
    assert!(report.truncated);
    assert_eq!(report.skipped, 1);
}

proptest! {
    /// Deleting any subset of lines from a valid text stream and
    /// decoding leniently yields a sub-multiset of the clean decode's
    /// records — corruption may lose data, it must never fabricate it.
    #[test]
    fn lenient_text_decode_of_a_line_deleted_stream_is_a_submultiset(
        keep in prop::collection::vec(any::<bool>(), 60),
    ) {
        let clean_ds = cali::from_bytes(&sample_bytes()).unwrap();
        let mut clean = record_lines(&clean_ds);
        let text = String::from_utf8(sample_bytes()).unwrap();
        let damaged: String = text
            .lines()
            .enumerate()
            .filter(|(i, _)| *keep.get(*i).unwrap_or(&true))
            .map(|(_, l)| format!("{l}\n"))
            .collect();
        let (back, _report) =
            cali::from_bytes_with(damaged.as_bytes(), ReadPolicy::lenient()).unwrap();
        // Every surviving record must appear in the clean decode
        // (multiset containment: remove matches one by one).
        for line in record_lines(&back) {
            let pos = clean.iter().position(|c| *c == line);
            prop_assert!(pos.is_some(), "fabricated record: {line}");
            clean.remove(pos.unwrap());
        }
    }

    /// Truncating a binary stream at an arbitrary byte and decoding
    /// leniently yields exactly a prefix of the clean decode.
    #[test]
    fn lenient_calb_decode_of_a_truncation_is_a_prefix(cut_seed in 0usize..10_000) {
        let ds = cali::from_bytes(&sample_bytes()).unwrap();
        let bytes = binary::to_binary(&ds);
        let clean = record_lines(&binary::from_binary(&bytes).unwrap());
        let cut = 5 + cut_seed % (bytes.len() - 4);
        let (prefix, _report) =
            binary::from_binary_with(&bytes[..cut], ReadPolicy::lenient()).unwrap();
        let lines = record_lines(&prefix);
        prop_assert_eq!(&lines[..], &clean[..lines.len()]);
    }
}

#[test]
fn giant_values_roundtrip() {
    let mut ds = Dataset::new();
    let attr = ds.attribute("blob", ValueType::Str, Properties::AS_VALUE);
    let big = "x".repeat(1 << 20); // 1 MiB value
    let mut rec = SnapshotRecord::new();
    rec.push_imm(attr.id(), Value::str(big.as_str()));
    ds.push(rec);
    let back = cali::from_bytes(&cali::to_bytes(&ds)).unwrap();
    let attr2 = back.store.find("blob").unwrap();
    let flat: Vec<_> = back.flat_records().collect();
    assert_eq!(flat[0].get(attr2.id()).unwrap().to_string().len(), 1 << 20);
}

#[test]
fn deep_nesting_roundtrips() {
    let mut ds = Dataset::new();
    let func = ds.attribute("function", ValueType::Str, Properties::NESTED);
    let mut node = NODE_NONE;
    for i in 0..10_000 {
        node = ds
            .tree
            .get_child(node, func.id(), &Value::str(format!("f{i}")));
    }
    let mut rec = SnapshotRecord::new();
    rec.push_node(node);
    ds.push(rec);
    let back = cali::from_bytes(&cali::to_bytes(&ds)).unwrap();
    let func2 = back.store.find("function").unwrap();
    let flat: Vec<_> = back.flat_records().collect();
    assert_eq!(flat[0].all(func2.id()).count(), 10_000);
}

// ---- write-ahead journal recovery (crash-safety tentpole) ----

use caliper_format::journal::{self, FlushPolicy, JournalWriter, SEQ_ATTR};

/// Build a journal byte stream the way the runtime sink does: every
/// snapshot carries a monotonic `journal.seq`, metadata precedes first
/// use, one record per line, flushed after every record.
fn journal_stream(n: u64) -> Vec<u8> {
    let ds = Dataset::new();
    let kernel = ds.attribute("kernel", ValueType::Str, Properties::NESTED);
    let dur = ds.attribute(
        "time.duration",
        ValueType::Float,
        Properties::AS_VALUE | Properties::AGGREGATABLE,
    );
    let seq = ds.attribute(SEQ_ATTR, ValueType::UInt, Properties::AS_VALUE);
    let dir = std::env::temp_dir().join(format!("cali-journal-fi-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("stream{n}.cali"));
    let mut w = JournalWriter::create(&path, FlushPolicy::default()).unwrap();
    for i in 0..n {
        let node = ds.tree.get_child(
            NODE_NONE,
            kernel.id(),
            &Value::str(["solve", "io", "halo"][(i % 3) as usize]),
        );
        let mut rec = SnapshotRecord::new();
        rec.push_node(node);
        rec.push_imm(dur.id(), Value::Float(i as f64 * 1.5));
        rec.push_imm(seq.id(), Value::UInt(i));
        w.append_snapshot(&ds, &rec).unwrap();
    }
    drop(w);
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    bytes
}

/// The recovery routine over bytes, its blocks derived into records.
fn recover_rows(bytes: &[u8]) -> Result<(Dataset, journal::RecoveryReport), cali::CaliError> {
    let mut reader = CaliReader::new();
    let sink: &mut caliper_format::BlockSink<'_> =
        &mut |ds, strings, block| block.append_records(strings, &mut ds.records);
    let report = journal::recover_blocks(&mut reader, bytes, ReadPolicy::lenient(), None, sink)?;
    Ok((reader.finish(), report))
}

/// Number of complete (newline-terminated) `__rec=ctx` lines in a
/// prefix — the exact salvage a journal recovery must produce.
fn complete_ctx_lines(prefix: &[u8]) -> usize {
    let mut count = 0;
    let mut start = 0;
    for (i, &b) in prefix.iter().enumerate() {
        if b == b'\n' {
            if prefix[start..i].starts_with(b"__rec=ctx") {
                count += 1;
            }
            start = i + 1;
        }
    }
    count
}

/// The tentpole's crash-consistency contract, checked exhaustively: a
/// journal truncated at *every* byte offset recovers exactly the
/// fully-flushed prefix — no partial records, no sequence gaps, no
/// panics.
#[test]
fn journal_truncation_at_every_byte_salvages_the_flushed_prefix() {
    let bytes = journal_stream(12);
    let mut last_salvaged = 0u64;
    for cut in 0..=bytes.len() {
        let prefix = &bytes[..cut];
        let expected = complete_ctx_lines(prefix);
        let (ds, report) = recover_rows(prefix)
            .unwrap_or_else(|e| panic!("recovery at cut {cut} failed: {e}"));
        assert_eq!(report.salvaged as usize, expected, "cut={cut}");
        assert_eq!(ds.records.len(), expected, "cut={cut}");
        // Pure tail truncation never produces mid-sequence gaps or
        // duplicates, and the salvage is monotone in the cut offset.
        assert_eq!(report.missing, 0, "cut={cut}");
        assert_eq!(report.duplicates, 0, "cut={cut}");
        assert!(report.salvaged >= last_salvaged, "cut={cut}");
        last_salvaged = report.salvaged;
    }
    // The untruncated journal recovers everything.
    let (_, full) = recover_rows(&bytes).unwrap();
    assert_eq!(full.salvaged, 12);
    assert!(!full.data_lost());
}

proptest! {
    /// Snapshot → journal → recover roundtrips losslessly when no
    /// fault is injected, for arbitrary record shapes.
    #[test]
    fn journal_roundtrip_is_lossless(
        records in prop::collection::vec(
            ("[ -~]{0,16}", any::<i32>()),
            1..24,
        ),
    ) {
        static CASE: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let case = CASE.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let mut ds = Dataset::new();
        let region = ds.attribute("region", ValueType::Str, Properties::NESTED);
        let val = ds.attribute("val", ValueType::Int, Properties::AS_VALUE);
        let seq = ds.attribute(SEQ_ATTR, ValueType::UInt, Properties::AS_VALUE);
        let dir = std::env::temp_dir().join(format!("cali-journal-prop-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("case{case}.cali"));

        let mut originals = Vec::new();
        let mut w = JournalWriter::create(&path, FlushPolicy::default()).unwrap();
        for (i, (name, value)) in records.iter().enumerate() {
            let node = ds.tree.get_child(NODE_NONE, region.id(), &Value::str(name.as_str()));
            let mut rec = SnapshotRecord::new();
            rec.push_node(node);
            rec.push_imm(val.id(), Value::Int(*value as i64));
            rec.push_imm(seq.id(), Value::UInt(i as u64));
            w.append_snapshot(&ds, &rec).unwrap();
            originals.push(rec);
        }
        drop(w);

        let (back, report) = journal::recover_file(&path, ReadPolicy::lenient()).unwrap();
        std::fs::remove_file(&path).ok();
        prop_assert!(!report.data_lost(), "{}", report.summary());
        prop_assert_eq!(report.salvaged as usize, originals.len());
        prop_assert_eq!(report.duplicates, 0);

        for rec in originals {
            ds.push(rec);
        }
        let orig: Vec<String> = ds.flat_records().map(|r| r.describe(&ds.store)).collect();
        let read: Vec<String> = back.flat_records().map(|r| r.describe(&back.store)).collect();
        prop_assert_eq!(orig, read);
    }
}
