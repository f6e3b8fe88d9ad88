//! Property-based tests: the `.cali` codec must roundtrip arbitrary
//! datasets, the CALB v2 columnar codec must decode to the same dataset
//! as v1 (and zone-map skipping must never drop a matching record), and
//! the escaping layer must roundtrip arbitrary strings.

use caliper_data::{Entry, FlatRecord, Properties, SnapshotRecord, Value, ValueType, NODE_NONE};
use caliper_format::pushdown::{CmpOp, Filter, Pushdown};
use caliper_format::{
    cali, escape, CaliReader, Dataset, FlushPolicy, JournalWriter, ReadPolicy, ReadReport, SEQ_ATTR,
};
use proptest::prelude::*;

fn arb_label() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9._]{0,15}"
}

/// Values whose textual form roundtrips exactly (no NaN).
fn arb_roundtrip_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        "[ -~]{0,32}".prop_map(Value::str), // printable ASCII incl. , = \
        any::<i64>().prop_map(Value::Int),
        any::<u64>().prop_map(Value::UInt),
        any::<i32>().prop_map(|i| Value::Float(i as f64 / 8.0)),
        any::<bool>().prop_map(Value::Bool),
    ]
}

/// The random record shape the codec roundtrip properties share:
/// nesting stacks over `labels` plus typed immediates.
type ArbRecords = Vec<(Vec<(usize, String)>, Vec<(usize, Value)>)>;

/// Materialize the random shape into a dataset (nested attributes from
/// `labels`, one immediate attribute per value type, values coerced to
/// the immediate attribute's type so the stream stays type-faithful).
fn build_dataset(labels: &[String], records: &ArbRecords) -> Dataset {
    let mut ds = Dataset::new();
    let nested: Vec<_> = labels
        .iter()
        .enumerate()
        .map(|(i, l)| ds.attribute(&format!("n.{i}.{l}"), ValueType::Str, Properties::NESTED))
        .collect();
    let imm: Vec<_> = [
        ValueType::Str,
        ValueType::Int,
        ValueType::UInt,
        ValueType::Float,
    ]
    .iter()
    .enumerate()
    .map(|(i, t)| ds.attribute(&format!("imm.{i}"), *t, Properties::AS_VALUE))
    .collect();

    for (stack, imms) in records {
        let mut node = NODE_NONE;
        for (ai, v) in stack {
            let attr = &nested[ai % nested.len()];
            node = ds.tree.get_child(node, attr.id(), &Value::str(v.as_str()));
        }
        let mut rec = SnapshotRecord::new();
        if node != NODE_NONE {
            rec.push_node(node);
        }
        for (ai, v) in imms {
            let attr = &imm[ai % imm.len()];
            let coerced = match attr.value_type() {
                ValueType::Str => Value::str(v.to_string()),
                ValueType::Int => Value::Int(v.to_i64().unwrap_or(0)),
                ValueType::UInt => Value::UInt(v.to_u64().unwrap_or(0)),
                ValueType::Float => Value::Float(v.to_f64().unwrap_or(0.0)),
                ValueType::Bool => Value::Bool(v.is_truthy()),
            };
            rec.push_imm(attr.id(), coerced);
        }
        ds.push(rec);
    }
    ds
}

/// The length of a v2 stream's footer: its record, the record's
/// length and the end magic, at the stream's tail.
fn footer_bytes(v2: &[u8]) -> usize {
    let trailer = v2.len() - 8;
    8 + u32::from_le_bytes(v2[trailer..trailer + 4].try_into().unwrap()) as usize
}

/// Sorted flat-record descriptions — a dataset's multiset of expanded
/// records, independent of id assignment.
fn record_multiset(ds: &Dataset) -> Vec<String> {
    let mut out: Vec<String> = ds.flat_records().map(|r| r.describe(&ds.store)).collect();
    out.sort();
    out
}

/// Values for the zone-map soundness property: a few of each class, so
/// that a block's bounds often equal the literal, and integers about 2⁵³,
/// where different values compare equal as the `f64`s `total_cmp` reads.
fn arb_zone_value() -> impl Strategy<Value = Value> {
    const BIG: i64 = 1 << 53;
    prop_oneof![
        "[a-d]{0,2}".prop_map(Value::str),
        (-2i64..3).prop_map(Value::Int),
        (BIG - 1..BIG + 2).prop_map(Value::Int),
        (0u64..3).prop_map(Value::UInt),
        (-2i32..3).prop_map(|i| Value::Float(f64::from(i) / 2.0)),
        any::<bool>().prop_map(Value::Bool),
    ]
}

/// Every WHERE condition on `attr`: `exists`, `not()`, and each
/// comparison against each of `literals`.
fn every_filter(attr: &str, literals: &[Value]) -> Vec<Filter> {
    const OPS: [CmpOp; 6] = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];
    let mut filters = vec![Filter::Exists(attr.into()), Filter::NotExists(attr.into())];
    for op in OPS {
        filters.extend(literals.iter().map(|value| Filter::Cmp {
            attr: attr.into(),
            op,
            value: value.clone(),
        }));
    }
    filters
}

/// The descriptions of the records of `ds` that pass `filter` by the
/// query engine's own row test, sorted.
fn passing_records(ds: &Dataset, filter: &Filter) -> Vec<String> {
    let attr = ds.store.find(filter.label());
    let mut out: Vec<String> = ds
        .flat_records()
        .filter(|rec| {
            let occurrences: Vec<&Value> =
                attr.iter().flat_map(|attr| rec.all(attr.id())).collect();
            filter.row_passes(occurrences.into_iter()).0
        })
        .map(|rec| rec.describe(&ds.store))
        .collect();
    out.sort();
    out
}

proptest! {
    #[test]
    fn escape_roundtrips(s in "\\PC*") {
        prop_assert_eq!(escape::unescape(&escape::escape(&s)), s);
    }

    #[test]
    fn escaped_strings_are_single_line(s in "\\PC*") {
        prop_assert!(!escape::escape(&s).contains('\n'));
    }

    /// Build a random dataset (random nesting stacks + immediates),
    /// serialize, parse, and compare the expanded record streams.
    #[test]
    fn cali_roundtrip(
        labels in prop::collection::vec(arb_label(), 2..5),
        records in prop::collection::vec(
            (
                prop::collection::vec((0usize..4, "[ -~]{0,16}"), 0..5), // stack pushes
                prop::collection::vec((0usize..4, arb_roundtrip_value()), 0..4), // immediates
            ),
            0..20,
        ),
    ) {
        let ds = build_dataset(&labels, &records);

        let bytes = cali::to_bytes(&ds);
        let ds2 = cali::from_bytes(&bytes).unwrap();
        prop_assert_eq!(ds2.len(), ds.len());

        let orig: Vec<String> = ds.flat_records().map(|r| r.describe(&ds.store)).collect();
        let back: Vec<String> = ds2.flat_records().map(|r| r.describe(&ds2.store)).collect();
        prop_assert_eq!(&orig, &back);

        // The binary codec must roundtrip the same stream.
        let bin = caliper_format::binary::to_binary(&ds);
        let ds3 = caliper_format::binary::from_binary(&bin).unwrap();
        prop_assert_eq!(ds3.len(), ds.len());
        let back_bin: Vec<String> = ds3
            .flat_records()
            .map(|r| r.describe(&ds3.store))
            .collect();
        prop_assert_eq!(&orig, &back_bin);
    }

    /// The block-columnar v2 encoding of any dataset must decode to the
    /// same record multiset as the v1 encoding, for every block size and
    /// with or without its footer — and both decodes must re-encode to
    /// byte-identical v1 streams (the dictionaries come back in the same
    /// creation order).
    #[test]
    fn v2_decodes_identically_to_v1(
        labels in prop::collection::vec(arb_label(), 2..5),
        records in prop::collection::vec(
            (
                prop::collection::vec((0usize..4, "[ -~]{0,16}"), 0..5),
                prop::collection::vec((0usize..4, arb_roundtrip_value()), 0..4),
            ),
            0..40,
        ),
        block_records in 1usize..9,
        footer in any::<bool>(),
    ) {
        let ds = build_dataset(&labels, &records);
        let v1 = caliper_format::binary::to_binary(&ds);
        let mut v2 = caliper_format::to_binary_v2_with(&ds, block_records);
        if !footer {
            v2.truncate(v2.len() - footer_bytes(&v2));
        }
        let d1 = caliper_format::binary::from_binary(&v1).unwrap();
        let d2 = caliper_format::binary::from_binary(&v2).unwrap();
        prop_assert_eq!(d1.len(), ds.len());
        prop_assert_eq!(d2.len(), ds.len());
        prop_assert_eq!(record_multiset(&d1), record_multiset(&d2));
        prop_assert_eq!(
            caliper_format::binary::to_binary(&d1),
            caliper_format::binary::to_binary(&d2)
        );
    }

    /// Zone-map soundness: a pushdown-filtered decode may drop whole
    /// blocks, but a skipped block never holds a record the fold's own
    /// row test (`Filter::row_passes`) passes. Every condition shape is
    /// tried — `exists`, `not()` and each comparison — on each typed
    /// immediate, each nested attribute on the node path (often several
    /// occurrences per record) and an undeclared name, against every
    /// value the attribute takes (so a block's bounds meet the literal)
    /// and a literal of any type.
    #[test]
    fn zone_map_skips_never_drop_a_matching_record(
        labels in prop::collection::vec(arb_label(), 2..4),
        records in prop::collection::vec(
            (
                prop::collection::vec((0usize..4, "[a-d]{0,2}"), 0..5),
                prop::collection::vec((0usize..4, arb_zone_value()), 0..4),
            ),
            0..40,
        ),
        block_records in 1usize..8,
        raw_literal in arb_zone_value(),
    ) {
        let ds = build_dataset(&labels, &records);
        let v2 = caliper_format::to_binary_v2_with(&ds, block_records);
        let full = record_multiset(&ds);
        let mut names: Vec<String> = (0..4).map(|i| format!("imm.{i}")).collect();
        names.extend(labels.iter().enumerate().map(|(i, l)| format!("n.{i}.{l}")));
        names.push("no.such.attr".into());
        for name in &names {
            let mut literals = vec![raw_literal.clone()];
            if let Some(attr) = ds.store.find(name) {
                for rec in ds.flat_records() {
                    for value in rec.all(attr.id()) {
                        if !literals.contains(value) {
                            literals.push(value.clone());
                        }
                    }
                }
            }
            for filter in every_filter(name, &literals) {
                let mut pd = Pushdown::new();
                pd.push(filter.clone());
                let mut report = ReadReport::default();
                let filtered = caliper_format::binary::read_binary_into_filtered(
                    &v2,
                    Dataset::new(),
                    ReadPolicy::Strict,
                    &mut report,
                    Some(&pd),
                )
                .unwrap();
                prop_assert_eq!(report.blocks, ds.len().div_ceil(block_records) as u64);
                // Every passing record survives (same multiset on both
                // sides)…
                prop_assert_eq!(
                    passing_records(&ds, &filter),
                    passing_records(&filtered, &filter),
                    "{:?}",
                    filter
                );
                // …and whatever else survives came from the original stream.
                for rec in record_multiset(&filtered) {
                    prop_assert!(full.binary_search(&rec).is_ok());
                }
            }
        }
    }

    /// Lenient v2 decode must accept any truncation of a valid stream
    /// without panicking, and longer prefixes can only yield more
    /// records.
    #[test]
    fn v2_truncation_is_lenient_at_every_byte(
        labels in prop::collection::vec(arb_label(), 2..4),
        records in prop::collection::vec(
            (
                prop::collection::vec((0usize..4, "[a-d]{0,3}"), 0..4),
                prop::collection::vec((0usize..4, arb_roundtrip_value()), 0..3),
            ),
            0..12,
        ),
        block_records in 1usize..5,
    ) {
        let ds = build_dataset(&labels, &records);
        let v2 = caliper_format::to_binary_v2_with(&ds, block_records);
        let mut last = 0usize;
        for cut in 5..=v2.len() {
            match caliper_format::binary::from_binary_with(
                &v2[..cut],
                ReadPolicy::lenient(),
            ) {
                Ok((partial, _)) => {
                    prop_assert!(partial.len() <= ds.len());
                    prop_assert!(partial.len() >= last);
                    last = partial.len();
                }
                Err(_) => prop_assert!(false, "lenient v2 decode failed at byte {cut}"),
            }
        }
    }

    /// CSV quoting roundtrips under a trivial CSV parser for quoted fields.
    #[test]
    fn csv_field_is_parseable(s in "[ -~]{0,32}") {
        let quoted = caliper_format::csv::csv_field(&s);
        let parsed = if let Some(inner) = quoted.strip_prefix('"').and_then(|q| q.strip_suffix('"')) {
            inner.replace("\"\"", "\"")
        } else {
            quoted.clone()
        };
        prop_assert_eq!(parsed, s);
    }
}

/// A dataset whose records are uniquely identifiable: record `i`
/// carries `row=i`, so a decode's surviving records name exactly which
/// source rows they came from.
fn numbered_dataset(records: usize) -> Dataset {
    let mut ds = Dataset::new();
    let kernel = ds.attribute("kernel", ValueType::Str, Properties::NESTED);
    let row = ds.attribute("row", ValueType::Int, Properties::AS_VALUE);
    for i in 0..records {
        let node = ds.tree.get_child(
            NODE_NONE,
            kernel.id(),
            &Value::str(["alpha", "beta", "gamma"][i % 3]),
        );
        let mut rec = SnapshotRecord::new();
        rec.push_node(node);
        rec.push_imm(row.id(), Value::Int(i as i64));
        ds.push(rec);
    }
    ds
}

/// Record lines in decode order (not sorted): positional reasoning
/// about block boundaries needs the stream order preserved.
fn ordered_lines(ds: &Dataset) -> Vec<String> {
    ds.flat_records().map(|r| r.describe(&ds.store)).collect()
}

/// The byte range of block `ordinal`'s payload (past the tag and the
/// length varint), located through the footer index.
fn block_payload_range(bytes: &[u8], ordinal: usize) -> std::ops::Range<usize> {
    let index = caliper_format::read_footer(bytes).expect("v2 stream has a footer");
    let mut pos = index[ordinal].offset as usize + 1; // past TAG_BLOCK
    let mut len = 0u64;
    let mut shift = 0;
    loop {
        let b = bytes[pos];
        pos += 1;
        len |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            break;
        }
        shift += 7;
    }
    pos..pos + len as usize
}

proptest! {
    /// Chaos invariant (blast-radius containment): corrupting bytes
    /// inside ONE v2 block's payload loses at most that block. Lenient
    /// decode must resync at the next length frame, so every record of
    /// every other block survives byte-for-byte; the damaged block
    /// contributes a (possibly altered or empty) middle no larger than
    /// its row count. When the decoder *detects* the damage
    /// (`report.skipped > 0`) the loss is exact: the middle is empty
    /// and precisely the corrupted block's records are gone.
    #[test]
    fn v2_single_block_corruption_loses_at_most_that_block(
        records in 6usize..40,
        block_records in 2usize..6,
        ordinal_seed in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let ds = numbered_dataset(records);
        let bytes = caliper_format::to_binary_v2_with(&ds, block_records);
        let clean = ordered_lines(&caliper_format::binary::from_binary(&bytes).unwrap());
        let blocks = records.div_ceil(block_records);
        let ordinal = (ordinal_seed % blocks as u64) as usize;
        let start_row = ordinal * block_records;
        let end_row = (start_row + block_records).min(records);

        // Seeded damage confined to the chosen block's payload.
        let range = block_payload_range(&bytes, ordinal);
        let mut corrupt = bytes.clone();
        let mut payload = corrupt[range.clone()].to_vec();
        caliper_faults::corrupt_bytes(caliper_faults::CorruptMode::Bitflip, seed, &mut payload);
        corrupt[range].copy_from_slice(&payload);

        let (back, report) = caliper_format::binary::from_binary_with(
            &corrupt,
            ReadPolicy::lenient(),
        ).unwrap();
        let got = ordered_lines(&back);

        // Blocks before the damaged one decode first and unchanged ...
        prop_assert!(got.len() >= start_row, "lost records before the damaged block");
        prop_assert_eq!(&got[..start_row], &clean[..start_row]);
        // ... blocks after it survive the resync unchanged ...
        let tail = clean.len() - end_row;
        prop_assert!(got.len() <= clean.len());
        prop_assert_eq!(&got[got.len() - tail..], &clean[end_row..]);
        // ... and the damaged block's middle never grows.
        let middle = got.len() - start_row - tail;
        prop_assert!(middle <= end_row - start_row, "damaged block grew");
        prop_assert!(!report.truncated, "payload damage must resync, not truncate");
        if report.skipped > 0 {
            // Detected corruption drops exactly the damaged block.
            prop_assert_eq!(report.skipped, 1);
            prop_assert_eq!(middle, 0, "skipped block left records behind");
        }
    }
}

/// Deterministic companion to the proptest: damage that is *always*
/// detected (an absurd row-count varint) loses exactly the damaged
/// block, for every block ordinal.
#[test]
fn v2_detected_corruption_loses_exactly_the_damaged_block() {
    let records = 23;
    let ds = numbered_dataset(records);
    let bytes = caliper_format::to_binary_v2_with(&ds, 4);
    let clean = ordered_lines(&caliper_format::binary::from_binary(&bytes).unwrap());
    let blocks = caliper_format::read_footer(&bytes).unwrap().len();
    for ordinal in 0..blocks {
        let range = block_payload_range(&bytes, ordinal);
        let mut corrupt = bytes.clone();
        corrupt[range.start] = 0xff; // row count becomes a torn varint
        let (back, report) =
            caliper_format::binary::from_binary_with(&corrupt, ReadPolicy::lenient()).unwrap();
        let got = ordered_lines(&back);
        let mut expected = clean.clone();
        let start = ordinal * 4;
        let end = (start + 4).min(records);
        expected.drain(start..end);
        assert_eq!(got, expected, "block {ordinal}");
        assert_eq!(report.skipped, 1, "block {ordinal}");
        assert!(
            caliper_format::binary::from_binary(&corrupt).is_err(),
            "strict must reject block {ordinal}"
        );
    }
}

/// Text that needs every escape: separators, backslashes, both line
/// ends and the letters their escapes use, between arbitrary characters.
fn arb_text() -> impl Strategy<Value = String> {
    prop::collection::vec((any::<u8>(), any::<char>()), 0..24).prop_map(|picks| {
        let pick = |(pick, c): (u8, char)| match pick % 12 {
            0 => ',',
            1 => '=',
            2 => '\\',
            3 => '\n',
            4 => '\r',
            5 => 'n',
            6..=8 => (b'a' + pick % 26) as char,
            _ => c,
        };
        picks.into_iter().map(pick).collect()
    })
}

/// A value of the type `pick` selects, from arbitrary bits.
fn value_of(pick: u8, text: &str, bits: u64) -> Value {
    match pick % 5 {
        0 => Value::str(text),
        1 => Value::Int(bits as i64),
        2 => Value::UInt(bits),
        3 => Value::Float(f64::from_bits(bits)),
        _ => Value::Bool(bits & 1 == 1),
    }
}

proptest! {
    /// `CaliWriter` → `escape::fields`: what the writer's `escape_into`
    /// puts on a line, the reader's tokenizer takes off again field for
    /// field — attribute names, node values and immediates of every
    /// type — and each `data` field parses back to the value written.
    #[test]
    fn writer_and_tokenizer_roundtrip_field_for_field(
        names in prop::collection::vec(arb_text(), 5),
        values in prop::collection::vec((any::<u8>(), arb_text(), any::<u64>()), 0..8),
        node_text in arb_text(),
    ) {
        let mut ds = Dataset::new();
        let types =
            [ValueType::Str, ValueType::Int, ValueType::UInt, ValueType::Float, ValueType::Bool];
        let attrs: Vec<_> = types
            .iter()
            .zip(&names)
            .enumerate()
            .map(|(i, (t, name))| ds.attribute(&format!("{i}{name}"), *t, Properties::AS_VALUE))
            .collect();
        let node = ds.tree.get_child(NODE_NONE, attrs[0].id(), &Value::str(node_text.as_str()));
        let mut rec = SnapshotRecord::new();
        rec.push_node(node);
        let mut written = vec![("__rec".to_string(), "ctx".to_string())];
        written.push(("ref".to_string(), node.to_string()));
        for (pick, text, bits) in &values {
            let value = value_of(*pick, text, *bits);
            let attr = &attrs[*pick as usize % 5];
            written.push(("attr".to_string(), attr.id().to_string()));
            written.push(("data".to_string(), value.to_string()));
            rec.push_imm(attr.id(), value);
        }
        ds.push(rec);

        let text = String::from_utf8(cali::to_bytes(&ds)).unwrap();
        let mut declared = std::collections::HashMap::new();
        for line in text.lines() {
            let fields: Vec<(String, String)> = escape::fields(line)
                .map(|(k, v)| (k.into_owned(), v.into_owned()))
                .collect();
            let field = |key: &str| fields.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone());
            match field("__rec").as_deref() {
                Some("attr") => {
                    let id: u32 = field("id").unwrap().parse().unwrap();
                    let attr = ds.store.get(id).unwrap();
                    prop_assert_eq!(field("name").unwrap(), attr.name());
                    declared.insert(id, attr.value_type());
                }
                Some("node") => prop_assert_eq!(field("data").unwrap(), node_text.clone()),
                Some("ctx") => {
                    prop_assert_eq!(&fields, &written);
                    for pair in fields[2..].chunks(2) {
                        let vtype = declared[&pair[0].1.parse::<u32>().unwrap()];
                        let back = Value::parse_typed(&pair[1].1, vtype).unwrap();
                        prop_assert_eq!(back.to_string(), pair[1].1.clone());
                    }
                }
                other => prop_assert!(false, "unexpected line kind {:?}: {}", other, line),
            }
        }
        // And the reader, which sits on the same tokenizer, agrees.
        let back = cali::from_bytes(text.as_bytes()).unwrap();
        prop_assert_eq!(record_multiset(&back), record_multiset(&ds));
    }

    /// The text reader never panics, whatever the bytes: arbitrary
    /// garbage, and valid streams with arbitrary bytes (invalid UTF-8,
    /// lone backslashes, cut escapes) spliced into the middle of lines.
    /// A lenient read with budget to spare always succeeds and never
    /// reports more records than there are lines.
    #[test]
    fn text_reader_never_panics_on_arbitrary_bytes(
        garbage in prop::collection::vec(any::<u8>(), 0..256),
        splices in prop::collection::vec(
            (any::<u16>(), prop::collection::vec(any::<u8>(), 0..6)),
            0..6,
        ),
        cut in any::<u16>(),
    ) {
        let mut spliced = cali::to_bytes(&numbered_dataset(12));
        for (at, bytes) in &splices {
            let at = *at as usize % (spliced.len() + 1);
            spliced.splice(at..at, bytes.iter().copied());
        }
        spliced.truncate(cut as usize % (spliced.len() + 1));
        for bytes in [&garbage, &spliced] {
            let _ = cali::from_bytes_with(bytes, ReadPolicy::Strict);
            let lenient = ReadPolicy::Lenient { max_errors: u64::MAX };
            let (ds, report) = cali::from_bytes_with(bytes, lenient).unwrap();
            let lines = bytes.split(|&b| b == b'\n').count() as u64;
            prop_assert!(report.records <= lines && ds.len() as u64 <= report.records);
        }
    }
}

/// Megabyte lines — of one value, of escapes, cut inside an escape, of
/// nothing but text, of backslashes, of fields — are read or refused
/// like any other line, under both policies.
#[test]
fn text_reader_takes_megabyte_lines() {
    const MB: usize = 1 << 20;
    let head = "__rec=attr,id=0,name=k,type=string,prop=default\n";
    let long_value = format!("{head}__rec=ctx,attr=0,data={}\n", "v".repeat(MB));
    let ds = cali::from_bytes(long_value.as_bytes()).unwrap();
    assert_eq!(ds.len(), 1);

    let escapes = format!("{head}__rec=ctx,attr=0,data={}\n", "\\,".repeat(MB / 2));
    let ds = cali::from_bytes(escapes.as_bytes()).unwrap();
    let value = ds.flat_records().next().unwrap().pairs()[0].1.to_string();
    assert_eq!(value, ",".repeat(MB / 2));

    // A line cut inside an escape: the lone backslash stands for itself.
    let cut = format!("{head}__rec=ctx,attr=0,data={}\\\n", "v".repeat(MB));
    let ds = cali::from_bytes(cut.as_bytes()).unwrap();
    let value = ds.flat_records().next().unwrap().pairs()[0].1.to_string();
    assert!(value.len() == MB + 1 && value.ends_with("v\\"));

    for bad in [
        "x".repeat(MB),
        "\\".repeat(MB + 1),
        format!(
            "__rec=ctx{}",
            ",attr=0,data=v".repeat(MB / 14) + ",attr=torn"
        ),
    ] {
        let stream = format!("{head}{bad}\n__rec=ctx,attr=0,data=kept\n");
        assert!(cali::from_bytes(stream.as_bytes()).is_err());
        let (ds, report) = cali::from_bytes_with(stream.as_bytes(), ReadPolicy::lenient()).unwrap();
        assert_eq!((ds.len(), report.skipped), (1, 1), "{}", &bad[..40]);
    }
}

/// The writer as it was before its line encoder stopped allocating,
/// kept as the oracle for the bytes: every id and value through
/// `Display` into a fresh `String`, every field through `format!`,
/// escaping one character at a time, the entries of a record copied out
/// into lists first.
#[derive(Default)]
struct OldWriter {
    out: String,
    attrs: std::collections::HashSet<u32>,
    nodes: std::collections::HashSet<u32>,
    dangling_drops: u64,
}

fn old_escape(input: &str) -> String {
    let mut out = String::new();
    for ch in input.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            ',' => out.push_str("\\,"),
            '=' => out.push_str("\\="),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            other => out.push(other),
        }
    }
    out
}

impl OldWriter {
    fn ensure_attr(&mut self, ds: &Dataset, id: u32) {
        if self.attrs.contains(&id) {
            return;
        }
        let Some(attr) = ds.store.get(id) else {
            self.dangling_drops += 1;
            return;
        };
        self.attrs.insert(id);
        self.out += &format!(
            "__rec=attr,id={id},name={},type={},prop={}\n",
            old_escape(attr.name()),
            attr.value_type().name(),
            old_escape(&attr.properties().encode())
        );
    }

    fn ensure_node(&mut self, ds: &Dataset, id: u32) {
        let mut chain = Vec::new();
        let mut cur = id;
        while cur != NODE_NONE && !self.nodes.contains(&cur) {
            let Some(node) = ds.tree.node(cur) else {
                self.dangling_drops += 1;
                break;
            };
            let parent = node.parent;
            chain.push((cur, node));
            cur = parent;
        }
        for (id, node) in chain.into_iter().rev() {
            self.ensure_attr(ds, node.attr);
            self.nodes.insert(id);
            let parent = match node.parent {
                NODE_NONE => String::new(),
                parent => format!(",parent={parent}"),
            };
            self.out += &format!(
                "__rec=node,id={id},attr={}{parent},data={}\n",
                node.attr,
                old_escape(&node.value.to_string())
            );
        }
    }

    fn entry_list(&mut self, ds: &Dataset, kind: &str, refs: &[u32], imms: &[(u32, Value)]) {
        for &r in refs {
            self.ensure_node(ds, r);
        }
        for (a, _) in imms {
            self.ensure_attr(ds, *a);
        }
        let mut line = format!("__rec={kind}");
        for &r in refs {
            if r != NODE_NONE {
                line += &format!(",ref={r}");
            }
        }
        for (a, v) in imms {
            line += &format!(",attr={a},data={}", old_escape(&v.to_string()));
        }
        self.out += &line;
        self.out.push('\n');
    }

    fn snapshot(&mut self, ds: &Dataset, record: &SnapshotRecord) {
        let (mut refs, mut imms) = (Vec::new(), Vec::new());
        for entry in record.entries() {
            match entry {
                Entry::Node(id) => refs.push(*id),
                Entry::Imm(attr, value) => imms.push((*attr, value.clone())),
            }
        }
        self.entry_list(ds, "ctx", &refs, &imms);
    }

    fn globals(&mut self, ds: &Dataset, record: &FlatRecord) {
        self.entry_list(ds, "globals", &[], record.pairs());
    }
}

/// [`value_of`], steered towards the values with an unusual text form.
fn edge_value_of(pick: u8, text: &str, bits: u64) -> Value {
    match (pick % 5, bits % 8) {
        (1, 0) => Value::Int(i64::MIN),
        (1, 1) => Value::Int(i64::MAX),
        (1, 2) => Value::Int(-((bits >> 50) as i64)),
        (2, 0) => Value::UInt(u64::MAX),
        (2, 1) => Value::UInt(0),
        (3, 0) => Value::Float(f64::NAN),
        (3, 1) => Value::Float(f64::INFINITY),
        (3, 2) => Value::Float(f64::NEG_INFINITY),
        (3, 3) => Value::Float(-0.0),
        (3, 4) => Value::Float(f64::from_bits(bits >> 12)), // subnormal
        (3, 5) => Value::Float(-f64::MIN_POSITIVE),
        _ => value_of(pick, text, bits),
    }
}

/// A dataset whose five immediate attributes (one per type) and nested
/// attribute have arbitrary names, with a context tree over `node_values`.
fn named_dataset(names: &[String], node_values: &[(u8, String, u64)]) -> (Dataset, Vec<u32>, Vec<u32>) {
    let ds = Dataset::new();
    let types = [ValueType::Str, ValueType::Int, ValueType::UInt, ValueType::Float, ValueType::Bool];
    let attrs: Vec<u32> = types
        .iter()
        .zip(names)
        .enumerate()
        .map(|(i, (t, name))| ds.attribute(&format!("{i}{name}"), *t, Properties::AS_VALUE).id())
        .collect();
    let nested = ds.attribute(&format!("n{}", names[5]), ValueType::Str, Properties::NESTED).id();
    let mut nodes: Vec<u32> = Vec::new();
    for (pick, text, bits) in node_values {
        // A child of an earlier node, or a root; under the nested
        // attribute or — values of any type — one of the others.
        let parent = match nodes.len() {
            0 => NODE_NONE,
            n if pick % 3 == 0 => nodes[*bits as usize % n],
            _ => NODE_NONE,
        };
        let attr = if pick % 2 == 0 { nested } else { attrs[*pick as usize % 5] };
        nodes.push(ds.tree.get_child(parent, attr, &edge_value_of(*pick, text, *bits)));
    }
    (ds, attrs, nodes)
}

proptest! {
    /// The allocation-free line encoder writes exactly the bytes the
    /// `to_string` / `format!` writer wrote — attribute and node
    /// declarations, `ctx` and `globals` lines — for arbitrary records:
    /// values of any type under any attribute, the floats and integers
    /// whose text form is unusual, names and strings that need every
    /// escape, `NODE_NONE` references, and ids that resolve to nothing
    /// (written as they are, and counted alike).
    #[test]
    fn line_encoder_writes_the_bytes_of_the_to_string_writer(
        names in prop::collection::vec(arb_text(), 6),
        node_values in prop::collection::vec((any::<u8>(), arb_text(), any::<u64>()), 1..6),
        records in prop::collection::vec(
            prop::collection::vec((any::<u8>(), any::<u8>(), arb_text(), any::<u64>()), 0..8),
            1..6,
        ),
        globals in prop::collection::vec((any::<u8>(), arb_text(), any::<u64>()), 0..4),
    ) {
        let (mut ds, attrs, nodes) = named_dataset(&names, &node_values);
        for entries in &records {
            let mut rec = SnapshotRecord::new();
            for (kind, pick, text, bits) in entries {
                let value = edge_value_of(*pick, text, *bits);
                match kind % 8 {
                    0 | 1 => rec.push_node(nodes[*bits as usize % nodes.len()]),
                    2 => rec.push_node(NODE_NONE),
                    3 => rec.push_node(9_000 + *pick as u32),
                    4 => rec.push_imm(4_242 + *pick as u32 % 2, value),
                    // Any value under any attribute: the writer prints
                    // the value's own type.
                    _ => rec.push_imm(attrs[*kind as usize % 5], value),
                }
            }
            ds.push(rec);
        }
        if !globals.is_empty() {
            let pairs = globals
                .iter()
                .map(|(pick, text, bits)| (attrs[*pick as usize % 5], edge_value_of(*pick, text, *bits)));
            ds.push_global(FlatRecord::from_pairs(pairs.collect()));
        }

        let mut old = OldWriter::default();
        let mut new = caliper_format::CaliWriter::new(Vec::new());
        for g in &ds.globals {
            old.globals(&ds, g);
            new.write_globals(&ds, g).unwrap();
        }
        for rec in &ds.records {
            old.snapshot(&ds, rec);
            new.write_snapshot(&ds, rec).unwrap();
        }
        prop_assert_eq!(new.dangling_drops(), old.dangling_drops);
        let written = String::from_utf8(new.finish().unwrap()).unwrap();
        prop_assert_eq!(&written, &old.out);
        prop_assert_eq!(String::from_utf8(cali::to_bytes(&ds)).unwrap(), old.out);
    }

    /// `write_block` over a decoded block is `write_snapshot` over the
    /// records `append_records` derives from it, row for row — for the
    /// stamped blocks of successive batches through one resident reader.
    /// And a journal of the batches as sent (`JournalWriter::append_batch`)
    /// counts what as many `append_snapshot` calls of those records count,
    /// whatever the flush policy, and replays to the same records.
    #[test]
    fn write_block_is_write_snapshot_over_the_derived_records(
        names in prop::collection::vec(arb_text(), 6),
        node_values in prop::collection::vec((any::<u8>(), arb_text(), any::<u64>()), 1..6),
        batches in prop::collection::vec(
            prop::collection::vec(
                prop::collection::vec((any::<u8>(), any::<u8>(), arb_text(), any::<u64>()), 0..6),
                0..12,
            ),
            1..4,
        ),
        policy in 0usize..4,
    ) {
        let policy = [
            FlushPolicy { flush_interval: 1, ..FlushPolicy::default() },
            FlushPolicy { flush_interval: 7, ..FlushPolicy::default() },
            FlushPolicy { flush_interval: u64::MAX, ..FlushPolicy::default() },
            // A buffer of a line or two: forced flushes on every append.
            FlushPolicy { flush_interval: u64::MAX, max_buffer: 64, fsync: false },
        ][policy];
        let dir = std::env::temp_dir().join(format!("caliper-write-block-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (block_path, row_path) = (dir.join("block.cali"), dir.join("row.cali"));
        let mut block_journal = JournalWriter::create(&block_path, policy).unwrap();
        let mut row_journal = JournalWriter::create(&row_path, policy).unwrap();
        let mut by_block = caliper_format::CaliWriter::new(Vec::new());
        let mut by_row = caliper_format::CaliWriter::new(Vec::new());

        let mut reader = CaliReader::new();
        let seq = reader.dataset().attribute(SEQ_ATTR, ValueType::UInt, Properties::AS_VALUE).id();
        let mut next_seq = 0;
        for records in &batches {
            // The batch as a producer sends it: typed values, text.
            let (mut ds, attrs, nodes) = named_dataset(&names, &node_values);
            for entries in records {
                let mut rec = SnapshotRecord::new();
                for (kind, pick, text, bits) in entries {
                    match kind % 4 {
                        0 => rec.push_node(nodes[*bits as usize % nodes.len()]),
                        _ => rec.push_imm(attrs[*pick as usize % 5], edge_value_of(*pick, text, *bits)),
                    }
                }
                ds.push(rec);
            }
            let payload = cali::to_bytes(&ds);
            let (ds, strings, block) = reader.read_batch(&payload, seq, next_seq).unwrap();
            prop_assert_eq!(block.rows(), records.len());
            let rows = block.rows() as u64;

            let mut derived = Vec::new();
            block.append_records(strings, &mut derived);
            by_block.write_block(ds, strings, block).unwrap();
            block_journal.append_batch(next_seq, rows, &payload).unwrap();
            for rec in &derived {
                by_row.write_snapshot(ds, rec).unwrap();
                row_journal.append_snapshot(ds, rec).unwrap();
            }
            next_seq += rows;
            let (framed, lined) = (block_journal.counters(), row_journal.counters());
            prop_assert_eq!(framed.appended, lined.appended);
            prop_assert_eq!(framed.durable + block_journal.pending(), lined.durable + row_journal.pending());
        }
        let (by_block, by_row) = (by_block.finish().unwrap(), by_row.finish().unwrap());
        let lines = |bytes: &[u8]| -> Vec<String> {
            String::from_utf8(bytes.to_vec()).unwrap().lines().map(str::to_string).collect()
        };
        prop_assert_eq!(lines(&by_block), lines(&by_row));
        prop_assert_eq!(by_block, by_row);
        drop((block_journal, row_journal));
        let replay = |path: &std::path::Path| {
            let (ds, report) = caliper_format::journal::recover_file(path, ReadPolicy::Strict).unwrap();
            let records: Vec<String> = ds.flat_records().map(|r| r.describe(&ds.store)).collect();
            (records, report.salvaged, report.max_seq, report.data_lost())
        };
        prop_assert_eq!(replay(&block_path), replay(&row_path));
    }
}

/// The dictionary of the `ctx` / `globals` lines below: a string, an
/// int, a uint, a double and a bool attribute (ids 0–4), and two nodes
/// (ids 0 and 1).
const ENTRY_HEAD: &str = "__rec=attr,id=0,name=s,type=string,prop=default\n\
                          __rec=attr,id=1,name=i,type=int,prop=asvalue\n\
                          __rec=attr,id=2,name=u,type=uint,prop=asvalue\n\
                          __rec=attr,id=3,name=f,type=double,prop=asvalue\n\
                          __rec=attr,id=4,name=b,type=bool,prop=asvalue\n\
                          __rec=node,id=0,attr=0,data=root\n\
                          __rec=node,id=1,attr=0,parent=0,data=leaf\n";

/// Ids as a line may spell them: declared ones, with a `+` or leading
/// zeros, ten digits, the largest `u32` (declared by nothing), past it,
/// empty, signed, and not a number.
const ENTRY_IDS: &[&str] = &[
    "0", "1", "2", "3", "4", "+1", "003", "0000000004", "4294967295", "4294967296",
    "99999999999", "", "+", "-1", "1x", "1=2",
];

/// Values as a line may spell them (escapes written out): strings with
/// escaped separators, backslashes and newlines, signed, overflowing and
/// floating-point numbers, booleans.
const ENTRY_VALUES: &[&str] = &[
    "x", "a\\,b", "k\\=v", "back\\\\slash", "two\\nlines", "a=b", "-5", "+7", "007",
    "9223372036854775808", "-9223372036854775809", "18446744073709551616", "1.5", "-0.0",
    "1e300", "inf", "true", "0", "",
];

/// A field of a generated `ctx` / `globals` line: its key and value as
/// written, or `None` for an empty field (`,,`).
type EntryFieldText = Option<(String, String)>;

/// One field, or — half the time — an `attr` / `data` pair, which on the
/// string attribute 0 always reads.
fn arb_entry_fields() -> impl Strategy<Value = Vec<EntryFieldText>> {
    (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(kind, id, value)| {
        let field = |key: &str, text: &str| Some((key.to_string(), text.to_string()));
        let id = ENTRY_IDS[id as usize % ENTRY_IDS.len()];
        let value = ENTRY_VALUES[value as usize % ENTRY_VALUES.len()];
        match kind % 12 {
            0 => vec![field("attr", "0"), field("data", value)],
            1..=5 => vec![field("attr", id), field("data", value)],
            6 => vec![field("attr", id)],
            7 => vec![field("ref", id)],
            8 => vec![field("data", value)],
            9 | 10 => vec![field("note", value)],
            _ => vec![None],
        }
    })
}

/// `text` with a backslash put before its first character that does
/// not start or end an escape already and is no `n` or `r` (whose escapes
/// mean a line break): the text unescapes to what it did before.
fn escape_one(text: &str) -> String {
    let (mut out, mut done) = (String::new(), false);
    let mut chars = text.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            out.push(c);
            out.extend(chars.next());
            continue;
        }
        if !done && c != 'n' && c != 'r' {
            out.push('\\');
            done = true;
        }
        out.push(c);
    }
    out
}

/// The stream of `lines` after [`ENTRY_HEAD`]; with `escaped`, every
/// key and value of every data line carries one more escape.
fn entry_stream(lines: &[(bool, Vec<EntryFieldText>, u8)], escaped: bool) -> Vec<u8> {
    let spell = |text: &str| if escaped { escape_one(text) } else { text.to_string() };
    let mut out = ENTRY_HEAD.to_string();
    for (globals, fields, end) in lines {
        let kind = if *globals { "globals" } else { "ctx" };
        let mut line = format!("{}={}", spell("__rec"), spell(kind));
        for field in fields {
            line.push(',');
            if let Some((key, value)) = field {
                line.push_str(&format!("{}={}", spell(key), spell(value)));
            }
        }
        line.push_str(match end % 3 {
            0 => "\n",
            1 => ",\n",
            _ => "\r\n",
        });
        out.push_str(&line);
    }
    out.into_bytes()
}

/// Everything a read of `bytes` under `policy` tells: the result, the
/// report, the rows and globals decoded.
fn read_outcome(bytes: &[u8], policy: ReadPolicy) -> String {
    let mut reader = CaliReader::new();
    let mut report = ReadReport::default();
    let read = reader.read_stream_with(bytes, policy, &mut report);
    let ds = reader.finish();
    let globals: Vec<String> = ds.globals.iter().map(|g| g.describe(&ds.store)).collect();
    format!("{read:?}\n{report:?}\nrows {:?}\nglobals {globals:?}", ordered_lines(&ds))
}

proptest! {
    /// The in-place read of a `ctx` / `globals` line and the tokenizer
    /// it falls back to agree: one more escape in every key and value —
    /// which sends every field, and the `__rec` field, through
    /// `escape::fields` — changes no row, no global, no error text and
    /// no count of the report, strict or lenient.
    #[test]
    fn fields_read_in_place_read_as_the_tokenizer_reads_them(
        lines in prop::collection::vec(
            (any::<bool>(), prop::collection::vec(arb_entry_fields(), 0..6), any::<u8>()),
            1..6,
        ),
    ) {
        let lines: Vec<_> = lines
            .into_iter()
            .map(|(globals, fields, end)| (globals, fields.concat(), end))
            .collect();
        let (plain, escaped) = (entry_stream(&lines, false), entry_stream(&lines, true));
        for policy in [ReadPolicy::Strict, ReadPolicy::lenient()] {
            prop_assert_eq!(read_outcome(&plain, policy), read_outcome(&escaped, policy));
        }
    }
}

/// A dataset for the odd-dictionary streams: a nested `fn` path whose
/// nodes later blocks keep referring to, two integer immediates that
/// come alone, together or not at all, block by block (4 records a
/// block), and a string immediate.
fn dictionary_dataset() -> Dataset {
    let mut ds = Dataset::new();
    let func = ds.attribute("fn", ValueType::Str, Properties::NESTED);
    let alpha = ds.attribute("alpha", ValueType::Int, Properties::AS_VALUE);
    let omega = ds.attribute("omega", ValueType::Int, Properties::AS_VALUE);
    let kind = ds.attribute("kind", ValueType::Str, Properties::AS_VALUE);
    let main = ds.tree.get_child(NODE_NONE, func.id(), &Value::str("main"));
    let inner = ds.tree.get_child(main, func.id(), &Value::str("inner"));
    for i in 0..48i64 {
        let mut rec = SnapshotRecord::new();
        match i % 3 {
            0 => rec.push_node(main),
            1 => rec.push_node(inner),
            _ if i >= 32 => {
                let late = ds.tree.get_child(NODE_NONE, func.id(), &Value::str("late"));
                rec.push_node(late);
            }
            _ => {}
        }
        if (0..8).contains(&i) || (16..24).contains(&i) || i >= 32 {
            rec.push_imm(alpha.id(), Value::Int(i));
        }
        if (8..24).contains(&i) || i % 7 == 0 {
            rec.push_imm(omega.id(), Value::Int(100 - i));
        }
        if i % 5 != 0 {
            rec.push_imm(kind.id(), Value::str(if i < 20 { "x" } else { "y" }));
        }
        ds.push(rec);
    }
    ds
}

/// A v2 stream of `ds` at 4 records a block, its footer cut off (the
/// edits below move the blocks it indexes), and its block offsets.
fn footerless_v2(ds: &Dataset) -> (Vec<u8>, Vec<usize>) {
    let mut bytes = caliper_format::to_binary_v2_with(ds, 4);
    let offsets = caliper_format::read_footer(&bytes).unwrap().iter().map(|b| b.offset as usize).collect();
    bytes.truncate(bytes.len() - footer_bytes(&bytes));
    (bytes, offsets)
}

/// A `TAG_ATTR` record declaring stream id `id` (< 128) as `name`.
fn attr_record(id: u8, name: &str, vtype: ValueType) -> Vec<u8> {
    let tag = match vtype {
        ValueType::Str => 0,
        ValueType::Int => 1,
        _ => unreachable!("the odd dictionaries declare strings and integers"),
    };
    [&[0x01, id, name.len() as u8][..], name.as_bytes(), &[tag, 0]].concat()
}

/// Every pushable WHERE on every name the stream declares (and on one
/// it never declares) keeps exactly the rows that pass it in the same
/// read without pushdown. Returns how many blocks the pushdowns skipped.
fn assert_pushdown_sound(bytes: &[u8], what: &str) -> u64 {
    let full = caliper_format::binary::from_binary(bytes).unwrap();
    let mut names: Vec<String> = full.store.all().iter().map(|a| a.name().to_string()).collect();
    names.push("no.such.attr".into());
    let mut skipped = 0;
    for name in &names {
        let mut literals = vec![Value::Int(5), Value::str("x")];
        if let Some(attr) = full.store.find(name) {
            for rec in full.flat_records() {
                for value in rec.all(attr.id()) {
                    if !literals.contains(value) {
                        literals.push(value.clone());
                    }
                }
            }
        }
        for filter in every_filter(name, &literals) {
            let mut pd = Pushdown::new();
            pd.push(filter.clone());
            let mut report = ReadReport::default();
            let filtered = caliper_format::binary::read_binary_into_filtered(
                bytes,
                Dataset::new(),
                ReadPolicy::Strict,
                &mut report,
                Some(&pd),
            )
            .unwrap();
            skipped += report.blocks_skipped;
            assert_eq!(
                passing_records(&full, &filter),
                passing_records(&filtered, &filter),
                "{what}: {filter:?}"
            );
        }
    }
    skipped
}

/// One attribute name under two stream ids: a block's zone for either
/// id alone is the attribute's zone only when the other id is absent
/// from the block.
#[test]
fn pushdown_is_sound_when_one_name_has_two_stream_ids() {
    let (mut bytes, _) = footerless_v2(&dictionary_dataset());
    let at = bytes.windows(5).position(|w| w == b"omega").unwrap();
    assert_eq!(bytes.windows(5).filter(|w| w == b"omega").count(), 1);
    bytes[at..at + 5].copy_from_slice(b"alpha");
    let full = caliper_format::binary::from_binary(&bytes).unwrap();
    assert!(full.store.find("omega").is_none(), "both ids now name alpha");
    assert!(assert_pushdown_sound(&bytes, "two ids, one name") > 0);
}

/// A stream id declared again under another name between blocks: later
/// blocks still refer to nodes made under the old name, and their zone
/// for that id mixes both names' values.
#[test]
fn pushdown_is_sound_when_a_stream_id_is_renamed_between_blocks() {
    let ds = dictionary_dataset();
    let (bytes, offsets) = footerless_v2(&ds);
    let id = |name: &str| ds.store.find(name).unwrap().id() as u8;
    for (renamed, vtype, to) in [("fn", ValueType::Str, "fx"), ("alpha", ValueType::Int, "gamma")] {
        for cut in [offsets[1], offsets[5]] {
            let spliced =
                [&bytes[..cut], &attr_record(id(renamed), to, vtype)[..], &bytes[cut..]].concat();
            let full = caliper_format::binary::from_binary(&spliced).unwrap();
            assert!(full.store.find(to).is_some());
            let what = format!("{renamed} renamed {to} at byte {cut}");
            assert!(assert_pushdown_sound(&spliced, &what) > 0, "{what}");
        }
    }
}

/// A WHERE on a name the stream never declares: no row carries it, so
/// every block is skipped or kept as the row test decides, and none of
/// the rows it keeps is lost.
#[test]
fn pushdown_is_sound_on_a_name_the_stream_never_declares() {
    let (bytes, _) = footerless_v2(&dictionary_dataset());
    assert!(assert_pushdown_sound(&bytes, "undeclared name") > 0);
}
