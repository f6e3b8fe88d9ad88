//! The `.cali` stream codec.
//!
//! A `.cali` stream is a line-oriented encoding of one dataset. It is
//! self-describing: attribute metadata and context-tree nodes are written
//! as records of their own, on first reference, so a reader can rebuild
//! the dictionary and tree incrementally while scanning the stream.
//!
//! Record kinds (the `__rec` field selects the kind):
//!
//! ```text
//! __rec=attr,id=<u32>,name=<esc>,type=<typename>,prop=<propnames>
//! __rec=node,id=<u32>,attr=<u32>,parent=<u32>,data=<esc>     (parent omitted for roots)
//! __rec=ctx[,ref=<u32>]*[,attr=<u32>,data=<esc>]*             (one snapshot)
//! __rec=globals[,ref=<u32>]*[,attr=<u32>,data=<esc>]*         (dataset metadata)
//! ```
//!
//! A globals record holds `attr`/`data` pairs only: the reader checks
//! that a `globals` line's `ref`s name declared nodes and then drops
//! them, and no writer emits them. An `attr` field must be followed by
//! its `data` field before the line ends and before the next `attr` or
//! `ref`; other keys are passed over.
//!
//! Immediate values are rendered with [`Value`]'s `Display` and parsed
//! back using the attribute's declared type, so the encoding is
//! type-faithful for int/uint/bool and shortest-roundtrip for floats.
//!
//! # Writing
//!
//! There is one line encoder ([`CaliWriter`]). A data line is built in
//! the writer's line buffer from the record's entries where they lie —
//! a [`SnapshotRecord`]'s entry list, a globals record's pairs, or a row
//! of a decoded [`Block`] — ids and integers appended as digits, floats
//! and booleans through their `Display`, strings through
//! [`escape_into`] (which copies a string that needs no escape in one
//! piece). Nothing is allocated per record once the attributes and
//! nodes it refers to have been declared; the bytes are those of
//! `Display` + [`escape`](crate::escape::escape) field by field, which a
//! property test pins against a `format!` / `to_string` writer.
//! [`CaliWriter::write_block`] writes the rows of a block without
//! deriving records from it, byte for byte what
//! [`CaliWriter::write_snapshot`] writes for the derived ones.
//!
//! # Reading
//!
//! There is one line grammar and one tokenizer,
//! [`escape::fields`](crate::escape::fields), which cuts a line into
//! borrowed `key=value` fields (a field is copied only to resolve a
//! backslash escape). The fields that make up nearly all of a file are
//! read in place instead: a line that starts `__rec=ctx,` is recognised
//! without tokenising that field, and a `ctx` or `globals` line's
//! `ref=`, `attr=` and `data=` fields are matched as literal bytes — an
//! id parsed from its digits where they lie (what `u32::from_str`
//! accepts), a value borrowed up to the next `,`. Any other field — an
//! escaped key, a backslash in a value, an id the in-place read
//! declines, an unknown key, an empty field — goes through the
//! tokenizer, which reads a plain field the same way. A `ctx` line
//! appends a row straight to a [`Block`] of typed columns — the
//! structure the CALB v2 decoder fills — without building a record:
//! node references as remapped ids, each immediate parsed by its
//! attribute's declared type straight into a cell of that attribute's
//! column, strings interned once per stream. A line that fails is taken
//! back out of the block, so a lenient skip loses exactly that line.
//! Blocks of [`DEFAULT_BLOCK_RECORDS`] rows go to a [`BlockSink`]:
//! [`CaliReader::scan_stream`] hands them to the caller as columns
//! (which is how [`scan_path`](crate::scan_path) and the query engine's
//! columnar fold read text), and every entry point that returns rows —
//! [`from_bytes`], [`CaliReader::read_stream`] and friends, the
//! `read_path*` family, journal recovery — derives its records from the
//! same blocks with [`Block::append_records`].
//!
//! A reader is not tied to one stream. Beginning another one forgets
//! the ids the finished stream declared and keeps the dataset's
//! dictionary, the string table and every buffer, so a resident service
//! reads batch after batch — each a self-describing stream with an id
//! space of its own — through one reader, and replays its journal
//! through it too ([`recover_blocks`](crate::journal::recover_blocks)).
//! [`CaliReader::read_batch`] decodes a batch strictly and *whole*, as
//! one block however many rows it has, every row stamped with its
//! sequence number as one more column. Nothing of a batch exists
//! outside the reader until its last line has validated, which is what
//! lets the service reject a batch with a bad line at any ordinal
//! without having journaled or folded any of it.

use std::borrow::Cow;
use std::io::{self, BufRead, Write};
use std::path::Path;

use caliper_data::{
    AttrId, Entry, FlatRecord, FxHashMap, FxHashSet, NodeId, Properties, SnapshotRecord, Value,
    ValueType, NODE_NONE,
};

use crate::binary_v2::{
    append_rows, Block, BlockSink, Cell, StringTable, DEFAULT_BLOCK_RECORDS,
};
use crate::dataset::Dataset;
use crate::escape::{escape_into, fields, Fields};
use crate::policy::{ReadPolicy, ReadReport};

/// Errors produced by the `.cali` reader.
#[derive(Debug)]
pub enum CaliError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Malformed record with a description and 1-based line number.
    Parse {
        /// 1-based line number of the offending record.
        line: usize,
        /// Human-readable description of the problem.
        message: String,
    },
    /// Malformed binary (CALB) input, at the byte it was found.
    Decode {
        /// The CALB v2 block whose payload holds the fault (its ordinal
        /// in the stream, from 0), or `None` outside a block payload.
        block: Option<u64>,
        /// Offset of the fault: in the stream, or in the block's payload.
        byte: usize,
        /// Human-readable description of the problem.
        message: String,
    },
    /// A failure attributed to a specific input file: wraps the
    /// underlying I/O or parse error with the path, so multi-file tools
    /// can report *which* input was bad.
    File {
        /// Path of the file that failed to read or parse.
        path: std::path::PathBuf,
        /// The underlying failure.
        source: Box<CaliError>,
    },
}

impl CaliError {
    /// Attributes this error to `path` (no-op if it already names a
    /// file, preserving the innermost attribution).
    pub fn with_path(self, path: impl Into<std::path::PathBuf>) -> CaliError {
        match self {
            CaliError::File { .. } => self,
            other => CaliError::File {
                path: path.into(),
                source: Box::new(other),
            },
        }
    }
}

impl std::fmt::Display for CaliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CaliError::Io(e) => write!(f, "i/o error: {e}"),
            CaliError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
            CaliError::Decode { block, byte, message } => match block {
                None => write!(f, "decode error at byte {byte}: {message}"),
                Some(k) => write!(f, "decode error in block {k} at payload byte {byte}: {message}"),
            },
            CaliError::File { path, source } => {
                write!(f, "{}: {source}", path.display())
            }
        }
    }
}

impl std::error::Error for CaliError {}

impl From<io::Error> for CaliError {
    fn from(e: io::Error) -> CaliError {
        CaliError::Io(e)
    }
}

/// Streaming `.cali` writer.
///
/// Attribute and node records are emitted lazily, the first time a
/// snapshot references them, so the stream stays compact and can be
/// produced incrementally while the target program runs.
///
/// There is one line encoder behind snapshots
/// ([`write_snapshot`](Self::write_snapshot)), globals
/// ([`write_globals`](Self::write_globals)) and decoded blocks
/// ([`write_block`](Self::write_block)) alike. It walks a record's
/// entries in place and appends ids, numbers and strings straight to
/// the line buffer, so once a record's dictionary has been declared,
/// writing it allocates nothing.
pub struct CaliWriter<W: Write> {
    out: W,
    written_attrs: FxHashSet<AttrId>,
    written_nodes: FxHashSet<NodeId>,
    line: String,
    dangling_drops: u64,
    /// Per-block scratch of `write_block`: the next unwritten value of
    /// each column.
    cursors: Vec<usize>,
}

impl<W: Write> CaliWriter<W> {
    /// Create a writer over any `io::Write` sink.
    pub fn new(out: W) -> CaliWriter<W> {
        CaliWriter {
            out,
            written_attrs: FxHashSet::default(),
            written_nodes: FxHashSet::default(),
            line: String::with_capacity(256),
            dangling_drops: 0,
            cursors: Vec::new(),
        }
    }

    /// Number of attribute/node references that could not be emitted
    /// because the id did not resolve in the dataset's store or tree.
    /// Such references are dropped from the stream (there is no valid
    /// metadata to write for them), but never silently: callers can
    /// check this counter after writing and warn.
    pub fn dangling_drops(&self) -> u64 {
        self.dangling_drops
    }

    fn ensure_attr(&mut self, ds: &Dataset, id: AttrId) -> io::Result<()> {
        if self.written_attrs.contains(&id) {
            return Ok(());
        }
        let attr = match ds.store.get(id) {
            Some(a) => a,
            None => {
                // Dangling id: nothing can be written for it. Count the
                // drop so it is observable instead of silent data loss.
                self.dangling_drops += 1;
                return Ok(());
            }
        };
        self.written_attrs.insert(id);
        self.begin_line("attr");
        self.line.push_str(",id=");
        push_u64(&mut self.line, u64::from(id));
        self.line.push_str(",name=");
        escape_into(attr.name(), &mut self.line);
        self.line.push_str(",type=");
        self.line.push_str(attr.value_type().name());
        self.line.push_str(",prop=");
        // The property list is comma-separated and must be escaped.
        escape_into(&attr.properties().encode(), &mut self.line);
        self.end_line()
    }

    fn ensure_node(&mut self, ds: &Dataset, id: NodeId) -> io::Result<()> {
        if id == NODE_NONE || self.written_nodes.contains(&id) {
            return Ok(());
        }
        // Parents must appear before children so the reader can rebuild
        // the tree in one pass. Collect the unwritten ancestor chain
        // iteratively — nesting can be arbitrarily deep, so recursion
        // would overflow the stack.
        let mut chain = Vec::new();
        let mut cur = id;
        while cur != NODE_NONE && !self.written_nodes.contains(&cur) {
            let Some(node) = ds.tree.node(cur) else {
                // Dangling id in the ancestor chain: drop the remainder
                // of the chain, counted so callers can surface it.
                self.dangling_drops += 1;
                break;
            };
            let parent = node.parent;
            chain.push((cur, node));
            cur = parent;
        }
        for (id, node) in chain.into_iter().rev() {
            self.ensure_attr(ds, node.attr)?;
            self.written_nodes.insert(id);
            self.begin_line("node");
            self.line.push_str(",id=");
            push_u64(&mut self.line, u64::from(id));
            self.line.push_str(",attr=");
            push_u64(&mut self.line, u64::from(node.attr));
            if node.parent != NODE_NONE {
                self.line.push_str(",parent=");
                push_u64(&mut self.line, u64::from(node.parent));
            }
            self.line.push_str(",data=");
            push_value(&mut self.line, &node.value);
            self.end_line()?;
        }
        Ok(())
    }
}

// ---- the line encoder ----
//
// Everything from here to the end of `write_block` runs per record (the
// declarations above run once per id) and allocates nothing: no id or
// value is formatted into a `String` of its own, no entry is cloned, no
// list copied — `scripts/check.sh` holds this stretch to it. A data
// line is written after everything it refers to has been declared
// (`ensure_*` share the buffer), in four steps: begin, the node
// references, the immediates, end.

/// Append `n` in decimal, as `Display` prints it.
pub(crate) fn push_u64(line: &mut String, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    line.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
}

/// Append `magnitude` in decimal, after a `-` when `negative`.
pub(crate) fn push_int(line: &mut String, magnitude: u64, negative: bool) {
    if negative {
        line.push('-');
    }
    push_u64(line, magnitude);
}

/// Append `value` as a `data=` field carries it: [`Value`]'s `Display`,
/// escaped. Only strings can hold a character that needs escaping.
fn push_value(line: &mut String, value: &Value) {
    use std::fmt::Write;
    match value {
        Value::Str(text) => escape_into(text, line),
        Value::Int(i) => push_int(line, i.unsigned_abs(), *i < 0),
        Value::UInt(u) => push_u64(line, *u),
        Value::Float(x) => write!(line, "{x}").expect("writing to a String cannot fail"),
        Value::Bool(b) => write!(line, "{b}").expect("writing to a String cannot fail"),
    }
}

impl<W: Write> CaliWriter<W> {
    /// Start a line of record kind `kind`.
    fn begin_line(&mut self, kind: &str) {
        self.line.clear();
        self.line.push_str("__rec=");
        self.line.push_str(kind);
    }

    /// Add a `ref=` field ([`NODE_NONE`] stands for "no node" and is
    /// left out).
    fn push_ref(&mut self, node: NodeId) {
        if node != NODE_NONE {
            self.line.push_str(",ref=");
            push_u64(&mut self.line, u64::from(node));
        }
    }

    /// Add an `attr=`/`data=` field pair.
    fn push_imm(&mut self, attr: AttrId, value: &Value) {
        self.line.push_str(",attr=");
        push_u64(&mut self.line, u64::from(attr));
        self.line.push_str(",data=");
        push_value(&mut self.line, value);
    }

    /// Terminate the line and hand it to the sink.
    fn end_line(&mut self) -> io::Result<()> {
        self.line.push('\n');
        self.out.write_all(self.line.as_bytes())
    }

    /// Write one snapshot record: the dictionary records it needs that
    /// the stream does not hold yet (nodes, then attributes), then its
    /// node references, then its immediates.
    pub fn write_snapshot(&mut self, ds: &Dataset, record: &SnapshotRecord) -> io::Result<()> {
        let entries = record.entries();
        for entry in entries {
            if let Entry::Node(node) = entry {
                self.ensure_node(ds, *node)?;
            }
        }
        for entry in entries {
            if let Entry::Imm(attr, _) = entry {
                self.ensure_attr(ds, *attr)?;
            }
        }
        self.begin_line("ctx");
        for entry in entries {
            if let Entry::Node(node) = entry {
                self.push_ref(*node);
            }
        }
        for entry in entries {
            if let Entry::Imm(attr, value) = entry {
                self.push_imm(*attr, value);
            }
        }
        self.end_line()
    }

    /// Write one globals (metadata) record.
    pub fn write_globals(&mut self, ds: &Dataset, record: &FlatRecord) -> io::Result<()> {
        for (attr, _) in record.pairs() {
            self.ensure_attr(ds, *attr)?;
        }
        self.begin_line("globals");
        for (attr, value) in record.pairs() {
            self.push_imm(*attr, value);
        }
        self.end_line()
    }

    /// Write the rows of a decoded [`Block`] as snapshot records: byte
    /// for byte what [`write_snapshot`](Self::write_snapshot) writes for
    /// the records [`Block::append_records`] derives from the same
    /// block, without building them. `strings` is the table the block's
    /// string codes refer to, `ds` the dataset it was decoded into.
    pub fn write_block(&mut self, ds: &Dataset, strings: &StringTable, block: &Block) -> io::Result<()> {
        let columns = block.columns();
        self.cursors.clear();
        self.cursors.resize(columns.len(), 0);
        for row in 0..block.rows() {
            let (refs, imms) = (block.row_refs(row), block.row_imms(row));
            for &node in refs {
                self.ensure_node(ds, node)?;
            }
            for &c in imms {
                self.ensure_attr(ds, columns[c as usize].attr)?;
            }
            self.begin_line("ctx");
            for &node in refs {
                self.push_ref(node);
            }
            for &c in imms {
                let column = &columns[c as usize];
                let next = self.cursors[c as usize];
                self.cursors[c as usize] = next + 1;
                self.push_imm(column.attr, &strings.get(column.data.get(next)));
            }
            self.end_line()?;
        }
        Ok(())
    }

    /// Write a whole dataset: globals first, then all snapshots in
    /// stream order — the rows, then the blocks'.
    pub fn write_dataset(&mut self, ds: &Dataset) -> io::Result<()> {
        for g in &ds.globals {
            self.write_globals(ds, g)?;
        }
        for rec in &ds.records {
            self.write_snapshot(ds, rec)?;
        }
        for (strings, block) in &ds.blocks {
            self.write_block(ds, strings, block)?;
        }
        Ok(())
    }

    /// Flush and return the underlying sink.
    pub fn finish(mut self) -> io::Result<W> {
        self.out.flush()?;
        Ok(self.out)
    }

    /// Mutable access to the underlying sink. The journal writer uses
    /// this to drain an in-memory line buffer to its backing file; the
    /// writer's lazy-metadata bookkeeping is unaffected.
    pub fn sink_mut(&mut self) -> &mut W {
        &mut self.out
    }
}

/// Serialize a dataset to a `.cali` byte buffer.
pub fn to_bytes(ds: &Dataset) -> Vec<u8> {
    let mut w = CaliWriter::new(Vec::new());
    w.write_dataset(ds).expect("writing to Vec cannot fail");
    w.finish().expect("flushing Vec cannot fail")
}

/// Write a dataset to a file at `path`.
pub fn write_file(ds: &Dataset, path: impl AsRef<Path>) -> io::Result<()> {
    let bytes = to_bytes(ds);
    caliper_data::metrics::global()
        .counter("format.writer.bytes")
        .add(bytes.len() as u64);
    std::fs::write(path, bytes)
}

/// What the stream has declared under one of its attribute ids.
#[derive(Clone, Copy)]
struct StreamAttr {
    /// The attribute's id and declared type in the reader's store.
    attr: AttrId,
    vtype: ValueType,
    /// Its value column in the reader's block, [`NO_COLUMN`] until a
    /// snapshot line carries it as an immediate.
    column: u32,
}

const NO_COLUMN: u32 = u32::MAX;

/// Incremental `.cali` reader state.
///
/// Ids in the stream are remapped to fresh ids in the reader's own
/// store/tree, so datasets from different processes (whose id spaces
/// overlap) can be merged by reading them into one `CaliReader`.
///
/// Snapshot (`ctx`) lines decode straight into the typed columns of a
/// [`Block`], the structure the CALB v2 decoder fills: node references
/// as remapped ids, one column per attribute, strings interned once in
/// the reader's [`StringTable`]. A block is handed to the read's
/// [`BlockSink`] every [`DEFAULT_BLOCK_RECORDS`] rows and when the read
/// ends; the row-returning entry points derive their records from it
/// with [`Block::append_records`], exactly as the v2 row readers do.
///
/// A reader can read any number of self-describing streams into its one
/// dataset, one after the other: beginning a stream forgets the
/// finished one's ids and keeps everything else — the dictionary, the
/// string table and every buffer — which is how a resident service
/// reads its batches ([`read_batch`](Self::read_batch)).
pub struct CaliReader {
    ds: Dataset,
    attr_map: FxHashMap<u32, StreamAttr>,
    node_map: FxHashMap<u32, NodeId>,
    line_no: usize,
    strings: StringTable,
    /// The snapshot rows read since the last block was handed out.
    block: Block,
    /// Set while [`read_batch`](Self::read_batch) reads: the column and
    /// the value of the sequence number the next row is stamped with.
    stamp: Option<(u32, u64)>,
    /// Set while [`read_dictionary`](Self::read_dictionary) reads:
    /// snapshot lines are passed over unread.
    skip_snapshots: bool,
    /// The line being read, kept for its buffer.
    line: Vec<u8>,
}

impl CaliReader {
    /// Create a reader building a fresh dataset.
    pub fn new() -> CaliReader {
        CaliReader::into_dataset(Dataset::new())
    }

    /// Create a reader appending into an existing dataset (merging).
    pub fn into_dataset(ds: Dataset) -> CaliReader {
        CaliReader {
            ds,
            attr_map: FxHashMap::default(),
            node_map: FxHashMap::default(),
            line_no: 0,
            strings: StringTable::default(),
            block: Block::default(),
            stamp: None,
            skip_snapshots: false,
            line: Vec::new(),
        }
    }

    /// The dataset read so far: dictionary, context tree, globals, and
    /// the records of every block the row-returning reads handed out.
    pub fn dataset(&self) -> &Dataset {
        &self.ds
    }

    /// Drop the globals read so far — what a resident reader, which
    /// keeps a stream's dictionary and nothing else, does once it has
    /// handed them on.
    pub fn clear_globals(&mut self) {
        self.ds.globals.clear();
    }

    /// The reader's string table.
    pub fn strings(&self) -> &StringTable {
        &self.strings
    }

    /// Start over with a new, empty string table. Codes handed out so
    /// far mean nothing afterwards; a cache keyed by them knows the new
    /// table by its [`id`](StringTable::id). Rows not yet handed out are
    /// dropped with their codes.
    pub fn reset_strings(&mut self) {
        self.strings = StringTable::default();
        self.block.clear();
    }

    /// Get ready for another self-describing stream into the same
    /// dataset: the previous stream's attribute and node ids, its line
    /// count and any rows not handed out are forgotten. The dictionary,
    /// the context tree, the string table and every buffer stay.
    pub(crate) fn begin_stream(&mut self) {
        self.attr_map.clear();
        self.node_map.clear();
        self.line_no = 0;
        self.block.clear();
    }

    /// Read one whole self-describing stream — a service's ingest batch —
    /// strictly, as a single block: the rows are never cut into
    /// [`DEFAULT_BLOCK_RECORDS`]-row blocks, so nothing of a batch is
    /// handed on before its last line has validated, and a bad line at
    /// any ordinal fails the batch whole (no row, no global of it is
    /// kept; what it declared stays in the dictionary). Every row is
    /// stamped with `seq_attr` (an unsigned-integer attribute of this
    /// reader's store) as its last immediate, counting up from
    /// `first_seq` — a column of the block like any other. The globals
    /// the batch carries are handed over with it, appended to the
    /// dataset's as a stream's are; whoever keeps the reader resident
    /// drops them ([`clear_globals`](Self::clear_globals)).
    ///
    /// The block is handed over the way a [`BlockSink`] takes one, and
    /// stays valid until the reader is used again.
    pub fn read_batch(
        &mut self,
        bytes: &[u8],
        seq_attr: AttrId,
        first_seq: u64,
    ) -> Result<(&mut Dataset, &mut StringTable, &mut Block), CaliError> {
        self.begin_stream();
        let column = self.block.column_for(seq_attr, ValueType::UInt);
        self.stamp = Some((column, first_seq));
        let globals = self.ds.globals.len();
        let read = self.read_lines(bytes, ReadPolicy::Strict, &mut ReadReport::default(), None, None);
        self.stamp = None;
        if let Err(e) = read {
            self.ds.globals.truncate(globals);
            self.block.clear();
            return Err(e);
        }
        Ok((&mut self.ds, &mut self.strings, &mut self.block))
    }

    fn err(&self, message: impl Into<String>) -> CaliError {
        CaliError::Parse {
            line: self.line_no,
            message: message.into(),
        }
    }

    fn undeclared_attr(&self, id: u32, report: &mut ReadReport) -> CaliError {
        report.dangling_dropped += 1;
        self.err(format!("reference to undeclared attribute {id}"))
    }

    /// Process one line of the stream (strict: the first malformed
    /// record is an error).
    pub fn read_line(&mut self, line: &str) -> Result<(), CaliError> {
        self.scan_line(line, ReadPolicy::Strict, &mut ReadReport::default())?;
        self.cut_block(&mut append_rows);
        Ok(())
    }

    /// Read one line under `policy`, accounting into `report`, short of
    /// handing a full block on.
    ///
    /// Under [`ReadPolicy::Lenient`] a malformed line is skipped whole —
    /// parsing resynchronizes at the next line, and a failed line never
    /// contributes a partial record — until the policy's skip budget is
    /// exhausted, after which the error is returned like in strict mode.
    fn scan_line(
        &mut self,
        line: &str,
        policy: ReadPolicy,
        report: &mut ReadReport,
    ) -> Result<(), CaliError> {
        self.line_no += 1;
        let line = line.trim_end_matches(['\n', '\r']);
        if line.is_empty() || line.starts_with('#') {
            return Ok(());
        }
        match self.parse_record(line, report) {
            Ok(is_data) => {
                if is_data {
                    report.records += 1;
                }
                Ok(())
            }
            Err(e) => report.skip_or_fail(e, policy),
        }
    }

    /// Hand a block that has reached [`DEFAULT_BLOCK_RECORDS`] rows on.
    fn cut_block(&mut self, on_block: &mut BlockSink<'_>) {
        if self.block.rows() >= DEFAULT_BLOCK_RECORDS {
            self.hand_out(on_block);
        }
    }

    /// Hand the rows read so far to `on_block` and start a new block.
    fn hand_out(&mut self, on_block: &mut BlockSink<'_>) {
        if self.block.rows() > 0 {
            on_block(&mut self.ds, &mut self.strings, &mut self.block);
            self.block.clear();
        }
    }

    /// Parse one non-empty record line; `Ok(true)` for data records
    /// (ctx/globals), `Ok(false)` for metadata (attr/node).
    ///
    /// A failed line leaves the reader as it was — the dictionary and
    /// globals change only once the whole line has validated, and a
    /// snapshot row is taken back out of the block — so a lenient skip
    /// is exact.
    fn parse_record(&mut self, line: &str, report: &mut ReadReport) -> Result<bool, CaliError> {
        // A snapshot line as every writer of ours starts it is read from
        // its first field on, the `__rec` field passed over untokenised.
        if let Some(rest) = line.strip_prefix("__rec=ctx") {
            if rest.is_empty() || rest.starts_with(',') {
                return self.read_snapshot(rest.get(1..).unwrap_or(""), report).map(|()| true);
            }
        }
        // `__rec` leads every line a writer of ours produced; one that
        // carries it elsewhere is tokenised from the start again.
        let mut rest = fields(line);
        let kind = match rest.next() {
            Some((k, kind)) if k == "__rec" => kind,
            _ => {
                rest = fields(line);
                let kind = fields(line).find(|(k, _)| k == "__rec");
                kind.ok_or_else(|| self.err("missing __rec field"))?.1
            }
        };
        match kind.as_ref() {
            "attr" => self.read_attr(rest).map(|()| false),
            "node" => self.read_node(rest, report).map(|()| false),
            "ctx" => self.read_snapshot(rest.as_str(), report).map(|()| true),
            "globals" => {
                let mut flat = FlatRecord::new();
                self.read_entries(rest.as_str(), Some(&mut flat), report)?;
                self.ds.globals.push(flat);
                Ok(true)
            }
            other => Err(self.err(format!("unknown record kind '{other}'"))),
        }
    }

    /// Read the fields of a `ctx` line onto a new row of the block,
    /// stamped when a batch is being read; a line that fails is taken
    /// back out of the block.
    fn read_snapshot(&mut self, line: &str, report: &mut ReadReport) -> Result<(), CaliError> {
        let mut row = self.read_entries(line, None, report);
        if row.is_ok() {
            if let Some((column, seq)) = self.stamp {
                self.block.push_imm(column, Cell::UInt(seq));
            }
            if !self.block.end_row() {
                row = Err(self.err("block exceeds 2^32 entries"));
            } else if let Some((_, seq)) = &mut self.stamp {
                *seq += 1;
            }
        }
        if row.is_err() {
            self.block.abandon_row();
        }
        row
    }

    fn read_attr(&mut self, fields: Fields<'_>) -> Result<(), CaliError> {
        let mut id = None;
        let mut name = None;
        let mut vtype = None;
        let mut props = Properties::DEFAULT;
        for (k, v) in fields {
            match k.as_ref() {
                "id" => id = v.parse::<u32>().ok(),
                "name" => name = Some(v),
                "type" => vtype = ValueType::from_name(&v),
                "prop" => props = Properties::parse(&v),
                _ => {}
            }
        }
        let id = id.ok_or_else(|| self.err("attr record without valid id"))?;
        let name = name.ok_or_else(|| self.err("attr record without name"))?;
        let vtype = vtype.ok_or_else(|| self.err("attr record without valid type"))?;
        let attr = self
            .ds
            .store
            .create(&name, vtype, props)
            .map_err(|e| self.err(e.to_string()))?;
        let declared = StreamAttr {
            attr: attr.id(),
            vtype,
            column: NO_COLUMN,
        };
        self.attr_map.insert(id, declared);
        Ok(())
    }

    fn read_node(&mut self, fields: Fields<'_>, report: &mut ReadReport) -> Result<(), CaliError> {
        let mut id = None;
        let mut attr = None;
        let mut parent = None;
        let mut data = None;
        for (k, v) in fields {
            match k.as_ref() {
                "id" => id = v.parse::<u32>().ok(),
                "attr" => attr = v.parse::<u32>().ok(),
                "parent" => parent = v.parse::<u32>().ok(),
                "data" => data = Some(v),
                _ => {}
            }
        }
        let id = id.ok_or_else(|| self.err("node record without valid id"))?;
        let attr_id = attr.ok_or_else(|| self.err("node record without attr"))?;
        let data = data.ok_or_else(|| self.err("node record without data"))?;
        let Some(&StreamAttr { attr, vtype, .. }) = self.attr_map.get(&attr_id) else {
            return Err(self.undeclared_attr(attr_id, report));
        };
        let value = Value::parse_typed(&data, vtype)
            .ok_or_else(|| self.err(format!("cannot parse '{data}' as {vtype}")))?;
        let parent_local = match parent {
            Some(p) => match self.node_map.get(&p) {
                Some(local) => *local,
                None => {
                    report.dangling_dropped += 1;
                    return Err(self.err(format!("node {id} references unknown parent {p}")));
                }
            },
            None => NODE_NONE,
        };
        let local = self.ds.tree.get_child(parent_local, attr, &value);
        self.node_map.insert(id, local);
        Ok(())
    }

    /// Read the entries of a `ctx` or `globals` line — the fields of
    /// `line`, which [`next_entry`] takes off one at a time: into
    /// `globals` when given, else onto the block's open row (which the
    /// caller closes, or takes back if this fails). A globals record
    /// holds pairs only, so its `ref`s are validated and dropped.
    fn read_entries(
        &mut self,
        line: &str,
        mut globals: Option<&mut FlatRecord>,
        report: &mut ReadReport,
    ) -> Result<(), CaliError> {
        let mut pending_attr: Option<StreamAttr> = None;
        let mut rest = line;
        while let Some(field) = next_entry(&mut rest) {
            match field {
                EntryField::Ref(id) => {
                    if pending_attr.is_some() {
                        return Err(self.err(ATTR_WITHOUT_DATA));
                    }
                    let id = id.map_err(|v| self.err(format!("invalid node ref '{v}'")))?;
                    let Some(&local) = self.node_map.get(&id) else {
                        report.dangling_dropped += 1;
                        return Err(self.err(format!("ref to unknown node {id}")));
                    };
                    if globals.is_none() {
                        self.block.push_ref(local);
                    }
                }
                EntryField::Attr(id) => {
                    if pending_attr.is_some() {
                        return Err(self.err(ATTR_WITHOUT_DATA));
                    }
                    let id = id.map_err(|v| self.err(format!("invalid attr id '{v}'")))?;
                    let Some(declared) = self.attr_map.get_mut(&id) else {
                        return Err(self.undeclared_attr(id, report));
                    };
                    if globals.is_none() && declared.column == NO_COLUMN {
                        declared.column = self.block.column_for(declared.attr, declared.vtype);
                    }
                    pending_attr = Some(*declared);
                }
                EntryField::Data(v) => {
                    let StreamAttr {
                        attr,
                        vtype,
                        column,
                    } = pending_attr
                        .take()
                        .ok_or_else(|| self.err("data field without preceding attr"))?;
                    let parsed = match &mut globals {
                        Some(flat) => {
                            Value::parse_typed(&v, vtype).map(|value| flat.push(attr, value))
                        }
                        None => {
                            let cell = self.strings.parse(&v, vtype);
                            cell.map(|cell| self.block.push_imm(column, cell))
                        }
                    };
                    parsed.ok_or_else(|| self.err(format!("cannot parse '{v}' as {vtype}")))?;
                }
                EntryField::Other => {}
            }
        }
        if pending_attr.is_some() {
            return Err(self.err(ATTR_WITHOUT_DATA));
        }
        Ok(())
    }

    /// Consume a whole `BufRead` stream (strict).
    pub fn read_stream(&mut self, reader: impl BufRead) -> Result<(), CaliError> {
        self.read_stream_with(reader, ReadPolicy::Strict, &mut ReadReport::default())
    }

    /// Consume a whole `BufRead` stream under `policy`, accounting into
    /// `report`.
    ///
    /// Lines are read as raw bytes and validated as UTF-8 individually,
    /// so under [`ReadPolicy::Lenient`] a line of binary garbage is one
    /// skipped record rather than the end of the read, and an I/O error
    /// mid-stream (truncation) keeps the decoded prefix and marks the
    /// report truncated.
    pub fn read_stream_with(
        &mut self,
        reader: impl BufRead,
        policy: ReadPolicy,
        report: &mut ReadReport,
    ) -> Result<(), CaliError> {
        self.scan_stream(reader, policy, report, None, &mut append_rows)
    }

    /// [`read_stream_with`](Self::read_stream_with), but the stream's
    /// snapshots go to `on_block` as typed columns — a block every
    /// [`DEFAULT_BLOCK_RECORDS`] rows, and the rest when the read ends
    /// (end of stream, deadline, lenient truncation) — instead of being
    /// appended to the dataset as records.
    ///
    /// A [`Deadline`](caliper_data::Deadline) is polled every 256
    /// lines, and on expiry the read stops where it stands — the decoded
    /// prefix is kept, the report is marked truncated with a `read
    /// cancelled` note, and `Ok` is returned (expiry is a *budget*
    /// outcome, not a parse failure, under either policy). Resident
    /// services use this to bound journal replay at startup so a huge or
    /// slow journal degrades the stream instead of wedging readiness
    /// forever.
    pub fn scan_stream(
        &mut self,
        reader: impl BufRead,
        policy: ReadPolicy,
        report: &mut ReadReport,
        deadline: Option<&caliper_data::Deadline>,
        on_block: &mut BlockSink<'_>,
    ) -> Result<(), CaliError> {
        self.read_lines(reader, policy, report, deadline, Some(on_block))?;
        self.hand_out(on_block);
        Ok(())
    }

    /// Read a whole stream for what it declares — attributes, context
    /// tree nodes, globals — when nobody will look at its snapshots: a
    /// line is passed over at its `__rec=ctx` prefix, before it is
    /// validated or tokenised, and counts for nothing in `report`.
    pub(crate) fn read_dictionary(
        &mut self,
        reader: impl BufRead,
        policy: ReadPolicy,
        report: &mut ReadReport,
    ) -> Result<(), CaliError> {
        self.skip_snapshots = true;
        let read = self.read_lines(reader, policy, report, None, None);
        self.skip_snapshots = false;
        read
    }

    /// The one line loop: read `reader` to its end (or the deadline, or
    /// a lenient truncation) into the open block, which is cut every
    /// [`DEFAULT_BLOCK_RECORDS`] rows when there is an `on_block` to
    /// take the pieces. The rows left in the block are the caller's.
    fn read_lines(
        &mut self,
        mut reader: impl BufRead,
        policy: ReadPolicy,
        report: &mut ReadReport,
        deadline: Option<&caliper_data::Deadline>,
        mut on_block: Option<&mut BlockSink<'_>>,
    ) -> Result<(), CaliError> {
        let mut buf = std::mem::take(&mut self.line);
        let mut lines: u64 = 0;
        let read = loop {
            if let Some(d) = deadline {
                if lines.is_multiple_of(256) && d.expired() {
                    report.truncated = true;
                    report.note_error(format!(
                        "read cancelled by deadline after line {}",
                        self.line_no
                    ));
                    break Ok(());
                }
            }
            lines += 1;
            buf.clear();
            let n = match reader.read_until(b'\n', &mut buf) {
                Ok(n) => n,
                Err(e) => {
                    if policy.is_lenient() {
                        report.truncated = true;
                        report.note_error(format!("i/o error after line {}: {e}", self.line_no));
                        break Ok(());
                    }
                    break Err(CaliError::Io(e));
                }
            };
            if n == 0 {
                break Ok(());
            }
            if self.skip_snapshots
                && matches!(buf.strip_prefix(b"__rec=ctx"), Some([] | [b',' | b'\n' | b'\r', ..]))
            {
                self.line_no += 1;
                continue;
            }
            let line = match std::str::from_utf8(&buf) {
                Ok(s) => self.scan_line(s, policy, report),
                Err(_) => {
                    self.line_no += 1;
                    let e = self.err("invalid UTF-8 in line");
                    report.skip_or_fail(e, policy)
                }
            };
            if line.is_err() {
                break line;
            }
            if let Some(on_block) = on_block.as_deref_mut() {
                self.cut_block(on_block);
            }
        };
        self.line = buf;
        read
    }

    /// Finish reading and return the dataset, the snapshots still in the
    /// block appended as records.
    pub fn finish(mut self) -> Dataset {
        self.hand_out(&mut append_rows);
        self.ds
    }
}

/// The error of an `attr` field whose `data` field never comes: the
/// line ends, or another `attr` or a `ref` follows first.
const ATTR_WITHOUT_DATA: &str = "attr field without data";

/// A field of a `ctx` or `globals` line, as [`CaliReader::read_entries`]
/// takes it.
enum EntryField<'a> {
    /// `ref=`: a node id, or the text that is none.
    Ref(Result<u32, Cow<'a, str>>),
    /// `attr=`: an attribute id, or the text that is none.
    Attr(Result<u32, Cow<'a, str>>),
    /// `data=`: the value, escapes resolved.
    Data(Cow<'a, str>),
    /// Any other key, which the reader passes over.
    Other,
}

/// Take the next field off `rest`. A plain `ref=<id>`, `attr=<id>` or
/// `data=<value>` is read where it lies: the id parsed from its digits,
/// the value borrowed up to the next `,`. Everything else — an escaped
/// key, a backslash in a value, an id `u32::from_str` rejects, another
/// key, an empty field — goes through [`fields`], which reads a plain
/// field the same way.
fn next_entry<'a>(rest: &mut &'a str) -> Option<EntryField<'a>> {
    let line = *rest;
    let bytes = line.as_bytes();
    let in_place = if bytes.starts_with(b"data=") {
        plain_value(line, 5).map(|(v, next)| (EntryField::Data(Cow::Borrowed(v)), next))
    } else if bytes.starts_with(b"attr=") {
        plain_id(line, 5).map(|(id, next)| (EntryField::Attr(Ok(id)), next))
    } else if bytes.starts_with(b"ref=") {
        plain_id(line, 4).map(|(id, next)| (EntryField::Ref(Ok(id)), next))
    } else {
        None
    };
    if let Some((field, next)) = in_place {
        *rest = next;
        return Some(field);
    }
    let mut tokens = fields(line);
    let (key, value) = tokens.next()?;
    *rest = tokens.as_str();
    Some(match key.as_ref() {
        "ref" => EntryField::Ref(value.parse().map_err(|_| value)),
        "attr" => EntryField::Attr(value.parse().map_err(|_| value)),
        "data" => EntryField::Data(value),
        _ => EntryField::Other,
    })
}

/// The id whose digits start at byte `from` of `line` and run to the
/// next `,` or the end, with the rest of the line after that `,` —
/// when `u32::from_str` would accept them: an optional `+`, at least
/// one digit, leading zeros allowed, no overflow.
fn plain_id(line: &str, from: usize) -> Option<(u32, &str)> {
    let bytes = line.as_bytes();
    let digits = from + usize::from(bytes.get(from) == Some(&b'+'));
    let (mut at, mut id) = (digits, 0u64);
    while let Some(&b) = bytes.get(at) {
        match b {
            b'0'..=b'9' => id = id * 10 + u64::from(b - b'0'),
            b',' => break,
            _ => return None,
        }
        if id > u64::from(u32::MAX) {
            return None;
        }
        at += 1;
    }
    if at == digits {
        return None;
    }
    Some((id as u32, line.get(at + 1..).unwrap_or("")))
}

/// The value that starts at byte `from` of `line` and runs to the next
/// `,` or the end, with the rest of the line after that `,` — when it
/// holds no backslash.
fn plain_value(line: &str, from: usize) -> Option<(&str, &str)> {
    let value = &line.as_bytes()[from..];
    match value.iter().position(|&b| b == b',' || b == b'\\') {
        None => Some((&line[from..], "")),
        Some(end) if value[end] == b',' => Some((&line[from..from + end], &line[from + end + 1..])),
        Some(_) => None,
    }
}

impl Default for CaliReader {
    fn default() -> CaliReader {
        CaliReader::new()
    }
}

/// Parse a `.cali` byte buffer into a dataset.
pub fn from_bytes(bytes: &[u8]) -> Result<Dataset, CaliError> {
    let mut reader = CaliReader::new();
    reader.read_stream(bytes)?;
    Ok(reader.finish())
}

/// Parse a `.cali` byte buffer under `policy`, returning the dataset
/// together with the read report.
pub fn from_bytes_with(bytes: &[u8], policy: ReadPolicy) -> Result<(Dataset, ReadReport), CaliError> {
    let mut report = ReadReport::default();
    let mut reader = CaliReader::new();
    reader.read_stream_with(bytes, policy, &mut report)?;
    Ok((reader.finish(), report))
}

/// Read a `.cali` file into a dataset.
pub fn read_file(path: impl AsRef<Path>) -> Result<Dataset, CaliError> {
    let file = std::fs::File::open(path)?;
    let mut reader = CaliReader::new();
    reader.read_stream(io::BufReader::new(file))?;
    Ok(reader.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use caliper_data::Properties;
    use std::sync::Arc;

    fn sample_dataset() -> Dataset {
        let mut ds = Dataset::new();
        let func = ds.attribute("function", ValueType::Str, Properties::NESTED);
        let iter = ds.attribute("loop.iteration", ValueType::Int, Properties::AS_VALUE);
        let dur = ds.attribute(
            "time.duration",
            ValueType::Float,
            Properties::AS_VALUE | Properties::AGGREGATABLE,
        );
        ds.set_global("experiment", "unit-test");

        let main = ds.tree.get_child(NODE_NONE, func.id(), &Value::str("main"));
        let foo = ds.tree.get_child(main, func.id(), &Value::str("foo"));
        for i in 0..4 {
            let mut rec = SnapshotRecord::new();
            rec.push_node(if i % 2 == 0 { foo } else { main });
            rec.push_imm(iter.id(), Value::Int(i));
            rec.push_imm(dur.id(), Value::Float(10.0 * (i as f64 + 1.0)));
            ds.push(rec);
        }
        ds
    }

    #[test]
    fn roundtrip_preserves_flat_records() {
        let ds = sample_dataset();
        let bytes = to_bytes(&ds);
        let ds2 = from_bytes(&bytes).unwrap();

        assert_eq!(ds2.len(), ds.len());
        let orig: Vec<String> = ds.flat_records().map(|r| r.describe(&ds.store)).collect();
        let read: Vec<String> = ds2
            .flat_records()
            .map(|r| r.describe(&ds2.store))
            .collect();
        assert_eq!(orig, read);
        assert_eq!(ds2.global("experiment"), Some(Value::str("unit-test")));
    }

    #[test]
    fn attributes_keep_types_and_properties() {
        let ds2 = from_bytes(&to_bytes(&sample_dataset())).unwrap();
        let dur = ds2.store.find("time.duration").unwrap();
        assert_eq!(dur.value_type(), ValueType::Float);
        assert!(dur.is_aggregatable());
        assert!(dur.is_as_value());
        let func = ds2.store.find("function").unwrap();
        assert!(func.is_nested());
    }

    #[test]
    fn lazy_metadata_written_once() {
        let bytes = to_bytes(&sample_dataset());
        let text = String::from_utf8(bytes).unwrap();
        let attr_lines = text
            .lines()
            .filter(|l| l.starts_with("__rec=attr"))
            .count();
        let node_lines = text
            .lines()
            .filter(|l| l.starts_with("__rec=node"))
            .count();
        // 4 attributes (incl. global 'experiment'), 2 nodes, each once.
        assert_eq!(attr_lines, 4);
        assert_eq!(node_lines, 2);
    }

    #[test]
    fn merging_two_streams_shares_dictionary() {
        let ds = sample_dataset();
        let bytes = to_bytes(&ds);
        let mut reader = CaliReader::new();
        reader.read_stream(io::BufReader::new(&bytes[..])).unwrap();
        // Re-read the same stream: remapping must tolerate overlapping ids.
        let mut reader = CaliReader::into_dataset(reader.finish());
        reader.read_stream(io::BufReader::new(&bytes[..])).unwrap();
        let merged = reader.finish();
        assert_eq!(merged.len(), 2 * ds.len());
        assert_eq!(merged.store.len(), ds.store.len());
        assert_eq!(merged.tree.len(), ds.tree.len());
    }

    #[test]
    fn special_characters_roundtrip() {
        let mut ds = Dataset::new();
        let ann = ds.attribute("annotation", ValueType::Str, Properties::NESTED);
        let nasty = "a,b=c\\d\ne";
        let node = ds.tree.get_child(NODE_NONE, ann.id(), &Value::str(nasty));
        let mut rec = SnapshotRecord::new();
        rec.push_node(node);
        ds.push(rec);

        let ds2 = from_bytes(&to_bytes(&ds)).unwrap();
        let flat: Vec<_> = ds2.flat_records().collect();
        let ann2 = ds2.store.find("annotation").unwrap();
        assert_eq!(flat[0].get(ann2.id()), Some(&Value::str(nasty)));
    }

    #[test]
    fn malformed_lines_are_reported_with_line_numbers() {
        let mut reader = CaliReader::new();
        reader.read_line("__rec=attr,id=0,name=x,type=int,prop=default").unwrap();
        let err = reader.read_line("__rec=node,id=0,attr=99,data=1").unwrap_err();
        match err {
            CaliError::Parse { line, message } => {
                assert_eq!(line, 2);
                assert!(message.contains("undeclared attribute"));
            }
            other => panic!("unexpected error: {other}"),
        }
        assert!(reader.read_line("no record kind here").is_err());
        assert!(reader.read_line("# comment").is_ok());
        assert!(reader.read_line("").is_ok());
    }

    #[test]
    fn lenient_skips_corrupt_lines_and_resynchronizes() {
        let ds = sample_dataset();
        let text = String::from_utf8(to_bytes(&ds)).unwrap();
        let clean_lines: Vec<&str> = text.lines().collect();
        // Splice garbage between valid records: each bad line must be
        // skipped whole and parsing must resume on the next line.
        let mut spliced = Vec::new();
        for (i, line) in clean_lines.iter().enumerate() {
            spliced.push(line.to_string());
            if i == 2 {
                spliced.push("total garbage, no record kind".to_string());
                spliced.push("__rec=ctx,ref=9999".to_string());
            }
        }
        let bytes = spliced.join("\n").into_bytes();
        let (lenient, report) = from_bytes_with(&bytes, ReadPolicy::lenient()).unwrap();
        assert_eq!(report.skipped, 2);
        assert_eq!(report.dangling_dropped, 1);
        assert!(!report.truncated);
        assert_eq!(lenient.len(), ds.len());
        let orig: Vec<String> = ds.flat_records().map(|r| r.describe(&ds.store)).collect();
        let read: Vec<String> = lenient
            .flat_records()
            .map(|r| r.describe(&lenient.store))
            .collect();
        assert_eq!(orig, read);
        // The same stream under strict mode fails.
        assert!(from_bytes(&bytes).is_err());
    }

    #[test]
    fn lenient_skip_budget_is_enforced() {
        let mut bytes = Vec::new();
        for _ in 0..5 {
            bytes.extend_from_slice(b"not a record\n");
        }
        assert!(from_bytes_with(&bytes, ReadPolicy::Lenient { max_errors: 3 }).is_err());
        let (_, report) = from_bytes_with(&bytes, ReadPolicy::Lenient { max_errors: 5 }).unwrap();
        assert_eq!(report.skipped, 5);
    }

    #[test]
    fn lenient_tolerates_invalid_utf8_lines() {
        let ds = sample_dataset();
        let mut bytes = to_bytes(&ds);
        bytes.extend_from_slice(b"\xff\xfe binary garbage \x80\n");
        let (lenient, report) = from_bytes_with(&bytes, ReadPolicy::lenient()).unwrap();
        assert_eq!(lenient.len(), ds.len());
        assert_eq!(report.skipped, 1);
        assert!(report.errors[0].contains("UTF-8"));
        // Strict mode reports the bad line as a parse error.
        assert!(from_bytes(&bytes).is_err());
    }

    #[test]
    fn writer_counts_dangling_ids() {
        let ds = sample_dataset();
        let mut rec = SnapshotRecord::new();
        rec.push_node(9999); // never created in ds.tree
        rec.push_imm(4242, Value::Int(1)); // no such attribute
        let mut with_dangling = sample_dataset();
        with_dangling.push(rec);

        let mut w = CaliWriter::new(Vec::new());
        w.write_dataset(&with_dangling).unwrap();
        assert_eq!(w.dangling_drops(), 2);
        let bytes = w.finish().unwrap();

        let mut w2 = CaliWriter::new(Vec::new());
        w2.write_dataset(&ds).unwrap();
        assert_eq!(w2.dangling_drops(), 0);

        // The emitted stream still reads back; the dangling entries
        // surface as dangling refs on the reader side.
        let (ds2, report) = from_bytes_with(&bytes, ReadPolicy::lenient()).unwrap();
        assert_eq!(ds2.len(), ds.len());
        assert_eq!(report.skipped, 1);
        assert!(report.dangling_dropped >= 1);
    }

    /// `n` snapshots over a two-node tree, as one self-describing stream.
    fn batch_bytes(n: i64) -> Vec<u8> {
        let mut ds = sample_dataset();
        let template = ds.records.clone();
        ds.records = (0..n)
            .map(|i| {
                let mut rec = template[i as usize % template.len()].clone();
                rec.push_imm(ds.store.find("loop.iteration").unwrap().id(), Value::Int(i));
                rec
            })
            .collect();
        to_bytes(&ds)
    }

    #[test]
    fn read_batch_hands_the_stream_over_whole_and_stamped() {
        let mut reader = CaliReader::new();
        let seq = reader.dataset().attribute("journal.seq", ValueType::UInt, Properties::AS_VALUE);
        // More rows than a block of a file read holds: still one block.
        let bytes = batch_bytes(2 * DEFAULT_BLOCK_RECORDS as i64 + 452);
        let (_, strings, block) = reader.read_batch(&bytes, seq.id(), 40).unwrap();
        assert_eq!(block.rows(), 2 * DEFAULT_BLOCK_RECORDS + 452);
        let mut stamped = Vec::new();
        block.append_records(strings, &mut stamped);

        // What the row reader makes of the same bytes, stamped by hand.
        let mut rows = CaliReader::into_dataset(Dataset::with_context(
            Arc::clone(&reader.dataset().store),
            Arc::clone(&reader.dataset().tree),
        ));
        rows.read_stream(&bytes[..]).unwrap();
        let read = rows.finish();
        let mut want = read.records;
        for (i, rec) in want.iter_mut().enumerate() {
            rec.push_imm(seq.id(), Value::UInt(40 + i as u64));
        }
        assert_eq!(stamped, want);
        let ds = reader.dataset();
        assert!(ds.records.is_empty(), "no record is kept");
        assert!(!read.globals.is_empty());
        assert_eq!(ds.globals, read.globals, "the batch's globals are handed over");
    }

    #[test]
    fn a_bad_line_fails_the_batch_whole_and_the_reader_carries_on() {
        let mut reader = CaliReader::new();
        let seq = reader.dataset().attribute("journal.seq", ValueType::UInt, Properties::AS_VALUE);
        let clean = batch_bytes(6);
        // An accepted batch's globals dropped as a resident reader drops
        // them; a failed one must leave none.
        let rows_of = |reader: &mut CaliReader, bytes: &[u8]| {
            let rows = reader.read_batch(bytes, seq.id(), 7).map(|(_, strings, block)| {
                let mut rows = Vec::new();
                block.append_records(strings, &mut rows);
                rows
            });
            if rows.is_ok() {
                reader.clear_globals();
            }
            rows
        };
        let want = rows_of(&mut reader, &clean).unwrap();
        assert_eq!(want.len(), 6);
        let lines: Vec<&[u8]> = clean.split_inclusive(|&b| b == b'\n').collect();
        for ordinal in 0..=lines.len() {
            let mut damaged = lines[..ordinal].concat();
            damaged.extend_from_slice(b"__rec=ctx,ref=77\n");
            damaged.extend_from_slice(&lines[ordinal..].concat());
            match rows_of(&mut reader, &damaged) {
                Err(CaliError::Parse { line, .. }) => assert_eq!(line, ordinal + 1),
                other => panic!("bad line at {ordinal}: {other:?}"),
            }
            assert!(reader.dataset().globals.is_empty());
            // Same rows, same sequence numbers: the failed batch left
            // nothing behind, in the block or in the stamp.
            assert_eq!(rows_of(&mut reader, &clean).unwrap(), want, "after bad line at {ordinal}");
        }
    }

    #[test]
    fn successive_streams_may_use_the_same_ids_for_different_things() {
        let mut reader = CaliReader::new();
        let seq = reader.dataset().attribute("journal.seq", ValueType::UInt, Properties::AS_VALUE);
        let first = b"__rec=attr,id=0,name=kernel,type=string,prop=default\n\
                      __rec=node,id=0,attr=0,data=k0\n\
                      __rec=ctx,ref=0,attr=0,data=x\n";
        let second = b"__rec=attr,id=0,name=count,type=int,prop=asvalue\n\
                       __rec=ctx,attr=0,data=12\n";
        reader.read_batch(first, seq.id(), 0).unwrap();
        let (ds, strings, block) = reader.read_batch(second, seq.id(), 1).unwrap();
        let mut rows = Vec::new();
        block.append_records(strings, &mut rows);
        let count = ds.store.find("count").unwrap().id();
        let want = vec![Entry::Imm(count, Value::Int(12)), Entry::Imm(seq.id(), Value::UInt(1))];
        assert_eq!(rows, vec![SnapshotRecord::from_entries(want)]);
        // The first stream's ids are gone with it: its node is not the
        // second stream's to reference.
        let dangling = b"__rec=ctx,ref=0\n";
        assert!(reader.read_batch(dangling, seq.id(), 2).is_err());
        assert_eq!(reader.dataset().store.len(), 3, "one dictionary for all streams");
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("caliper-format-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.cali");
        let ds = sample_dataset();
        write_file(&ds, &path).unwrap();
        let ds2 = read_file(&path).unwrap();
        assert_eq!(ds2.len(), ds.len());
        std::fs::remove_file(&path).ok();
    }
}
