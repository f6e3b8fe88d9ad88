//! The query pipeline: LET → WHERE → AGGREGATE/GROUP BY → ORDER BY →
//! SELECT → FORMAT.
//!
//! One [`Pipeline`] processes one record stream. For cross-process
//! aggregation, one pipeline runs per input dataset and the partial
//! results are combined with [`Pipeline::merge`] up a reduction tree
//! (§IV-C); [`Pipeline::finish`] is then called once, at the root.

use std::sync::{Arc, LazyLock};

use caliper_data::{
    Attribute, AttributeStore, ContextTree, FlatRecord, Properties, SnapshotRecord, ValueType,
};
use caliper_format::dataset::Dataset;
use caliper_format::{csv, expand, flamegraph, json, table};
use caliper_format::{Block, BlockRows, CaliWriter, StringTable};

use crate::aggregator::{AggregationSpec, Aggregator};
use crate::ast::{FormatOpt, OutputFormat, QuerySpec, SortDir};
use crate::lets::LetSet;
use crate::parser::{parse_query, ParseError};
use crate::scan::{BlockFold, Sink};

/// The result of a finished query: rows plus presentation metadata.
pub struct QueryResult {
    /// Store the result rows' attribute ids refer to.
    pub store: Arc<AttributeStore>,
    /// Result rows (aggregation entries or filtered pass-through), as
    /// the columns of one block in ORDER BY order, LIMIT applied.
    pub records: BlockRows,
    /// Output columns in presentation order.
    pub columns: Vec<Attribute>,
    /// Requested output format.
    pub format: OutputFormat,
    /// Formatter options from `FORMAT name(opt, ...)`.
    pub format_opts: Vec<FormatOpt>,
    /// Input records that landed in the `__overflow__` bucket because
    /// the aggregation hit its group capacity (0 = no overflow; always
    /// 0 for unbounded or pass-through queries).
    pub overflow_records: u64,
}

impl QueryResult {
    /// Render as an aligned text table regardless of the format clause.
    pub fn to_table(&self) -> String {
        table::write_table(&self.records, &self.columns, true)
    }

    /// Is a flag-style formatter option present (case-insensitive)?
    fn has_opt(&self, name: &str) -> bool {
        self.format_opts
            .iter()
            .any(|o| o.name.eq_ignore_ascii_case(name))
    }

    /// Render in the query's requested output format. Every format
    /// writes only the output columns: `table` and `csv` in their order,
    /// the others in each row's own.
    pub fn render(&self) -> String {
        let (rows, columns) = (&self.records, &self.columns);
        match self.format {
            OutputFormat::Table => table::write_table(rows, columns, !self.has_opt("noheader")),
            OutputFormat::Csv => csv::write_csv(rows, columns, !self.has_opt("noheader")),
            OutputFormat::Json => json::write_json(rows, columns, self.has_opt("pretty")),
            OutputFormat::Expand => expand::write_expand(rows, columns),
            OutputFormat::Flamegraph => {
                // Last selected column is the value; the preceding
                // columns build the stack.
                let Some((value, path)) = columns.split_last().filter(|(_, path)| !path.is_empty())
                else {
                    return String::from(
                        "# flamegraph output needs at least two columns (path..., value)\n",
                    );
                };
                flamegraph::write_flamegraph(rows, path, value)
            }
            OutputFormat::Cali => {
                let ds =
                    Dataset::with_context(Arc::clone(&self.store), Arc::new(ContextTree::new()));
                let block = rows.to_block(|attr| columns.iter().any(|c| c.id() == attr));
                let mut writer = CaliWriter::new(Vec::new());
                writer
                    .write_block(&ds, rows.strings(), &block)
                    .expect("writing to a Vec cannot fail");
                let bytes = writer.finish().expect("flushing a Vec cannot fail");
                String::from_utf8(bytes).expect("cali output is UTF-8")
            }
        }
    }

    /// Run another query over this result's rows — interactive
    /// drill-down, as in the paper's §VI workflow where each analysis
    /// question is a new query over the previously aggregated profile.
    /// The rows, in order, are folded as one block
    /// ([`Pipeline::fold_block`]), as `cali-served` folds each stream's
    /// flushed block.
    ///
    /// ```
    /// # use caliper_data::{AttributeStore, RecordBuilder};
    /// # use caliper_query::run_query;
    /// # use caliper_format::Dataset;
    /// # use std::sync::Arc;
    /// # let mut ds = Dataset::new();
    /// # let rec = RecordBuilder::new(&ds.store).with("kernel", "a").with("t", 1.5).build();
    /// # ds.push(caliper_data::SnapshotRecord::from(&rec));
    /// let coarse = run_query(&ds, "AGGREGATE sum(t) GROUP BY kernel").unwrap();
    /// let refined = coarse.requery("SELECT kernel WHERE sum#t > 1").unwrap();
    /// assert_eq!(refined.records.len(), 1);
    /// ```
    pub fn requery(&self, text: &str) -> Result<QueryResult, ParseError> {
        let mut pipeline = Pipeline::from_text(text, Arc::clone(&self.store))?;
        let mut strings = self.records.strings().clone();
        let block = self.records.to_block(|_| true);
        pipeline.fold_rows(&NO_NODES, &mut strings, &block);
        Ok(pipeline.finish())
    }

    /// Look up the value of `label` in the first record matching a key
    /// predicate — convenience for tests and harnesses.
    pub fn lookup(
        &self,
        pred: impl Fn(&FlatRecord, &AttributeStore) -> bool,
        label: &str,
    ) -> Option<caliper_data::Value> {
        let attr = self.store.find(label)?;
        self.records
            .iter()
            .find(|r| pred(r, &self.store))
            .and_then(|r| r.path_string(attr.id()))
    }
}

impl std::fmt::Debug for QueryResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "QueryResult({} records, {} columns)",
            self.records.len(),
            self.columns.len()
        )
    }
}

/// A streaming query pipeline over one record stream.
pub struct Pipeline {
    pub(crate) spec: QuerySpec,
    pub(crate) lets: LetSet,
    /// Boxed: a pipeline is moved about whole — up a reduction tree, one
    /// per rank — and most of its size would be the aggregator's.
    pub(crate) aggregator: Option<Box<Aggregator>>,
    /// A pass-through query's matching records, as the rows of one
    /// block, and the table its string codes refer to.
    pub(crate) passthrough: (Block, StringTable),
    pub(crate) input_store: Arc<AttributeStore>,
    /// The fold of the query, which every block takes, made when the
    /// first one comes.
    pub(crate) fold: Option<Box<BlockFold>>,
    /// The table of row records' strings and the block they are built
    /// into, made when the first one comes.
    pub(crate) rows: Option<Box<(StringTable, Block)>>,
}

/// The tree of a record that refers to no node.
pub(crate) static NO_NODES: LazyLock<ContextTree> = LazyLock::new(ContextTree::new);

impl Pipeline {
    /// Create a pipeline for a parsed query over records whose attribute
    /// ids refer to `store`.
    pub fn new(spec: QuerySpec, store: Arc<AttributeStore>) -> Pipeline {
        #[cfg(test)]
        crate::parallel::tests::BUILT.with(|built| built.set((built.get().0 + 1, built.get().1)));
        // Listed in `--stats` from the start, at 0 until a WHERE meets a
        // comparison the data cannot decide (see `BlockFold`).
        caliper_data::metrics::global().counter("query.filter.type_mismatch");
        let aggregator = if spec.is_aggregation() {
            Some(Box::new(Aggregator::new(
                AggregationSpec::from_query(&spec),
                Arc::clone(&store),
            )))
        } else {
            None
        };
        Pipeline {
            lets: LetSet::new(spec.lets.clone()),
            spec,
            aggregator,
            passthrough: Default::default(),
            input_store: store,
            fold: None,
            rows: None,
        }
    }

    /// Parse `text` and create a pipeline.
    pub fn from_text(text: &str, store: Arc<AttributeStore>) -> Result<Pipeline, ParseError> {
        Ok(Pipeline::new(parse_query(text)?, store))
    }

    /// Bound the aggregation database to `cap` groups (see
    /// [`Aggregator::set_max_groups`]); a no-op for pass-through
    /// queries, which hold records rather than groups.
    pub fn set_max_groups(&mut self, cap: Option<usize>) {
        if let Some(agg) = &mut self.aggregator {
            agg.set_max_groups(cap);
        }
    }

    /// Builder-style variant of [`set_max_groups`](Self::set_max_groups).
    pub fn with_max_groups(mut self, cap: Option<usize>) -> Pipeline {
        self.set_max_groups(cap);
        self
    }

    /// Records routed to the overflow bucket so far (0 when unbounded).
    pub fn overflow_records(&self) -> u64 {
        self.aggregator.as_ref().map_or(0, |a| a.overflow_records())
    }

    /// Records folded into the aggregation so far (0 for a
    /// pass-through query).
    pub fn records_processed(&self) -> u64 {
        self.aggregator
            .as_ref()
            .map_or(0, |agg| agg.records_processed())
    }

    /// Rows folded so far through the fold's row-by-row gather, which
    /// only rows that carry an attribute the query mentions more than
    /// once take (diagnostics: flat profiles should take none).
    pub fn gathered_rows(&self) -> u64 {
        self.fold.as_ref().map_or(0, |fold| fold.gathered_rows())
    }

    /// The parsed query spec.
    pub fn spec(&self) -> &QuerySpec {
        &self.spec
    }

    /// Fold one input record, at once: as a block of one row, its pairs
    /// the row's immediates in order, through the fold every block takes.
    pub fn process(&mut self, record: FlatRecord) {
        self.fold_records(&[SnapshotRecord::from(&record)], &NO_NODES);
    }

    /// Process every record of a dataset, in stream order: its row
    /// records, then its blocks, all as columns (see
    /// [`fold_block`](Self::fold_block)).
    pub fn process_dataset(&mut self, ds: &Dataset) {
        self.fold_records(&ds.records, &ds.tree);
        self.fold_blocks(ds);
    }

    /// Fold `block`'s rows through the pipeline's fold: into the
    /// aggregation, or — a pass-through query — whole into the result
    /// block. `tree` holds the nodes the rows refer to.
    pub(crate) fn fold_rows(
        &mut self,
        tree: &ContextTree,
        strings: &mut StringTable,
        block: &Block,
    ) {
        if block.rows() == 0 {
            return;
        }
        let fold = self
            .fold
            .get_or_insert_with(|| Box::new(BlockFold::new(&self.spec)));
        fold.resolve(&self.input_store);
        let sink = match &mut self.aggregator {
            Some(aggregator) => Sink::Groups(aggregator),
            None => Sink::Rows {
                lets: self.lets.intern_outputs(&self.input_store),
                block: &mut self.passthrough.0,
                strings: &mut self.passthrough.1,
            },
        };
        fold.fold_into(sink, tree, strings, block);
    }

    /// Merge another aggregation pipeline's partial result into this
    /// one. Both pipelines must run the same aggregation. They merge
    /// their databases by key *value*, so the other pipeline may have
    /// read its input over a store of its own — every file of
    /// `cali-query` and every rank of `mpi-caliquery` does. Pass-through
    /// queries are not merged: their drivers scan the files in order
    /// through one pipeline.
    pub fn merge(&mut self, other: Pipeline) {
        match (&mut self.aggregator, other.aggregator) {
            (Some(mine), Some(theirs)) => mine.merge(*theirs),
            _ => debug_assert!(false, "merging a pass-through pipeline"),
        }
    }

    /// Number of result entries so far (aggregation database size or
    /// pass-through record count).
    pub fn len(&self) -> usize {
        match &self.aggregator {
            Some(agg) => agg.len(),
            None => self.passthrough.0.rows(),
        }
    }

    /// True if no entries have accumulated.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Finish: flush the aggregation (or take the pass-through rows) as
    /// one block, apply ORDER BY and LIMIT to the order of its rows and
    /// resolve SELECT to its attributes, and return the result.
    pub fn finish(self) -> QueryResult {
        let overflow_records = self.overflow_records();
        let Pipeline {
            spec,
            mut lets,
            aggregator,
            passthrough,
            input_store,
            ..
        } = self;
        // The flush types key columns by the input attribute of the
        // same label; a LET output no kept row interned yet (the block
        // fold works on labels) must exist by now.
        lets.intern_outputs(&input_store);
        let (store, mut rows) = match aggregator {
            Some(agg) => {
                let out_store = Arc::new(AttributeStore::new());
                let (mut block, mut strings) = (Block::default(), StringTable::default());
                agg.flush_into(&out_store, &mut block, &mut strings, None);
                (out_store, BlockRows::new(block, strings))
            }
            None => {
                let (block, strings) = passthrough;
                (input_store, BlockRows::new(block, strings))
            }
        };

        // ORDER BY (a label no row carries orders nothing).
        let keys: Vec<_> = spec
            .order_by
            .iter()
            .filter_map(|k| Some((store.find(&k.attr)?.id(), k.dir == SortDir::Desc)))
            .collect();
        rows.sort(&keys);
        if let Some(limit) = spec.limit {
            rows.truncate(limit);
        }

        // Column selection.
        let labels: Vec<String> = match (&spec.select, spec.is_aggregation()) {
            (Some(cols), _) => cols.clone(),
            (None, true) => spec.default_columns("count"),
            // All attributes in order of first appearance.
            (None, false) => rows
                .attributes()
                .into_iter()
                .filter_map(|id| store.name_of(id).map(|n| n.to_string()))
                .collect(),
        };
        let columns: Vec<Attribute> = labels
            .iter()
            .map(|label| {
                store.find(label).unwrap_or_else(|| {
                    // Selected label never appeared: produce an empty
                    // string column so the header is still present.
                    store
                        .create(label, ValueType::Str, Properties::DEFAULT)
                        .unwrap_or_else(|_| store.find(label).expect("exists"))
                })
            })
            .collect();

        QueryResult {
            store,
            records: rows,
            columns,
            format: spec.format,
            format_opts: spec.format_opts,
            overflow_records,
        }
    }
}

/// Run a query text over one dataset: the core of the `cali-query` tool
/// (off-line analytical aggregation, §IV-C).
pub fn run_query(ds: &Dataset, text: &str) -> Result<QueryResult, ParseError> {
    let mut pipeline = Pipeline::from_text(text, Arc::clone(&ds.store))?;
    pipeline.process_dataset(ds);
    Ok(pipeline.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use caliper_data::{RecordBuilder, SnapshotRecord, Value};

    fn sample_dataset() -> Dataset {
        let mut ds = Dataset::new();
        let store = Arc::clone(&ds.store);
        for iteration in 0..4i64 {
            for (func, time) in [("foo", 15i64), ("foo", 25), ("bar", 20)] {
                let rec = RecordBuilder::new(&store)
                    .with("function", func)
                    .with("loop.iteration", iteration)
                    .with("time", time)
                    .build();
                ds.push(SnapshotRecord::from(&rec));
            }
        }
        ds
    }

    #[test]
    fn paper_table_shape() {
        let ds = sample_dataset();
        let result = run_query(
            &ds,
            "AGGREGATE count, sum(time) GROUP BY function, loop.iteration",
        )
        .unwrap();
        // 2 functions x 4 iterations
        assert_eq!(result.records.len(), 8);
        let rendered = result.render();
        let header = rendered.lines().next().unwrap();
        assert!(header.contains("function"));
        assert!(header.contains("loop.iteration"));
        assert!(header.contains("count"));
        assert!(header.contains("sum#time"));
        // foo rows: count 2, sum 40
        let foo = result.lookup(
            |r, s| {
                let f = s.find("function").unwrap();
                let i = s.find("loop.iteration").unwrap();
                r.get(f.id()) == Some(&Value::str("foo")) && r.get(i.id()) == Some(&Value::Int(0))
            },
            "sum#time",
        );
        assert_eq!(foo, Some(Value::Int(40)));
    }

    #[test]
    fn where_filters_apply_before_aggregation() {
        let ds = sample_dataset();
        let result = run_query(
            &ds,
            "AGGREGATE sum(time) WHERE function=bar GROUP BY function",
        )
        .unwrap();
        assert_eq!(result.records.len(), 1);
        let sum = result.lookup(|_, _| true, "sum#time");
        assert_eq!(sum, Some(Value::Int(80)));
    }

    #[test]
    fn order_by_desc() {
        let ds = sample_dataset();
        let result = run_query(
            &ds,
            "AGGREGATE sum(time) GROUP BY function ORDER BY sum#time desc",
        )
        .unwrap();
        let sums: Vec<i64> = result
            .records
            .iter()
            .map(|r| {
                let attr = result.store.find("sum#time").unwrap();
                r.get(attr.id()).unwrap().to_i64().unwrap()
            })
            .collect();
        assert_eq!(sums, vec![160, 80]);
    }

    #[test]
    fn select_restricts_columns() {
        let ds = sample_dataset();
        let result = run_query(
            &ds,
            "AGGREGATE count, sum(time) GROUP BY function SELECT function, count",
        )
        .unwrap();
        let cols: Vec<&str> = result.columns.iter().map(|a| a.name()).collect();
        assert_eq!(cols, vec!["function", "count"]);
    }

    #[test]
    fn passthrough_without_aggregation() {
        let ds = sample_dataset();
        let result = run_query(&ds, "SELECT * WHERE function=foo").unwrap();
        assert_eq!(result.records.len(), 8);
        // pass-through keeps the input store
        assert!(Arc::ptr_eq(&result.store, &ds.store));
    }

    #[test]
    fn formats_render() {
        let ds = sample_dataset();
        for (fmt, probe) in [
            ("table", "sum#time"),
            ("csv", "function,sum#time"),
            ("json", "\"function\""),
            ("expand", "function="),
            ("cali", "__rec=ctx"),
        ] {
            let result = run_query(
                &ds,
                &format!("AGGREGATE sum(time) GROUP BY function FORMAT {fmt}"),
            )
            .unwrap();
            let out = result.render();
            assert!(out.contains(probe), "format {fmt}: {out}");
        }
    }

    #[test]
    fn format_options_change_rendering() {
        let ds = sample_dataset();
        let with_header = run_query(&ds, "AGGREGATE count GROUP BY function FORMAT csv")
            .unwrap()
            .render();
        let without = run_query(
            &ds,
            "AGGREGATE count GROUP BY function FORMAT csv(noheader)",
        )
        .unwrap()
        .render();
        assert!(with_header.starts_with("function,count"));
        assert!(!without.contains("function,count"));
        assert_eq!(with_header.lines().count(), without.lines().count() + 1);

        let pretty = run_query(&ds, "AGGREGATE count GROUP BY function FORMAT json(pretty)")
            .unwrap()
            .render();
        assert!(pretty.contains("  \"function\""), "{pretty}");
    }

    #[test]
    fn cali_output_reparses() {
        let ds = sample_dataset();
        let result = run_query(&ds, "AGGREGATE count GROUP BY function FORMAT cali").unwrap();
        let text = result.render();
        let back = caliper_format::cali::from_bytes(text.as_bytes()).unwrap();
        assert_eq!(back.len(), 2);
    }

    #[test]
    fn merge_across_pipelines_matches_single() {
        let ds = sample_dataset();
        let spec = parse_query("AGGREGATE count, sum(time) GROUP BY function").unwrap();

        let mut single = Pipeline::new(spec.clone(), Arc::clone(&ds.store));
        single.process_dataset(&ds);

        let mut left = Pipeline::new(spec.clone(), Arc::clone(&ds.store));
        let mut right = Pipeline::new(spec, Arc::clone(&ds.store));
        for (i, rec) in ds.flat_records().enumerate() {
            if i % 2 == 0 {
                left.process(rec);
            } else {
                right.process(rec);
            }
        }
        left.merge(right);

        assert_eq!(single.finish().render(), left.finish().render());
    }

    #[test]
    fn limit_truncates_after_sort() {
        let ds = sample_dataset();
        let result = run_query(
            &ds,
            "AGGREGATE sum(time) GROUP BY function, loop.iteration \
             ORDER BY sum#time desc LIMIT 3",
        )
        .unwrap();
        assert_eq!(result.records.len(), 3);
        // The top-3 are the foo rows (sum 40 each), not bar (20).
        let f = result.store.find("function").unwrap();
        for rec in result.records.iter() {
            assert_eq!(rec.get(f.id()), Some(&Value::str("foo")));
        }
    }

    #[test]
    fn requery_drills_down() {
        let ds = sample_dataset();
        let coarse =
            run_query(&ds, "AGGREGATE sum(time) GROUP BY function, loop.iteration").unwrap();
        let refined = coarse
            .requery("AGGREGATE sum(sum#time) AS t GROUP BY function ORDER BY t desc")
            .unwrap();
        assert_eq!(refined.records.len(), 2);
        let t = refined.store.find("t").unwrap();
        assert_eq!(
            refined.records.row(0).get(t.id()).unwrap().to_i64(),
            Some(160)
        );
    }

    #[test]
    fn group_by_without_ops_dedups() {
        let ds = sample_dataset();
        let result = run_query(&ds, "GROUP BY function").unwrap();
        assert_eq!(result.records.len(), 2);
    }

    #[test]
    fn let_derived_attribute_feeds_aggregation() {
        let ds = sample_dataset();
        let result = run_query(
            &ds,
            "LET time.scaled = scale(time, 2) AGGREGATE sum(time.scaled) GROUP BY function",
        )
        .unwrap();
        let foo = result.lookup(
            |r, s| {
                let f = s.find("function").unwrap();
                r.get(f.id()) == Some(&Value::str("foo"))
            },
            "sum#time.scaled",
        );
        assert_eq!(foo, Some(Value::Float(320.0)));
    }

    use crate::parser::parse_query;
}
