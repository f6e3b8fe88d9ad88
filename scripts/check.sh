#!/bin/sh
# Full local gate: the layout rustfmt gives, release build, the
# workspace's test suites, the design ablations' smoke run, the
# benchmark package's tests and smoke run, lint pass, a rustdoc pass
# with warnings (missing_docs among them) promoted to errors, and a
# failure-injection smoke run of the fault-tolerant pipeline.
set -eu
cd "$(dirname "$0")/.."

# Format gate: every workspace crate is laid out as `cargo fmt` lays it
# out (`benchmark/` is a package of its own, outside the workspace).
cargo fmt --all -- --check

cargo build --release --workspace
cargo test -q --workspace
# The five design ablations (DESIGN.md §4) run, not just compile: every
# variant on a reduced input, the `selective_where` variants checked
# against each other's output before they are timed.
./target/release/ablations --quick > /dev/null
# One ruler: `cali-bench` below (and `ablations` above for the either/or
# questions it has no row for yet). The micro-benchmark harness that
# stood beside them, its knob and its targets stay deleted.
if grep -rn 'criterion\|CRITERION_MEASURE_MS\|\[\[bench\]\]' --include=Cargo.toml --include='*.rs' \
    Cargo.toml crates vendor src tests examples; then
    echo "check.sh: a second benchmark harness is back (listed above)" >&2
    exit 1
fi
# The benchmark is a package of its own that compiles against the
# crates' public API: its unit tests, then a smoke run (under 10 s) that
# makes the same correctness checks as a measuring run — outputs
# byte-identical across text / v1 / v2 and --threads 1|2, and the traced
# replay through the row API equal to the binaries' columnar answers.
cargo test -q --offline --manifest-path benchmark/Cargo.toml
# The traced half of that run counts allocations exactly (the counting
# allocator lives in the benchmark; the crates forbid `unsafe`), which
# makes it the place to hold the text decoder to "no allocation per
# field": one `Vec` per record for the row API, plus set-up spread over
# the smoke run's few hundred records.
bench_out=$(cargo run -q --release --offline --manifest-path benchmark/Cargo.toml -- --quick)
text_allocs=$(printf '%s\n' "$bench_out" \
    | awk '$1 == "format.text_decode_allocs_per_rec" { print $2 }')
awk -v allocs="$text_allocs" 'BEGIN { exit !(allocs != "" && allocs < 1.5) }' || {
    echo "check.sh: format.text_decode_allocs_per_rec is '${text_allocs}', expected < 1.5" >&2
    exit 1
}
cargo clippy --workspace --all-targets -q -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

# Unsafe-code gate: every crate root (workspace and vendored shims)
# must carry #![forbid(unsafe_code)], and no source line may use
# `unsafe` at all — the attribute makes the compiler enforce it, the
# grep catches a root file losing the attribute.
for f in src/lib.rs crates/*/src/lib.rs vendor/*/src/lib.rs; do
    grep -q '#!\[forbid(unsafe_code)\]' "$f" || {
        echo "check.sh: $f is missing #![forbid(unsafe_code)]" >&2
        exit 1
    }
done
# Five test binaries are exempt: `snapshot_allocs.rs`, `group_allocs.rs`,
# `fold_allocs.rs`, `reduce_allocs.rs` and `sched_allocs.rs` install a
# counting global allocator (an `unsafe impl GlobalAlloc` that forwards
# to `System`), which no safe code can do.
if grep -rn --include='*.rs' 'unsafe' src crates vendor | grep -v 'forbid(unsafe_code)' \
    | grep -v -e '^crates/runtime/tests/snapshot_allocs\.rs:' -e '^crates/query/tests/group_allocs\.rs:' \
        -e '^crates/query/tests/fold_allocs\.rs:' -e '^crates/cli/tests/reduce_allocs\.rs:' \
        -e '^crates/mpisim/tests/sched_allocs\.rs:'; then
    echo "check.sh: unsafe code found (listed above)" >&2
    exit 1
fi

# No-timer gate: every cali-served thread blocks on the event it waits
# for (DESIGN.md §11), so outside the tests the crate may neither poll
# (a non-blocking listener, a timed pop, a JoinHandle asked whether it
# is finished) nor sleep, except in its three back-offs, one per file:
# the client's BUSY retry, a failed accept(), the supervisor's restart.
# (A crate's sources short of their test modules, as `file:line: text`.)
non_test_src() {
    for f in crates/"$1"/src/*.rs; do
        awk -v f="$f" '/^#\[cfg\(test\)\]/ { exit } { print f ":" FNR ": " $0 }' "$f"
    done
}
served_src=$(non_test_src served)
if printf '%s\n' "$served_src" | grep -E 'set_nonblocking|pop_timeout|is_finished|WouldBlock'; then
    echo "check.sh: crates/served polls (listed above)" >&2
    exit 1
fi
served_sleeps=$(printf '%s\n' "$served_src" | grep -F 'sleep(' | cut -d: -f1 | uniq -c | tr -s ' \n' ' ')
want_sleeps=" 1 crates/served/src/protocol.rs 1 crates/served/src/server.rs 1 crates/served/src/supervisor.rs "
if [ "$served_sleeps" != "$want_sleeps" ]; then
    printf '%s\n' "$served_src" | grep -F 'sleep(' >&2
    echo "check.sh: crates/served sleeps outside its three back-offs (all sleeps listed above)" >&2
    exit 1
fi

# One-state gate: what the daemon's threads coordinate on is one value
# behind one lock, changed only by the pure `step` of daemon.rs
# (DESIGN.md §11), so outside its tests that module names no lock,
# socket, thread, I/O or clock; and the two-lock queue it replaced
# stays deleted.
daemon_src=$(printf '%s\n' "$served_src" | grep -F 'crates/served/src/daemon.rs:' || true)
if [ -z "$daemon_src" ] || printf '%s\n' "$daemon_src" | grep -E 'std::(sync|net|thread|io)|Instant'; then
    echo "check.sh: crates/served/src/daemon.rs is gone, or its step names a lock, socket, thread, I/O or clock (listed above)" >&2
    exit 1
fi
if [ -e crates/served/src/queue.rs ] || grep -rn 'BoundedQueue' --include='*.rs' src crates tests examples; then
    echo "check.sh: crates/served's BoundedQueue is back (listed above)" >&2
    exit 1
fi
# Thread gate: the daemon's threads are two accept loops and the
# supervised workers (a named `Builder` spawn each, one in server.rs and
# one in supervisor.rs) and its connection handlers, which the step
# admits up to a bound per listener. So the one `thread::spawn` outside
# the tests is the accept loop's admitted-handler arm, `Effects::Spawn`.
handler_spawns=$(printf '%s\n' "$served_src" | awk '
    /=>/ { arm = $0 }
    /thread::spawn\(/ { print ((arm ~ /Effects::Spawn =>/) ? "admitted" : "unbounded") ": " $0 }')
builder_spawns=$(printf '%s\n' "$served_src" | grep -F '.spawn(' | cut -d: -f1 | uniq -c | tr -s ' \n' ' ')
if [ "$(printf '%s\n' "$handler_spawns" | grep -c '^admitted: ')" != 1 ] \
    || printf '%s\n' "$handler_spawns" | grep '^unbounded: ' \
    || [ "$builder_spawns" != " 1 crates/served/src/server.rs 1 crates/served/src/supervisor.rs " ]; then
    printf '%s\n' "$served_src" | grep -F 'spawn(' >&2
    echo "check.sh: crates/served starts a thread outside its accept loops, workers and admitted handlers (all spawns listed above)" >&2
    exit 1
fi
# The step's explorer on its two largest shapes (3 connections × 3
# batches × 1 and 2 workers, 1.1 million states): too slow unoptimised
# for the workspace run above, so here, optimised.
cargo test -q --release -p caliper-served --lib -- --ignored every_interleaving

# No-rows gate: a stream's batches and its replay travel as blocks
# (DESIGN.md §10, §11) — state.rs neither unpacks a record nor feeds
# the aggregate one by one outside its tests, where the row path lives
# on as the oracle.
if printf '%s\n' "$served_src" | grep -F 'crates/served/src/state.rs:' \
    | grep -E '\.unpack\(|flat_records\(|Aggregator::add|\.add\(&'; then
    echo "check.sh: crates/served/src/state.rs handles records (listed above)" >&2
    exit 1
fi
# Nor does the runtime's snapshot path: a snapshot is taken into the
# record the thread scope reuses, appended to a block and folded from
# its node and its immediates by the aggregator's fold (DESIGN.md §1), so outside the tests
# crates/runtime unpacks no record, builds no row, feeds the aggregate
# none and takes no snapshot of a fresh record. (The journal's
# `append_globals` writes the dataset's global metadata, which are rows
# by definition and never pass a snapshot service.)
runtime_src=$(non_test_src runtime)
if printf '%s\n' "$runtime_src" | grep -E '\.unpack\(|Aggregator::add\b|\.add\(&|blackboard\.snapshot\(\)' \
    || printf '%s\n' "$runtime_src" | grep -v '^crates/runtime/src/journal.rs:' | grep -F 'FlatRecord'; then
    echo "check.sh: crates/runtime handles rows on the snapshot path (listed above)" >&2
    exit 1
fi
# And its output is blocks (DESIGN.md §1): the trace buffer appends a
# snapshot to typed columns, and every flush — the trace's, the
# aggregate's and its spills, the metrics' — hands over blocks. Outside
# the tests crates/runtime keeps no list of records, derives none from a
# block and copies no snapshot.
if printf '%s\n' "$runtime_src" \
    | grep -E 'Vec<SnapshotRecord>|append_records|rec\.clone\(\)|record\.clone\(\)'; then
    echo "check.sh: crates/runtime buffers or flushes rows (listed above)" >&2
    exit 1
fi
# Nor does the daemon's query plane: a query flushes each stream's warm
# aggregate as one block and folds it (DESIGN.md §11), so outside the
# tests crates/served builds no row, flushes no aggregate to rows (an
# `Aggregator::flush` takes a store; the journal's and the socket's
# `flush()` take nothing) and keeps no row-at-a-time query runner. And
# the aggregator orders keys by place, never by building values
# (DESIGN.md §10): its old comparator stays gone.
if printf '%s\n' "$served_src" | grep -E 'FlatRecord|\.flush\([^)]|warm_rows|run_records_with_deadline' \
    || grep -rn 'key_cmp' crates/query/src; then
    echo "check.sh: the query plane handles rows, or keys are ordered by value again (listed above)" >&2
    exit 1
fi
# And the text line encoder allocates nothing per record: from its
# marker to the end of `write_block`, cali.rs formats no id or value into
# a String of its own, clones no entry and copies no list.
encoder_src=$(awk '
    /^#\[cfg\(test\)\]/ { exit }
    /^\/\/ ---- the line encoder ----$/ { on = 1 }
    on { print FILENAME ":" FNR ": " $0 }
    on && /fn write_block\(/ { last = 1 }
    on && last && /^    }$/ { exit }
' crates/format/src/cali.rs)
for landmark in 'fn push_value(' 'fn write_snapshot(' 'fn write_globals(' 'fn write_block('; do
    printf '%s\n' "$encoder_src" | grep -qF "$landmark" || {
        echo "check.sh: '$landmark' is not inside cali.rs' line-encoder stretch; move the marker with it" >&2
        exit 1
    }
done
if printf '%s\n' "$encoder_src" | grep -E 'to_string\(\)|\.to_vec\(\)|\.clone\(\)'; then
    echo "check.sh: the text line encoder allocates per record (listed above)" >&2
    exit 1
fi

# Journal gate: the daemon journals each batch as it was received, one
# frame per batch (DESIGN.md §11), so outside the tests crates/served
# encodes nothing it journals — no `CaliWriter`, no `write_block`, no
# per-row `append_block` — and a frame's header line is written and
# read in one place, the journal module.
if printf '%s\n' "$served_src" | grep -E 'CaliWriter|write_block|append_block'; then
    echo "check.sh: crates/served encodes what it journals (listed above)" >&2
    exit 1
fi
if find src crates/*/src -name '*.rs' | sort | while read -r f; do
        awk -v f="$f" '/^#\[cfg\(test\)\]/ { exit } { print f ":" FNR ": " $0 }' "$f"
    done | grep -F '__rec=batch' | grep -v '^crates/format/src/journal.rs:'; then
    echo "check.sh: a batch frame's header line is spelled outside the journal module (listed above)" >&2
    exit 1
fi

# File-is-the-unit gate: `scan_file` folds a whole file into one pipeline
# in every driver (DESIGN.md §6); the intra-file split and its knob stay
# deleted.
if grep -rn 'batch_records\|unit_records\|DEFAULT_BATCH_RECORDS' crates src tests examples; then
    echo "check.sh: the intra-file work-unit split is back (listed above)" >&2
    exit 1
fi

# One-table gate: the aggregation database is the only map from keys to
# groups, and its keys are cells (DESIGN.md §10). The columnar fold keeps
# no hash map in front of it — its one memo, the group of a one-string
# key by stream code, is an array in `CodeMap` beside the code map,
# filled by `Aggregator::admit_code` with admitted groups only and
# started over with it — and no key is built of `Value`s again.
if grep -n 'HashMap' crates/query/src/scan.rs \
    || grep -n 'Option<Value>' crates/query/src/aggregator.rs; then
    echo "check.sh: a second key->group table, or a key of boxed values, is back (listed above)" >&2
    exit 1
fi
# Group-state gate: a group is a row of the aggregator's accumulator
# columns and a key in its arena (DESIGN.md §10). Outside the tests no
# entry per group, no boxed key and no `Vec` of reducers comes back.
if non_test_src query | grep -E 'DbEntry|Box<\[KeyCell\]>|Vec<Reducer>'; then
    echo "check.sh: per-group state is boxed again (listed above)" >&2
    exit 1
fi
# One-oracle gate: `tests/every_path.rs` holds every execution path to
# the reference evaluator in `tests/oracle`, which derives each answer
# from the query alone — it takes the parser's AST and no engine code.
# The AST's WHERE types carry the engine's own tests (the row test
# `row_passes`, the block test `may_match`, `CmpOp::eval`), which the
# oracle's `passes` must not call either.
if grep -rnE 'Aggregator|BlockFold|Pipeline|Reducer|run_query|parallel_query|LetSet|FilterSet' tests/oracle \
    || grep -rnE 'row_passes|may_match|\.eval\(|cmp_types_compatible|pushable' tests/oracle; then
    echo "check.sh: the reference evaluator uses engine code (listed above)" >&2
    exit 1
fi

# One-way-in gate: the runtime's snapshots reach the group table the
# way every block does, through the block fold (DESIGN.md §1, §10). The
# snapshot evaluator and its node cache stay deleted, and only the fold
# (crates/query/src/scan.rs) and `Aggregator::merge` admit a key.
if grep -rnE 'add_snapshot|snapshot_fallbacks|NodeKey|node_key|path_key' crates/*/src; then
    echo "check.sh: a second way into the group table is back (listed above)" >&2
    exit 1
fi
merge_src=$(awk '/^    pub fn merge\(&mut self, other: Aggregator\)/ { on = 1 }
    on { print "crates/query/src/aggregator.rs:" FNR ": " $0 }
    on && /^    }$/ { exit }' crates/query/src/aggregator.rs)
merge_admits=$(printf '%s\n' "$merge_src" | grep -F '.admit(' | cut -d: -f1,2)
other_admits=$(grep -rn --include='*.rs' -F '.admit(' crates src tests examples \
    | grep -v '^crates/query/src/scan.rs:' | cut -d: -f1,2)
if [ -z "$merge_admits" ] || [ "$other_admits" != "$merge_admits" ]; then
    printf '%s\n' "$other_admits" >&2
    echo "check.sh: Aggregator::admit is called outside scan.rs and Aggregator::merge (all calls outside scan.rs listed above)" >&2
    exit 1
fi

# One-owner gate: a fold's caches (its node cache, its code map) are
# keyed by the codes of one string table and follow that table's
# identity (`StringTable::id`), so no caller pairs a fold with a table
# or resets it (DESIGN.md §10). Two types own a fold: a `Pipeline` the
# fold of its query, made in query.rs, and an `Aggregator` the fold of
# its aggregation, made in aggregator.rs. Outside the tests no other
# file builds one, and the hand-paired resets stay deleted.
fold_src=$(for c in crates/*/; do non_test_src "$(basename "$c")"; done)
if printf '%s\n' "$fold_src" | grep -F 'BlockFold::new' | grep -v '^crates/query/src/query.rs:' \
    || printf '%s\n' "$fold_src" | grep -F 'BlockFold::for_aggregation' | grep -v '^crates/query/src/aggregator.rs:' \
    || grep -rnE 'strings_past_bound|fold_replayed' crates src tests \
    || grep -nE 'pub fn reset\b' crates/query/src/scan.rs; then
    echo "check.sh: a fold is built or reset outside its two owners (listed above)" >&2
    exit 1
fi

# One-reader gate: an input file is opened and parsed by `scan_path`
# and its dictionary-only sibling, and by nothing else (DESIGN.md §9).
# Outside the tests, crates/format opens a file for reading only in
# reader.rs (a journal's replay included: it reads through the same
# failpoints and retry) and in the `read_file` conveniences of the two
# row codecs; schema.rs holds a table and its saved form — it walks no
# binary stream and touches no file.
format_src=$(non_test_src format)
format_reads=$(printf '%s\n' "$format_src" | grep -E 'File::open|fs::read' | cut -d: -f1 | uniq -c | tr -s ' \n' ' ')
want_reads=" 1 crates/format/src/binary.rs 1 crates/format/src/cali.rs 1 crates/format/src/reader.rs "
if [ "$format_reads" != "$want_reads" ]; then
    printf '%s\n' "$format_src" | grep -E 'File::open|fs::read' >&2
    echo "check.sh: crates/format reads files outside reader.rs and the two read_file conveniences (all reads listed above)" >&2
    exit 1
fi
if printf '%s\n' "$format_src" | grep -F 'crates/format/src/schema.rs:' | grep -E 'Cursor|std::fs|std::io'; then
    echo "check.sh: crates/format/src/schema.rs parses streams or reads files again (listed above)" >&2
    exit 1
fi
if grep -rn 'infer_path\|infer_binary\|infer_text\|scan_binary_record\|skip_value' crates; then
    echo "check.sh: the schema pre-pass is back (listed above)" >&2
    exit 1
fi

# One-tokenizer gate: a text line is cut into fields by
# `escape::fields` alone (DESIGN.md §10). The reader reads a `ctx` or
# `globals` line's plain `ref=`, `attr=` and `data=` fields in place and
# hands every other field to it. Outside the tests, crates/format
# defines `fn fields` only in escape.rs and splits no line by hand.
if printf '%s\n' "$format_src" | grep -E 'fn fields[(<]' | grep -v '^crates/format/src/escape.rs:' \
    || printf '%s\n' "$format_src" | grep -E "split\(','|split_once\('='|splitn\("; then
    echo "check.sh: a second text tokenizer is back (listed above)" >&2
    exit 1
fi

# One-reduction gate: every rank program is a `RankTask` run by an
# `Executor` (DESIGN.md §7); the blocking closure API over `Comm`, its
# second tree reduction and the extra run entry points stay deleted.
if grep -rnE '\breduce_tree|run_with_faults|recv_any|try_run_tasks|run_tasks_traced' crates src tests examples; then
    echo "check.sh: a second way to run a rank program is back (listed above)" >&2
    exit 1
fi

# One-fold gate: a list of files is folded into a pipeline by one
# function, `caliper_query::fold_files` (DESIGN.md §6) — `cali-query`'s
# aggregations and pass-through queries alike, and each rank of
# `mpi-caliquery`. The second fold a rank ran, and the error that sent a
# pass-through query around the pool, stay deleted.
if grep -rnE 'local_pipeline|NotAnAggregation' crates src tests; then
    echo "check.sh: a second fold over a list of files is back (listed above)" >&2
    exit 1
fi

# One-representation gate: a query's result is the block it was
# flushed into (DESIGN.md §10). The renderers read it a row at a time
# from its columns and take no record, and `Pipeline::finish` flushes
# with `flush_into`, never through the row view `Aggregator::flush`.
renderer_src=$(printf '%s\n' "$format_src" | grep -E '^crates/format/src/(csv|table|json|expand|flamegraph)\.rs:')
finish_src=$(awk '/^    pub fn finish\(self\)/ { on = 1 }
    on { print "crates/query/src/query.rs:" FNR ": " $0 }
    on && /^    }$/ { exit }' crates/query/src/query.rs)
if [ -z "$finish_src" ]; then
    echo "check.sh: Pipeline::finish not found in crates/query/src/query.rs" >&2
    exit 1
fi
if printf '%s\n' "$renderer_src" | grep -F 'FlatRecord' \
    || printf '%s\n' "$finish_src" | grep -E '\.flush\(|FlatRecord'; then
    echo "check.sh: a second result representation is back (listed above)" >&2
    exit 1
fi

# One-evaluator gate: the block fold is the only evaluator of LET and
# WHERE (DESIGN.md §10). Row records enter it as block rows, and a
# pass-through query's kept rows leave it whole, so outside the tests
# crates/query/src keeps no row filter (`FilterSet`), no row LET
# (`fn apply`), flattens no record, derives no record from a block and
# keeps no list of records; only scan.rs runs the row test of WHERE
# (`row_passes`), compares values (`.eval(` of a `CmpOp`) or evaluates a
# LET expression (`expr.eval`); and the row test is defined once, in the
# one module that decides the WHERE clause,
# crates/format/src/pushdown.rs.
query_src=$(non_test_src query)
row_tests=$(for c in crates/*/; do non_test_src "$(basename "$c")"; done | grep -E 'fn row_passes\b|fn cmp_occurrences\b' || true)
if printf '%s\n' "$query_src" | grep -E 'FilterSet|fn apply\b|for_each_flat|append_records|Vec<SnapshotRecord>|cmp_occurrences' \
    || printf '%s\n' "$query_src" | grep -E 'row_passes\(|\.eval\(' | grep -v '^crates/query/src/scan.rs:' \
    || [ "$(printf '%s\n' "$row_tests" | cut -d: -f1)" != crates/format/src/pushdown.rs ]; then
    printf '%s\n' "$row_tests"
    echo "check.sh: a second evaluator of LET or WHERE is back (listed above)" >&2
    exit 1
fi
# One-WHERE gate: the WHERE clause is decided in one module over one
# `Filter` type (DESIGN.md §10); the reader's mirror of it (its own
# operator and predicate types, their conversion) and the test-local
# re-derivation the skip property used to be proven against stay
# deleted.
if grep -rnE 'PushdownOp|Predicate::|convert_op|fn record_matches' crates src tests; then
    echo "check.sh: a second copy of the WHERE clause is back (listed above)" >&2
    exit 1
fi

# Static-analysis gate: every golden check fixture must produce its
# pinned diagnostics (asserted byte-for-byte by the check_golden test
# in `cargo test` above); here, re-assert the exit-code contract over
# the fixtures with the release binary, and lint every doc-embedded
# query.
lint_query=./target/release/cali-query
golden=crates/cli/tests/golden
for fixture in "$golden"/checks/*.calql; do
    q=$(grep -v '^#' "$fixture" | tr '\n' ' ')
    rc=0
    "$lint_query" -q "$q" --check "$golden"/data/rank0.cali "$golden"/data/rank1.cali \
        >/dev/null 2>&1 || rc=$?
    case "$fixture" in
        */clean.calql) want=0 ;;
        */unused-let.calql|*/self-referential-let.calql|*/where-type-mismatch.calql|*/pushdown-ineligible.calql) want=2 ;;
        *) want=1 ;;
    esac
    if [ "$rc" -ne "$want" ]; then
        echo "check.sh: --check on $fixture exited $rc, expected $want" >&2
        exit 1
    fi
done
scripts/lint_doc_queries.sh "$lint_query"

# Scratch directory of every smoke run below.
smoke=$(mktemp -d)
trap 'rm -rf "$smoke"' EXIT
# Usage smoke: a flag a binary does not know is a usage error, not a
# switch nobody reads (all eight binaries: crates/cli/tests/cli_bin.rs;
# `paper`: crates/bench/tests/paper.rs).
for bin in cali-query cali-served paper; do
    rc=0
    ./target/release/"$bin" --no-such-flag > /dev/null 2> "$smoke/usage.err" || rc=$?
    if [ "$rc" -ne 1 ] || ! grep -q "^usage: $bin" "$smoke/usage.err"; then
        echo "check.sh: $bin --no-such-flag exited $rc, expected 1 and the usage text" >&2
        exit 1
    fi
done
# `--workers` steps the event engine only: on the thread engine it is a
# usage error, not a flag nobody reads.
rc=0
./target/release/mpi-caliquery --engine threads --workers 2 "$golden"/data/rank0.cali \
    > /dev/null 2> "$smoke/usage.err" || rc=$?
if [ "$rc" -ne 1 ] || ! grep -q "^usage: mpi-caliquery" "$smoke/usage.err"; then
    echo "check.sh: mpi-caliquery --engine threads --workers 2 exited $rc, expected 1 and the usage text" >&2
    exit 1
fi

# Paper-output gate: `paper table1` and `paper fig5`–`fig9` run
# CleverLeaf on its virtual clock and fold the profiles through
# the block fold (about 3 s together), so what they print is a function of
# the code alone, and must be byte for byte what `results/` holds. A
# change that moves a paper figure regenerates its file (EXPERIMENTS.md)
# in the same change. Their deterministic claims against the paper are
# gates too: one that fails exits 2.
paper=./target/release/paper
for b in table1 fig5 fig6 fig7 fig8 fig9; do
    rc=0
    "$paper" "$b" > "$smoke/$b.csv" 2> "$smoke/$b.log" || rc=$?
    if [ "$rc" -ne 0 ]; then
        grep '^#   \[fails\]' "$smoke/$b.log" >&2 || true
        echo "check.sh: paper $b exited $rc" >&2
        exit 1
    fi
    cmp -s "$smoke/$b.csv" "results/$b.csv" || {
        echo "check.sh: $b prints other bytes than results/$b.csv" >&2
        exit 1
    }
done

# Failure-injection smoke: a corrupt corpus must be salvageable with
# --lenient (and fatal without), and a killed rank must leave fig4's
# resilient reduction with an honest coverage report (a gated claim:
# `paper fig4` exits 2 unless the result equals the survivors' fold).
printf '__rec=attr,id=0,name=kernel,type=string,prop=default\n__rec=ctx,attr=0,data=ok\n' \
    > "$smoke/good.cali"
printf '__rec=attr,id=0,name=kernel,type=string,prop=default\n__rec=ctx,attr=99,data=broken\n__rec=ctx,attr=0,data=ok\n' \
    > "$smoke/bad.cali"
if cargo run -q --release -p cali-cli --bin cali-query -- \
    -q "AGGREGATE count GROUP BY kernel" "$smoke/good.cali" "$smoke/bad.cali" \
    >/dev/null 2>&1; then
    echo "check.sh: strict read of a corrupt corpus unexpectedly succeeded" >&2
    exit 1
fi
# Lenient over partial data succeeds with the distinct exit code 2.
rc=0
cargo run -q --release -p cali-cli --bin cali-query -- \
    --lenient --max-groups 8 -q "AGGREGATE count GROUP BY kernel" \
    "$smoke/good.cali" "$smoke/bad.cali" > "$smoke/lenient.out" 2>/dev/null || rc=$?
if [ "$rc" -ne 2 ]; then
    echo "check.sh: lenient read over partial data exited $rc, expected 2" >&2
    exit 1
fi
grep -q "ok" "$smoke/lenient.out"
"$paper" fig4 --quick --max-np 8 --kill 3 > /dev/null

# Event-engine scale smoke: a 2048-rank resilient tree reduction with a
# seeded kill plan must finish inside a strict wall-clock budget (a
# scheduler regression toward thread-per-rank cost blows it) and be
# byte-identical across runs and across worker-pool sizes.
scale_start=$(date +%s)
"$paper" fig4 --ranks 2048 --kills 5 --kill-seed 7 \
    > "$smoke/scale-a.out" 2>/dev/null
"$paper" fig4 --ranks 2048 --kills 5 --kill-seed 7 \
    > "$smoke/scale-b.out" 2>/dev/null
"$paper" fig4 --ranks 2048 --kills 5 --kill-seed 7 --workers 4 \
    > "$smoke/scale-c.out" 2>/dev/null
scale_elapsed=$(( $(date +%s) - scale_start ))
cmp -s "$smoke/scale-a.out" "$smoke/scale-b.out" \
    && cmp -s "$smoke/scale-a.out" "$smoke/scale-c.out" || {
    echo "check.sh: 2048-rank event-engine output differs across runs/workers" >&2
    exit 1
}
grep -q "^sched_events," "$smoke/scale-a.out" || {
    echo "check.sh: event-engine smoke reported no scheduler stats" >&2
    exit 1
}
if [ "$scale_elapsed" -gt 30 ]; then
    echo "check.sh: event-engine scale smoke took ${scale_elapsed}s (budget 30s)" >&2
    exit 1
fi
echo "check.sh: event-engine smoke: 2048 ranks, seeded kills, deterministic in ${scale_elapsed}s"
# The scheduler's and the reduction's bookkeeping must stay linear in
# the rank count: 131072 ranks take under a second when it is, and well
# over the budget with one linear scan per event or per rank in it.
big_start=$(date +%s)
"$paper" fig4 --ranks 131072 > /dev/null 2>&1
big_elapsed=$(( $(date +%s) - big_start ))
if [ "$big_elapsed" -gt 10 ]; then
    echo "check.sh: 131072-rank reduction took ${big_elapsed}s (budget 10s)" >&2
    exit 1
fi

# One reduction behind every mpi-caliquery flag combination: stdout over
# the golden corpus is the same bytes on the default engine, the thread
# engine, any worker pool and the two-level topology.
mpiq=./target/release/mpi-caliquery
mq="AGGREGATE count, sum(time.duration) GROUP BY function ORDER BY function"
"$mpiq" -q "$mq" "$golden"/data/rank0.cali "$golden"/data/rank1.cali > "$smoke/mpiq.out"
grep -q "foo" "$smoke/mpiq.out"
for flags in "--engine threads" "--workers 1" "--workers 4" "--nodes 2"; do
    "$mpiq" $flags -q "$mq" "$golden"/data/rank0.cali "$golden"/data/rank1.cali \
        | cmp -s - "$smoke/mpiq.out" || {
        echo "check.sh: mpi-caliquery $flags differs from the default invocation" >&2
        exit 1
    }
done
# Sparse = dense: over 4096 ranks all but two hold no file, send nothing
# but their coverage, and must leave the answer as it is over two.
for flags in "" "--workers 4" "--nodes 64"; do
    "$mpiq" --ranks 4096 $flags -q "$mq" "$golden"/data/rank0.cali "$golden"/data/rank1.cali \
        | cmp -s - "$smoke/mpiq.out" || {
        echo "check.sh: mpi-caliquery --ranks 4096 $flags differs from the 2-rank invocation" >&2
        exit 1
    }
done
# And at the benchmark's 16384 ranks, on one worker and on four: the
# same bytes, and exactly the scheduler counters the benchmark's
# `mpisim.*` rows read (DESIGN.md §12: 16384 starts, 16383 deliveries,
# 16383 timers, 14 tree levels of 1 µs each).
for workers in 1 4; do
    "$mpiq" --ranks 16384 --workers "$workers" --timings -q "$mq" \
        "$golden"/data/rank0.cali "$golden"/data/rank1.cali \
        > "$smoke/mpiq-16k.out" 2> "$smoke/mpiq-16k.err"
    cmp -s "$smoke/mpiq-16k.out" "$smoke/mpiq.out" || {
        echo "check.sh: mpi-caliquery --ranks 16384 --workers $workers differs from the 2-rank invocation" >&2
        exit 1
    }
    sched=$(sed -n 's/^# sched \([a-z ]*\): *\(.*\)$/\1: \2/p' "$smoke/mpiq-16k.err" | tr '\n' ';')
    if [ "$sched" != "events: 49150;virtual time: 14000 ns;max queue depth: 16384;" ]; then
        echo "check.sh: mpi-caliquery --ranks 16384 --workers $workers: scheduler counters '$sched'" >&2
        exit 1
    fi
done
echo "check.sh: mpi-caliquery: identical output across engines, workers, topologies and 2, 4096 or 16384 ranks; 131072 ranks in ${big_elapsed}s"
# The calendar replaced the event heap (DESIGN.md §12): events are
# kept per timestamp in the order they were scheduled.
if grep -rn 'BinaryHeap' crates/mpisim/src; then
    echo "check.sh: crates/mpisim/src keeps its events in a binary heap again (listed above)" >&2
    exit 1
fi

# One fold behind every cali-query --threads N: a file that can neither
# be read nor merged is dropped as unreadable (the merge failpoint fires
# only after a successful read) — same stdout, stderr and exit code.
for n in 1 2 4; do
    rc=0
    ./target/release/cali-query --no-lint --threads "$n" --degrade \
        --faults "io.read~rank1=fail(99);shard.merge~rank1=fail(1)" -q "$mq" \
        "$golden"/data/rank0.cali "$golden"/data/rank1.cali \
        > "$smoke/both-$n.out" 2> "$smoke/both-$n.err" || rc=$?
    echo "exit $rc" >> "$smoke/both-$n.err"
    cmp -s "$smoke/both-1.out" "$smoke/both-$n.out" \
        && cmp -s "$smoke/both-1.err" "$smoke/both-$n.err" || {
        echo "check.sh: double-fault --degrade run differs at --threads $n" >&2
        exit 1
    }
done
grep -q "injected fault at io.read" "$smoke/both-1.err" && grep -qx "exit 2" "$smoke/both-1.err" || {
    echo "check.sh: double-fault --degrade run did not report io.read and exit 2" >&2
    exit 1
}

# Float golden: five text files whose groups overlap across files, with
# non-integer doubles, under one query over every op kind. The expected
# bytes were written by the build that merged each file's own pipeline
# into the root key by key; the lent root (DESIGN.md §6) must print them
# at every worker count — a fold in any other order moves a last digit.
floats="$golden"/floats
for n in 1 2 3; do
    ./target/release/cali-query --no-lint --threads "$n" -q "$(cat "$floats"/every-op.calql)" \
        "$floats"/f0.cali "$floats"/f1.cali "$floats"/f2.cali "$floats"/f3.cali "$floats"/f4.cali \
        > "$smoke/float-golden-$n.out"
    cmp -s "$floats"/every-op.txt "$smoke/float-golden-$n.out" || {
        echo "check.sh: cali-query --threads $n differs from the float golden" >&2
        exit 1
    }
done

# The same files under a cap: every file of a --max-groups run folds
# into a pipeline of its own and parks until its turn. The expected
# bytes were written by the build whose driver took two lock rounds per
# file (`every-op-max-groups-5.txt`).
for n in 1 2 3; do
    ./target/release/cali-query --no-lint --threads "$n" --max-groups 5 \
        -q "$(cat "$floats"/every-op.calql)" \
        "$floats"/f0.cali "$floats"/f1.cali "$floats"/f2.cali "$floats"/f3.cali "$floats"/f4.cali \
        > "$smoke/float-capped-$n.out" 2> /dev/null
    cmp -s "$floats"/every-op-max-groups-5.txt "$smoke/float-capped-$n.out" || {
        echo "check.sh: cali-query --threads $n --max-groups 5 differs from the capped float golden" >&2
        exit 1
    }
done
# The first file dropped: the file whose pipeline would be the root. A
# degraded run prints the bytes of a clean run over the other files,
# and exits 2.
./target/release/cali-query --no-lint --threads 1 -q "$(cat "$floats"/every-op.calql)" \
    "$floats"/f1.cali "$floats"/f2.cali "$floats"/f3.cali "$floats"/f4.cali \
    > "$smoke/float-without-f0.out"
for n in 1 3; do
    rc=0
    ./target/release/cali-query --no-lint --threads "$n" --degrade \
        --faults "shard.merge~f0.cali=fail(1)" -q "$(cat "$floats"/every-op.calql)" \
        "$floats"/f0.cali "$floats"/f1.cali "$floats"/f2.cali "$floats"/f3.cali "$floats"/f4.cali \
        > "$smoke/float-drop-f0-$n.out" 2> /dev/null || rc=$?
    if [ "$rc" -ne 2 ] || ! cmp -s "$smoke/float-without-f0.out" "$smoke/float-drop-f0-$n.out"; then
        echo "check.sh: --degrade with f0.cali dropped at --threads $n exited $rc or differs from a run over f1-f4" >&2
        exit 1
    fi
done

# Crash-recovery smoke: run the journaling CleverLeaf demo, SIGKILL it
# mid-run, and verify (a) the torn journal is a byte prefix of a clean
# run's (pacing never changes the data), (b) cali-recover salvages it,
# and (c) aggregating the salvage is identical for every --threads N.
demo=./target/release/journal_demo
query=./target/release/cali-query
recover=./target/release/cali-recover
"$demo" --journal "$smoke/clean-journal.cali" --timesteps 6 2>/dev/null
"$demo" --journal "$smoke/torn-journal.cali" --timesteps 6 --pace 0.5 2>/dev/null &
demo_pid=$!
sleep 2
kill -9 "$demo_pid" 2>/dev/null || {
    echo "check.sh: paced journal_demo finished before the kill; raise --pace" >&2
    exit 1
}
wait "$demo_pid" 2>/dev/null || true
torn_bytes=$(wc -c < "$smoke/torn-journal.cali")
if [ "$torn_bytes" -eq 0 ]; then
    echo "check.sh: killed run journaled nothing; lower --pace" >&2
    exit 1
fi
head -c "$torn_bytes" "$smoke/clean-journal.cali" | cmp -s - "$smoke/torn-journal.cali" || {
    echo "check.sh: torn journal is not a byte prefix of the clean run's" >&2
    exit 1
}
rc=0
"$recover" -o "$smoke/recovered.cali" "$smoke/torn-journal.cali" 2>"$smoke/recover.err" || rc=$?
if [ "$rc" -ne 0 ] && [ "$rc" -ne 2 ]; then
    cat "$smoke/recover.err" >&2
    echo "check.sh: cali-recover exited $rc" >&2
    exit 1
fi
grep -q "salvaged" "$smoke/recover.err"
for n in 1 2 4; do
    "$query" --threads "$n" \
        -q "AGGREGATE count, sum(time.duration) GROUP BY kernel ORDER BY kernel" \
        "$smoke/recovered.cali" > "$smoke/agg-$n.out" 2>/dev/null
done
cmp -s "$smoke/agg-1.out" "$smoke/agg-2.out" && cmp -s "$smoke/agg-1.out" "$smoke/agg-4.out" || {
    echo "check.sh: recovered aggregation differs across --threads" >&2
    exit 1
}
echo "check.sh: crash-recovery smoke: salvaged $(grep -c . "$smoke/agg-1.out") aggregation rows from a SIGKILLed run"

# Self-instrumentation smoke (the golden-file + property conformance
# suites themselves ride on `cargo test` above): the --stats block must
# be sorted, non-trivial, and byte-identical for every --threads N, and
# --stats=json must stay parseable with the core schema keys present.
for n in 1 2 4; do
    "$query" --threads "$n" --stats \
        -q "AGGREGATE count, sum(time.duration) GROUP BY kernel ORDER BY kernel" \
        "$smoke/recovered.cali" >/dev/null 2>"$smoke/stats-$n.out"
done
LC_ALL=C sort -c "$smoke/stats-1.out" || {
    echo "check.sh: --stats block is not sorted by metric name" >&2
    exit 1
}
grep -q "^format.reader.records=[1-9]" "$smoke/stats-1.out" || {
    echo "check.sh: --stats block is missing reader record counts" >&2
    exit 1
}
cmp -s "$smoke/stats-1.out" "$smoke/stats-2.out" && cmp -s "$smoke/stats-1.out" "$smoke/stats-4.out" || {
    echo "check.sh: --stats block differs across --threads" >&2
    exit 1
}
"$query" --threads 2 --stats=json \
    -q "AGGREGATE count GROUP BY kernel" "$smoke/recovered.cali" \
    >/dev/null 2>"$smoke/stats.json"
grep -q '"query.aggregator.records"' "$smoke/stats.json" || {
    echo "check.sh: --stats=json is missing aggregator metrics" >&2
    exit 1
}
echo "check.sh: self-instrumentation smoke: --stats stable across thread counts"

# Columnar-encoding smoke: cali-pack must rewrite the golden corpus as
# CALB v2 (and back to v1), and a selective query must produce
# byte-identical output on the text, v1, and v2 encodings — with the v2
# run actually skipping blocks — for every --threads N.
pack=./target/release/cali-pack
"$pack" -o "$smoke/golden.calb2" --block-records 4 \
    "$golden"/data/rank0.cali "$golden"/data/rank1.cali 2>/dev/null
"$pack" -o "$smoke/golden.calb" --v1 \
    "$golden"/data/rank0.cali "$golden"/data/rank1.cali 2>/dev/null
pq="AGGREGATE count, sum(time.duration) WHERE loop.iteration > 2 GROUP BY function ORDER BY function"
"$query" -q "$pq" "$golden"/data/rank0.cali "$golden"/data/rank1.cali > "$smoke/pq-text.out" 2>/dev/null
for n in 1 2 4; do
    "$query" --threads "$n" -q "$pq" "$smoke/golden.calb" > "$smoke/pq-v1-$n.out" 2>/dev/null
    "$query" --threads "$n" --stats -q "$pq" "$smoke/golden.calb2" \
        > "$smoke/pq-v2-$n.out" 2>"$smoke/pq-v2-$n.stats"
    cmp -s "$smoke/pq-text.out" "$smoke/pq-v1-$n.out" || {
        echo "check.sh: v1 query output differs from text encoding (--threads $n)" >&2
        exit 1
    }
    cmp -s "$smoke/pq-text.out" "$smoke/pq-v2-$n.out" || {
        echo "check.sh: v2 query output differs from text encoding (--threads $n)" >&2
        exit 1
    }
done
grep -q "^format.reader.blocks_skipped=[1-9]" "$smoke/pq-v2-1.stats" || {
    echo "check.sh: v2 selective query skipped no blocks" >&2
    exit 1
}
cmp -s "$smoke/pq-v2-1.stats" "$smoke/pq-v2-2.stats" && cmp -s "$smoke/pq-v2-1.stats" "$smoke/pq-v2-4.stats" || {
    echo "check.sh: v2 --stats block differs across --threads" >&2
    exit 1
}
# --no-lint only silences the lint: same read, same skips, same --stats.
"$query" --no-lint --threads 1 --stats -q "$pq" "$smoke/golden.calb2" \
    > "$smoke/pq-v2-nolint.out" 2>"$smoke/pq-v2-nolint.stats"
cmp -s "$smoke/pq-v2-1.out" "$smoke/pq-v2-nolint.out" \
    && cmp -s "$smoke/pq-v2-1.stats" "$smoke/pq-v2-nolint.stats" || {
    echo "check.sh: cali-query --no-lint differs from the default run in output or --stats" >&2
    exit 1
}
# The cross-driver half of the merge-order contract (DESIGN.md §6): a
# rank folds its files by `cali-query`'s fold. Over one file, and over
# the five float files under every op kind, where another order of
# additions moves a last digit: one rank prints what cali-query prints
# at any --threads, on either engine, any --workers, and in nodes. (At
# two ranks or more the tree combines partials pairwise, another order.)
"$query" --threads 1 -q "$pq" "$smoke/golden.calb2" > "$smoke/pq-one-query.out" 2>/dev/null
"$mpiq" --np 1 -q "$pq" "$smoke/golden.calb2" > "$smoke/pq-one-mpi.out" 2>/dev/null
cmp -s "$smoke/pq-one-query.out" "$smoke/pq-one-mpi.out" || {
    echo "check.sh: cali-query --threads 1 and mpi-caliquery --np 1 differ over one file" >&2
    exit 1
}
fq="$(cat "$golden"/floats/every-op.calql)"
ffiles="$golden/floats/f0.cali $golden/floats/f1.cali $golden/floats/f2.cali $golden/floats/f3.cali $golden/floats/f4.cali"
for n in 1 3; do
    "$query" --no-lint --threads "$n" -q "$fq" $ffiles > "$smoke/float-query-$n.out"
    for flags in "--workers 1" "--workers 4" "--engine threads" "--nodes 1"; do
        "$mpiq" --np 1 $flags -q "$fq" $ffiles | cmp -s "$smoke/float-query-$n.out" - || {
            echo "check.sh: cali-query --threads $n and mpi-caliquery --np 1 $flags differ over the float files" >&2
            exit 1
        }
    done
done
# The float files as CALB v2, one file each (the float golden's
# association is per file): the same bytes as the text files give.
fpacked=""
for f in 0 1 2 3 4; do
    "$pack" -o "$smoke/f$f.calb2" --block-records 3 "$golden/floats/f$f.cali" 2>/dev/null
    fpacked="$fpacked $smoke/f$f.calb2"
done
for n in 1 3; do
    "$query" --no-lint --threads "$n" -q "$fq" $fpacked | cmp -s "$golden"/floats/every-op.txt - || {
        echo "check.sh: every-op.calql over the float files as CALB v2 differs from every-op.txt (--threads $n)" >&2
        exit 1
    }
done
"$mpiq" --np 1 -q "$fq" $fpacked | cmp -s "$golden"/floats/every-op.txt - || {
    echo "check.sh: mpi-caliquery --np 1 over the float files as CALB v2 differs from every-op.txt" >&2
    exit 1
}
# A stream of the retired block layout (version byte 02) is a wrong
# file, not a damaged one: exit 1 naming the version, --lenient too.
cp "$smoke/golden.calb2" "$smoke/retired.calb2"
printf '\002' | dd of="$smoke/retired.calb2" bs=1 seek=4 conv=notrunc 2>/dev/null
for lenient in "" --lenient; do
    status=0
    "$query" $lenient -q "$pq" "$smoke/retired.calb2" > /dev/null 2> "$smoke/retired.err" || status=$?
    [ "$status" -eq 1 ] && grep -q "version 2" "$smoke/retired.err" || {
        echo "check.sh: a version-02 stream must exit 1 naming its version (${lenient:-strict}; exit $status)" >&2
        exit 1
    }
done
echo "check.sh: columnar smoke: v1/v2 outputs identical, $(sed -n 's/^format.reader.blocks_skipped=//p' "$smoke/pq-v2-1.stats") blocks skipped"

# Chaos smoke: a typo'd fault spec must be a hard error, transient
# injected faults must be absorbed by retry, a degraded run must be
# byte-identical across --threads and equal a clean run over the
# surviving files, and a seed-mutated corpus must never panic a reader
# (full matrix in crates/cli/tests/chaos.rs; model in docs/CHAOS.md).
for i in 0 1 2; do
    { printf '__rec=attr,id=0,name=kernel,type=string,prop=default\n'
      printf '__rec=ctx,attr=0,data=k%s\n__rec=ctx,attr=0,data=k%s\n' "$i" "$i"
    } > "$smoke/chaos-in$i.cali"
done
cq="AGGREGATE count GROUP BY kernel ORDER BY kernel"
if "$query" --faults "io.read=fail(" -q "$cq" "$smoke/chaos-in0.cali" >/dev/null 2>&1; then
    echo "check.sh: malformed --faults spec was not a hard error" >&2
    exit 1
fi
"$query" -q "$cq" "$smoke"/chaos-in*.cali > "$smoke/chaos-clean.out" 2>/dev/null
"$query" --faults "io.read=fail(2)" -q "$cq" "$smoke"/chaos-in*.cali \
    > "$smoke/chaos-retry.out" 2>/dev/null
cmp -s "$smoke/chaos-clean.out" "$smoke/chaos-retry.out" || {
    echo "check.sh: run with retried transient faults differs from the clean run" >&2
    exit 1
}
"$query" -q "$cq" "$smoke/chaos-in0.cali" "$smoke/chaos-in2.cali" \
    > "$smoke/chaos-survivors.out" 2>/dev/null
for n in 1 2 4; do
    rc=0
    "$query" --threads "$n" --degrade --faults "io.read~chaos-in1=fail(9)" \
        -q "$cq" "$smoke"/chaos-in*.cali \
        > "$smoke/chaos-deg-$n.out" 2> "$smoke/chaos-deg-$n.err" || rc=$?
    if [ "$rc" -ne 2 ]; then
        echo "check.sh: degraded chaos run exited $rc, expected 2 (--threads $n)" >&2
        exit 1
    fi
done
cmp -s "$smoke/chaos-deg-1.out" "$smoke/chaos-deg-2.out" \
    && cmp -s "$smoke/chaos-deg-1.out" "$smoke/chaos-deg-4.out" \
    && cmp -s "$smoke/chaos-deg-1.err" "$smoke/chaos-deg-2.err" \
    && cmp -s "$smoke/chaos-deg-1.err" "$smoke/chaos-deg-4.err" || {
    echo "check.sh: degraded chaos output differs across --threads" >&2
    exit 1
}
cmp -s "$smoke/chaos-deg-1.out" "$smoke/chaos-survivors.out" || {
    echo "check.sh: degraded result differs from a clean run over the survivors" >&2
    exit 1
}
"$pack" -o "$smoke/chaos.calb2" --block-records 2 "$smoke"/chaos-in*.cali 2>/dev/null
for seed in 1 2 3; do
    for victim in chaos-in1.cali chaos.calb2; do
        cp "$smoke/$victim" "$smoke/fuzz-$victim"
        "$pack" --mutate bitflip --seed "$seed" "$smoke/fuzz-$victim" 2>/dev/null
        for flags in "strict" "--lenient --degrade"; do
            if [ "$flags" = "strict" ]; then flags=""; fi
            rc=0
            "$query" $flags -q "$cq" "$smoke/fuzz-$victim" \
                >/dev/null 2>"$smoke/fuzz.err" || rc=$?
            if [ "$rc" -gt 2 ] || grep -q "panicked" "$smoke/fuzz.err"; then
                echo "check.sh: fuzzed read of $victim (seed $seed) panicked or crashed" >&2
                exit 1
            fi
        done
    done
done
echo "check.sh: chaos smoke: deterministic degraded reads, fuzzed corpus never panics"

# Resident-daemon smoke (docs/SERVED.md): start cali-served, ingest the
# golden corpus over TCP, query it over HTTP, drain it gracefully (the
# client reads the whole `draining` reply, then the daemon exits 0),
# restart over the same journals, and verify the recovered answer
# byte-identically. Every client call carries a socket timeout, so a
# wedged daemon fails the gate instead of hanging it.
served=./target/release/cali-served
sq="SELECT function, count, sum#time.duration, stream ORDER BY stream, function FORMAT csv"
start_served() {
    rm -f "$smoke/served-ports"
    "$served" --data-dir "$smoke/served-data" --ports-file "$smoke/served-ports" \
        --aggregate "count,sum(time.duration)" --group-by function --fsync "$@" \
        > "$smoke/served.log" 2>&1 &
    served_pid=$!
    tries=0
    while [ ! -s "$smoke/served-ports" ]; do
        tries=$((tries + 1))
        if [ "$tries" -gt 100 ]; then
            echo "check.sh: cali-served never wrote its ports file" >&2
            cat "$smoke/served.log" >&2
            exit 1
        fi
        sleep 0.1
    done
    served_http="127.0.0.1:$(sed -n 's/^http=//p' "$smoke/served-ports")"
    served_ingest="127.0.0.1:$(sed -n 's/^ingest=//p' "$smoke/served-ports")"
}
stop_served() {
    reply=$("$served" --http "$served_http" --timeout-ms 10000 --shutdown)
    if [ "$reply" != "draining" ]; then
        echo "check.sh: cali-served --shutdown printed '$reply', expected 'draining'" >&2
        exit 1
    fi
    rc=0
    wait "$served_pid" || rc=$?
    if [ "$rc" -ne "${1:-0}" ]; then
        echo "check.sh: cali-served graceful drain exited $rc, expected ${1:-0}" >&2
        cat "$smoke/served.log" >&2
        exit 1
    fi
}
start_served
"$served" --http "$served_http" --timeout-ms 10000 --probe /readyz > /dev/null
"$served" --connect "$served_ingest" --timeout-ms 10000 --stream rank0 \
    "$golden/data/rank0.cali" > /dev/null
"$served" --connect "$served_ingest" --timeout-ms 10000 --stream rank1 \
    "$golden/data/rank1.cali" > /dev/null
"$served" --http "$served_http" --timeout-ms 10000 --client-query "$sq" \
    > "$smoke/served-before.csv"
stop_served
start_served
"$served" --http "$served_http" --timeout-ms 10000 --client-query "$sq" \
    > "$smoke/served-after.csv"
stop_served
cmp -s "$smoke/served-before.csv" "$smoke/served-after.csv" || {
    echo "check.sh: cali-served recovered answer differs from pre-restart answer" >&2
    exit 1
}
grep -q "," "$smoke/served-before.csv" || {
    echo "check.sh: cali-served query returned no data" >&2
    exit 1
}
# Everything a query serves is durable: with every journal write
# failing, a batch is answered DEGRADED, the degraded daemon answers
# what it answered before the batch, and it exits 2.
start_served --faults "journal.write=err(1.0)"
"$served" --http "$served_http" --timeout-ms 10000 --client-query "$sq" \
    > "$smoke/served-prebatch.csv"
cmp -s "$smoke/served-before.csv" "$smoke/served-prebatch.csv" || {
    echo "check.sh: cali-served replay under journal faults differs" >&2
    exit 1
}
rc=0
"$served" --connect "$served_ingest" --timeout-ms 10000 --stream rank0 \
    "$golden/data/rank1.cali" > /dev/null 2> "$smoke/served-degraded.err" || rc=$?
if [ "$rc" -ne 2 ] || ! grep -q "DEGRADED journal flush" "$smoke/served-degraded.err"; then
    cat "$smoke/served-degraded.err" >&2
    echo "check.sh: batch under journal.write faults exited $rc, expected 2 + DEGRADED" >&2
    exit 1
fi
"$served" --http "$served_http" --timeout-ms 10000 --client-query "$sq" \
    > "$smoke/served-degraded.csv"
cmp -s "$smoke/served-prebatch.csv" "$smoke/served-degraded.csv" || {
    echo "check.sh: a batch the journal refused is being served" >&2
    exit 1
}
stop_served 2
echo "check.sh: served smoke: ingest->query->drain->restart recovered byte-identically; a refused journal write is not served"

# Race-analysis gate: the 2048-rank seeded-kill two-level reduction
# must certify race- and deadlock-free, with a certificate that is
# byte-identical across repeat runs and event-engine worker pools; and
# the deliberately faulty demo programs must keep the analyzer's pinned
# exit-code contract (0 clean / 1 warnings denied / 2 errors; model in
# docs/ANALYSIS.md).
race=./target/release/cali-race
"$race" --ranks 2048 --kills 5 --nodes 32 --workers 1 > "$smoke/race-w1.cert"
"$race" --ranks 2048 --kills 5 --nodes 32 --workers 1 > "$smoke/race-w1-again.cert"
"$race" --ranks 2048 --kills 5 --nodes 32 --workers 4 > "$smoke/race-w4.cert"
grep -q "verdict: CLEAN (race-free, deadlock-free)" "$smoke/race-w1.cert" || {
    echo "check.sh: 2048-rank seeded-kill reduction did not certify clean" >&2
    cat "$smoke/race-w1.cert" >&2
    exit 1
}
cmp -s "$smoke/race-w1.cert" "$smoke/race-w1-again.cert" || {
    echo "check.sh: cali-race certificate differs between repeat runs" >&2
    exit 1
}
cmp -s "$smoke/race-w1.cert" "$smoke/race-w4.cert" || {
    echo "check.sh: cali-race certificate differs across --workers 1/4" >&2
    exit 1
}
for demo_want in wildcard-race:2 deadlock:2 straggler:0; do
    demo=${demo_want%:*}
    want=${demo_want#*:}
    rc=0
    "$race" --program "$demo" --ranks 8 > /dev/null 2>&1 || rc=$?
    if [ "$rc" -ne "$want" ]; then
        echo "check.sh: cali-race --program $demo exited $rc, expected $want" >&2
        exit 1
    fi
done
rc=0
"$race" --program straggler --ranks 8 --deny-warnings > /dev/null 2>&1 || rc=$?
if [ "$rc" -ne 1 ]; then
    echo "check.sh: cali-race --deny-warnings exited $rc, expected 1" >&2
    exit 1
fi
echo "check.sh: race analysis: 2048-rank certificate clean and deterministic, demo exit codes pinned"
# Advisory, no gate: each crate's non-test source lines, the row a
# simplicity change shows its deletions in.
./scripts/nontest_lines.sh | sed 's/^/check.sh: /'
echo "check.sh: all gates passed"
