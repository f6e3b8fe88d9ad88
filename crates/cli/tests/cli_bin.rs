//! Black-box tests of the `cali-query` and `mpi-caliquery` binaries.

use std::path::PathBuf;
use std::process::Command;

use miniapps::paradis::{self, ParaDisParams};

fn write_inputs(name: &str, ranks: usize) -> (PathBuf, Vec<PathBuf>) {
    let dir = std::env::temp_dir().join(format!("cali-bin-test-{name}-{}", std::process::id()));
    let params = ParaDisParams {
        iterations: 2,
        ..Default::default()
    };
    let paths = paradis::write_files(&params, ranks, &dir).unwrap();
    (dir, paths)
}

#[test]
fn cali_query_runs_a_query() {
    let (dir, paths) = write_inputs("serial", 2);
    let out = Command::new(env!("CARGO_BIN_EXE_cali-query"))
        .arg("-q")
        .arg("AGGREGATE sum(aggregate.count) GROUP BY kernel ORDER BY kernel")
        .args(&paths)
        .output()
        .expect("run cali-query");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("kernel"));
    assert!(stdout.contains("CalcSegForces"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cali_query_csv_output_to_file() {
    let (dir, paths) = write_inputs("csv", 1);
    let out_file = dir.join("result.csv");
    let out = Command::new(env!("CARGO_BIN_EXE_cali-query"))
        .arg("-q")
        .arg("AGGREGATE sum(sum#time.duration) GROUP BY mpi.function FORMAT csv")
        .arg("-o")
        .arg(&out_file)
        .args(&paths)
        .output()
        .expect("run cali-query");
    assert!(out.status.success());
    let csv = std::fs::read_to_string(&out_file).unwrap();
    assert!(csv.starts_with("mpi.function,sum#sum#time.duration"));
    assert!(csv.contains("MPI_Barrier"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cali_query_reads_binary_files() {
    let (dir, paths) = write_inputs("binary", 2);
    // Convert the generated text files to the binary flavor.
    let mut binary_paths = Vec::new();
    for (i, path) in paths.iter().enumerate() {
        let ds = caliper_format::cali::read_file(path).unwrap();
        let bin = dir.join(format!("rank-{i}.calb"));
        caliper_format::binary::write_file(&ds, &bin).unwrap();
        binary_paths.push(bin);
    }
    let query = "AGGREGATE sum(aggregate.count) GROUP BY kernel ORDER BY kernel";
    let from_text = Command::new(env!("CARGO_BIN_EXE_cali-query"))
        .arg("-q")
        .arg(query)
        .args(&paths)
        .output()
        .expect("run cali-query on text");
    let from_binary = Command::new(env!("CARGO_BIN_EXE_cali-query"))
        .arg("-q")
        .arg(query)
        .args(&binary_paths)
        .output()
        .expect("run cali-query on binary");
    assert!(from_binary.status.success());
    assert_eq!(from_text.stdout, from_binary.stdout);
    std::fs::remove_dir_all(&dir).ok();
}

/// A CALB fault is named by its byte, not by a line: a retired version
/// byte by its offset in the file, a damaged block by its ordinal and
/// the offset in its payload.
#[test]
fn cali_query_names_a_binary_fault_by_its_byte() {
    let (dir, paths) = write_inputs("decode-error", 1);
    let ds = caliper_format::cali::read_file(&paths[0]).unwrap();
    let clean = caliper_format::to_binary_v2_with(&ds, 16);
    let run = |name: &str, bytes: &[u8]| {
        let path = dir.join(name);
        std::fs::write(&path, bytes).unwrap();
        let out = Command::new(env!("CARGO_BIN_EXE_cali-query"))
            .args(["-q", "AGGREGATE count GROUP BY kernel"])
            .arg(&path)
            .output()
            .expect("run cali-query");
        assert_eq!(out.status.code(), Some(1), "{name}");
        String::from_utf8(out.stderr).unwrap()
    };
    let mut retired = clean.clone();
    retired[4] = 2;
    let stderr = run("retired.calb2", &retired);
    assert!(
        stderr.contains("retired.calb2: decode error at byte 4: binary cali version 2"),
        "{stderr}"
    );
    assert!(!stderr.contains("line"), "{stderr}");
    // Block 2's row count as twelve continuation bytes: the tenth
    // carries bits past 64, and is the byte named.
    let mut torn = clean.clone();
    let payload = caliper_format::read_footer(&clean).unwrap()[2].offset as usize + 3;
    torn[payload..payload + 12].fill(0xff);
    let stderr = run("torn.calb2", &torn);
    assert!(
        stderr.contains("torn.calb2: decode error in block 2 at payload byte 9: varint overflow"),
        "{stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn streaming_query_matches_merged_query() {
    let (dir, paths) = write_inputs("streaming", 5);
    let query = "AGGREGATE sum(sum#time.duration), sum(aggregate.count) GROUP BY kernel";
    let merged = cali_cli::read_files(&paths).unwrap();
    let reference = caliper_query::run_query(&merged, query).unwrap();
    let run = |extra: &[&str], query: &str| {
        let out = Command::new(env!("CARGO_BIN_EXE_cali-query"))
            .args(["--no-lint", "--threads", "1"])
            .args(extra)
            .args(["-q", query])
            .args(&paths)
            .output()
            .expect("run cali-query");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        (
            String::from_utf8(out.stdout).unwrap(),
            String::from_utf8(out.stderr).unwrap(),
        )
    };
    assert_eq!(reference.render(), run(&[], query).0);
    // A pass-through query scans every file through one pipeline instead.
    let limited = caliper_query::run_query(&merged, "SELECT * LIMIT 3").unwrap();
    assert_eq!(limited.records.len(), 3);
    assert_eq!(limited.render(), run(&[], "SELECT * LIMIT 3").0);
    // One worker is still the worker pool: same timing block, no
    // separate serial line.
    let (_, stderr) = run(&["--timings"], query);
    assert!(stderr.contains("# worker 0:"), "{stderr}");
    assert!(
        !stderr.contains("# worker 1:") && !stderr.contains("# serial"),
        "{stderr}"
    );
    // A pass-through query runs on one worker whatever --threads asks,
    // and --timings prints that worker's line.
    let (_, stderr) = run(&["--timings", "--threads", "4"], "SELECT * LIMIT 3");
    assert!(
        stderr.contains("# worker 0: ") && stderr.contains("(5 files, "),
        "{stderr}"
    );
    assert!(!stderr.contains("# worker 1:"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A pass-through query scans its files like any other — one block in
/// memory at a time, WHERE pushed down to the v2 zone maps, only matching
/// rows kept — and prints what loading every record of every file into
/// one dataset and filtering it prints.
#[test]
fn pass_through_queries_scan_and_skip_blocks() {
    use caliper_format::to_binary_v2_with;
    let dir = std::env::temp_dir().join(format!("cali-bin-test-select-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let params = ParaDisParams {
        iterations: 3,
        ..Default::default()
    };
    let mut paths = Vec::new();
    for (rank, ds) in paradis::generate(&params, 3).iter().enumerate() {
        paths.push(dir.join(format!("rank{rank}.calb2")));
        std::fs::write(&paths[rank], to_binary_v2_with(ds, 16)).unwrap();
    }
    let merged = cali_cli::read_files(&paths).unwrap();
    for query in [
        "SELECT * WHERE iteration > 1 FORMAT csv",
        "LET it = scale(iteration, 10) SELECT kernel, it, mpi.rank WHERE kernel, iteration > 1 \
         ORDER BY kernel, mpi.rank FORMAT json",
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_cali-query"))
            .args(["--stats", "-q", query])
            .args(&paths)
            .output()
            .expect("run cali-query");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(out.status.success(), "{stderr}");
        let reference = caliper_query::run_query(&merged, query).unwrap();
        assert!(reference.records.len() > 10, "{query}");
        assert_eq!(
            String::from_utf8(out.stdout).unwrap(),
            reference.render(),
            "{query}"
        );
        let skipped = stderr
            .lines()
            .find_map(|l| l.strip_prefix("format.reader.blocks_skipped="));
        assert!(
            skipped.is_some_and(|n| n.parse::<u64>().unwrap() > 0),
            "{query}: {stderr}"
        );
        // The LET output is the query's, not the data's: no W003.
        assert!(!stderr.contains("warning["), "{query}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cali_query_reports_bad_query() {
    let (dir, paths) = write_inputs("bad", 1);
    let out = Command::new(env!("CARGO_BIN_EXE_cali-query"))
        .arg("-q")
        .arg("AGGREGATE bogus(x) GROUP BY kernel")
        .args(&paths)
        .output()
        .expect("run cali-query");
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("bogus"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cali_stat_summarizes_datasets() {
    let (dir, paths) = write_inputs("stat", 2);
    let out = Command::new(env!("CARGO_BIN_EXE_cali-stat"))
        .args(&paths)
        .output()
        .expect("run cali-stat");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("files:            2"), "{stdout}");
    assert!(stdout.contains("snapshot records:"), "{stdout}");
    assert!(stdout.contains("kernel"), "{stdout}");
    assert!(stdout.contains("binary"), "{stdout}");
    // numeric attribute gets min/mean/max
    assert!(stdout.contains("sum#time.duration"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cali_query_help() {
    let out = Command::new(env!("CARGO_BIN_EXE_cali-query"))
        .arg("--help")
        .output()
        .expect("run cali-query");
    assert!(out.status.success());
    assert!(String::from_utf8(out.stdout).unwrap().contains("usage:"));
}

#[test]
fn mpi_caliquery_matches_cali_query() {
    let (dir, paths) = write_inputs("mpi", 4);
    let query = "AGGREGATE sum(sum#time.duration), sum(aggregate.count) GROUP BY kernel";

    let serial = Command::new(env!("CARGO_BIN_EXE_cali-query"))
        .arg("-q")
        .arg(query)
        .args(&paths)
        .output()
        .expect("run cali-query");
    let parallel = Command::new(env!("CARGO_BIN_EXE_mpi-caliquery"))
        .arg("--np")
        .arg("4")
        .arg("-q")
        .arg(query)
        .arg("--timings")
        .args(&paths)
        .output()
        .expect("run mpi-caliquery");

    assert!(serial.status.success());
    assert!(
        parallel.status.success(),
        "{}",
        String::from_utf8_lossy(&parallel.stderr)
    );
    assert_eq!(serial.stdout, parallel.stdout);
    let stderr = String::from_utf8(parallel.stderr).unwrap();
    assert!(stderr.contains("tree reduction"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cali_query_lists_attributes_and_globals() {
    let (dir, paths) = write_inputs("list", 1);
    let out = Command::new(env!("CARGO_BIN_EXE_cali-query"))
        .arg("--list-attributes")
        .args(&paths)
        .output()
        .expect("run cali-query");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("kernel,string,nested"), "{stdout}");
    assert!(stdout.contains("sum#time.duration,double"), "{stdout}");

    let out = Command::new(env!("CARGO_BIN_EXE_cali-query"))
        .arg("--list-globals")
        .args(&paths)
        .output()
        .expect("run cali-query");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("experiment=paradis"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cali_query_flamegraph_format() {
    let (dir, paths) = write_inputs("flame", 1);
    let out = Command::new(env!("CARGO_BIN_EXE_cali-query"))
        .arg("-q")
        .arg(
            "AGGREGATE sum(sum#time.duration) WHERE kernel GROUP BY kernel \
             SELECT kernel, sum#sum#time.duration FORMAT flamegraph",
        )
        .args(&paths)
        .output()
        .expect("run cali-query");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    // folded format: "frame value" lines
    let first = stdout.lines().next().unwrap();
    assert!(first.split(' ').count() == 2, "{first}");
    assert!(first.split(' ').nth(1).unwrap().parse::<i64>().is_ok());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cali_query_threads_output_is_identical() {
    let (dir, paths) = write_inputs("threads", 6);
    let query = "AGGREGATE count, sum(sum#time.duration), avg(sum#time.duration) \
                 GROUP BY kernel ORDER BY kernel";
    let run = |threads: &str| {
        Command::new(env!("CARGO_BIN_EXE_cali-query"))
            .arg("-q")
            .arg(query)
            .arg("--threads")
            .arg(threads)
            .args(&paths)
            .output()
            .expect("run cali-query")
    };
    let serial = run("1");
    assert!(
        serial.status.success(),
        "{}",
        String::from_utf8_lossy(&serial.stderr)
    );
    for threads in ["2", "4", "8"] {
        let sharded = run(threads);
        assert!(
            sharded.status.success(),
            "{}",
            String::from_utf8_lossy(&sharded.stderr)
        );
        assert_eq!(
            serial.stdout, sharded.stdout,
            "--threads {threads} diverged"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A pass-through query reads its files in order through one pipeline:
/// `--threads` changes nothing, and the aggregation-only flags are
/// refused by name rather than ignored.
#[test]
fn pass_through_queries_refuse_aggregation_flags() {
    let (dir, paths) = write_inputs("passthrough-flags", 3);
    let query = "SELECT kernel, mpi.rank WHERE iteration > 0 FORMAT csv";
    let run = |extra: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_cali-query"))
            .args(["-q", query])
            .args(extra)
            .args(&paths)
            .output()
            .expect("run cali-query")
    };
    let plain = run(&[]);
    assert!(
        plain.status.success(),
        "{}",
        String::from_utf8_lossy(&plain.stderr)
    );
    assert!(plain.stdout.len() > 100);
    for threads in ["1", "4"] {
        let out = run(&["--threads", threads]);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(out.stdout, plain.stdout, "--threads {threads}");
    }
    for (extra, flag) in [
        (&["--degrade"][..], "--degrade"),
        (&["--max-groups", "2"][..], "--max-groups"),
    ] {
        let out = run(extra);
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(1), "{flag}: {stderr}");
        assert!(out.stdout.is_empty(), "{flag}");
        assert!(
            stderr.starts_with(&format!(
                "cali-query: {flag} applies to aggregations, not to a pass-through query\nusage: cali-query"
            )),
            "{stderr}"
        );
    }
    // The same flags still serve an aggregation.
    let out = Command::new(env!("CARGO_BIN_EXE_cali-query"))
        .args([
            "-q",
            "AGGREGATE count GROUP BY kernel",
            "--degrade",
            "--max-groups",
            "2",
        ])
        .args(&paths)
        .output()
        .expect("run cali-query");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cali_query_threads_reports_timings_and_bad_values() {
    let (dir, paths) = write_inputs("threads-timings", 2);
    let out = Command::new(env!("CARGO_BIN_EXE_cali-query"))
        .arg("-q")
        .arg("AGGREGATE count GROUP BY kernel")
        .arg("--threads")
        .arg("2")
        .arg("--timings")
        .args(&paths)
        .output()
        .expect("run cali-query");
    assert!(out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("# worker 0:"), "{stderr}");
    assert!(stderr.contains("# worker 1:"), "{stderr}");
    assert!(stderr.contains("# critical path:"), "{stderr}");

    let out = Command::new(env!("CARGO_BIN_EXE_cali-query"))
        .arg("--threads")
        .arg("0")
        .args(&paths)
        .output()
        .expect("run cali-query");
    assert!(!out.status.success());
    assert!(String::from_utf8(out.stderr)
        .unwrap()
        .contains("positive integer"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cali_query_read_errors_name_the_file() {
    let (dir, mut paths) = write_inputs("badfile", 1);
    paths.push(dir.join("does-not-exist.cali"));
    let out = Command::new(env!("CARGO_BIN_EXE_cali-query"))
        .arg("-q")
        .arg("AGGREGATE count GROUP BY kernel")
        .args(&paths)
        .output()
        .expect("run cali-query");
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("does-not-exist.cali"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Writes a small hand-built dataset (3 kernels, integer times) so the
/// corruption tests control file contents byte-precisely.
fn tiny_dataset(seed: usize, records: usize) -> caliper_format::Dataset {
    use caliper_data::{Properties, SnapshotRecord, Value, ValueType};
    let mut ds = caliper_format::Dataset::new();
    let kernel = ds.attribute("kernel", ValueType::Str, Properties::NESTED);
    let time = ds.attribute(
        "time",
        ValueType::Int,
        Properties::AS_VALUE | Properties::AGGREGATABLE,
    );
    let names = ["alpha", "beta", "gamma"];
    for i in 0..records {
        let node = ds.tree.get_child(
            caliper_data::NODE_NONE,
            kernel.id(),
            &Value::str(names[(seed + i) % names.len()]),
        );
        let mut rec = SnapshotRecord::new();
        rec.push_node(node);
        rec.push_imm(time.id(), Value::Int((i * (seed + 1)) as i64));
        ds.push(rec);
    }
    ds
}

#[test]
fn cali_query_lenient_salvages_a_corrupt_corpus() {
    let dir = std::env::temp_dir().join(format!("cali-bin-test-lenient-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let query = "AGGREGATE count, sum(time) GROUP BY kernel ORDER BY kernel";

    // Two clean files...
    let mut clean = Vec::new();
    for seed in 0..2 {
        let path = dir.join(format!("clean{seed}.cali"));
        caliper_format::cali::write_file(&tiny_dataset(seed, 12), &path).unwrap();
        clean.push(path);
    }
    // ...a text file truncated mid-way through its first context record
    // (valid prefix = dictionary only, zero data records; the cut lands
    // inside the record marker so the partial line cannot parse)...
    let text = caliper_format::cali::to_bytes(&tiny_dataset(2, 12));
    let text_str = String::from_utf8(text).unwrap();
    let cut = text_str.find("__rec=ctx").expect("has a ctx record") + 4;
    let truncated = dir.join("truncated.cali");
    std::fs::write(&truncated, &text_str.as_bytes()[..cut]).unwrap();
    // ...and a binary file whose body is garbage right after the header.
    let bin = caliper_format::binary::to_binary(&tiny_dataset(3, 12));
    let corrupt = dir.join("corrupt.calb");
    std::fs::write(&corrupt, [&bin[..5], &[0xFF; 16]].concat()).unwrap();

    let mut corpus = clean.clone();
    corpus.push(truncated);
    corpus.push(corrupt);

    let run = |threads: &str, lenient: bool, paths: &[PathBuf]| {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_cali-query"));
        cmd.arg("-q").arg(query).arg("--threads").arg(threads);
        if lenient {
            cmd.arg("--lenient");
        }
        cmd.args(paths).output().expect("run cali-query")
    };

    for threads in ["1", "4"] {
        // Strict over the full corpus fails, naming a corrupt file.
        let strict = run(threads, false, &corpus);
        assert!(!strict.status.success(), "--threads {threads}");

        // Lenient salvages the corpus; the corrupt files contribute
        // their (empty) valid prefixes, so stdout is byte-identical to
        // a strict run over the clean files alone — and the partial
        // result is flagged with the distinct exit code 2.
        let reference = run(threads, false, &clean);
        assert!(reference.status.success());
        let lenient = run(threads, true, &corpus);
        assert_eq!(
            lenient.status.code(),
            Some(2),
            "--threads {threads}: lenient with skipped records must exit 2: {}",
            String::from_utf8_lossy(&lenient.stderr)
        );
        assert_eq!(
            String::from_utf8_lossy(&lenient.stdout),
            String::from_utf8_lossy(&reference.stdout),
            "--threads {threads}"
        );

        // The skipped work is summarized per file on stderr, plus one
        // combined total line for the whole corpus.
        let stderr = String::from_utf8(lenient.stderr).unwrap();
        assert!(
            stderr.contains("truncated.cali"),
            "--threads {threads}: {stderr}"
        );
        assert!(
            stderr.contains("corrupt.calb"),
            "--threads {threads}: {stderr}"
        );
        assert!(stderr.contains("skipped"), "--threads {threads}: {stderr}");
        assert!(
            stderr.contains("total:") && stderr.contains("2/4 files with errors"),
            "--threads {threads}: {stderr}"
        );

        // A lenient run over clean files alone stays exit 0.
        let clean_lenient = run(threads, true, &clean);
        assert_eq!(clean_lenient.status.code(), Some(0), "--threads {threads}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cali_query_refuses_a_line_torn_after_its_attr_id() {
    let dir = std::env::temp_dir().join(format!("cali-bin-test-torn-attr-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    // A text file torn right after an `attr=<id>`: the last line has an
    // immediate whose `data` never came, so it must not read as a
    // shorter record. The file cut at the start of that line is what a
    // lenient read salvages.
    let text = String::from_utf8(caliper_format::cali::to_bytes(&tiny_dataset(0, 12))).unwrap();
    let line_start = text.find("__rec=ctx").expect("has a ctx record");
    let attr = line_start
        + text[line_start..]
            .find(",attr=")
            .expect("ctx record has an immediate");
    let cut = attr + text[attr..].find(",data=").unwrap();
    let torn = dir.join("torn.cali");
    std::fs::write(&torn, &text.as_bytes()[..cut]).unwrap();
    let prefix = dir.join("prefix.cali");
    std::fs::write(&prefix, &text.as_bytes()[..line_start]).unwrap();
    let line_no = text[..line_start].lines().count() + 1;

    let run = |lenient: bool, path: &PathBuf| {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_cali-query"));
        cmd.arg("-q").arg("SELECT * FORMAT expand");
        if lenient {
            cmd.arg("--lenient");
        }
        cmd.arg(path).output().expect("run cali-query")
    };
    let strict = run(false, &torn);
    assert!(!strict.status.success());
    let stderr = String::from_utf8_lossy(&strict.stderr);
    assert!(
        stderr.contains(&format!("line {line_no}: attr field without data")),
        "{stderr}"
    );
    let lenient = run(true, &torn);
    assert_eq!(
        lenient.status.code(),
        Some(2),
        "{}",
        String::from_utf8_lossy(&lenient.stderr)
    );
    let salvaged = run(false, &prefix);
    assert!(salvaged.status.success());
    assert_eq!(lenient.stdout, salvaged.stdout);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cali_query_max_groups_bounds_the_database() {
    let dir = std::env::temp_dir().join(format!("cali-bin-test-capped-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut paths = Vec::new();
    for seed in 0..3 {
        let path = dir.join(format!("in{seed}.cali"));
        caliper_format::cali::write_file(&tiny_dataset(seed, 20), &path).unwrap();
        paths.push(path);
    }
    let run = |threads: &str| {
        Command::new(env!("CARGO_BIN_EXE_cali-query"))
            .arg("-q")
            .arg("AGGREGATE count, sum(time) GROUP BY kernel ORDER BY kernel")
            .arg("--max-groups")
            .arg("2") // fewer than the 3 kernels in the data
            .arg("--threads")
            .arg(threads)
            .args(&paths)
            .output()
            .expect("run cali-query")
    };
    let serial = run("1");
    assert!(
        serial.status.success(),
        "{}",
        String::from_utf8_lossy(&serial.stderr)
    );
    let stdout = String::from_utf8(serial.stdout.clone()).unwrap();
    assert!(stdout.contains("__overflow__"), "{stdout}");
    let stderr = String::from_utf8(serial.stderr).unwrap();
    assert!(stderr.contains("capped at 2 groups"), "{stderr}");

    // The cap is deterministic across thread counts.
    for threads in ["2", "4"] {
        let sharded = run(threads);
        assert!(sharded.status.success());
        assert_eq!(
            serial.stdout, sharded.stdout,
            "--threads {threads} diverged"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn mpi_caliquery_rejects_passthrough() {
    let (dir, paths) = write_inputs("reject", 1);
    let out = Command::new(env!("CARGO_BIN_EXE_mpi-caliquery"))
        .arg("-q")
        .arg("SELECT *")
        .args(&paths)
        .output()
        .expect("run mpi-caliquery");
    assert!(!out.status.success());
    assert!(String::from_utf8(out.stderr)
        .unwrap()
        .contains("must aggregate"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn mpi_caliquery_rejects_workers_on_the_thread_engine() {
    let (dir, paths) = write_inputs("threads-workers", 1);
    let out = Command::new(env!("CARGO_BIN_EXE_mpi-caliquery"))
        .args(["--engine", "threads", "--workers", "2"])
        .args(&paths)
        .output()
        .expect("run mpi-caliquery");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(out.stdout.is_empty());
    assert!(
        stderr
            .starts_with("mpi-caliquery: --workers requires --engine event\nusage: mpi-caliquery"),
        "{stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// `--no-lint` silences the lint and changes nothing else: the schema
/// is the dictionary the run's one read of each file builds, and the
/// pushdown comes from the query alone. So over a corpus that types one
/// attribute four ways — every file decoded, and its zone maps judged,
/// against its own declarations — the default run and the `--no-lint`
/// run open the same files once, skip the same blocks and print the
/// same answer and the same `--stats`, for every `--threads`.
#[test]
fn cali_query_no_lint_pushdown_answers_as_the_default_over_mixed_types() {
    use caliper_data::{Properties, SnapshotRecord, Value, ValueType};
    use caliper_format::to_binary_v2_with;
    let dir = std::env::temp_dir().join(format!("cali-bin-test-mixed-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let declared = [
        ValueType::Int,
        ValueType::Str,
        ValueType::Float,
        ValueType::UInt,
    ];
    let mut paths = Vec::new();
    for (f, vtype) in declared.into_iter().enumerate() {
        let mut ds = caliper_format::Dataset::new();
        let k = ds.attribute("k", ValueType::Str, Properties::AS_VALUE);
        let x = ds.attribute("x", vtype, Properties::AS_VALUE);
        for r in 0..64u64 {
            let value = match vtype {
                ValueType::Int => Value::Int(r as i64 - 8),
                ValueType::Str => Value::str(format!("{r:02}")),
                ValueType::Float => Value::Float(r as f64 + 0.5),
                _ => Value::UInt(r),
            };
            let mut rec = SnapshotRecord::new();
            rec.push_imm(k.id(), Value::str(["a", "b", "c"][(r % 3) as usize]));
            rec.push_imm(x.id(), value);
            ds.push(rec);
        }
        let path = dir.join(format!("x-{f}.calb2"));
        std::fs::write(&path, to_binary_v2_with(&ds, 16)).unwrap();
        paths.push(path);
    }
    // stdout, the `--stats` block (all of stderr: a comparison on a
    // mixed-typed attribute draws no diagnostic), and two of its lines.
    let run = |filter: &str, flags: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_cali-query"))
            .args(flags)
            .arg("--stats")
            .args([
                "-q",
                &format!("AGGREGATE count WHERE k, {filter} GROUP BY k ORDER BY k"),
            ])
            .args(&paths)
            .output()
            .expect("run cali-query");
        let stats = String::from_utf8(out.stderr).unwrap();
        assert!(out.status.success(), "{filter} {flags:?}: {stats}");
        let metric = |name: &str| {
            let line = stats.lines().find_map(|line| line.strip_prefix(name));
            line.map_or(0, |n| n.parse::<u64>().unwrap())
        };
        let (skipped, files) = (
            metric("format.reader.blocks_skipped="),
            metric("format.reader.files="),
        );
        (
            String::from_utf8(out.stdout).unwrap(),
            stats,
            skipped,
            files,
        )
    };
    let (mut rows, mut skipped) = (0, 0);
    for filter in [
        "x = 17",
        "x != 17",
        "x < 20",
        "x <= 20",
        "x > 40",
        "x >= 40",
        "x = 17.5",
        "x = \"17\"",
    ] {
        let reference = run(filter, &["--threads", "1"]);
        rows += reference.0.lines().count();
        skipped += reference.2;
        // One read of each input, lint or no lint.
        assert_eq!(reference.3, paths.len() as u64, "WHERE {filter}");
        for flags in [
            &["--no-lint", "--threads", "1"][..],
            &["--no-lint", "--threads", "2"],
            &["--threads", "2"],
        ] {
            assert_eq!(
                run(filter, flags),
                reference,
                "WHERE {filter} with {flags:?}"
            );
        }
    }
    assert!(rows > 8, "the filters selected nothing");
    assert!(skipped > 0, "the pushdown never skipped a block");
    std::fs::remove_dir_all(&dir).ok();
}

/// A flag a binary does not know is a usage error — the usage text and
/// exit code 1 — whether it is a typo'd switch, a typo'd value flag
/// (whose value must not become an input file) or an `--unknown=value`.
#[test]
fn unknown_flags_are_usage_errors() {
    let binaries = [
        (
            "cali-query",
            env!("CARGO_BIN_EXE_cali-query"),
            "--degarde",
            "--thraeds",
        ),
        (
            "mpi-caliquery",
            env!("CARGO_BIN_EXE_mpi-caliquery"),
            "--timngs",
            "--rank",
        ),
        (
            "cali-stat",
            env!("CARGO_BIN_EXE_cali-stat"),
            "--hlep",
            "--output",
        ),
        (
            "cali-recover",
            env!("CARGO_BIN_EXE_cali-recover"),
            "--lenient",
            "--max-error",
        ),
        (
            "cali-race",
            env!("CARGO_BIN_EXE_cali-race"),
            "--deny-warning",
            "--kill",
        ),
        (
            "cali-served",
            env!("CARGO_BIN_EXE_cali-served"),
            "--fsnyc",
            "--data_dir",
        ),
        (
            "cali-pack",
            env!("CARGO_BIN_EXE_cali-pack"),
            "--v2",
            "--block-record",
        ),
        (
            "cali-lint",
            env!("CARGO_BIN_EXE_cali-lint"),
            "--jsno",
            "--shema",
        ),
    ];
    for (name, exe, switch, value_flag) in binaries {
        for args in [
            vec![switch],
            vec![value_flag, "2"],
            vec!["--no-such-flag=2"],
        ] {
            let out = Command::new(exe).args(&args).output().expect("run binary");
            let stderr = String::from_utf8(out.stderr).unwrap();
            assert_eq!(out.status.code(), Some(1), "{name} {args:?}: {stderr}");
            assert!(out.stdout.is_empty(), "{name} {args:?}");
            let message = format!("{name}: unknown flag {}\nusage: {name}", args[0]);
            assert!(stderr.starts_with(&message), "{name} {args:?}: {stderr}");
        }
    }
}
