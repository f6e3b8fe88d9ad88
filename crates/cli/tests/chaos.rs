//! Chaos-invariant suite: black-box tests of the CLI binaries under
//! deterministic fault injection (`--faults` / `CALI_FAULTS`) and
//! file-level mutation (`cali-pack --mutate`).
//!
//! The invariants, spelled out in docs/CHAOS.md:
//!
//! * injected faults and mutated files never panic a binary — they
//!   surface as typed errors, partial-result reports, and exit code 2;
//! * for a fixed spec/seed, every fault decision — and therefore every
//!   output byte — is identical across `--threads 1/2/4`;
//! * lenient read reports count the damage exactly (decoded record
//!   counts match what the aggregation saw);
//! * `cali-pack --mutate` is a pure function of (path, seed, mode).

use std::path::PathBuf;
use std::process::{Command, Output};

/// Hand-built dataset with integer times so tests control file
/// contents byte-precisely (same shape as cli_bin.rs).
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

/// Fresh temp dir with three 12-record text files (36 records total).
fn text_corpus(name: &str) -> (PathBuf, Vec<PathBuf>) {
    let dir = std::env::temp_dir().join(format!("cali-chaos-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut paths = Vec::new();
    for seed in 0..3 {
        let path = dir.join(format!("in{seed}.cali"));
        caliper_format::cali::write_file(&tiny_dataset(seed, 12), &path).unwrap();
        paths.push(path);
    }
    (dir, paths)
}

fn query(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cali-query"))
        .args(args)
        .output()
        .expect("run cali-query")
}

fn pack(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cali-pack"))
        .args(args)
        .output()
        .expect("run cali-pack")
}

fn paths_as_strs(paths: &[PathBuf]) -> Vec<&str> {
    paths.iter().map(|p| p.to_str().unwrap()).collect()
}

const QUERY: &str = "AGGREGATE count, sum(time) GROUP BY kernel ORDER BY kernel";

#[test]
fn fault_spec_typo_is_a_hard_error_not_a_silent_disarm() {
    let (dir, paths) = text_corpus("typo");
    let mut args = vec!["-q", QUERY, "--faults", "io.read=boom(1)"];
    args.extend(paths_as_strs(&paths));
    let out = query(&args);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("invalid fault spec"), "{stderr}");

    // The environment variable route must be just as loud: a chaos run
    // with a typo'd spec must abort, not quietly run fault-free.
    let out = Command::new(env!("CARGO_BIN_EXE_cali-query"))
        .env("CALI_FAULTS", "io.read=boom(1)")
        .args(["-q", QUERY])
        .args(&paths)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("invalid fault spec"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn transient_read_faults_are_retried_to_success() {
    let (dir, paths) = text_corpus("retry");
    let clean = {
        let mut args = vec!["-q", QUERY];
        args.extend(paths_as_strs(&paths));
        query(&args)
    };
    assert_eq!(clean.status.code(), Some(0));

    for threads in ["1", "2", "4"] {
        // fail(2): the first two read attempts of every file fail with a
        // transient error; the bounded backoff retries absorb them.
        let mut args = vec![
            "-q",
            QUERY,
            "--threads",
            threads,
            "--stats",
            "--faults",
            "io.read=fail(2)",
        ];
        args.extend(paths_as_strs(&paths));
        let out = query(&args);
        assert_eq!(
            out.status.code(),
            Some(0),
            "--threads {threads}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(out.stdout, clean.stdout, "--threads {threads}");
        // 2 retries per file x 3 files, counted in the metrics block.
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(
            stderr.contains("format.reader.retries=6"),
            "--threads {threads}: {stderr}"
        );
    }

    // `--check` opens its inputs the way a query does — same fault
    // sites, same retry — so a transient fault changes nothing it says.
    let check = |faults: &[&str]| {
        let mut args = vec!["-q", "AGGREGATE sum(kernel) GROUP BY kernel", "--check"];
        args.extend(faults);
        args.extend(paths_as_strs(&paths));
        let out = query(&args);
        (out.status.code(), out.stdout, out.stderr)
    };
    let unfaulted = check(&[]);
    assert_eq!(unfaulted.0, Some(1), "E003: {}", String::from_utf8_lossy(&unfaulted.1));
    assert_eq!(check(&["--faults", "io.read=fail(1)"]), unfaulted);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn exhausted_retries_are_a_hard_error_without_degrade() {
    let (dir, paths) = text_corpus("exhaust");
    // fail(9) outlasts the 4-attempt retry policy.
    let mut args = vec!["-q", QUERY, "--faults", "io.read~in1=fail(9)"];
    args.extend(paths_as_strs(&paths));
    let out = query(&args);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("in1.cali"), "{stderr}");
    assert!(stderr.contains("injected fault"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    // A file `--check` cannot read is its error too, not a schema
    // quietly short of that file's attributes.
    args.push("--check");
    let out = query(&args);
    assert_eq!(out.status.code(), Some(1));
    assert!(out.stdout.is_empty(), "{}", String::from_utf8_lossy(&out.stdout));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("in1.cali") && stderr.contains("injected fault"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn degrade_drops_the_failed_shard_deterministically() {
    let (dir, paths) = text_corpus("degrade");
    // Reference: the corpus minus the file the fault will take out.
    let survivors: Vec<&PathBuf> = paths
        .iter()
        .filter(|p| !p.to_string_lossy().contains("in1"))
        .collect();
    let reference = Command::new(env!("CARGO_BIN_EXE_cali-query"))
        .args(["-q", QUERY])
        .args(&survivors)
        .output()
        .unwrap();
    assert_eq!(reference.status.code(), Some(0));

    let mut outputs = Vec::new();
    for threads in ["1", "2", "4"] {
        let mut args = vec![
            "-q",
            QUERY,
            "--threads",
            threads,
            "--degrade",
            "--faults",
            "io.read~in1=fail(9)",
        ];
        args.extend(paths_as_strs(&paths));
        let out = query(&args);
        assert_eq!(
            out.status.code(),
            Some(2),
            "--threads {threads}: degraded run must exit 2: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stderr = String::from_utf8(out.stderr.clone()).unwrap();
        assert!(stderr.contains("dropped shard"), "--threads {threads}: {stderr}");
        assert!(
            stderr.contains("partial result: 1 input file(s) dropped after retries"),
            "--threads {threads}: {stderr}"
        );
        // The degraded result equals an aggregation over the survivors.
        assert_eq!(out.stdout, reference.stdout, "--threads {threads}");
        outputs.push(out);
    }
    // Byte-identical stdout AND stderr across thread counts.
    assert_eq!(outputs[0].stdout, outputs[1].stdout);
    assert_eq!(outputs[0].stdout, outputs[2].stdout);
    assert_eq!(outputs[0].stderr, outputs[1].stderr);
    assert_eq!(outputs[0].stderr, outputs[2].stderr);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn degraded_merge_failures_keep_stats_thread_invariant() {
    let (dir, paths) = text_corpus("merge");
    let mut stats_blocks = Vec::new();
    for threads in ["1", "2", "4"] {
        let mut args = vec![
            "-q",
            QUERY,
            "--threads",
            threads,
            "--degrade",
            "--stats",
            "--faults",
            "shard.merge~in2=fail(1)",
        ];
        args.extend(paths_as_strs(&paths));
        let out = query(&args);
        assert_eq!(
            out.status.code(),
            Some(2),
            "--threads {threads}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(
            stderr.contains("query.shards_failed=1"),
            "--threads {threads}: {stderr}"
        );
        // The whole deterministic metrics block must agree, not just
        // the new counter.
        let block: Vec<&str> = stderr
            .lines()
            .filter(|l| l.contains('=') && !l.starts_with("cali-query"))
            .collect();
        stats_blocks.push(block.join("\n"));
    }
    assert_eq!(stats_blocks[0], stats_blocks[1], "--threads 1 vs 2");
    assert_eq!(stats_blocks[0], stats_blocks[2], "--threads 1 vs 4");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_file_that_fails_both_ways_is_dropped_as_unreadable_on_every_thread_count() {
    let (dir, paths) = text_corpus("both");
    let mut outputs = Vec::new();
    for threads in ["1", "2", "4"] {
        // in1 can neither be read nor merged. The merge failpoint fires
        // only after a successful read, so the read error is the one
        // reported — by one worker as by four.
        let mut args = vec![
            "-q",
            QUERY,
            "--threads",
            threads,
            "--degrade",
            "--faults",
            "io.read~in1=fail(99);shard.merge~in1=fail(1)",
        ];
        args.extend(paths_as_strs(&paths));
        let out = query(&args);
        let stderr = String::from_utf8(out.stderr.clone()).unwrap();
        assert_eq!(out.status.code(), Some(2), "--threads {threads}: {stderr}");
        assert!(stderr.contains("injected fault at io.read"), "--threads {threads}: {stderr}");
        assert!(!stderr.contains("shard.merge"), "--threads {threads}: {stderr}");
        outputs.push(out);
    }
    for out in &outputs[1..] {
        assert_eq!(outputs[0].stdout, out.stdout);
        assert_eq!(outputs[0].stderr, out.stderr);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn strict_runs_name_the_first_unreadable_file_on_every_thread_count() {
    let (dir, mut paths) = text_corpus("first");
    for seed in 3..5 {
        let path = dir.join(format!("in{seed}.cali"));
        caliper_format::cali::write_file(&tiny_dataset(seed, 12), &path).unwrap();
        paths.push(path);
    }
    // Whichever worker fails first on the clock, the error returned is
    // the one of the lowest file index.
    for round in 0..20 {
        for threads in ["1", "2", "4"] {
            let mut args = vec![
                "-q",
                QUERY,
                "--threads",
                threads,
                "--faults",
                "io.read~in1=fail(99);io.read~in3=fail(99)",
            ];
            args.extend(paths_as_strs(&paths));
            let out = query(&args);
            let stderr = String::from_utf8(out.stderr).unwrap();
            assert_eq!(out.status.code(), Some(1), "round {round}, --threads {threads}: {stderr}");
            assert!(
                stderr.contains("in1.cali") && !stderr.contains("in3.cali"),
                "round {round}, --threads {threads}: {stderr}"
            );
            assert!(out.stdout.is_empty(), "round {round}, --threads {threads}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Sum of the `count` column of a rendered table.
fn count_column_total(stdout: &[u8]) -> u64 {
    String::from_utf8_lossy(stdout)
        .lines()
        .skip(1) // header
        .filter_map(|l| l.split_whitespace().nth(1))
        .filter_map(|v| v.parse::<u64>().ok())
        .sum()
}

/// A CALB v2 file that fails in the middle — its fourth block of six
/// overwritten on disk — while it is folded into a part of the root
/// (`--threads 1` folds every file after the first into the root
/// itself): `--degrade` drops it whole, the keys only it had included,
/// and prints what a run over the other files prints.
#[test]
fn a_file_corrupt_in_its_middle_block_is_dropped_whole_at_every_thread_count() {
    use caliper_format::binary_v2::{read_footer, to_binary_v2_with};
    let dir = std::env::temp_dir().join(format!("cali-chaos-middle-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let paths: Vec<PathBuf> = (0..6)
        .map(|f| {
            // File 3's first records carry keys of their own.
            let mut ds = tiny_dataset(f, 96);
            if f == 3 {
                let kernel = ds.store.find("kernel").unwrap().id();
                for rec in &mut ds.records[..20] {
                    let node = ds.tree.get_child(caliper_data::NODE_NONE, kernel, &"only3".into());
                    *rec = caliper_data::SnapshotRecord::new();
                    rec.push_node(node);
                }
            }
            let mut bytes = to_binary_v2_with(&ds, 16);
            if f == 3 {
                let blocks = read_footer(&bytes).expect("a footer");
                let (start, end) = (blocks[3].offset as usize + 8, blocks[4].offset as usize);
                bytes[start..end].fill(0xff);
            }
            let path = dir.join(format!("f{f}.calb2"));
            std::fs::write(&path, bytes).unwrap();
            path
        })
        .collect();
    let mut others = paths.clone();
    others.remove(3);
    let reference = query(&[&["-q", QUERY][..], &paths_as_strs(&others)].concat());
    assert_eq!(reference.status.code(), Some(0));
    for threads in ["1", "2", "4"] {
        let args = [&["-q", QUERY, "--threads", threads, "--degrade"][..], &paths_as_strs(&paths)];
        let out = query(&args.concat());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "--threads {threads}: {stderr}");
        assert!(stderr.contains("f3.calb2"), "--threads {threads}: {stderr}");
        assert_eq!(out.stdout, reference.stdout, "--threads {threads}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn v2_block_faults_lose_whole_blocks_and_report_exact_counts() {
    let (dir, _paths) = text_corpus("v2block");
    // One v2 file, 36 records in blocks of 8 (8+8+8+8+4).
    let merged = tiny_dataset(0, 36);
    let total = merged.len() as u64;
    let bytes = caliper_format::to_binary_v2_with(&merged, 8);
    let v2 = dir.join("all.calb2");
    std::fs::write(&v2, &bytes).unwrap();

    let q = "AGGREGATE count GROUP BY kernel ORDER BY kernel";
    let mut first: Option<Output> = None;
    for threads in ["1", "2", "4"] {
        let out = query(&[
            "-q",
            q,
            "--threads",
            threads,
            "--lenient",
            "--faults",
            "v2.block=err(0.5,42)",
            v2.to_str().unwrap(),
        ]);
        assert_eq!(
            out.status.code(),
            Some(2),
            "--threads {threads}: lenient block loss must exit 2: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stderr = String::from_utf8(out.stderr.clone()).unwrap();
        assert!(!stderr.contains("panicked"), "{stderr}");

        // Exact accounting: the per-file report's decoded-record count
        // equals what the aggregation saw, and decoded + lost == total
        // where the loss is whole blocks only.
        let decoded = count_column_total(&out.stdout);
        assert!(
            stderr.contains(&format!("{decoded} records decoded")),
            "--threads {threads}: report disagrees with the result: {stderr}"
        );
        let lost = total - decoded;
        assert!(lost > 0, "seed 42 must drop at least one block");
        assert!(
            lost.is_multiple_of(8) || lost % 8 == 4,
            "--threads {threads}: partial-block loss ({lost} records): {stderr}"
        );

        match &first {
            None => first = Some(out),
            Some(f) => {
                assert_eq!(f.stdout, out.stdout, "--threads {threads} diverged");
                assert_eq!(f.stderr, out.stderr, "--threads {threads} stderr diverged");
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn mutated_files_never_panic_in_any_format() {
    let (dir, paths) = text_corpus("fuzz");
    // The same records in all three on-disk formats.
    let ds = tiny_dataset(0, 12);
    let v1 = dir.join("fuzz.calb");
    caliper_format::binary::write_file(&ds, &v1).unwrap();
    let v2 = dir.join("fuzz.calb2");
    std::fs::write(&v2, caliper_format::to_binary_v2(&ds)).unwrap();
    let originals = [paths[0].clone(), v1, v2];

    for original in &originals {
        for mode in ["bitflip", "truncate", "garbage-block"] {
            for seed in 0..5u64 {
                let victim = dir.join(format!("victim-{mode}-{seed}"));
                std::fs::copy(original, &victim).unwrap();
                let out = pack(&[
                    "--mutate",
                    mode,
                    "--seed",
                    &seed.to_string(),
                    victim.to_str().unwrap(),
                ]);
                assert_eq!(out.status.code(), Some(0), "mutate {mode} seed {seed}");

                let ctx = format!("{} {mode} seed {seed}", original.display());
                // Both strict and lenient+degrade must survive the
                // damage: any exit code in {0,1,2}, never a panic.
                for extra in [&[][..], &["--lenient", "--degrade"][..]] {
                    let mut args = vec!["-q", QUERY, "--threads", "2"];
                    args.extend_from_slice(extra);
                    args.push(victim.to_str().unwrap());
                    let out = query(&args);
                    let stderr = String::from_utf8(out.stderr).unwrap();
                    assert!(!stderr.contains("panicked"), "{ctx}: {stderr}");
                    assert!(
                        matches!(out.status.code(), Some(0..=2)),
                        "{ctx}: exit {:?}: {stderr}",
                        out.status.code()
                    );
                    // Survival is deterministic: a second identical run
                    // reproduces the outcome byte for byte.
                    let mut args2 = vec!["-q", QUERY, "--threads", "2"];
                    args2.extend_from_slice(extra);
                    args2.push(victim.to_str().unwrap());
                    let again = query(&args2);
                    assert_eq!(out.status.code(), again.status.code(), "{ctx}");
                    assert_eq!(out.stdout, again.stdout, "{ctx}");
                }
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn mutator_is_a_pure_function_of_path_seed_and_mode() {
    let (dir, paths) = text_corpus("mutdet");
    let original = std::fs::read(&paths[0]).unwrap();
    let victim = dir.join("victim.cali");

    let mutate = |seed: &str| -> Vec<u8> {
        std::fs::write(&victim, &original).unwrap();
        let out = pack(&["--mutate", "bitflip", "--seed", seed, victim.to_str().unwrap()]);
        assert_eq!(out.status.code(), Some(0));
        std::fs::read(&victim).unwrap()
    };
    let a = mutate("7");
    let b = mutate("7");
    let c = mutate("8");
    assert_eq!(a, b, "same (path, seed, mode) must damage identically");
    assert_ne!(a, original, "bitflip must change the file");
    assert_ne!(a, c, "a different seed must damage differently");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn max_errors_exact_boundary_is_a_flagged_partial_success() {
    let (dir, mut paths) = text_corpus("budget");
    // A text file cut mid-way through its first context record: the
    // valid prefix holds zero data records and exactly ONE parse error.
    let text = caliper_format::cali::to_bytes(&tiny_dataset(3, 12));
    let text = String::from_utf8(text).unwrap();
    let cut = text.find("__rec=ctx").expect("has a ctx record") + 4;
    let torn = dir.join("torn.cali");
    std::fs::write(&torn, &text.as_bytes()[..cut]).unwrap();
    paths.push(torn);

    // Landing exactly on the cap: partial success, loud boundary note.
    let mut args = vec!["-q", QUERY, "--max-errors", "1"];
    args.extend(paths_as_strs(&paths));
    let out = query(&args);
    assert_eq!(
        out.status.code(),
        Some(2),
        "exact budget hit must exit 2: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("error budget exhausted (1 of 1 allowed); one more error would abort (exit 1)"),
        "{stderr}"
    );
    assert!(stderr.contains("torn.cali"), "{stderr}");

    // One error over the cap (--max-errors 0): hard abort, no note.
    let mut args = vec!["-q", QUERY, "--max-errors", "0"];
    args.extend(paths_as_strs(&paths));
    let out = query(&args);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        !String::from_utf8(out.stderr).unwrap().contains("budget exhausted"),
        "an aborted run must not claim a survived budget"
    );

    // Budget to spare: still partial (exit 2) but no boundary note.
    let mut args = vec!["-q", QUERY, "--max-errors", "5"];
    args.extend(paths_as_strs(&paths));
    let out = query(&args);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        !String::from_utf8(out.stderr).unwrap().contains("budget exhausted"),
        "under-budget runs must not warn"
    );

    // Clean corpus under a cap: exit 0, silent.
    let clean: Vec<&str> = paths_as_strs(&paths[..3]);
    let mut args = vec!["-q", QUERY, "--max-errors", "1"];
    args.extend(clean);
    let out = query(&args);
    assert_eq!(out.status.code(), Some(0));
    assert!(out.stderr.is_empty(), "{}", String::from_utf8_lossy(&out.stderr));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn mpi_caliquery_scripted_kill_yields_a_covered_partial_result() {
    let (dir, paths) = text_corpus("mpikill");
    let q = "AGGREGATE count GROUP BY kernel ORDER BY kernel";
    // --np 2, round-robin: rank 0 reads in0+in2, rank 1 reads in1.
    let rank0_files = [paths[0].to_str().unwrap(), paths[2].to_str().unwrap()];
    let reference = query(&["-q", q, rank0_files[0], rank0_files[1]]);
    assert_eq!(reference.status.code(), Some(0));

    let out = Command::new(env!("CARGO_BIN_EXE_mpi-caliquery"))
        .args(["--np", "2", "-q", q, "--faults", "mpi.kill=at(1,0)"])
        .args(&paths)
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(2),
        "a killed rank must yield exit 2: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("partial result: covers 1 of 2 ranks; lost ranks [1]"),
        "{stderr}"
    );
    // The partial result is exactly the surviving rank's aggregation.
    assert_eq!(out.stdout, reference.stdout);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn mpi_caliquery_scripted_delay_only_slows_the_run() {
    let (dir, paths) = text_corpus("mpidelay");
    let q = "AGGREGATE count GROUP BY kernel ORDER BY kernel";
    let clean = Command::new(env!("CARGO_BIN_EXE_mpi-caliquery"))
        .args(["--np", "2", "-q", q])
        .args(&paths)
        .output()
        .unwrap();
    assert_eq!(clean.status.code(), Some(0));

    // A straggler is not a failure: same result, exit 0.
    let out = Command::new(env!("CARGO_BIN_EXE_mpi-caliquery"))
        .args(["--np", "2", "-q", q, "--faults", "mpi.delay=at(1,0,20)"])
        .args(&paths)
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(out.stdout, clean.stdout);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_slow_rank_is_not_a_lost_rank() {
    let (dir, paths) = text_corpus("mpislow");
    let run = |engine: Option<&str>, faults: Option<&str>| {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_mpi-caliquery"));
        cmd.args(["--np", "2", "-q", QUERY, "--timings"]);
        if let Some(engine) = engine {
            cmd.args(["--engine", engine]);
        }
        if let Some(faults) = faults {
            cmd.env("CALI_FAULTS", faults);
        }
        cmd.args(&paths[..2]).output().unwrap()
    };
    let clean = run(None, None);
    assert_eq!(clean.status.code(), Some(0));

    // Rank 1's read stalls for longer than rank 0's whole level-0
    // receive budget (250 + 350 + 450 ms). On the default engine a
    // local phase costs no virtual time, so nothing is written off.
    let slow = "io.read~in1=delay(1500)";
    let out = run(None, Some(slow));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(!stderr.contains("partial result"), "{stderr}");
    assert_eq!(out.stdout, clean.stdout);
    let local_max: f64 = stderr
        .lines()
        .find_map(|l| l.strip_prefix("# local read+process (max over ranks):"))
        .and_then(|v| v.trim().trim_end_matches(" s").parse().ok())
        .unwrap_or_else(|| panic!("no local max in --timings output: {stderr}"));
    assert!(local_max >= 1.5, "the stall is the local max: {stderr}");

    // The thread engine's budgets are wall-clock: it may write the slow
    // rank off, and then has to say so.
    let out = run(Some("threads"), Some(slow));
    let stderr = String::from_utf8(out.stderr).unwrap();
    match out.status.code() {
        Some(0) => assert_eq!(out.stdout, clean.stdout),
        Some(2) => assert!(
            stderr.contains("partial result: covers 1 of 2 ranks; lost ranks [1]"),
            "{stderr}"
        ),
        other => panic!("exit {other:?}: {stderr}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn recovery_is_idempotent_over_a_torn_journal() {
    // Build a journal-shaped stream, tear it, and recover twice: both
    // passes must salvage the identical byte-for-byte output, and
    // re-aggregating that output is thread-count invariant.
    use caliper_data::{Properties, SnapshotRecord, Value, ValueType, NODE_NONE};
    use caliper_format::journal::SEQ_ATTR;

    let dir = std::env::temp_dir().join(format!("cali-chaos-recover-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let journal = dir.join("torn.cali");
    {
        let ds = caliper_format::Dataset::new();
        let kernel = ds.attribute("kernel", ValueType::Str, Properties::NESTED);
        let time = ds.attribute(
            "time",
            ValueType::Int,
            Properties::AS_VALUE | Properties::AGGREGATABLE,
        );
        let seq = ds.attribute(SEQ_ATTR, ValueType::UInt, Properties::AS_VALUE);
        let mut w = caliper_format::JournalWriter::create(
            &journal,
            caliper_format::FlushPolicy::default(),
        )
        .unwrap();
        for i in 0..30u64 {
            let node = ds.tree.get_child(
                NODE_NONE,
                kernel.id(),
                &Value::str(["solve", "io"][(i % 2) as usize]),
            );
            let mut rec = SnapshotRecord::new();
            rec.push_node(node);
            rec.push_imm(time.id(), Value::Int(i as i64));
            rec.push_imm(seq.id(), Value::UInt(i));
            w.append_snapshot(&ds, &rec).unwrap();
        }
    }
    let bytes = std::fs::read(&journal).unwrap();
    std::fs::write(&journal, &bytes[..bytes.len() * 3 / 4]).unwrap();

    let recover = |out_name: &str| -> (Option<i32>, Vec<u8>, Vec<u8>) {
        let out_path = dir.join(out_name);
        let out = Command::new(env!("CARGO_BIN_EXE_cali-recover"))
            .args(["-o", out_path.to_str().unwrap(), journal.to_str().unwrap()])
            .output()
            .unwrap();
        (
            out.status.code(),
            out.stderr,
            std::fs::read(&out_path).unwrap(),
        )
    };
    let (code1, stderr1, bytes1) = recover("pass1.cali");
    let (code2, stderr2, bytes2) = recover("pass2.cali");
    assert_eq!(code1, Some(2), "{}", String::from_utf8_lossy(&stderr1));
    assert_eq!(code1, code2);
    assert_eq!(stderr1, stderr2, "recovery reports must be reproducible");
    assert_eq!(bytes1, bytes2, "recovery must be idempotent");

    let q = "AGGREGATE count, sum(time) GROUP BY kernel ORDER BY kernel";
    let p1 = dir.join("pass1.cali");
    let serial = query(&["-q", q, "--threads", "1", p1.to_str().unwrap()]);
    assert_eq!(serial.status.code(), Some(0));
    for threads in ["2", "4"] {
        let sharded = query(&["-q", q, "--threads", threads, p1.to_str().unwrap()]);
        assert_eq!(serial.stdout, sharded.stdout, "--threads {threads}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
