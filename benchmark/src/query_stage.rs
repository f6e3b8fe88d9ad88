//! The `scan` and `wide` stages: `cali-query` driven as a black box
//! over the generated corpus, every output checked against a reference.

use std::path::{Path, PathBuf};
use std::process::Command;

use crate::calib::Timed;
use crate::corpus::Corpus;
use crate::env::{run_child, Env, Tally};
use crate::plan::{Plan, Stage};

/// The paper's ParaDiS evaluation query: 85 groups, so the aggregator
/// is trivial and decode plus row flattening do nearly all the work.
pub const SCAN_QUERY: &str = "LET region = first(kernel, mpi.function) \
     AGGREGATE sum(sum#time.duration), sum(aggregate.count) \
     GROUP BY region ORDER BY region FORMAT csv";

/// Four operators over (regions × iterations) groups, sorted: the same
/// aggregator as `scan`, but now key extraction, hashing, reducer
/// updates, merge, flush, sort and render dominate.
pub const WIDE_QUERY: &str = "AGGREGATE count, sum(sum#time.duration), \
     min(sum#time.duration), max(sum#time.duration) \
     GROUP BY kernel, mpi.function, iteration \
     ORDER BY kernel, mpi.function, iteration FORMAT csv";

/// One group per input record: the hash table only ever inserts.
pub const DISTINCT_QUERY: &str = "AGGREGATE count, sum(sum#time.duration) \
     GROUP BY kernel, mpi.function, mpi.rank, iteration FORMAT csv";

/// Selects one rank's records; on CALB v2 the zone maps skip every
/// other file's blocks, so decode is bypassed almost entirely.
pub fn select_query(rank: usize) -> String {
    format!(
        "AGGREGATE count, sum(sum#time.duration) WHERE mpi.rank = {rank} \
         GROUP BY kernel ORDER BY kernel FORMAT csv"
    )
}

/// Data rows of a CSV rendering (lines minus the header).
fn csv_rows(csv: &[u8]) -> usize {
    csv.iter()
        .filter(|&&b| b == b'\n')
        .count()
        .saturating_sub(1)
}

/// One `cali-query --no-lint` run writing to a scratch file (not a
/// pipe, so a multi-megabyte result does not wait on the harness);
/// returns wall seconds and the output bytes. A failed run counts
/// against the tally and yields empty output.
pub fn cali_query(
    env: &Env,
    tally: &mut Tally,
    query: &str,
    threads: usize,
    files: &[PathBuf],
) -> (f64, Vec<u8>) {
    let out = env.work.path().join("cali-query.out");
    let mut cmd = Command::new(&env.cali_query);
    cmd.arg("--no-lint")
        .args(["--threads", &threads.to_string()])
        .args(["-q", query])
        .arg("-o")
        .arg(&out)
        .args(files);
    let run = run_child(&mut cmd).expect("spawning cali-query");
    let output = std::fs::read(&out).unwrap_or_default();
    let _ = std::fs::remove_file(&out);
    tally.check(run.ok, || {
        format!("cali-query exited non-zero: {}", run.stderr.trim())
    });
    (run.wall_s, if run.ok { output } else { Vec::new() })
}

/// One query over one file set, with the output every run must match.
struct Case {
    what: &'static str,
    query: String,
    files: Vec<PathBuf>,
    reference: Vec<u8>,
}

impl Case {
    /// Take the reference from CALB v2 at one thread; it must have
    /// `rows` data rows when given, at least one otherwise.
    fn new(
        env: &Env,
        tally: &mut Tally,
        what: &'static str,
        query: &str,
        files: &[PathBuf],
        rows: Option<usize>,
    ) -> Case {
        let (_, reference) = cali_query(env, tally, query, 1, files);
        let got = csv_rows(&reference);
        tally.check(rows.map_or(got > 0, |want| got == want), || {
            format!("{what}: {got} result rows, expected {rows:?}")
        });
        Case {
            what,
            query: query.to_string(),
            files: files.to_vec(),
            reference,
        }
    }

    /// Run over `files` (this case's own when `None`) and require
    /// byte-identical output; returns wall seconds.
    fn run(&self, env: &Env, tally: &mut Tally, threads: usize, files: Option<&[PathBuf]>) -> f64 {
        let (wall_s, output) = cali_query(
            env,
            tally,
            &self.query,
            threads,
            files.unwrap_or(&self.files),
        );
        tally.check(output == self.reference, || {
            format!(
                "{} --threads {threads}: output differs from the reference",
                self.what
            )
        });
        wall_s
    }
}

fn prefix(files: &[PathBuf], n: usize) -> &[PathBuf] {
    &files[..n.min(files.len())]
}

/// Files per encoding `stage` reads in this run: the whole corpus when
/// it is the workload, a quarter of it otherwise.
pub fn file_count(corpus: &Corpus, plan: &Plan, stage: Stage) -> usize {
    plan.pick(stage, corpus.v2.len(), corpus.v2.len() / 4)
}

/// The `scan` stage: the 85-group query once per encoding per round at
/// `--threads 1`; every encoding also answers at `--threads 2`, all
/// outputs byte-identical. What two threads gain is a per-layer row of
/// the traced run (`cli.scan_v2_t2_rec_per_s`), measured on all CPUs.
pub struct Scan {
    case: Case,
    text_files: Vec<PathBuf>,
    /// Records each run reads.
    pub records: usize,
    /// Text `.cali`, `--threads 1`: wall seconds per run.
    pub text: Vec<Timed>,
    /// CALB v2, `--threads 1`.
    pub v2: Vec<Timed>,
}

impl Scan {
    /// Take the reference and check the encoding × thread combinations
    /// the timed rounds do not cover.
    pub fn new(env: &Env, corpus: &Corpus, plan: &Plan, tally: &mut Tally) -> Scan {
        let n = file_count(corpus, plan, Stage::Scan);
        let groups = miniapps::paradis::region_count();
        let case = Case::new(
            env,
            tally,
            "scan",
            SCAN_QUERY,
            prefix(&corpus.v2, n),
            Some(groups),
        );
        case.run(env, tally, 2, None);
        case.run(env, tally, 2, Some(prefix(&corpus.v1, n)));
        case.run(env, tally, 2, Some(prefix(&corpus.text, n)));
        Scan {
            case,
            text_files: prefix(&corpus.text, n).to_vec(),
            records: corpus.records(n),
            text: Vec::new(),
            v2: Vec::new(),
        }
    }

    /// One sample of each timing.
    pub fn round(&mut self, env: &Env, tally: &mut Tally) {
        let text = env
            .cal
            .time(|| self.case.run(env, tally, 1, Some(&self.text_files)));
        self.text.push(text);
        self.v2
            .push(env.cal.time(|| self.case.run(env, tally, 1, None)));
    }
}

/// Selective-query runs per round: they are ~10 ms each, and the
/// median wants at least 50 of them.
const SELECTS_PER_ROUND: usize = 10;

/// The `wide` stage: three uses of the same aggregator over CALB v2.
pub struct Wide {
    wide_case: Case,
    distinct_case: Case,
    select_case: Case,
    /// Records the wide query reads.
    pub wide_records: usize,
    /// Records the distinct query reads (= its group count).
    pub distinct_records: usize,
    /// Wide query, `--threads 1`: wall seconds per run.
    pub wide: Vec<Timed>,
    /// Distinct query, `--threads 1`.
    pub distinct: Vec<Timed>,
    /// Selective query, `--threads 1`.
    pub select: Vec<Timed>,
}

impl Wide {
    /// Take the references and run the one-off checks.
    pub fn new(env: &Env, corpus: &Corpus, plan: &Plan, tally: &mut Tally) -> Wide {
        let n = file_count(corpus, plan, Stage::Wide);
        let files = prefix(&corpus.v2, n);
        let distinct_files = prefix(files, (n / 4).max(1));
        // Every (region, iteration) pair plus the 49 run-total records.
        let wide_groups = miniapps::paradis::region_count() * corpus.iterations + 49;
        let distinct_records = corpus.records(distinct_files.len());
        let wide_case = Case::new(env, tally, "wide", WIDE_QUERY, files, Some(wide_groups));
        let distinct_case = Case::new(
            env,
            tally,
            "distinct",
            DISTINCT_QUERY,
            distinct_files,
            Some(distinct_records),
        );
        let select_case = Case::new(env, tally, "select", &select_query(n - 1), files, None);
        wide_case.run(env, tally, 2, None);
        distinct_case.run(env, tally, 2, None);
        select_case.run(env, tally, 2, None);
        // Text and v1 must answer the same; two files keep that check
        // cheap (text decodes ~4x slower and cannot skip blocks).
        for (what, query) in [
            ("wide", WIDE_QUERY),
            ("distinct", DISTINCT_QUERY),
            ("select", &select_query(1)),
        ] {
            let small = Case::new(env, tally, what, query, prefix(&corpus.v2, 2), None);
            small.run(env, tally, 1, Some(prefix(&corpus.text, 2)));
            small.run(env, tally, 2, Some(prefix(&corpus.v1, 2)));
        }
        Wide {
            wide_case,
            distinct_case,
            select_case,
            wide_records: corpus.records(n),
            distinct_records,
            wide: Vec::new(),
            distinct: Vec::new(),
            select: Vec::new(),
        }
    }

    /// One sample of each timing (ten of the selective query).
    pub fn round(&mut self, env: &Env, tally: &mut Tally) {
        self.wide
            .push(env.cal.time(|| self.wide_case.run(env, tally, 1, None)));
        self.distinct
            .push(env.cal.time(|| self.distinct_case.run(env, tally, 1, None)));
        // The ten short runs share one bracket: a pass of the kernel
        // between them would be a third of what it brackets.
        let (selects, speed) = env.cal.bracket(|| {
            [(); SELECTS_PER_ROUND].map(|()| self.select_case.run(env, tally, 1, None))
        });
        self.select.extend(selects.map(|raw| Timed { raw, speed }));
    }
}

/// `cali-query --list-attributes` over one file: process start-up plus
/// one small read, the floor under every black-box timing.
pub fn startup_s(env: &Env, file: &Path) -> f64 {
    let mut cmd = Command::new(&env.cali_query);
    cmd.arg("--list-attributes").arg(file);
    run_child(&mut cmd).expect("spawning cali-query").wall_s
}
