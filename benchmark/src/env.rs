//! Where the run lives: the repository root, the release binaries under
//! test, a scratch directory removed on exit, and child-process helpers.

use std::io;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use crate::affinity::Cpus;
use crate::calib::Calibrator;

/// A scratch directory under the cargo target directory (so it is
/// inside the checkout and git-ignored), removed when dropped — also
/// when a check fails or a panic unwinds.
pub struct WorkDir(PathBuf);

/// Create `dir` empty, removing whatever an earlier run left there.
fn fresh_dir(dir: PathBuf) -> io::Result<PathBuf> {
    if dir.exists() {
        std::fs::remove_dir_all(&dir)?;
    }
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

impl WorkDir {
    fn create(target: &Path, tag: &str) -> io::Result<WorkDir> {
        fresh_dir(target.join("cali-bench-work").join(tag)).map(WorkDir)
    }

    /// The directory itself.
    pub fn path(&self) -> &Path {
        &self.0
    }

    /// A fresh, empty subdirectory.
    pub fn fresh(&self, name: &str) -> io::Result<PathBuf> {
        fresh_dir(self.0.join(name))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Paths of one run, its machine-speed calibrator, and the one CPU it
/// keeps to.
pub struct Env {
    /// The CPU everything timed runs on, and the way back to all of
    /// them for the measurements of parallel execution.
    pub cpus: Cpus,
    /// Machine-speed calibration for the end-to-end timings.
    pub cal: Calibrator,
    /// Cargo target directory (holds the binaries and the scratch dir).
    pub target: PathBuf,
    /// Scratch directory of this run.
    pub work: WorkDir,
    /// `cali-query` release binary.
    pub cali_query: PathBuf,
    /// `mpi-caliquery` release binary.
    pub mpi_caliquery: PathBuf,
    /// `cali-served` release binary.
    pub cali_served: PathBuf,
}

impl Env {
    /// Build the release binaries of the repository this package sits
    /// in (a no-op when they are fresh), create the scratch dir, and
    /// confine the process to one CPU from here on (see
    /// [`crate::affinity`]). Build time is not part of any metric.
    pub fn prepare(tag: &str) -> Result<Env, String> {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .expect("the benchmark package sits one level below the repository root")
            .to_path_buf();
        let cwd = std::env::current_dir().map_err(|e| format!("current dir: {e}"))?;
        // cargo resolves a relative CARGO_TARGET_DIR against its own
        // working directory; pin it down before changing directory.
        let target = match std::env::var_os("CARGO_TARGET_DIR") {
            Some(dir) => cwd.join(dir),
            None => root.join("target"),
        };
        let status = Command::new("cargo")
            .args([
                "build",
                "--release",
                "--offline",
                "--quiet",
                "-p",
                "cali-cli",
            ])
            .args([
                "--bin",
                "cali-query",
                "--bin",
                "mpi-caliquery",
                "--bin",
                "cali-served",
            ])
            .current_dir(&root)
            .env("CARGO_TARGET_DIR", &target)
            .stdout(Stdio::null())
            .status()
            .map_err(|e| format!("running cargo: {e}"))?;
        if !status.success() {
            return Err(format!("building the release binaries failed ({status})"));
        }
        let bin = |name: &str| {
            let path = target.join("release").join(name);
            path.is_file()
                .then_some(path)
                .ok_or_else(|| format!("{name} missing under {}", target.display()))
        };
        Ok(Env {
            cpus: Cpus::confine().map_err(|e| format!("confining the run to one CPU: {e}"))?,
            cal: Calibrator::new(),
            cali_query: bin("cali-query")?,
            mpi_caliquery: bin("mpi-caliquery")?,
            cali_served: bin("cali-served")?,
            work: WorkDir::create(&target, tag).map_err(|e| format!("scratch dir: {e}"))?,
            target,
        })
    }
}

/// Outcome of one child process driven as a black box.
pub struct ChildRun {
    /// Spawn → exit, seconds.
    pub wall_s: f64,
    /// Exit status 0.
    pub ok: bool,
    /// Captured standard output.
    pub stdout: Vec<u8>,
    /// Captured standard error.
    pub stderr: String,
}

/// Run `cmd` to completion, timing spawn → exit.
pub fn run_child(cmd: &mut Command) -> io::Result<ChildRun> {
    let start = Instant::now();
    let out = cmd.stdin(Stdio::null()).output()?;
    Ok(ChildRun {
        wall_s: start.elapsed().as_secs_f64(),
        ok: out.status.success(),
        stdout: out.stdout,
        stderr: String::from_utf8_lossy(&out.stderr).into_owned(),
    })
}

/// Run `cmd` (output discarded) and return its peak resident set in
/// MiB, read from the `VmHWM` high-water mark in `/proc/<pid>/status`
/// once a millisecond until the child exits.
pub fn peak_rss_mb(cmd: &mut Command) -> io::Result<f64> {
    let mut child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()?;
    let status_file = format!("/proc/{}/status", child.id());
    let mut peak_kb = 0.0f64;
    while child.try_wait()?.is_none() {
        if let Ok(status) = std::fs::read_to_string(&status_file) {
            let hwm = status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok());
            peak_kb = peak_kb.max(hwm.unwrap_or(0.0));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    Ok(peak_kb / 1024.0)
}

/// Time-boxes the rounds of one stage: at least `min_rounds`, then more
/// while the next round (assumed as long as the longest so far) still
/// fits in the stage's share of `--seconds`.
pub struct Budget {
    deadline: Instant,
    min_rounds: usize,
    rounds: usize,
    round_start: Instant,
    longest: Duration,
}

impl Budget {
    /// A budget of `seconds` starting now.
    pub fn new(seconds: f64, min_rounds: usize) -> Budget {
        let now = Instant::now();
        Budget {
            deadline: now + Duration::from_secs_f64(seconds),
            min_rounds,
            rounds: 0,
            round_start: now,
            longest: Duration::ZERO,
        }
    }

    /// True if another round should run; call once before each round.
    pub fn next_round(&mut self) -> bool {
        let now = Instant::now();
        if self.rounds > 0 {
            self.longest = self.longest.max(now - self.round_start);
        }
        let go = self.rounds < self.min_rounds || now + self.longest <= self.deadline;
        self.rounds += 1;
        self.round_start = now;
        go
    }
}

/// Operations attempted and failed in a run; a failure is anything a
/// user would see as one: non-zero exit, refused or errored request,
/// non-200 reply, or output that differs from the reference.
#[derive(Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed, refused, or with wrong output.
    pub failed: u64,
    /// What went wrong, for the report.
    pub notes: Vec<String>,
}

impl Tally {
    /// Count one operation; `ok == false` records `what` as a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 20 {
                self.notes.push(what());
            }
        }
    }
}
