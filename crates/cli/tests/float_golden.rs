//! The float golden: five text `.cali` files whose groups overlap
//! across files, their times non-integer doubles (a `-0.0` among them),
//! and one query over every op kind. `golden/floats/every-op.txt` was
//! written by the build that folded each file into a pipeline of its own
//! and merged it into the root key by key; the lent root must print the
//! same bytes at every worker count. A float sum folded in any other
//! order — one fold over all files, say — moves a last digit here.
//! `scripts/check.sh` runs the same comparison on the release binary.

use std::path::PathBuf;
use std::process::Command;

#[test]
fn every_op_over_overlapping_files_prints_the_float_golden_at_every_thread_count() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/floats");
    let query = std::fs::read_to_string(dir.join("every-op.calql")).unwrap();
    let expected = std::fs::read(dir.join("every-op.txt")).unwrap();
    let files: Vec<PathBuf> = (0..5).map(|f| dir.join(format!("f{f}.cali"))).collect();
    for threads in ["1", "2", "3"] {
        let out = Command::new(env!("CARGO_BIN_EXE_cali-query"))
            .args(["--no-lint", "--threads", threads, "-q", query.trim()])
            .args(&files)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            out.stdout == expected,
            "--threads {threads} differs from every-op.txt"
        );
    }
}
