//! The `paper` binary: a typo is a usage error, not a run without the
//! flag, and the claim table decides the exit status.

use std::process::{Command, Output};

use caliper_bench::{exit_code, Claim};

fn paper(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_paper"))
        .args(args)
        .output()
        .expect("spawn paper")
}

#[test]
fn an_unknown_flag_or_artifact_is_a_usage_error() {
    for args in [
        &["fig4", "--engine", "event"][..],
        &["fig10"],
        &["table1", "--ranks", "8"],
        &[],
    ] {
        let out = paper(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.lines().any(|l| l.starts_with("usage: paper")),
            "{args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} ran anyway");
    }
}

#[test]
fn fig9_quick_gates_its_rank_claims() {
    let out = paper(&["fig9", "--quick"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(
        stderr.contains("# Shape checks vs. the paper (Figure 9):"),
        "{stderr}"
    );
    // `--quick` keeps fig9's 10 ranks, so ranks 7 and 8 exist and their
    // claims are gated; at 8 ranks or fewer they print as `[n/a]` (the
    // unit test beside `rank_claims`).
    for rank in ["rank 7", "rank 8"] {
        assert!(
            stderr.contains(&format!("#   [holds] {rank} ")),
            "{rank}: {stderr}"
        );
    }
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(
        stdout.lines().next(),
        Some("rank,level0_s,level1_s,level2_s")
    );
    assert_eq!(stdout.lines().count(), 1 + 10);
}

#[test]
fn a_failed_deterministic_claim_exits_2_and_an_advisory_one_does_not() {
    let holds = Claim::gate(true, "C > A > B");
    let fails = Claim::gate(false, "C > A > B");
    let advisory = Claim::advisory("event overheads exceed sampling: 0.10% vs 0.85%");
    let na = Claim::not_applicable("rank 8: the run has 4 ranks");
    assert_eq!(exit_code(&[]), 0);
    assert_eq!(exit_code(&[holds.clone(), advisory.clone(), na.clone()]), 0);
    assert_eq!(exit_code(&[holds, fails.clone(), advisory.clone()]), 2);
    assert_eq!(exit_code(&[advisory, na, fails]), 2);
}

#[test]
fn a_claim_prints_its_verdict_first() {
    assert_eq!(Claim::gate(true, "x").to_string(), "[holds] x");
    assert_eq!(Claim::gate(false, "x").to_string(), "[fails] x");
    assert_eq!(Claim::advisory("x").to_string(), "[advisory] x");
    assert_eq!(Claim::not_applicable("x").to_string(), "[n/a] x");
}
