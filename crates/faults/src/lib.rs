//! # caliper-faults — seeded, deterministic failpoint registry
//!
//! The pipeline has several independent failure-handling mechanisms
//! (lenient read policies, journal torn-tail recovery, resilient tree
//! reduction in mpisim). This crate provides the one thing they share:
//! a way to *provoke* failures in the real code paths, deterministically,
//! so the failure behavior can be tested by injection instead of by
//! hand-built corrupt fixtures.
//!
//! ## Model
//!
//! Production code declares named **sites** (`io.read`, `journal.fsync`,
//! `v2.block`, `shard.merge`, …) by calling [`trigger`] or [`mutate`] at
//! the point where a fault could occur. A **spec string** — from the
//! `CALI_FAULTS` environment variable or a `--faults` CLI flag via
//! [`install_spec`] — arms some of those sites with actions:
//!
//! ```text
//! CALI_FAULTS="io.read=err(0.5,42);journal.fsync=fail(2);v2.block=corrupt(bitflip,7)"
//! ```
//!
//! When no spec is installed every site is a near-zero-cost no-op (one
//! relaxed atomic load).
//!
//! ## Determinism
//!
//! Every decision is a pure function of `(site, key, attempt, seed)`:
//!
//! * `key` is a **stable identifier** of the item at risk — a hashed
//!   file path, a block ordinal, a file index — never a global hit
//!   counter, so decisions do not depend on thread interleaving.
//! * `attempt` is a per-`(site, key, label)` counter, so retry loops
//!   observe a reproducible sequence of transient errors, and two items
//!   that share a key — block 0 of two files — count apart.
//!   The label picks the counter only: what an attempt decides stays a
//!   function of `(site, key, attempt, seed)`.
//! * `seed` comes from the spec.
//!
//! A run with a fixed spec therefore injects *the same* faults into *the
//! same* items regardless of `--threads`, which is what lets the chaos
//! suite assert byte-identical degraded output across shard counts.
//!
//! ## Spec grammar
//!
//! ```text
//! spec    := rule (';' rule)*
//! rule    := site ['~' filter] '=' action
//! action  := 'err(' p [',' seed] ')'        -- transient error w.p. p per attempt
//!          | 'fail(' n ')'                  -- first n attempts per key fail
//!          | 'delay(' ms ')'                -- sleep before proceeding
//!          | 'corrupt(' mode [',' seed] ')' -- mutate bytes: bitflip|truncate|garbage
//!          | 'at(' rank ',' op [',' ms] ')' -- mpisim: kill (2-arg) / delay (3-arg)
//! ```
//!
//! The optional `~filter` restricts a rule to triggers whose *label*
//! (usually a file path) contains the filter substring — this is what
//! keeps a globally-installed spec from bleeding into unrelated files
//! in the same process.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

/// Well-known failpoint site names.
///
/// Sites are plain strings — this module just centralizes the spelling
/// so call sites, specs, and docs cannot drift apart.
pub mod sites {
    /// Opening / initial read of an input file (format reader).
    pub const IO_OPEN: &str = "io.open";
    /// Post-read access to an input file's bytes (format reader).
    pub const IO_READ: &str = "io.read";
    /// Buffered journal write-out (`JournalWriter::flush`).
    pub const JOURNAL_WRITE: &str = "journal.write";
    /// Journal durability barrier (`File::sync_data`).
    pub const JOURNAL_FSYNC: &str = "journal.fsync";
    /// Runtime journal sink append (snapshot serialization).
    pub const RUNTIME_APPEND: &str = "runtime.append";
    /// CALB v2 per-block decode (key = block ordinal).
    pub const V2_BLOCK: &str = "v2.block";
    /// Query shard merge, after a successful read (key = file index).
    pub const SHARD_MERGE: &str = "shard.merge";
    /// mpisim rank kill (`at(rank, op)` rules).
    pub const MPI_KILL: &str = "mpi.kill";
    /// mpisim rank delay (`at(rank, op, ms)` rules).
    pub const MPI_DELAY: &str = "mpi.delay";
    /// `cali-served` connection accept (key = connection ordinal).
    pub const SERVED_ACCEPT: &str = "served.accept";
    /// `cali-served` ingest-worker batch processing (key = hashed
    /// stream name mixed with the batch ordinal). A `TransientErr`
    /// here kills the worker mid-batch — the supervisor restart path.
    pub const SERVED_INGEST: &str = "served.ingest";
    /// `cali-served` query evaluation (key = hashed query text).
    /// `delay(ms)` rules simulate slow queries against the deadline.
    pub const SERVED_QUERY: &str = "served.query";
}

/// What an armed [`trigger`] asks the call site to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Injected {
    /// Fail this attempt with a *transient* error (callers surface it as
    /// `io::ErrorKind::Interrupted`, which the retry helpers recognize).
    TransientErr,
}

/// Byte-mutation modes for `corrupt(...)` rules and `cali-pack --mutate`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorruptMode {
    /// Flip one seeded bit.
    Bitflip,
    /// Truncate to a seeded prefix length.
    Truncate,
    /// Overwrite a seeded run of bytes with seeded garbage.
    GarbageBlock,
}

impl CorruptMode {
    /// Parse a mode name (`bitflip` / `truncate` / `garbage` /
    /// `garbage-block`).
    pub fn parse(s: &str) -> Result<CorruptMode, SpecError> {
        match s {
            "bitflip" => Ok(CorruptMode::Bitflip),
            "truncate" => Ok(CorruptMode::Truncate),
            "garbage" | "garbage-block" => Ok(CorruptMode::GarbageBlock),
            other => Err(SpecError::new(format!("unknown corrupt mode `{other}`"))),
        }
    }
}

/// One armed action, parsed from a spec rule.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultAction {
    /// Fail each attempt independently with probability `p`.
    Err {
        /// Per-attempt failure probability in `[0, 1]`.
        p: f64,
        /// Decision seed.
        seed: u64,
    },
    /// Fail the first `n` attempts per key, then succeed.
    Fail {
        /// Number of leading attempts to fail.
        n: u32,
    },
    /// Sleep for `ms` milliseconds on every trigger.
    Delay {
        /// Sleep duration in milliseconds.
        ms: u64,
    },
    /// Deterministically mutate bytes passed to [`FaultSet::mutate`].
    Corrupt {
        /// Mutation mode.
        mode: CorruptMode,
        /// Mutation seed.
        seed: u64,
    },
    /// mpisim schedule entry: rank × op-counter, optional delay.
    At {
        /// Simulated rank the rule applies to.
        rank: usize,
        /// 0-based communication-op ordinal on that rank (the axis
        /// mpisim's `FaultPlan` schedules in).
        op: u64,
        /// Delay in milliseconds; `None` means kill.
        delay_ms: Option<u64>,
    },
}

/// A parsed spec rule: a site, an optional label filter, and an action.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRule {
    /// Site name the rule arms.
    pub site: String,
    /// Optional substring filter matched against the trigger label.
    pub filter: Option<String>,
    /// The armed action.
    pub action: FaultAction,
}

/// Spec-string parse error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    msg: String,
}

impl SpecError {
    fn new(msg: impl Into<String>) -> SpecError {
        SpecError { msg: msg.into() }
    }
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid fault spec: {}", self.msg)
    }
}

impl std::error::Error for SpecError {}

/// A set of armed fault rules with per-`(site, key, label)` attempt
/// state.
///
/// Most code uses the process-global set (installed from `CALI_FAULTS`
/// or [`install_spec`]) through the free functions [`trigger`] /
/// [`mutate`]; tests can build private sets with [`FaultSet::parse`]
/// and call the inherent methods.
#[derive(Debug)]
pub struct FaultSet {
    rules: Vec<FaultRule>,
    /// attempt counters keyed by mix(site, key, label) — independent of
    /// global hit order, so decisions are stable across thread
    /// interleavings, and one item's attempts are not another's.
    attempts: Mutex<HashMap<u64, u32>>,
}

impl FaultSet {
    /// Parse a spec string into a fault set.
    pub fn parse(spec: &str) -> Result<FaultSet, SpecError> {
        let mut rules = Vec::new();
        for part in spec.split(';') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            rules.push(parse_rule(part)?);
        }
        Ok(FaultSet {
            rules,
            attempts: Mutex::new(HashMap::new()),
        })
    }

    /// True if no rules are armed.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// The parsed rules (used by mpisim to lift `at(...)` schedules).
    pub fn rules(&self) -> &[FaultRule] {
        &self.rules
    }

    /// Fire the failpoint `site` for the item identified by `key`
    /// (a stable identifier — path hash, block ordinal, file index).
    /// `label` is a human-readable identity (usually the file path)
    /// matched against `~filter` rules.
    ///
    /// Returns `Some(Injected::TransientErr)` if this attempt should
    /// fail; `delay(ms)` rules sleep internally and return `None`.
    pub fn trigger(&self, site: &str, key: u64, label: &str) -> Option<Injected> {
        let mut hit = false;
        let mut attempt = 0;
        let mut out = None;
        for rule in &self.rules {
            if rule.site != site || !filter_matches(rule, label) {
                continue;
            }
            match rule.action {
                FaultAction::Delay { ms } => {
                    std::thread::sleep(Duration::from_millis(ms));
                }
                FaultAction::Err { p, seed } => {
                    if !hit {
                        attempt = self.next_attempt(site, key, label);
                        hit = true;
                    }
                    if hash01(site, key, attempt, seed) < p {
                        out = Some(Injected::TransientErr);
                    }
                }
                FaultAction::Fail { n } => {
                    if !hit {
                        attempt = self.next_attempt(site, key, label);
                        hit = true;
                    }
                    if attempt < n {
                        out = Some(Injected::TransientErr);
                    }
                }
                FaultAction::Corrupt { .. } | FaultAction::At { .. } => {}
            }
        }
        out
    }

    /// Apply any `corrupt(...)` rules armed for `site` to `bytes`.
    /// Returns true if the bytes were mutated. The mutation is a pure
    /// function of `(site, key, seed)` and the input length.
    pub fn mutate(&self, site: &str, key: u64, label: &str, bytes: &mut Vec<u8>) -> bool {
        let mut mutated = false;
        for rule in &self.rules {
            if rule.site != site || !filter_matches(rule, label) {
                continue;
            }
            if let FaultAction::Corrupt { mode, seed } = rule.action {
                mutated |= corrupt_bytes(mode, mix(&[site_hash(site), key, seed]), bytes);
            }
        }
        mutated
    }

    fn next_attempt(&self, site: &str, key: u64, label: &str) -> u32 {
        let slot = mix(&[site_hash(site), key, stable_hash(label)]);
        let mut map = self
            .attempts
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let n = map.entry(slot).or_insert(0);
        let attempt = *n;
        *n += 1;
        attempt
    }
}

fn filter_matches(rule: &FaultRule, label: &str) -> bool {
    match &rule.filter {
        Some(f) => label.contains(f.as_str()),
        None => true,
    }
}

/// Deterministically corrupt `bytes` with `mode`, seeded by `seed`.
/// Shared by `corrupt(...)` rules and `cali-pack --mutate`. Returns
/// true if the buffer changed.
pub fn corrupt_bytes(mode: CorruptMode, seed: u64, bytes: &mut Vec<u8>) -> bool {
    if bytes.is_empty() {
        return false;
    }
    let len = bytes.len() as u64;
    match mode {
        CorruptMode::Bitflip => {
            let off = (mix(&[seed, 1]) % len) as usize;
            let bit = (mix(&[seed, 2]) % 8) as u8;
            bytes[off] ^= 1 << bit;
            true
        }
        CorruptMode::Truncate => {
            let new_len = (mix(&[seed, 3]) % len) as usize;
            bytes.truncate(new_len);
            true
        }
        CorruptMode::GarbageBlock => {
            let off = (mix(&[seed, 4]) % len) as usize;
            let run = ((mix(&[seed, 5]) % 64) + 1) as usize;
            let end = (off + run).min(bytes.len());
            for (i, b) in bytes[off..end].iter_mut().enumerate() {
                *b = (mix(&[seed, 6, i as u64]) & 0xff) as u8;
            }
            true
        }
    }
}

// ---------------------------------------------------------------------
// Spec parsing
// ---------------------------------------------------------------------

fn parse_rule(part: &str) -> Result<FaultRule, SpecError> {
    let (lhs, rhs) = part
        .split_once('=')
        .ok_or_else(|| SpecError::new(format!("rule `{part}` is missing `=`")))?;
    let (site, filter) = match lhs.split_once('~') {
        Some((s, f)) => (s.trim(), Some(f.trim().to_string())),
        None => (lhs.trim(), None),
    };
    if site.is_empty() {
        return Err(SpecError::new(format!("rule `{part}` has an empty site")));
    }
    let action = parse_action(rhs.trim())?;
    Ok(FaultRule {
        site: site.to_string(),
        filter,
        action,
    })
}

fn parse_action(s: &str) -> Result<FaultAction, SpecError> {
    let (name, args) = match s.split_once('(') {
        Some((n, rest)) => {
            let rest = rest
                .strip_suffix(')')
                .ok_or_else(|| SpecError::new(format!("action `{s}` is missing `)`")))?;
            (n.trim(), rest)
        }
        None => return Err(SpecError::new(format!("action `{s}` has no `(args)`"))),
    };
    let args: Vec<&str> = if args.trim().is_empty() {
        Vec::new()
    } else {
        args.split(',').map(str::trim).collect()
    };
    let want = |lo: usize, hi: usize| -> Result<(), SpecError> {
        if args.len() < lo || args.len() > hi {
            return Err(SpecError::new(format!(
                "action `{name}` takes {lo}..={hi} args, got {}",
                args.len()
            )));
        }
        Ok(())
    };
    match name {
        "err" => {
            want(1, 2)?;
            let p: f64 = args[0]
                .parse()
                .map_err(|_| SpecError::new(format!("err probability `{}`", args[0])))?;
            if !(0.0..=1.0).contains(&p) {
                return Err(SpecError::new(format!("err probability {p} outside [0,1]")));
            }
            let seed = parse_u64_arg(args.get(1).copied().unwrap_or("0"))?;
            Ok(FaultAction::Err { p, seed })
        }
        "fail" => {
            want(1, 1)?;
            Ok(FaultAction::Fail {
                n: args[0]
                    .parse()
                    .map_err(|_| SpecError::new(format!("fail count `{}`", args[0])))?,
            })
        }
        "delay" => {
            want(1, 1)?;
            Ok(FaultAction::Delay {
                ms: parse_u64_arg(args[0])?,
            })
        }
        "corrupt" => {
            want(1, 2)?;
            Ok(FaultAction::Corrupt {
                mode: CorruptMode::parse(args[0])?,
                seed: parse_u64_arg(args.get(1).copied().unwrap_or("0"))?,
            })
        }
        "at" => {
            want(2, 3)?;
            let rank: usize = args[0]
                .parse()
                .map_err(|_| SpecError::new(format!("at rank `{}`", args[0])))?;
            let op = parse_u64_arg(args[1])?;
            let delay_ms = match args.get(2) {
                Some(ms) => Some(parse_u64_arg(ms)?),
                None => None,
            };
            Ok(FaultAction::At { rank, op, delay_ms })
        }
        other => Err(SpecError::new(format!("unknown action `{other}`"))),
    }
}

fn parse_u64_arg(s: &str) -> Result<u64, SpecError> {
    s.parse()
        .map_err(|_| SpecError::new(format!("expected integer, got `{s}`")))
}

// ---------------------------------------------------------------------
// Global registry
// ---------------------------------------------------------------------

/// Environment variable holding the process-wide fault spec.
pub const ENV_VAR: &str = "CALI_FAULTS";

static GLOBAL: OnceLock<Option<FaultSet>> = OnceLock::new();
/// 0 = uninitialized, 1 = initialized-and-disarmed, 2 = armed.
static STATE: AtomicU8 = AtomicU8::new(0);

fn init_global() -> &'static Option<FaultSet> {
    let set = GLOBAL.get_or_init(|| match std::env::var(ENV_VAR) {
        Ok(spec) if !spec.trim().is_empty() => match FaultSet::parse(&spec) {
            Ok(set) if !set.is_empty() => Some(set),
            Ok(_) => None,
            Err(e) => {
                // A typo'd spec must not silently disarm a chaos run.
                eprintln!("caliper-faults: {ENV_VAR}: {e}");
                std::process::exit(1);
            }
        },
        _ => None,
    });
    STATE.store(if set.is_some() { 2 } else { 1 }, Ordering::Release);
    set
}

/// The process-global fault set, if one is armed.
///
/// First call initializes from [`ENV_VAR`]; later calls are a single
/// relaxed atomic load when no faults are armed.
pub fn global() -> Option<&'static FaultSet> {
    match STATE.load(Ordering::Relaxed) {
        1 => None,
        2 => GLOBAL.get().and_then(|s| s.as_ref()),
        _ => init_global().as_ref(),
    }
}

/// Install `spec` as the process-global fault set (the `--faults` CLI
/// path). Must run before the first [`trigger`]; once the registry has
/// initialized (from the environment or an earlier install) the spec is
/// frozen and a conflicting install is an error.
pub fn install_spec(spec: &str) -> Result<(), SpecError> {
    let parsed = FaultSet::parse(spec)?;
    let armed = !parsed.is_empty();
    let stored = GLOBAL.get_or_init(|| if armed { Some(parsed) } else { None });
    STATE.store(if stored.is_some() { 2 } else { 1 }, Ordering::Release);
    Ok(())
}

/// Fire a failpoint on the global set. No-op (one atomic load) when no
/// faults are armed. See [`FaultSet::trigger`].
#[inline]
pub fn trigger(site: &str, key: u64, label: &str) -> Option<Injected> {
    match global() {
        None => None,
        Some(set) => set.trigger(site, key, label),
    }
}

/// Apply global `corrupt(...)` rules for `site` to `bytes`. No-op when
/// no faults are armed. See [`FaultSet::mutate`].
#[inline]
pub fn mutate(site: &str, key: u64, label: &str, bytes: &mut Vec<u8>) -> bool {
    match global() {
        None => false,
        Some(set) => set.mutate(site, key, label, bytes),
    }
}

// ---------------------------------------------------------------------
// Hashing
// ---------------------------------------------------------------------

/// FNV-1a over a string — the stable key for path-identified items.
pub fn stable_hash(s: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

fn site_hash(site: &str) -> u64 {
    stable_hash(site)
}

/// splitmix64 finalizer — mixes a word list into one well-distributed
/// word. Deterministic across platforms and runs.
fn mix(words: &[u64]) -> u64 {
    let mut h: u64 = 0x9e3779b97f4a7c15;
    for w in words {
        h = h.wrapping_add(*w).wrapping_mul(0xbf58476d1ce4e5b9);
        h ^= h >> 27;
        h = h.wrapping_mul(0x94d049bb133111eb);
        h ^= h >> 31;
    }
    h
}

fn hash01(site: &str, key: u64, attempt: u32, seed: u64) -> f64 {
    let h = mix(&[site_hash(site), key, u64::from(attempt), seed]);
    // 53 high bits → uniform in [0, 1).
    (h >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_multi_rule_spec() {
        let set = FaultSet::parse(
            "io.read=err(0.5,42); journal.fsync=fail(2);v2.block=corrupt(bitflip,7);\
             shard.merge~rank1=delay(3);mpi.kill=at(3,5);mpi.delay=at(1,2,40)",
        )
        .unwrap();
        assert_eq!(set.rules().len(), 6);
        assert_eq!(set.rules()[0].action, FaultAction::Err { p: 0.5, seed: 42 });
        assert_eq!(set.rules()[1].action, FaultAction::Fail { n: 2 });
        assert_eq!(
            set.rules()[2].action,
            FaultAction::Corrupt {
                mode: CorruptMode::Bitflip,
                seed: 7
            }
        );
        assert_eq!(set.rules()[3].filter.as_deref(), Some("rank1"));
        assert_eq!(
            set.rules()[4].action,
            FaultAction::At {
                rank: 3,
                op: 5,
                delay_ms: None
            }
        );
        assert_eq!(
            set.rules()[5].action,
            FaultAction::At {
                rank: 1,
                op: 2,
                delay_ms: Some(40)
            }
        );
    }

    #[test]
    fn parse_errors() {
        assert!(FaultSet::parse("io.read").is_err());
        assert!(FaultSet::parse("io.read=boom(1)").is_err());
        assert!(FaultSet::parse("io.read=err(2.0)").is_err());
        assert!(FaultSet::parse("io.read=err(").is_err());
        assert!(FaultSet::parse("=err(0.1)").is_err());
        assert!(FaultSet::parse("io.read=fail(x)").is_err());
        assert!(FaultSet::parse("").unwrap().is_empty());
        assert!(FaultSet::parse(" ; ").unwrap().is_empty());
    }

    #[test]
    fn fail_n_fails_first_n_attempts_per_key() {
        let set = FaultSet::parse("io.read=fail(2)").unwrap();
        assert_eq!(set.trigger("io.read", 7, "a"), Some(Injected::TransientErr));
        assert_eq!(set.trigger("io.read", 7, "a"), Some(Injected::TransientErr));
        assert_eq!(set.trigger("io.read", 7, "a"), None);
        // Independent counter per key.
        assert_eq!(set.trigger("io.read", 8, "b"), Some(Injected::TransientErr));
        // Other sites are unarmed.
        assert_eq!(set.trigger("io.open", 7, "a"), None);
    }

    /// Block 0 of one file and block 0 of another share a key, not a
    /// counter: a rule whose filter matches both fires on both alike.
    #[test]
    fn attempts_are_counted_per_label() {
        let set = FaultSet::parse("v2.block~shard=fail(1)").unwrap();
        for block in 0..3 {
            assert_eq!(
                set.trigger("v2.block", block, "shard0.calb2"),
                Some(Injected::TransientErr)
            );
            assert_eq!(
                set.trigger("v2.block", block, "shard1.calb2"),
                Some(Injected::TransientErr)
            );
        }
        // Each file's second attempt at a block passes.
        assert_eq!(set.trigger("v2.block", 0, "shard0.calb2"), None);
        assert_eq!(set.trigger("v2.block", 0, "shard1.calb2"), None);
        // What an attempt decides does not depend on the label.
        let err = FaultSet::parse("v2.block=err(0.5,9)").unwrap();
        let fired = |label: &str| {
            (0..64)
                .map(|k| err.trigger("v2.block", k, label).is_some())
                .collect::<Vec<_>>()
        };
        assert_eq!(fired("a.calb2"), fired("b.calb2"));
    }

    #[test]
    fn err_p_is_deterministic_and_key_local() {
        let a = FaultSet::parse("io.read=err(0.5,42)").unwrap();
        let b = FaultSet::parse("io.read=err(0.5,42)").unwrap();
        let seq_a: Vec<bool> = (0..64)
            .map(|k| a.trigger("io.read", k, "x").is_some())
            .collect();
        let seq_b: Vec<bool> = (0..64)
            .map(|k| b.trigger("io.read", k, "x").is_some())
            .collect();
        assert_eq!(seq_a, seq_b);
        assert!(seq_a.iter().any(|&f| f));
        assert!(seq_a.iter().any(|&f| !f));
        // Interleaving order must not matter: trigger keys in reverse on
        // a fresh set and expect the same per-key first-attempt outcome.
        let c = FaultSet::parse("io.read=err(0.5,42)").unwrap();
        let mut seq_c: Vec<bool> = (0..64)
            .rev()
            .map(|k| c.trigger("io.read", k, "x").is_some())
            .collect();
        seq_c.reverse();
        assert_eq!(seq_a, seq_c);
    }

    #[test]
    fn err_probability_extremes() {
        let never = FaultSet::parse("io.read=err(0)").unwrap();
        let always = FaultSet::parse("io.read=err(1)").unwrap();
        for k in 0..32 {
            assert_eq!(never.trigger("io.read", k, "x"), None);
            assert_eq!(
                always.trigger("io.read", k, "x"),
                Some(Injected::TransientErr)
            );
        }
    }

    #[test]
    fn filter_restricts_by_label() {
        let set = FaultSet::parse("io.read~rank1=fail(1)").unwrap();
        assert_eq!(set.trigger("io.read", 1, "/tmp/rank0.cali"), None);
        assert_eq!(
            set.trigger("io.read", 2, "/tmp/rank1.cali"),
            Some(Injected::TransientErr)
        );
    }

    #[test]
    fn corrupt_is_deterministic() {
        let set = FaultSet::parse("v2.block=corrupt(bitflip,7)").unwrap();
        let orig: Vec<u8> = (0..200).map(|i| i as u8).collect();
        let mut a = orig.clone();
        let mut b = orig.clone();
        assert!(set.mutate("v2.block", 3, "f", &mut a));
        assert!(set.mutate("v2.block", 3, "f", &mut b));
        assert_eq!(a, b);
        assert_ne!(a, orig);
        // Exactly one bit differs.
        let flipped: u32 = a.iter().zip(&orig).map(|(x, y)| (x ^ y).count_ones()).sum();
        assert_eq!(flipped, 1);
        // Different key → (almost surely) different offset; still 1 bit.
        let mut c = orig.clone();
        assert!(set.mutate("v2.block", 4, "f", &mut c));
        let flipped_c: u32 = c.iter().zip(&orig).map(|(x, y)| (x ^ y).count_ones()).sum();
        assert_eq!(flipped_c, 1);
    }

    #[test]
    fn corrupt_modes_cover_truncate_and_garbage() {
        let mut bytes: Vec<u8> = vec![0xAA; 300];
        assert!(corrupt_bytes(CorruptMode::Truncate, 9, &mut bytes));
        assert!(bytes.len() < 300);
        let mut bytes2: Vec<u8> = vec![0xAA; 300];
        assert!(corrupt_bytes(CorruptMode::GarbageBlock, 9, &mut bytes2));
        assert_eq!(bytes2.len(), 300);
        assert!(bytes2.iter().any(|&b| b != 0xAA));
        let mut empty: Vec<u8> = Vec::new();
        assert!(!corrupt_bytes(CorruptMode::Bitflip, 9, &mut empty));
    }

    #[test]
    fn unarmed_set_is_silent() {
        let set = FaultSet::parse("").unwrap();
        assert_eq!(set.trigger("io.read", 1, "x"), None);
        let mut b = vec![1, 2, 3];
        assert!(!set.mutate("io.read", 1, "x", &mut b));
        assert_eq!(b, vec![1, 2, 3]);
    }
}
