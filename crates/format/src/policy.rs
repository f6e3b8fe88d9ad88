//! Read policies and per-file read reports — the ingest side of the
//! fault-tolerance layer.
//!
//! Real profiling runs produce truncated and corrupt stream files:
//! crashed jobs leave half-written `.cali` files behind, file systems
//! flip bits, and concatenated logs splice garbage between records.
//! The readers in [`crate::cali`] and [`crate::binary`] therefore accept
//! a [`ReadPolicy`]:
//!
//! * [`ReadPolicy::Strict`] — the historical behavior: the first
//!   malformed record aborts the read with a [`CaliError`].
//! * [`ReadPolicy::Lenient`] — decode everything that is decodable.
//!   The text reader resynchronizes at the next line after a corrupt
//!   record; the binary reader keeps the valid prefix (binary framing
//!   cannot be resynchronized after a corrupt length field). Reads
//!   give up only after `max_errors` records have been skipped.
//!
//! Either way, nothing is dropped invisibly: a [`ReadReport`] counts the
//! records decoded, the records skipped, the entries dropped because of
//! dangling ids, and carries the first few error messages verbatim.

use std::path::PathBuf;

use crate::cali::CaliError;

/// Maximum number of verbatim error messages kept in a [`ReadReport`];
/// further errors are only counted ([`ReadReport::suppressed_errors`]).
pub const MAX_REPORTED_ERRORS: usize = 8;

/// How the readers treat malformed input.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReadPolicy {
    /// Abort on the first malformed record (historical behavior).
    #[default]
    Strict,
    /// Skip malformed records and keep decoding, giving up only after
    /// `max_errors` records have been skipped.
    Lenient {
        /// Maximum number of skipped records before the read fails
        /// anyway (a wholly-garbage input should not be silently
        /// reduced to zero records when the operator expected data).
        max_errors: u64,
    },
}

impl ReadPolicy {
    /// Lenient with no practical skip limit.
    pub fn lenient() -> ReadPolicy {
        ReadPolicy::Lenient {
            max_errors: u64::MAX,
        }
    }

    /// True for any [`ReadPolicy::Lenient`] variant.
    pub fn is_lenient(&self) -> bool {
        matches!(self, ReadPolicy::Lenient { .. })
    }

    /// The skip budget: 0 under [`ReadPolicy::Strict`].
    pub fn max_errors(&self) -> u64 {
        match self {
            ReadPolicy::Strict => 0,
            ReadPolicy::Lenient { max_errors } => *max_errors,
        }
    }
}

/// What one read actually decoded — and what it had to leave behind.
///
/// A report is produced for every read, strict or lenient; a strict
/// read that succeeds simply reports itself clean. Multi-file tools
/// print the non-clean reports as a skipped-work summary.
#[derive(Debug, Clone, Default)]
pub struct ReadReport {
    /// The file this report describes, when known.
    pub path: Option<PathBuf>,
    /// Data records (snapshots + globals) decoded successfully.
    pub records: u64,
    /// Record blocks encountered in block-structured streams (CALB v2);
    /// 0 for text and v1 binary streams.
    pub blocks: u64,
    /// Blocks skipped wholesale because a pushed-down WHERE predicate
    /// proved no contained record could match (their records are not
    /// counted in `records`). A skip is an optimization, not an error —
    /// it never makes a report unclean.
    pub blocks_skipped: u64,
    /// Records (text lines / binary records) skipped as malformed.
    pub skipped: u64,
    /// Entries dropped because they referenced undeclared attribute or
    /// node ids (counted inside `skipped` records that carried them).
    pub dangling_dropped: u64,
    /// The stream ended mid-record (truncated file); the decoded prefix
    /// was kept.
    pub truncated: bool,
    /// The first [`MAX_REPORTED_ERRORS`] error messages, verbatim.
    pub errors: Vec<String>,
    /// Errors beyond the first [`MAX_REPORTED_ERRORS`] (counted only).
    pub suppressed_errors: u64,
}

impl ReadReport {
    /// A fresh report attributed to `path`.
    pub fn for_path(path: impl Into<PathBuf>) -> ReadReport {
        ReadReport {
            path: Some(path.into()),
            ..ReadReport::default()
        }
    }

    /// True when nothing was skipped, dropped, or truncated.
    pub fn is_clean(&self) -> bool {
        self.skipped == 0 && self.dangling_dropped == 0 && !self.truncated && self.errors.is_empty()
    }

    /// Record one error message (keeping the first few verbatim).
    pub fn note_error(&mut self, message: impl Into<String>) {
        if self.errors.len() < MAX_REPORTED_ERRORS {
            self.errors.push(message.into());
        } else {
            self.suppressed_errors += 1;
        }
    }

    /// Lenient-mode error disposition: count the skip and carry on while
    /// the budget lasts; propagate the error otherwise (and always under
    /// [`ReadPolicy::Strict`]).
    pub(crate) fn skip_or_fail(&mut self, e: CaliError, policy: ReadPolicy) -> Result<(), CaliError> {
        if !policy.is_lenient() {
            return Err(e);
        }
        self.skipped += 1;
        self.note_error(e.to_string());
        if self.skipped > policy.max_errors() {
            Err(e)
        } else {
            Ok(())
        }
    }

    /// Fold another report into this one (multi-file totals).
    pub fn absorb(&mut self, other: &ReadReport) {
        self.records += other.records;
        self.blocks += other.blocks;
        self.blocks_skipped += other.blocks_skipped;
        self.skipped += other.skipped;
        self.dangling_dropped += other.dangling_dropped;
        self.truncated |= other.truncated;
        for e in &other.errors {
            self.note_error(e.clone());
        }
        self.suppressed_errors += other.suppressed_errors;
    }

    /// One-line human-readable summary, e.g. for a stderr report.
    pub fn summary(&self) -> String {
        let name = self
            .path
            .as_ref()
            .map(|p| p.display().to_string())
            .unwrap_or_else(|| "<stream>".to_string());
        let mut line = format!(
            "{name}: {} records decoded, {} skipped",
            self.records, self.skipped
        );
        if self.dangling_dropped > 0 {
            line.push_str(&format!(", {} dangling-id drops", self.dangling_dropped));
        }
        if self.truncated {
            line.push_str(", truncated");
        }
        if let Some(first) = self.errors.first() {
            line.push_str(&format!("; first error: {first}"));
        }
        let more = self.errors.len().saturating_sub(1) as u64 + self.suppressed_errors;
        if more > 0 {
            line.push_str(&format!(" (+{more} more)"));
        }
        line
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strict_has_no_skip_budget() {
        assert_eq!(ReadPolicy::Strict.max_errors(), 0);
        assert!(!ReadPolicy::Strict.is_lenient());
        assert!(ReadPolicy::lenient().is_lenient());
        assert_eq!(ReadPolicy::lenient().max_errors(), u64::MAX);
    }

    #[test]
    fn report_caps_verbatim_errors() {
        let mut report = ReadReport::default();
        for i in 0..(MAX_REPORTED_ERRORS + 5) {
            report.note_error(format!("e{i}"));
        }
        assert_eq!(report.errors.len(), MAX_REPORTED_ERRORS);
        assert_eq!(report.suppressed_errors, 5);
        assert!(!report.is_clean());
    }

    #[test]
    fn summary_names_the_path() {
        let mut report = ReadReport::for_path("/tmp/x.cali");
        report.records = 3;
        report.skipped = 1;
        report.truncated = true;
        report.note_error("parse error at line 4: nope");
        let s = report.summary();
        assert!(s.contains("/tmp/x.cali"), "{s}");
        assert!(s.contains("3 records"), "{s}");
        assert!(s.contains("truncated"), "{s}");
        assert!(s.contains("nope"), "{s}");
    }

    #[test]
    fn absorb_accumulates() {
        let mut a = ReadReport {
            records: 2,
            ..Default::default()
        };
        let mut b = ReadReport {
            records: 3,
            skipped: 1,
            dangling_dropped: 4,
            truncated: true,
            ..Default::default()
        };
        b.note_error("x");
        a.absorb(&b);
        assert_eq!(a.records, 5);
        assert_eq!(a.skipped, 1);
        assert_eq!(a.dangling_dropped, 4);
        assert!(a.truncated);
        assert_eq!(a.errors, vec!["x"]);
    }
}
