//! Crash-safe snapshot journaling for the runtime: the `journal`
//! service, its process-wide flush hooks, and the configuration keys
//! that drive them.
//!
//! The on-line aggregation of §IV runs *inside* the measured
//! application: a crash or `kill -9` loses everything buffered since
//! startup, because [`Channel::take_dataset`] only runs at orderly
//! shutdown. With journaling enabled, every completed snapshot is also
//! appended — write-ahead — to an append-only `.cali` journal file
//! (see [`caliper_format::journal`]), so a dying process leaves a
//! valid record prefix on disk that `cali-recover` can salvage.
//!
//! Configuration keys (per channel):
//!
//! | key                      | meaning                                      |
//! |--------------------------|----------------------------------------------|
//! | `journal.enable`         | `true`/`false` (or list `journal` in `services`) |
//! | `journal.path`           | journal file path (required when enabled)    |
//! | `journal.flush_interval` | flush every N snapshots (default 1)          |
//! | `journal.max_buffer`     | byte cap forcing an early flush (default 1 MiB) |
//! | `journal.fsync`          | `fsync` after each flush (default false)     |
//! | `journal.append`         | resume an existing journal instead of truncating |
//!
//! Durability is layered: a *flush* survives process death (the
//! records are in the page cache), `fsync` additionally survives OS
//! death. Three flush triggers exist beyond the interval — the
//! `max_buffer` byte cap (backpressure, counted as forced), a
//! process-level panic hook that drains every live sink before the
//! panic propagates, and best-effort flushes on channel flush/drop.
//!
//! Every journaled snapshot is stamped with a monotonically increasing
//! `journal.seq` attribute; recovery uses it to deduplicate a
//! double-written tail and to detect mid-stream gaps.
//!
//! [`Channel::take_dataset`]: crate::runtime::Channel::take_dataset

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Once, Weak};

use caliper_data::{Attribute, AttributeStore, ContextTree, FlatRecord, Properties, SnapshotRecord, Value, ValueType};
use caliper_format::journal::{
    recover_file_blocks, FlushPolicy, JournalCounters, JournalWriter, SEQ_ATTR,
};
use caliper_format::{CaliReader, Dataset, ReadPolicy};
use parking_lot::Mutex;

use crate::config::{Config, ConfigError};
use crate::services::{ProcCtx, Service};

/// Validated journal configuration for one channel.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalConfig {
    /// Journal file path (`journal.path`).
    pub path: PathBuf,
    /// When the writer drains: `journal.flush_interval` (min 1),
    /// `journal.max_buffer` and `journal.fsync`.
    pub policy: FlushPolicy,
    /// Append to an existing journal instead of truncating
    /// (`journal.append`); the sequence resumes after the highest
    /// recovered sequence number.
    pub append: bool,
}

fn key_error(key: &str, message: impl std::fmt::Display) -> ConfigError {
    ConfigError::for_key(key, message.to_string())
}

impl JournalConfig {
    /// Read and validate the `journal.*` keys of a channel profile.
    /// Returns `Ok(None)` when journaling is not enabled; malformed
    /// values and a missing `journal.path` are [`ConfigError`]s.
    pub fn from_config(config: &Config) -> Result<Option<JournalConfig>, ConfigError> {
        let enabled =
            config.try_bool("journal.enable", false)? || config.service_enabled("journal");
        if !enabled {
            // Still validate the keys so a typo'd profile with
            // journaling later switched on does not change meaning.
            config.try_u64("journal.flush_interval", 1)?;
            config.try_u64("journal.max_buffer", 1 << 20)?;
            config.try_bool("journal.fsync", false)?;
            config.try_bool("journal.append", false)?;
            return Ok(None);
        }
        let path = config
            .get("journal.path")
            .map(str::trim)
            .filter(|p| !p.is_empty())
            .ok_or_else(|| {
                key_error(
                    "journal.path",
                    "journaling is enabled but journal.path names no file",
                )
            })?;
        let flush_interval = config.try_u64("journal.flush_interval", 1)?;
        if flush_interval == 0 {
            return Err(key_error("journal.flush_interval", "must be at least 1"));
        }
        Ok(Some(JournalConfig {
            path: PathBuf::from(path),
            policy: FlushPolicy {
                flush_interval,
                max_buffer: config.try_u64("journal.max_buffer", 1 << 20)? as usize,
                fsync: config.try_bool("journal.fsync", false)?,
            },
            append: config.try_bool("journal.append", false)?,
        }))
    }
}

/// A point-in-time snapshot of a journal sink's accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalStats {
    /// Journal file path.
    pub path: PathBuf,
    /// What the writer has done: records appended and made durable,
    /// flushes (forced ones among them), `fsync`s, and the transient
    /// errors absorbed by bounded retry ([`caliper_format::retry`]).
    /// All zero once the sink has shut down.
    pub counters: JournalCounters,
    /// Next sequence number to be assigned.
    pub next_seq: u64,
    /// Write errors observed (the sink disables itself on the first).
    pub write_errors: u64,
    /// True once the sink shut down after a write error.
    pub disabled: bool,
}

struct SinkInner {
    /// `None` after a write error permanently disabled the sink.
    writer: Option<JournalWriter>,
    /// Context dataset sharing the process store/tree, so the journal
    /// writer can resolve the ids a snapshot references.
    ctx: Dataset,
    /// The record being appended, stamped with its sequence number: the
    /// snapshot's entries are copied into this one buffer, reused.
    stamped: SnapshotRecord,
    next_seq: u64,
    write_errors: u64,
}

/// The per-channel journal sink: serializes appends from all of the
/// channel's thread scopes into one append-only journal file.
///
/// The sink never panics and never returns errors into the measured
/// application: an I/O failure disables journaling for the rest of the
/// run (reported once on stderr and visible in [`JournalStats`]).
pub struct JournalSink {
    path: PathBuf,
    /// The path as the `runtime.append` failpoint's label, and its key.
    label: String,
    key: u64,
    seq_attr: Attribute,
    /// Fast-path check so disabled sinks cost one atomic load.
    disabled: AtomicBool,
    inner: Mutex<SinkInner>,
}

impl JournalSink {
    /// Open the journal file and build a sink over the process store
    /// and tree. With `append`, an existing journal is first recovered
    /// (leniently) to find the highest sequence number, so resumed
    /// records extend rather than collide with the previous
    /// incarnation's.
    pub fn create(
        cfg: &JournalConfig,
        store: &Arc<AttributeStore>,
        tree: &Arc<ContextTree>,
    ) -> std::io::Result<Arc<JournalSink>> {
        let seq_attr = store
            .create(SEQ_ATTR, ValueType::UInt, Properties::AS_VALUE)
            .map_err(|e| std::io::Error::other(format!("cannot intern {SEQ_ATTR}: {e}")))?;
        let mut next_seq = 0;
        let writer = if cfg.append {
            // Only the sequence is wanted: the salvaged blocks are
            // dropped as they come, never made into rows.
            let (mut reader, policy) = (CaliReader::new(), ReadPolicy::lenient());
            let drop_blocks = &mut |_: &mut _, _: &mut _, _: &mut _| {};
            if let Ok(report) = recover_file_blocks(&mut reader, &cfg.path, policy, None, drop_blocks) {
                next_seq = report.max_seq.map(|m| m + 1).unwrap_or(0);
            }
            JournalWriter::open_append(&cfg.path, cfg.policy)?
        } else {
            JournalWriter::create(&cfg.path, cfg.policy)?
        };
        let label = cfg.path.to_string_lossy().into_owned();
        let sink = Arc::new(JournalSink {
            path: cfg.path.clone(),
            key: caliper_faults::stable_hash(&label),
            label,
            seq_attr,
            disabled: AtomicBool::new(false),
            inner: Mutex::new(SinkInner {
                writer: Some(writer),
                ctx: Dataset::with_context(Arc::clone(store), Arc::clone(tree)),
                stamped: SnapshotRecord::new(),
                next_seq,
                write_errors: 0,
            }),
        });
        register_sink(&sink);
        Ok(sink)
    }

    /// The journal file path.
    pub fn path(&self) -> &std::path::Path {
        &self.path
    }

    /// Append one completed snapshot, stamped with the next sequence
    /// number. Never panics; a write error disables the sink.
    pub fn append(&self, record: &SnapshotRecord) {
        if self.disabled.load(Ordering::Relaxed) {
            return;
        }
        let mut inner = self.inner.lock();
        let SinkInner {
            writer: Some(writer),
            ctx,
            stamped,
            next_seq,
            ..
        } = &mut *inner
        else {
            return;
        };
        // The `runtime.append` failpoint, keyed by journal path: an
        // injected error takes the same road as a real one — through
        // `disable`, never a panic into the measured application.
        if caliper_faults::trigger(caliper_faults::sites::RUNTIME_APPEND, self.key, &self.label)
            .is_some()
        {
            let e = std::io::Error::other(format!(
                "injected fault at {}",
                caliper_faults::sites::RUNTIME_APPEND
            ));
            self.disable(&mut inner, e);
            return;
        }
        stamped.clone_from(record);
        stamped.push_imm(self.seq_attr.id(), Value::UInt(*next_seq));
        match writer.append_snapshot(ctx, stamped) {
            Ok(()) => *next_seq += 1,
            Err(e) => self.disable(&mut inner, e),
        }
    }

    /// Append a dataset-global metadata record (unsequenced — globals
    /// are idempotent key/value pairs, so a double-written tail is
    /// harmless).
    pub fn append_globals(&self, record: &FlatRecord) {
        if self.disabled.load(Ordering::Relaxed) {
            return;
        }
        let mut inner = self.inner.lock();
        let SinkInner {
            writer: Some(writer),
            ctx,
            ..
        } = &mut *inner
        else {
            return;
        };
        if let Err(e) = writer.append_globals(ctx, record) {
            self.disable(&mut inner, e);
        }
    }

    /// Drain buffered records to the file. Called from thread-scope
    /// flushes, [`Channel::take_dataset`], the process panic hook, and
    /// drop. Never panics.
    ///
    /// [`Channel::take_dataset`]: crate::runtime::Channel::take_dataset
    pub fn flush(&self) {
        if self.disabled.load(Ordering::Relaxed) {
            return;
        }
        let mut inner = self.inner.lock();
        if let Some(writer) = inner.writer.as_mut() {
            if let Err(e) = writer.flush() {
                self.disable(&mut inner, e);
            }
        }
    }

    fn disable(&self, inner: &mut SinkInner, error: std::io::Error) {
        inner.write_errors += 1;
        inner.writer = None; // drop closes the file
        self.disabled.store(true, Ordering::Relaxed);
        // Report once; the runtime must never abort the target program
        // over a journaling failure.
        eprintln!(
            "caliper: journal {}: write error, journaling disabled: {error}",
            self.path.display()
        );
    }

    /// Current accounting.
    pub fn stats(&self) -> JournalStats {
        let inner = self.inner.lock();
        JournalStats {
            path: self.path.clone(),
            counters: inner.writer.as_ref().map(|w| w.counters()).unwrap_or_default(),
            next_seq: inner.next_seq,
            write_errors: inner.write_errors,
            disabled: self.disabled.load(Ordering::Relaxed),
        }
    }
}

impl Drop for JournalSink {
    fn drop(&mut self) {
        // Best-effort final drain (JournalWriter's own drop also
        // flushes; doing it here keeps the accounting consistent).
        self.flush();
    }
}

impl std::fmt::Debug for JournalSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JournalSink({})", self.path.display())
    }
}

// ---- process-wide flush hooks ----

/// Live journal sinks, flushed by the panic hook. Weak references so
/// the registry never keeps a journal (or its file handle) alive.
static SINKS: Mutex<Vec<Weak<JournalSink>>> = Mutex::new(Vec::new());
static HOOK: Once = Once::new();

fn register_sink(sink: &Arc<JournalSink>) {
    let mut sinks = SINKS.lock();
    sinks.retain(|w| w.strong_count() > 0);
    sinks.push(Arc::downgrade(sink));
    drop(sinks);
    HOOK.call_once(install_panic_hook);
}

/// Flush every live journal sink in the process; returns how many were
/// flushed. Called by the panic hook; also useful right before an
/// explicit `abort()`.
pub fn flush_all_journals() -> usize {
    // Snapshot the registry and release its lock before flushing, so a
    // sink's own locking cannot deadlock against registration.
    let sinks: Vec<Weak<JournalSink>> = SINKS.lock().clone();
    let mut flushed = 0;
    for weak in sinks {
        if let Some(sink) = weak.upgrade() {
            sink.flush();
            flushed += 1;
        }
    }
    flushed
}

fn install_panic_hook() {
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        // Drain the journals first: the previous hook may print a
        // backtrace and the process may abort right after.
        flush_all_journals();
        previous(info);
    }));
}

// ---- the journal service ----

/// The `journal` service: a per-thread consumer that forwards every
/// completed snapshot to the channel's shared [`JournalSink`].
pub struct JournalService {
    sink: Arc<JournalSink>,
}

impl JournalService {
    /// Create a service instance forwarding to `sink`.
    pub fn new(sink: Arc<JournalSink>) -> JournalService {
        JournalService { sink }
    }
}

impl Service for JournalService {
    fn name(&self) -> &'static str {
        "journal"
    }

    fn consume(&mut self, _ctx: &ProcCtx<'_>, rec: &SnapshotRecord) {
        self.sink.append(rec);
    }

    fn flush(&mut self, _ctx: &ProcCtx<'_>, _out: &mut Dataset) {
        // The journal's output lives in its file, not the dataset;
        // thread flush just drains the shared buffer.
        self.sink.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> Config {
        Config::new()
            .set("services", "event,timer")
            .set("journal.enable", "true")
            .set("journal.path", "/tmp/x.cali")
    }

    #[test]
    fn config_defaults_and_overrides() {
        let cfg = JournalConfig::from_config(&base()).unwrap().unwrap();
        assert_eq!(cfg.policy.flush_interval, 1);
        assert_eq!(cfg.policy.max_buffer, 1 << 20);
        assert!(!cfg.policy.fsync);
        assert!(!cfg.append);

        let cfg = JournalConfig::from_config(
            &base()
                .set("journal.flush_interval", "64")
                .set("journal.fsync", "1")
                .set("journal.append", "true"),
        )
        .unwrap()
        .unwrap();
        assert_eq!(cfg.policy.flush_interval, 64);
        assert!(cfg.policy.fsync);
        assert!(cfg.append);

        // `journal` in the services list also enables it.
        let cfg = JournalConfig::from_config(
            &Config::new()
                .set("services", "event,journal")
                .set("journal.path", "j.cali"),
        )
        .unwrap();
        assert!(cfg.is_some());

        assert!(JournalConfig::from_config(&Config::new())
            .unwrap()
            .is_none());
    }

    #[test]
    fn config_errors_are_descriptive() {
        let err = JournalConfig::from_config(&Config::new().set("journal.enable", "true"))
            .unwrap_err();
        assert!(err.message.contains("journal.path"), "{err}");
        assert_eq!(err.line, 0);

        let err = JournalConfig::from_config(&base().set("journal.flush_interval", "soon"))
            .unwrap_err();
        assert!(err.message.contains("journal.flush_interval"), "{err}");
        assert!(err.to_string().contains("soon"), "{err}");

        let err = JournalConfig::from_config(&base().set("journal.fsync", "yes")).unwrap_err();
        assert!(err.message.contains("journal.fsync"), "{err}");

        let err =
            JournalConfig::from_config(&base().set("journal.flush_interval", "0")).unwrap_err();
        assert!(err.message.contains("at least 1"), "{err}");

        // Malformed journal keys are rejected even while disabled.
        let err = JournalConfig::from_config(
            &Config::new().set("journal.flush_interval", "nope"),
        )
        .unwrap_err();
        assert!(err.message.contains("journal.flush_interval"), "{err}");
    }

    #[test]
    fn write_error_disables_the_sink_without_panicking() {
        let store = Arc::new(AttributeStore::new());
        let tree = Arc::new(ContextTree::new());
        let cfg = JournalConfig {
            path: PathBuf::from("/dev/full"),
            policy: FlushPolicy::default(),
            append: false,
        };
        // /dev/full accepts open but fails writes; skip the test where
        // it does not exist.
        let Ok(sink) = JournalSink::create(&cfg, &store, &tree) else {
            return;
        };
        let rec = SnapshotRecord::new();
        sink.append(&rec);
        sink.append(&rec); // no-op after disable
        let stats = sink.stats();
        assert!(stats.disabled);
        assert_eq!(stats.write_errors, 1);
    }
}
