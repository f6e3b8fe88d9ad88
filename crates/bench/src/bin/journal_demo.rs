//! Crash-recovery demo: the CleverLeaf workload with write-ahead
//! snapshot journaling enabled.
//!
//! Runs one rank of the instrumented CleverLeaf model on a virtual
//! clock and journals every event snapshot to `--journal PATH`. With
//! `--pace SCALE` the run additionally sleeps `SCALE` × the modelled
//! nanoseconds per work item, stretching the run across real time
//! *without changing a byte of the collected data* — so a `kill -9`
//! mid-run leaves a journal that is an exact prefix of an unpaced
//! clean run's. `scripts/check.sh` uses this for its crash-recovery
//! smoke test:
//!
//! ```text
//! journal_demo --journal clean.cali                  # full run
//! journal_demo --journal torn.cali --pace 2e-4 &     # paced run
//! sleep 2; kill -9 $!                                # die mid-run
//! cali-recover -o recovered.cali torn.cali           # salvage
//! ```
//!
//! Usage: `journal_demo --journal PATH [--timesteps N]
//! [--flush-interval N] [--fsync] [--append] [--pace SCALE]`

use std::process::ExitCode;

use caliper_runtime::{Caliper, Clock, Config};
use miniapps::cleverleaf::{CleverLeaf, WorkMode};
use miniapps::model::CleverLeafParams;

fn fail(message: impl std::fmt::Display) -> ExitCode {
    eprintln!("journal_demo: {message}");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let mut journal: Option<String> = None;
    let mut timesteps: u64 = 40;
    let mut flush_interval: u64 = 1;
    let mut fsync = false;
    let mut append = false;
    let mut pace: f64 = 0.0;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value_of = |flag: &str| {
            args.next()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--journal" => match value_of("--journal") {
                Ok(v) => journal = Some(v),
                Err(e) => return fail(e),
            },
            "--timesteps" => match value_of("--timesteps").map(|v| v.parse()) {
                Ok(Ok(v)) => timesteps = v,
                _ => return fail("--timesteps needs an unsigned integer"),
            },
            "--flush-interval" => match value_of("--flush-interval").map(|v| v.parse()) {
                Ok(Ok(v)) => flush_interval = v,
                _ => return fail("--flush-interval needs an unsigned integer"),
            },
            "--pace" => match value_of("--pace").map(|v| v.parse()) {
                Ok(Ok(v)) => pace = v,
                _ => return fail("--pace needs a float scale factor"),
            },
            "--fsync" => fsync = true,
            "--append" => append = true,
            other => return fail(format!("unknown argument '{other}'")),
        }
    }
    let Some(journal) = journal else {
        return fail("--journal PATH is required");
    };

    let config = Config::new()
        .set("services", "event,timer")
        .set("journal.enable", "true")
        .set("journal.path", &journal)
        .set("journal.flush_interval", &flush_interval.to_string())
        .set("journal.fsync", if fsync { "true" } else { "false" })
        .set("journal.append", if append { "true" } else { "false" });
    let caliper = match Caliper::try_with_clock(config, Clock::virtual_clock()) {
        Ok(caliper) => caliper,
        Err(e) => return fail(e),
    };

    let app = CleverLeaf::new(CleverLeafParams {
        timesteps: timesteps as usize,
        ranks: 1,
        ..CleverLeafParams::default()
    });
    let mode = if pace > 0.0 {
        WorkMode::Paced { scale: pace }
    } else {
        WorkMode::Virtual
    };
    app.run_rank(0, &caliper, mode);

    caliper.take_dataset(); // flushes the journal
    if let Some(sink) = caliper.default_channel().journal() {
        let stats = sink.stats();
        let counters = &stats.counters;
        eprintln!(
            "journal_demo: {} snapshots journaled to {} ({} flushes, {} forced, {} syncs)",
            counters.durable,
            journal,
            counters.flushes,
            counters.forced_flushes,
            counters.syncs
        );
        if stats.disabled {
            return fail("journaling was disabled by a write error");
        }
    }
    ExitCode::SUCCESS
}
