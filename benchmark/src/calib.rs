//! Machine-speed calibration for the end-to-end timings.
//!
//! The box this benchmark runs on is shared. For minutes at a time its
//! neighbours slow it down, in bursts of about a second: the same
//! `cali-query` run takes 130 ms or 190 ms, the same batch is
//! acknowledged in 235 µs or 400 µs, and ten runs of one commit that
//! meet such a stretch differ by more than any bound a regression gate
//! could use. The slowdown is not uniform either: a chain of dependent
//! integer operations loses 1.25x where string handling, hashing and
//! allocation lose 1.6x.
//!
//! So every timed sample is taken *between* passes of a fixed kernel
//! of the harness's own — the dependent chain plus a tokenise / hash /
//! allocate loop, like the parsers and hash tables under test — and is
//! reported *at reference speed*: `raw × speed`, where `speed` is the
//! kernel's reference time ÷ its time in the passes around that very
//! sample. A metric is the median of its samples at reference speed.
//! Measured over eleven runs in a bad stretch, that took the quartile
//! spread of the ack time from 13.5 % raw (9.5 % with one speed per run
//! from the chain alone) to 4 %, and its range from 40 % to 12 %.
//!
//! The kernel is this package's code, so a change to the repository
//! cannot move it: a real regression shows in full, while a slow spell
//! of the machine cancels to first order. The raw median and the run's
//! median speed are printed beside every metric. Timer-bound metrics
//! (`query_p50_ms`, which is mostly the daemon's 10 ms accept poll) are
//! reported raw.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Nanoseconds one kernel pass takes at reference speed.
const REFERENCE_NS: f64 = 1_436_000.0;
/// Dependent steps of the chain per kernel pass.
const STEPS: usize = 160_000;
/// Text records the tokenise / hash / allocate loop reads per pass.
const RECORDS: u32 = 4_000;
/// Kernel passes on each side of a bracketed measurement.
const PASSES: usize = 2;
/// A trailing group of passes this fresh also opens the next bracket.
const FRESH: Duration = Duration::from_millis(5);

/// One timed sample and the machine's speed around it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timed {
    /// What the clock read, seconds (or any unit of time).
    pub raw: f64,
    /// Reference kernel time ÷ kernel time in the passes around it.
    pub speed: f64,
}

impl Timed {
    /// The sample at reference speed.
    pub fn at_reference(&self) -> f64 {
        self.raw * self.speed
    }
}

/// The raw readings of `samples`.
pub fn raw(samples: &[Timed]) -> Vec<f64> {
    samples.iter().map(|t| t.raw).collect()
}

/// Measures the machine's speed around each sample with a fixed kernel.
pub struct Calibrator {
    table: Vec<u32>,
    text: Vec<u8>,
    pass_ns: RefCell<Vec<f64>>,
    /// When the latest group of passes ended, and its mean pass time.
    latest: Cell<Option<(Instant, f64)>>,
}

impl Calibrator {
    /// A calibrator with its 64 KiB lookup table and its text filled.
    pub fn new() -> Calibrator {
        let mut x = 0x9E37_79B9u32;
        let table = (0..16_384)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                x
            })
            .collect();
        let text = (0..RECORDS)
            .flat_map(|i| {
                format!(
                    "kernel={},rank={},iter={},time={}\n",
                    i % 85,
                    i % 32,
                    i / 85,
                    i * 37
                )
                .into_bytes()
            })
            .collect();
        Calibrator {
            table,
            text,
            pass_ns: RefCell::new(Vec::new()),
            latest: Cell::new(None),
        }
    }

    /// One pass: a chain of dependent table loads, shifts and
    /// multiplies, then `key=value` records split, their keys copied to
    /// the heap and their values summed in a hash map.
    fn kernel(&self) -> u64 {
        let mut x = 1u32;
        for _ in 0..STEPS {
            x = (x ^ self.table[(x >> 18) as usize])
                .wrapping_mul(0x85EB_CA6B)
                .rotate_left(13);
        }
        let mut sums: HashMap<String, u64> = HashMap::new();
        for record in self.text.split(|&b| b == b'\n') {
            for field in record.split(|&b| b == b',') {
                if let Some(eq) = field.iter().position(|&b| b == b'=') {
                    let key = String::from_utf8_lossy(&field[..eq]).into_owned();
                    let value = field[eq + 1..].iter().fold(0u64, |n, &digit| {
                        n.wrapping_mul(10).wrapping_add(u64::from(digit - b'0'))
                    });
                    *sums.entry(key).or_insert(0) += value;
                }
            }
        }
        u64::from(x) ^ sums.values().sum::<u64>()
    }

    /// Mean pass time, nanoseconds, of a group of passes run now.
    fn group(&self) -> f64 {
        let mut total = 0.0;
        for _ in 0..PASSES {
            let start = Instant::now();
            black_box(self.kernel());
            let ns = start.elapsed().as_nanos() as f64;
            self.pass_ns.borrow_mut().push(ns);
            total += ns;
        }
        self.latest
            .set(Some((Instant::now(), total / PASSES as f64)));
        total / PASSES as f64
    }

    /// Run `f` between kernel passes; returns its result and the
    /// machine's speed around it. Back-to-back brackets share the group
    /// of passes between them.
    pub fn bracket<R>(&self, f: impl FnOnce() -> R) -> (R, f64) {
        let before = match self.latest.get() {
            Some((at, ns)) if at.elapsed() < FRESH => ns,
            _ => self.group(),
        };
        let out = f();
        let after = self.group();
        (out, REFERENCE_NS / ((before + after) / 2.0))
    }

    /// Bracket `f`, which returns the time it measured.
    pub fn time(&self, f: impl FnOnce() -> f64) -> Timed {
        let (raw, speed) = self.bracket(f);
        Timed { raw, speed }
    }

    /// Forget the passes of an earlier run.
    pub fn reset(&self) {
        self.pass_ns.borrow_mut().clear();
        self.latest.set(None);
    }

    /// The machine's speed over all passes of the run so far, relative
    /// to the reference (1.0); 1.0 before any pass. For the report: the
    /// metrics use the speed around each sample.
    pub fn speed(&self) -> f64 {
        let passes = self.pass_ns.borrow();
        if passes.is_empty() {
            1.0
        } else {
            REFERENCE_NS / crate::stats::median(&passes)
        }
    }
}
