//! Determinism of the event engine at scale, pinned against golden
//! values: a 4096-rank resilient reduction under a seeded kill plan
//! must produce byte-identical output run-to-run and across worker-pool
//! sizes, with the exact same virtual-clock event count — a scheduler
//! change that reorders anything observable fails loudly here.

use std::time::{Duration, Instant};

use mpisim::{
    EventEngine, Executor, FaultPlan, ReduceCoverage, ReduceTask, ResilienceOptions, SchedStats,
    Topology,
};

const RANKS: usize = 4096;
const KILL_SEED: u64 = 42;
const KILLS: usize = 7;

/// Golden values for (RANKS, KILL_SEED, KILLS) with default options and
/// the default 1 µs latency. If a deliberate scheduler change shifts
/// them, re-pin from `fig4 --ranks 4096 --kills 7 --kill-seed 42`.
const GOLDEN_SUM: u64 = 8_355_832;
const GOLDEN_INCLUDED: usize = 4_080;
const GOLDEN_EVENTS: u64 = 12_281;
const GOLDEN_VIRTUAL_NS: u64 = 8_400_009_000;
/// Of the 7 scheduled kills, only 3 land — the rest name an op index
/// their victim never reaches — and those 3 subtrees cover 16 ranks.
const GOLDEN_RANKS_LOST: u64 = 3;

fn scaled_run(workers: usize) -> (String, SchedStats) {
    let engine = EventEngine::with_workers(workers);
    let plan = FaultPlan::seeded_kills(KILL_SEED, KILLS, RANKS);
    let opts = ResilienceOptions::default();
    let (outs, stats) = engine.run_tasks_with_stats(RANKS, plan, move |rank, size| {
        ReduceTask::new(
            rank,
            size,
            Topology::Flat,
            move || rank as u64,
            |a, b| a + b,
            opts,
        )
    });
    (format!("{outs:?}"), stats)
}

#[test]
fn golden_4096_rank_run_is_pinned() {
    let (rendered, stats) = scaled_run(1);
    assert_eq!(stats.events, GOLDEN_EVENTS);
    assert_eq!(stats.virtual_time_ns, GOLDEN_VIRTUAL_NS);
    assert_eq!(stats.ranks_lost, GOLDEN_RANKS_LOST);
    assert!(
        rendered.contains(&GOLDEN_SUM.to_string()),
        "golden sum in output"
    );

    let plan = FaultPlan::seeded_kills(KILL_SEED, KILLS, RANKS);
    let opts = ResilienceOptions::default();
    let (mut outs, _) = EventEngine::new().run_tasks_with_stats(RANKS, plan, move |rank, size| {
        ReduceTask::new(
            rank,
            size,
            Topology::Flat,
            move || rank as u64,
            |a, b| a + b,
            opts,
        )
    });
    let (sum, coverage) = outs[0].take().expect("root survives").expect("root output");
    assert_eq!(sum, GOLDEN_SUM);
    assert_eq!(coverage.included.len(), GOLDEN_INCLUDED);
    assert_eq!(coverage.lost.len(), RANKS - GOLDEN_INCLUDED);
}

#[test]
fn repeated_runs_are_byte_identical() {
    let (a, stats_a) = scaled_run(1);
    let (b, stats_b) = scaled_run(1);
    assert_eq!(a, b, "same seed, same bytes");
    assert_eq!(stats_a, stats_b, "same seed, same virtual-clock accounting");
}

#[test]
fn worker_pool_size_is_invisible_at_scale() {
    let (base, base_stats) = scaled_run(1);
    for workers in [2, 4] {
        let (out, stats) = scaled_run(workers);
        assert_eq!(out, base, "workers {workers}");
        assert_eq!(stats, base_stats, "workers {workers}");
    }
}

/// Per-rank outputs of a reduction over [`Bulky`] values.
type BulkyOutputs = Vec<Option<Option<(Bulky, ReduceCoverage)>>>;

/// A payload the size of a real partial's bookkeeping: 512 bytes a
/// rank, carried in its task, its accumulator and its output.
type Bulky = [u64; 64];

/// The pinned run with a [`Bulky`] value per rank — element `i` of rank
/// `r` is `r × (i + 1)` — summed element-wise.
fn bulky_run(workers: usize) -> (BulkyOutputs, SchedStats) {
    let engine = EventEngine::with_workers(workers);
    let plan = FaultPlan::seeded_kills(KILL_SEED, KILLS, RANKS);
    let opts = ResilienceOptions::default();
    engine.run_tasks_with_stats(RANKS, plan, move |rank, size| {
        ReduceTask::new(
            rank,
            size,
            Topology::Flat,
            move || -> Bulky { std::array::from_fn(|i| (rank * (i + 1)) as u64) },
            |mut a: Bulky, b: Bulky| {
                for (a, b) in a.iter_mut().zip(b) {
                    *a += b;
                }
                a
            },
            opts,
        )
    })
}

/// The scheduler steps each rank's state where it lies, so what a task
/// carries cannot change what the run does: the same events, makespan
/// and losses as the `u64` run, and the same bytes at any pool size.
#[test]
fn a_bulky_payload_changes_nothing_observable() {
    let (outs, stats) = bulky_run(1);
    assert_eq!(stats, scaled_run(1).1, "the u64 run's accounting");
    assert_eq!(stats.events, GOLDEN_EVENTS);
    assert_eq!(stats.virtual_time_ns, GOLDEN_VIRTUAL_NS);
    assert_eq!(stats.ranks_lost, GOLDEN_RANKS_LOST);
    let root = outs[0].as_ref().expect("root survives");
    let (sum, coverage) = root.as_ref().expect("root output");
    for (i, &element) in sum.iter().enumerate() {
        assert_eq!(element, GOLDEN_SUM * (i as u64 + 1), "element {i}");
    }
    assert_eq!(coverage.included.len(), GOLDEN_INCLUDED);

    let base = format!("{outs:?}");
    for workers in [2, 4] {
        let (outs, other) = bulky_run(workers);
        assert_eq!(format!("{outs:?}"), base, "workers {workers}");
        assert_eq!(other, stats, "workers {workers}");
    }
}

/// The `recv_timeout` busy-wait regression: a parent whose child is
/// delayed for 30 *virtual* seconds — past the first receive timeout,
/// so retry timers actually fire — must complete with full coverage in
/// wall-clock milliseconds. Under the event engine, timeouts are heap
/// events; nothing spins or sleeps.
#[test]
fn delayed_parent_scenario_completes_without_wall_clock_spin() {
    let wall = Instant::now();
    let opts = ResilienceOptions {
        timeout: Duration::from_secs(20),
        retries: 2,
        backoff: Duration::from_secs(5),
    };
    let plan = FaultPlan::new().delay(1, 0, Duration::from_secs(30));
    let (mut outs, stats) = EventEngine::new().run_tasks_with_stats(2, plan, move |rank, size| {
        ReduceTask::new(
            rank,
            size,
            Topology::Flat,
            move || rank as u64,
            |a, b| a + b,
            opts,
        )
    });
    let (sum, coverage) = outs[0].take().expect("root survives").expect("root output");
    assert_eq!(sum, 1);
    assert!(coverage.is_complete(), "straggler arrives during a retry");
    assert!(
        stats.timeouts >= 1,
        "the first 20 s timer must actually fire"
    );
    assert!(stats.virtual_time_ns >= 30_000_000_000);
    assert!(
        wall.elapsed() < Duration::from_secs(5),
        "30 virtual seconds must cost no wall-clock spin (took {:?})",
        wall.elapsed()
    );
}

/// FNV-1a over `text`: a 64-bit digest that is the same on every build
/// and platform, unlike `std`'s hashers.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
    })
}

const ORDER_RANKS: usize = 512;

/// Seeded kills plus four stragglers: rank 3 sends 300 ms late (its
/// parent's first 250 ms receive times out and the retry takes it),
/// rank 6 sends its level-1 partial 700 ms late (past that level's
/// 500 ms timeout), and rank 17 sends 2 s late, past every retry, so
/// its parent writes it off and the message lands on a rank that has
/// moved on. Rank 9's message reaches rank 8 at the very nanosecond
/// rank 8's first receive times out: the timer was scheduled first, so
/// it fires first and the retry takes the message. Every satisfied
/// receive leaves a stale timer behind.
fn order_plan() -> FaultPlan {
    FaultPlan::seeded_kills(11, 5, ORDER_RANKS)
        .delay(3, 0, Duration::from_millis(300))
        .delay(9, 0, Duration::from_micros(249_999))
        .delay(6, 1, Duration::from_millis(700))
        .delay(17, 0, Duration::from_millis(2_000))
}

/// The traced run under [`order_plan`], and a digest of everything it
/// observed: the happens-before trace (every rank's events in program
/// order, with their virtual timestamps), the scheduler's stats and the
/// outputs.
fn order_run(topology: Topology, workers: usize) -> (u64, SchedStats) {
    let opts = ResilienceOptions::default();
    let make = move |rank: usize, size: usize| {
        ReduceTask::new(
            rank,
            size,
            topology,
            move || rank as u64,
            |a: u64, b: u64| a + b,
            opts,
        )
    };
    let run = EventEngine::with_workers(workers).run(ORDER_RANKS, order_plan(), make, true);
    let stats = run.stats.expect("the event engine counts");
    let observed = format!("{:?}\n{stats:?}\n{:?}", run.trace, run.outputs);
    (fnv1a(&observed), stats)
}

/// The order in which events are processed, not just how many: a
/// digest of the trace, stats and outputs of a 512-rank run with kills,
/// retries, written-off stragglers, a timer and a delivery due at the
/// same nanosecond, and stale timers, in both topologies, pinned to
/// what the binary-heap scheduler produced and held at every pool size.
#[test]
fn the_event_order_is_pinned() {
    let cases = [
        (Topology::Flat, GOLDEN_ORDER_FLAT),
        (Topology::two_level_for(ORDER_RANKS, 24), GOLDEN_ORDER_NODES),
    ];
    for (topology, golden) in cases {
        for workers in [1, 2, 4] {
            let (digest, stats) = order_run(topology, workers);
            assert!(
                stats.timeouts > 0 && stats.stale_timers > 0,
                "{topology:?}: {stats:?}"
            );
            assert!(stats.ranks_lost > 0, "{topology:?}: {stats:?}");
            assert_eq!(digest, golden, "{topology:?}, {workers} workers: {stats:?}");
        }
    }
}

/// [`order_run`]'s digests, taken from the scheduler that kept its
/// events in a binary heap ordered by `(time, sequence number)`: the
/// flat tree (1 528 events, 13 timeouts, 494 stale timers) and nodes of
/// 22 ranks (1 504 events, 12 timeouts, 471 stale timers).
const GOLDEN_ORDER_FLAT: u64 = 2_022_280_084_965_057_015;
const GOLDEN_ORDER_NODES: u64 = 11_919_461_464_603_791_174;
