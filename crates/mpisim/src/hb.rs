//! Offline happens-before analysis of communication traces.
//!
//! This module turns an [`HbTrace`] (recorded by either engine; see
//! [`crate::trace`]) into a *proof-shaped* report about the
//! communication schedule, extending the workspace's static-analysis
//! story (`cali-query --check` / `cali-lint` over queries) to the
//! simulated MPI layer. Where the determinism tests *sample* schedules
//! (run twice, byte-compare), the analyzer *derives* the
//! happens-before partial order with per-rank **vector clocks**
//! ([`VClock`]) and checks properties of every schedule consistent
//! with the recorded causality:
//!
//! * **message races** — a wildcard receive for which two or more
//!   HB-concurrent in-flight sends were candidates: which one matches
//!   is schedule-dependent (`M001`; `N002` when the candidates are
//!   HB-ordered and only causal delivery order protects the match);
//! * **wait-cycle deadlocks** — ranks blocked in unbounded receives
//!   forming a cycle (`M002`) or waiting on peers that can never send
//!   (`M003`), reported as a structured diagnostic naming the exact
//!   cycle;
//! * **timeout hazards** — a receive that gave up at its deadline while
//!   its only matching send was still in flight (the send HB-follows
//!   the timeout): under the given fault plan the data silently turns
//!   into a lost subtree (`N001`);
//! * **dead letters** — messages sent to a rank that finished without
//!   consuming them (`N003`).
//!
//! The happens-before relation is the transitive closure of per-rank
//! program order, send→match edges, and kill-propagation edges (a
//! refused send joins the dead peer's frozen clock — the observer
//! learned of the death). Clocks are *sparse*: a rank's clock carries
//! entries only for ranks in its causal past, so a 2048-rank binomial
//! reduction costs O(size · log²size) clock entries, not O(size²).
//!
//! Diagnostics carry `M00x` (error) / `N00x` (warning) codes and render
//! in the sema pass's `severity[CODE]: message` format; see
//! `docs/ANALYSIS.md` for the full table.

use std::collections::HashMap;

use crate::comm::Tag;
use crate::trace::{HbTrace, TraceKind};

/// A sparse vector clock: `(rank, count)` entries sorted by rank, with
/// absent ranks implicitly zero. The clock of an event includes the
/// event's own tick, so `e` happens-before `f` iff
/// `clock(e) ≤ clock(f)` componentwise (and the events differ).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VClock {
    entries: Vec<(u32, u64)>,
}

impl VClock {
    /// The zero clock.
    pub fn new() -> VClock {
        VClock::default()
    }

    /// The component for `rank` (zero when absent).
    pub fn get(&self, rank: usize) -> u64 {
        let rank = rank as u32;
        match self.entries.binary_search_by_key(&rank, |&(r, _)| r) {
            Ok(i) => self.entries[i].1,
            Err(_) => 0,
        }
    }

    /// Number of non-zero components.
    pub fn width(&self) -> usize {
        self.entries.len()
    }

    /// Advance `rank`'s own component by one.
    pub fn tick(&mut self, rank: usize) {
        let rank = rank as u32;
        match self.entries.binary_search_by_key(&rank, |&(r, _)| r) {
            Ok(i) => self.entries[i].1 += 1,
            Err(i) => self.entries.insert(i, (rank, 1)),
        }
    }

    /// Componentwise maximum: after the call `self` is the least upper
    /// bound (join) of the two clocks.
    pub fn join(&mut self, other: &VClock) {
        let mut merged = Vec::with_capacity(self.entries.len().max(other.entries.len()));
        let (mut i, mut j) = (0, 0);
        while i < self.entries.len() && j < other.entries.len() {
            let (ra, ca) = self.entries[i];
            let (rb, cb) = other.entries[j];
            match ra.cmp(&rb) {
                std::cmp::Ordering::Less => {
                    merged.push((ra, ca));
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    merged.push((rb, cb));
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    merged.push((ra, ca.max(cb)));
                    i += 1;
                    j += 1;
                }
            }
        }
        merged.extend_from_slice(&self.entries[i..]);
        merged.extend_from_slice(&other.entries[j..]);
        self.entries = merged;
    }

    /// True when every component of `self` is ≤ the corresponding
    /// component of `other` — i.e. the event `self` stamps happens
    /// before (or is) the event `other` stamps.
    pub fn leq(&self, other: &VClock) -> bool {
        self.entries
            .iter()
            .all(|&(r, c)| c <= other.get(r as usize))
    }

    /// The happens-before comparison: `Less`/`Greater` when one clock
    /// dominates, `Equal` when identical, `None` when the two events
    /// are concurrent (causally incomparable).
    pub fn partial_cmp_hb(&self, other: &VClock) -> Option<std::cmp::Ordering> {
        match (self.leq(other), other.leq(self)) {
            (true, true) => Some(std::cmp::Ordering::Equal),
            (true, false) => Some(std::cmp::Ordering::Less),
            (false, true) => Some(std::cmp::Ordering::Greater),
            (false, false) => None,
        }
    }

    /// True when neither clock dominates: the stamped events are
    /// causally concurrent.
    pub fn concurrent(&self, other: &VClock) -> bool {
        self.partial_cmp_hb(other).is_none()
    }
}

/// Diagnostic severity: `M00x` codes are errors, `N00x` warnings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but survivable (`N…` codes).
    Warning,
    /// The schedule is broken or nondeterministic (`M…` codes).
    Error,
}

impl Severity {
    /// Lowercase name as rendered (`error` / `warning`).
    pub fn name(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// One analyzer finding, rendered `severity[CODE]: message` like the
/// CalQL sema pass's diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable code (`M001`…/`N001`…).
    pub code: &'static str,
    /// Error or warning.
    pub severity: Severity,
    /// Ranks involved, ascending — the cycle ranks for `M002`, the
    /// receiver and senders for `M001`, and so on.
    pub ranks: Vec<usize>,
    /// Human-readable finding.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}[{}]: {}",
            self.severity.name(),
            self.code,
            self.message
        )
    }
}

/// Aggregate facts about the analyzed trace, printed in the
/// certificate. Deterministic for a deterministic trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AnalysisStats {
    /// Total recorded events.
    pub events: u64,
    /// Sends accepted for delivery.
    pub sends: u64,
    /// Send→receive match edges.
    pub match_edges: u64,
    /// Kill-propagation edges (sends refused by a dead peer).
    pub kill_edges: u64,
    /// Matches whose receive was posted with a wildcard source.
    pub wildcard_matches: u64,
    /// Receive deadlines that fired.
    pub timeouts: u64,
    /// Ranks the fault plan killed.
    pub kills: u64,
    /// Ranks that completed their task.
    pub finished: u64,
    /// Messages that died with their killed destination (accounted by
    /// coverage reporting, hence informational, not a diagnostic).
    pub lost_to_kills: u64,
    /// Widest vector clock the run produced (the root's, normally).
    pub max_clock_width: usize,
}

/// The result of [`analyze`]: diagnostics plus certificate stats.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Analysis {
    /// World size of the analyzed trace.
    pub size: usize,
    /// Findings, deterministically ordered (errors first, then by
    /// code, ranks, message).
    pub diagnostics: Vec<Diagnostic>,
    /// Certificate statistics.
    pub stats: AnalysisStats,
}

impl Analysis {
    /// Number of error-severity findings.
    pub fn errors(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Number of warning-severity findings.
    pub fn warnings(&self) -> usize {
        self.diagnostics.len() - self.errors()
    }

    /// True when the schedule certified clean: no findings at all.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// The pinned CI exit code: `0` clean (or warnings tolerated),
    /// `1` warnings present and denied, `2` errors present.
    pub fn exit_code(&self, deny_warnings: bool) -> u8 {
        if self.errors() > 0 {
            2
        } else if deny_warnings && self.warnings() > 0 {
            1
        } else {
            0
        }
    }

    /// Render the full certificate: stats block, findings, verdict.
    /// Byte-identical across runs whenever the trace is.
    pub fn render(&self) -> String {
        let s = &self.stats;
        let mut out = String::new();
        out.push_str(&format!("happens-before analysis: {} ranks\n", self.size));
        out.push_str(&format!("  events:                 {}\n", s.events));
        out.push_str(&format!(
            "  sends:                  {} (match edges {}, kill edges {})\n",
            s.sends, s.match_edges, s.kill_edges
        ));
        out.push_str(&format!(
            "  wildcard matches:       {}\n",
            s.wildcard_matches
        ));
        out.push_str(&format!("  timeouts fired:         {}\n", s.timeouts));
        out.push_str(&format!(
            "  ranks killed/finished:  {}/{}\n",
            s.kills, s.finished
        ));
        out.push_str(&format!("  messages lost to kills: {}\n", s.lost_to_kills));
        out.push_str(&format!(
            "  max clock width:        {}\n",
            s.max_clock_width
        ));
        for d in &self.diagnostics {
            out.push_str(&format!("{d}\n"));
        }
        if self.is_clean() {
            out.push_str("verdict: CLEAN (race-free, deadlock-free)\n");
        } else {
            out.push_str(&format!(
                "verdict: {} error(s), {} warning(s)\n",
                self.errors(),
                self.warnings()
            ));
        }
        out
    }
}

/// At most this many findings are reported per diagnostic code; the
/// remainder collapse into one summary finding so a pathological trace
/// cannot explode the report (the counts stay exact and deterministic).
const MAX_PER_CODE: usize = 16;

/// One send occurrence, reconstructed from the trace.
struct SendRec {
    src: usize,
    /// Index of the send event in `src`'s program order.
    ev: usize,
    dest: usize,
    tag: Tag,
    ok: bool,
    /// `(rank, event index)` of the match that consumed it, if any.
    consumed_by: Option<(usize, usize)>,
}

/// Wait-for structure of a set of blocked receives: cycles (each a
/// rank list in wait order, rotated to start at its smallest member)
/// and the blocked ranks not part of any cycle.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WaitCycles {
    /// Each cycle of mutually waiting ranks.
    pub cycles: Vec<Vec<usize>>,
    /// Blocked ranks not on any cycle (orphan waits).
    pub orphans: Vec<usize>,
}

/// Find wait cycles in a set of blocked receives, given as
/// `(rank, required source, tag)` triples (`None` source = wildcard,
/// which can never be on a specific cycle). Used both by the offline
/// analyzer and by the event engine to build its structured
/// [`SchedError::Deadlock`](crate::sched::SchedError) diagnostic.
pub fn find_wait_cycles(blocked: &[(usize, Option<usize>, Tag)]) -> WaitCycles {
    let successor: HashMap<usize, Option<usize>> = blocked
        .iter()
        .map(|&(rank, src, _)| {
            let next = src.filter(|s| blocked.iter().any(|&(r, _, _)| r == *s));
            (rank, next)
        })
        .collect();
    // Functional-graph cycle finding: walk each unvisited rank's
    // successor chain; a node revisited within the current walk closes
    // a cycle.
    let mut state: HashMap<usize, u8> = HashMap::new(); // 1 = on path, 2 = done
    let mut cycles = Vec::new();
    let mut on_cycle: Vec<usize> = Vec::new();
    for &(start, _, _) in blocked {
        if state.get(&start).copied() == Some(2) {
            continue;
        }
        let mut path = Vec::new();
        let mut cur = start;
        loop {
            match state.get(&cur).copied() {
                Some(2) => break,
                Some(1) => {
                    // `cur` is on the current path: everything from its
                    // first occurrence onwards is a cycle.
                    let pos = path.iter().position(|&r| r == cur).expect("on path");
                    let mut cycle: Vec<usize> = path[pos..].to_vec();
                    // Canonical rotation: start at the smallest rank.
                    let min = cycle
                        .iter()
                        .enumerate()
                        .min_by_key(|&(_, r)| *r)
                        .map(|(i, _)| i)
                        .unwrap_or(0);
                    cycle.rotate_left(min);
                    on_cycle.extend(&cycle);
                    cycles.push(cycle);
                    break;
                }
                _ => {
                    state.insert(cur, 1);
                    path.push(cur);
                    match successor.get(&cur).copied().flatten() {
                        Some(next) => cur = next,
                        None => break,
                    }
                }
            }
        }
        for r in path {
            state.insert(r, 2);
        }
    }
    cycles.sort();
    let mut orphans: Vec<usize> = blocked
        .iter()
        .map(|&(r, _, _)| r)
        .filter(|r| !on_cycle.contains(r))
        .collect();
    orphans.sort_unstable();
    WaitCycles { cycles, orphans }
}

/// Compute the vector clock of every event in the trace, in the
/// trace's own layout: `clocks(t)[rank][i]` stamps `t.events[rank][i]`.
/// Exposed for the clock-law tests; [`analyze`] uses the same pass.
pub fn clocks(trace: &HbTrace) -> Vec<Vec<VClock>> {
    Replay::build(trace).clocks
}

/// Everything the replay pass reconstructs from a trace.
struct Replay {
    sends: Vec<SendRec>,
    /// `(rank, match event index)` → index into `sends`.
    match_send: HashMap<(usize, usize), usize>,
    clocks: Vec<Vec<VClock>>,
    /// Event index of the rank's `Killed` event, if killed.
    killed_ev: Vec<Option<usize>>,
    /// Event index of the rank's `Done` event, if finished.
    done_ev: Vec<Option<usize>>,
    /// True when the trace was internally inconsistent (a match with
    /// no send, or an unresolvable dependency) — reported as `M004`.
    inconsistent: bool,
}

impl Replay {
    fn build(trace: &HbTrace) -> Replay {
        let size = trace.size();
        // --- pass 1: index sends, FIFO per (src, dest, tag) ---
        let mut sends: Vec<SendRec> = Vec::new();
        let mut fifo: HashMap<(usize, usize, Tag), Vec<usize>> = HashMap::new();
        for (rank, events) in trace.events.iter().enumerate() {
            for (i, ev) in events.iter().enumerate() {
                if let TraceKind::Send { dest, tag, ok } = ev.kind {
                    let id = sends.len();
                    sends.push(SendRec {
                        src: rank,
                        ev: i,
                        dest,
                        tag,
                        ok,
                        consumed_by: None,
                    });
                    if ok {
                        fifo.entry((rank, dest, tag)).or_default().push(id);
                    }
                }
            }
        }
        // --- pass 2: resolve matches against the per-channel FIFOs ---
        // Channel order is FIFO on both engines (same-source sends to
        // the same destination and tag are delivered in send order), so
        // the k-th match from (src, tag) at a rank consumed the k-th
        // such send.
        let mut inconsistent = false;
        let mut match_send: HashMap<(usize, usize), usize> = HashMap::new();
        let mut taken: HashMap<(usize, usize, Tag), usize> = HashMap::new();
        for (rank, events) in trace.events.iter().enumerate() {
            for (i, ev) in events.iter().enumerate() {
                if let TraceKind::Match { src, tag, .. } = ev.kind {
                    let key = (src, rank, tag);
                    let k = taken.entry(key).or_insert(0);
                    match fifo.get(&key).and_then(|q| q.get(*k)).copied() {
                        Some(id) => {
                            sends[id].consumed_by = Some((rank, i));
                            match_send.insert((rank, i), id);
                            *k += 1;
                        }
                        None => inconsistent = true,
                    }
                }
            }
        }
        // --- pass 3: kill/done markers ---
        let mut killed_ev = vec![None; size];
        let mut done_ev = vec![None; size];
        for (rank, events) in trace.events.iter().enumerate() {
            for (i, ev) in events.iter().enumerate() {
                match ev.kind {
                    TraceKind::Killed => killed_ev[rank] = Some(i),
                    TraceKind::Done => done_ev[rank] = Some(i),
                    _ => {}
                }
            }
        }
        // --- pass 4: clocks, via a deterministic worklist ---
        // An event is ready when its cross-rank dependencies (the
        // matched send's clock; the dead peer's final clock for a
        // refused send) are already stamped. Ranks are advanced
        // smallest-first, each as far as it will go.
        let mut clocks: Vec<Vec<VClock>> = trace
            .events
            .iter()
            .map(|evs| vec![VClock::new(); evs.len()])
            .collect();
        let mut cur: Vec<VClock> = vec![VClock::new(); size];
        let mut ptr = vec![0usize; size];
        let stamped = |ptr: &[usize], rank: usize, ev: usize| ptr[rank] > ev;
        loop {
            let mut progressed = false;
            for rank in 0..size {
                while ptr[rank] < trace.events[rank].len() {
                    let i = ptr[rank];
                    let ev = &trace.events[rank][i];
                    // Dependency check.
                    let dep = match ev.kind {
                        TraceKind::Match { .. } => match match_send.get(&(rank, i)) {
                            Some(&id) => {
                                let s = &sends[id];
                                if stamped(&ptr, s.src, s.ev) {
                                    Some(clocks[s.src][s.ev].clone())
                                } else {
                                    break; // not ready yet
                                }
                            }
                            None => None, // inconsistent match: no edge
                        },
                        TraceKind::Send {
                            dest, ok: false, ..
                        } => {
                            // Kill propagation: the sender observed the
                            // destination's death (or completion).
                            let terminal = killed_ev[dest].or(done_ev[dest]);
                            match terminal {
                                Some(t) if stamped(&ptr, dest, t) => Some(clocks[dest][t].clone()),
                                Some(_) => break, // not ready yet
                                None => None,
                            }
                        }
                        _ => None,
                    };
                    cur[rank].tick(rank);
                    if let Some(dep) = dep {
                        cur[rank].join(&dep);
                    }
                    clocks[rank][i] = cur[rank].clone();
                    ptr[rank] = i + 1;
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
        if (0..size).any(|r| ptr[r] < trace.events[r].len()) {
            // A dependency cycle in what should be a causal order:
            // stamp the stragglers with their running clocks so the
            // scans below stay total, and flag the trace.
            inconsistent = true;
            for rank in 0..size {
                let first_unstamped = ptr[rank];
                for slot in clocks[rank].iter_mut().skip(first_unstamped) {
                    cur[rank].tick(rank);
                    *slot = cur[rank].clone();
                }
            }
        }
        Replay {
            sends,
            match_send,
            clocks,
            killed_ev,
            done_ev,
            inconsistent,
        }
    }
}

/// Bounded per-code diagnostic collector (see [`MAX_PER_CODE`]).
#[derive(Default)]
struct Findings {
    diags: Vec<Diagnostic>,
    suppressed: HashMap<&'static str, u64>,
}

impl Findings {
    fn push(&mut self, code: &'static str, severity: Severity, ranks: Vec<usize>, message: String) {
        let shown = self.diags.iter().filter(|d| d.code == code).count();
        if shown < MAX_PER_CODE {
            self.diags.push(Diagnostic {
                code,
                severity,
                ranks,
                message,
            });
        } else {
            *self.suppressed.entry(code).or_insert(0) += 1;
        }
    }

    fn finish(mut self) -> Vec<Diagnostic> {
        let mut extra: Vec<(&'static str, u64)> = self.suppressed.into_iter().collect();
        extra.sort();
        for (code, n) in extra {
            let severity = self
                .diags
                .iter()
                .find(|d| d.code == code)
                .map(|d| d.severity)
                .unwrap_or(Severity::Warning);
            self.diags.push(Diagnostic {
                code,
                severity,
                ranks: Vec::new(),
                message: format!("{n} further {code} finding(s) suppressed"),
            });
        }
        self.diags.sort_by(|a, b| {
            (std::cmp::Reverse(a.severity), a.code, &a.ranks, &a.message).cmp(&(
                std::cmp::Reverse(b.severity),
                b.code,
                &b.ranks,
                &b.message,
            ))
        });
        self.diags
    }
}

/// Analyze a recorded trace: compute the happens-before relation and
/// report races, deadlocks, and determinism hazards. Deterministic:
/// the same trace always yields the same [`Analysis`].
pub fn analyze(trace: &HbTrace) -> Analysis {
    let size = trace.size();
    let replay = Replay::build(trace);
    let mut findings = Findings::default();
    let mut stats = AnalysisStats {
        events: trace.len() as u64,
        ..AnalysisStats::default()
    };
    stats.kills = replay.killed_ev.iter().filter(|k| k.is_some()).count() as u64;
    stats.finished = replay.done_ev.iter().filter(|d| d.is_some()).count() as u64;
    stats.max_clock_width = replay
        .clocks
        .iter()
        .flatten()
        .map(VClock::width)
        .max()
        .unwrap_or(0);
    for s in &replay.sends {
        if s.ok {
            stats.sends += 1;
        } else {
            stats.kill_edges += 1;
        }
        if s.consumed_by.is_some() {
            stats.match_edges += 1;
        }
    }

    if replay.inconsistent {
        findings.push(
            "M004",
            Severity::Error,
            Vec::new(),
            "trace is internally inconsistent (a receive matched a message no send produced, \
             or the event dependencies are cyclic); analysis results are unreliable"
                .to_string(),
        );
    }

    // --- (a) message races: wildcard matches with alternative senders ---
    for (rank, events) in trace.events.iter().enumerate() {
        for (i, ev) in events.iter().enumerate() {
            let TraceKind::Match { src, tag, wildcard } = ev.kind else {
                continue;
            };
            if wildcard {
                stats.wildcard_matches += 1;
            } else {
                // A source-specific receive can only be matched by
                // same-source sends, which the channel FIFO orders
                // deterministically: no race is possible.
                continue;
            }
            let Some(&sid) = replay.match_send.get(&(rank, i)) else {
                continue;
            };
            let s_clock = &replay.clocks[replay.sends[sid].src][replay.sends[sid].ev];
            let m_clock = &replay.clocks[rank][i];
            let mut concurrent_alts: Vec<usize> = Vec::new();
            let mut ordered_alts: Vec<usize> = Vec::new();
            for (aid, alt) in replay.sends.iter().enumerate() {
                if aid == sid
                    || !alt.ok
                    || alt.dest != rank
                    || alt.tag != tag
                    || alt.src == replay.sends[sid].src
                {
                    continue;
                }
                let a_clock = &replay.clocks[alt.src][alt.ev];
                // Feasible alternative: not caused by this match, and
                // not already consumed strictly before it.
                if m_clock.leq(a_clock) {
                    continue;
                }
                if let Some((cr, ci)) = alt.consumed_by {
                    let c_clock = &replay.clocks[cr][ci];
                    if c_clock.leq(m_clock) && c_clock != m_clock {
                        continue;
                    }
                }
                if a_clock.concurrent(s_clock) {
                    concurrent_alts.push(alt.src);
                } else {
                    ordered_alts.push(alt.src);
                }
            }
            concurrent_alts.sort_unstable();
            concurrent_alts.dedup();
            ordered_alts.sort_unstable();
            ordered_alts.dedup();
            let matched_src = src;
            if !concurrent_alts.is_empty() {
                let mut ranks = vec![rank, matched_src];
                ranks.extend(&concurrent_alts);
                ranks.sort_unstable();
                ranks.dedup();
                findings.push(
                    "M001",
                    Severity::Error,
                    ranks,
                    format!(
                        "message race: rank {rank}'s wildcard receive (tag {tag}) matched rank \
                         {matched_src}, but HB-concurrent send(s) from rank(s) {concurrent_alts:?} \
                         could match instead — the result is schedule-dependent"
                    ),
                );
            } else if !ordered_alts.is_empty() {
                let mut ranks = vec![rank, matched_src];
                ranks.extend(&ordered_alts);
                ranks.sort_unstable();
                ranks.dedup();
                findings.push(
                    "N002",
                    Severity::Warning,
                    ranks,
                    format!(
                        "rank {rank}'s wildcard receive (tag {tag}) matched rank {matched_src} \
                         while in-flight send(s) from rank(s) {ordered_alts:?} were HB-ordered \
                         alternatives — the match relies on causal delivery order"
                    ),
                );
            }
        }
    }

    // --- (b) deadlocks: blocked ranks and their wait-for structure ---
    let mut blocked: Vec<(usize, Option<usize>, Tag)> = Vec::new();
    for rank in 0..size {
        if replay.killed_ev[rank].is_some() || replay.done_ev[rank].is_some() {
            continue;
        }
        if let Some(ev) = trace.events[rank].last() {
            if let TraceKind::WaitPost { src, tag, .. } = ev.kind {
                blocked.push((rank, src, tag));
            }
        }
    }
    let waits = find_wait_cycles(&blocked);
    for cycle in &waits.cycles {
        let chain: Vec<String> = cycle
            .iter()
            .chain(cycle.first())
            .map(|r| r.to_string())
            .collect();
        let mut ranks = cycle.clone();
        ranks.sort_unstable();
        findings.push(
            "M002",
            Severity::Error,
            ranks,
            format!(
                "wait-cycle deadlock: ranks {} each wait on the next — no message can ever arrive",
                chain.join(" -> ")
            ),
        );
    }
    for &rank in &waits.orphans {
        let (_, src, tag) = blocked
            .iter()
            .find(|&&(r, _, _)| r == rank)
            .copied()
            .expect("orphan came from blocked set");
        let why = match src {
            None => "no live rank can satisfy a wildcard receive".to_string(),
            Some(s)
                if replay
                    .killed_ev
                    .get(s)
                    .map(|k| k.is_some())
                    .unwrap_or(false) =>
            {
                format!("rank {s} was killed and will never send")
            }
            Some(s) if replay.done_ev.get(s).map(|d| d.is_some()).unwrap_or(false) => {
                format!("rank {s} finished without sending")
            }
            Some(s) => format!("rank {s} is itself blocked"),
        };
        findings.push(
            "M003",
            Severity::Error,
            vec![rank],
            format!("orphan wait: rank {rank} blocks forever on a receive (tag {tag}) — {why}"),
        );
    }

    // --- (c) timeout hazards and dead letters: unconsumed sends ---
    for s in &replay.sends {
        if !s.ok || s.consumed_by.is_some() {
            continue;
        }
        if replay.killed_ev[s.dest].is_some() {
            // The destination died; the loss is charged to the kill and
            // shows up in the coverage report — accounted, not silent.
            stats.lost_to_kills += 1;
            continue;
        }
        // Did the destination give up a matching bounded receive?
        let timed_out = trace.events[s.dest].iter().any(|ev| {
            matches!(ev.kind, TraceKind::Timeout { src, tag }
                if tag == s.tag && src.map(|x| x == s.src).unwrap_or(true))
        });
        if timed_out {
            findings.push(
                "N001",
                Severity::Warning,
                vec![s.src, s.dest],
                format!(
                    "timeout hazard: rank {}'s receive (tag {}) gave up at its deadline while \
                     rank {}'s matching send was still in flight — under this fault plan the \
                     data silently became a lost subtree",
                    s.dest, s.tag, s.src
                ),
            );
        } else if replay.done_ev[s.dest].is_some() {
            findings.push(
                "N003",
                Severity::Warning,
                vec![s.src, s.dest],
                format!(
                    "dead letter: rank {} sent tag {} to rank {}, which finished without \
                     consuming it",
                    s.src, s.tag, s.dest
                ),
            );
        }
        // Otherwise the destination is blocked: M002/M003 cover it.
    }

    for ev in trace.events.iter().flatten() {
        if matches!(ev.kind, TraceKind::Timeout { .. }) {
            stats.timeouts += 1;
        }
    }

    Analysis {
        size,
        diagnostics: findings.finish(),
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceEvent;

    fn ev(kind: TraceKind, at_ns: u64) -> TraceEvent {
        TraceEvent { kind, at_ns }
    }

    fn send(dest: usize, tag: Tag) -> TraceKind {
        TraceKind::Send {
            dest,
            tag,
            ok: true,
        }
    }

    #[test]
    fn clock_laws_on_small_examples() {
        let mut a = VClock::new();
        a.tick(0);
        a.tick(0);
        let mut b = VClock::new();
        b.tick(3);
        assert!(a.concurrent(&b));
        let mut j = a.clone();
        j.join(&b);
        assert!(a.leq(&j) && b.leq(&j));
        assert_eq!(j.get(0), 2);
        assert_eq!(j.get(3), 1);
        assert_eq!(j.width(), 2);
        assert_eq!(a.partial_cmp_hb(&j), Some(std::cmp::Ordering::Less));
        assert_eq!(j.partial_cmp_hb(&a), Some(std::cmp::Ordering::Greater));
        assert_eq!(
            a.partial_cmp_hb(&a.clone()),
            Some(std::cmp::Ordering::Equal)
        );
    }

    #[test]
    fn ordered_pipeline_is_clean() {
        // 0 sends to 1, 1 receives (named source) and finishes.
        let mut t = HbTrace::new(2);
        t.events[0] = vec![
            ev(TraceKind::Start, 0),
            ev(send(1, 5), 0),
            ev(TraceKind::Done, 0),
        ];
        t.events[1] = vec![
            ev(TraceKind::Start, 0),
            ev(
                TraceKind::Match {
                    src: 0,
                    tag: 5,
                    wildcard: false,
                },
                1000,
            ),
            ev(TraceKind::Done, 1000),
        ];
        let a = analyze(&t);
        assert!(a.is_clean(), "{:?}", a.diagnostics);
        assert_eq!(a.stats.match_edges, 1);
        // The match's clock dominates the send's.
        let c = clocks(&t);
        assert!(c[0][1].leq(&c[1][1]));
        assert!(!c[1][1].leq(&c[0][1]));
    }

    #[test]
    fn concurrent_wildcard_senders_race() {
        // Ranks 1 and 2 both send tag 7; rank 0 wildcard-receives both.
        let mut t = HbTrace::new(3);
        t.events[0] = vec![
            ev(TraceKind::Start, 0),
            ev(
                TraceKind::Match {
                    src: 1,
                    tag: 7,
                    wildcard: true,
                },
                1000,
            ),
            ev(
                TraceKind::Match {
                    src: 2,
                    tag: 7,
                    wildcard: true,
                },
                1000,
            ),
            ev(TraceKind::Done, 1000),
        ];
        for r in [1usize, 2] {
            t.events[r] = vec![
                ev(TraceKind::Start, 0),
                ev(send(0, 7), 0),
                ev(TraceKind::Done, 0),
            ];
        }
        let a = analyze(&t);
        assert!(a.diagnostics.iter().any(|d| d.code == "M001"), "{a:?}");
        assert_eq!(a.exit_code(false), 2);
    }

    #[test]
    fn hb_ordered_alternatives_warn_not_error() {
        // 1 sends to 0, then (causally after) tells 2 to send to 0;
        // rank 0 wildcard-receives both: alternatives are HB-ordered.
        let mut t = HbTrace::new(3);
        t.events[0] = vec![
            ev(TraceKind::Start, 0),
            ev(
                TraceKind::Match {
                    src: 1,
                    tag: 7,
                    wildcard: true,
                },
                1,
            ),
            ev(
                TraceKind::Match {
                    src: 2,
                    tag: 7,
                    wildcard: true,
                },
                2,
            ),
            ev(TraceKind::Done, 2),
        ];
        t.events[1] = vec![
            ev(TraceKind::Start, 0),
            ev(send(0, 7), 0),
            ev(send(2, 9), 0),
            ev(TraceKind::Done, 0),
        ];
        t.events[2] = vec![
            ev(TraceKind::Start, 0),
            ev(
                TraceKind::Match {
                    src: 1,
                    tag: 9,
                    wildcard: false,
                },
                1,
            ),
            ev(send(0, 7), 1),
            ev(TraceKind::Done, 1),
        ];
        let a = analyze(&t);
        assert!(
            a.diagnostics.iter().any(|d| d.code == "N002"),
            "{:?}",
            a.diagnostics
        );
        assert!(a.diagnostics.iter().all(|d| d.code != "M001"));
        assert_eq!(a.exit_code(false), 0);
        assert_eq!(a.exit_code(true), 1);
    }

    #[test]
    fn wait_cycle_is_named_exactly() {
        let mut t = HbTrace::new(3);
        for r in 0..3 {
            t.events[r] = vec![
                ev(TraceKind::Start, 0),
                ev(
                    TraceKind::WaitPost {
                        src: Some((r + 1) % 3),
                        tag: 1,
                        timeout_ns: None,
                    },
                    0,
                ),
            ];
        }
        let a = analyze(&t);
        let d = a
            .diagnostics
            .iter()
            .find(|d| d.code == "M002")
            .expect("cycle found");
        assert_eq!(d.ranks, vec![0, 1, 2]);
        assert!(d.message.contains("0 -> 1 -> 2 -> 0"), "{}", d.message);
    }

    #[test]
    fn timeout_hazard_flags_the_late_send() {
        let mut t = HbTrace::new(2);
        t.events[0] = vec![
            ev(TraceKind::Start, 0),
            ev(
                TraceKind::WaitPost {
                    src: Some(1),
                    tag: 3,
                    timeout_ns: Some(10),
                },
                0,
            ),
            ev(
                TraceKind::Timeout {
                    src: Some(1),
                    tag: 3,
                },
                10,
            ),
            ev(TraceKind::Done, 10),
        ];
        t.events[1] = vec![
            ev(TraceKind::Start, 0),
            ev(send(0, 3), 500),
            ev(TraceKind::Done, 500),
        ];
        let a = analyze(&t);
        assert!(a.diagnostics.iter().any(|d| d.code == "N001"), "{a:?}");
        // The N001 supersedes a plain dead-letter report.
        assert!(a.diagnostics.iter().all(|d| d.code != "N003"));
    }

    #[test]
    fn kill_losses_are_informational() {
        let mut t = HbTrace::new(2);
        t.events[0] = vec![
            ev(TraceKind::Start, 0),
            ev(send(1, 3), 0),
            ev(TraceKind::Done, 0),
        ];
        t.events[1] = vec![ev(TraceKind::Start, 0), ev(TraceKind::Killed, 0)];
        let a = analyze(&t);
        assert!(a.is_clean(), "{:?}", a.diagnostics);
        assert_eq!(a.stats.lost_to_kills, 1);
        assert_eq!(a.stats.kills, 1);
    }

    #[test]
    fn orphan_wait_names_the_dead_peer() {
        let mut t = HbTrace::new(2);
        t.events[0] = vec![
            ev(TraceKind::Start, 0),
            ev(
                TraceKind::WaitPost {
                    src: Some(1),
                    tag: 2,
                    timeout_ns: None,
                },
                0,
            ),
        ];
        t.events[1] = vec![ev(TraceKind::Start, 0), ev(TraceKind::Killed, 0)];
        let a = analyze(&t);
        let d = a
            .diagnostics
            .iter()
            .find(|d| d.code == "M003")
            .expect("orphan");
        assert!(d.message.contains("rank 1 was killed"), "{}", d.message);
    }

    #[test]
    fn find_wait_cycles_splits_cycles_and_orphans() {
        // 1 -> 2 -> 1 is a cycle; 5 waits on 1 (orphan); 6 waits on a
        // rank that is not blocked at all (orphan).
        let blocked = vec![
            (1, Some(2), 0),
            (2, Some(1), 0),
            (5, Some(1), 0),
            (6, Some(9), 0),
        ];
        let w = find_wait_cycles(&blocked);
        assert_eq!(w.cycles, vec![vec![1, 2]]);
        assert_eq!(w.orphans, vec![5, 6]);
    }
}
