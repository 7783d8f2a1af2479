//! Causal span layer: per-operation span trees, critical-path
//! extraction, percentile-cohort tail attribution and Perfetto export.
//!
//! Every foreground operation (and every background repair key) owns a
//! **span tree**: timed intervals — client CPU queue/service, NIC
//! tx/rx queue and serialization, propagation, server CPU, SSD access,
//! codec encode/decode, hedge-timer waits, retry backoff — recorded as
//! the simulation executes. At completion the collector walks the tree
//! **backwards from the completion instant** and extracts the critical
//! path: the chain of spans that actually gated the op, excluding
//! parallel losers (a fan-out leg that finished earlier than the
//! settling leg contributes nothing to latency and is dropped).
//!
//! The walk is exact and conservative: attributed time plus the
//! unattributed remainder always equals the op's wall time, so the
//! "attributed %" printed by [`SpanCollector::explain_tail`] is an
//! honest coverage figure, not an estimate.
//!
//! The collector lives inside the `TraceBus` (exactly like the time
//! series): when spans are not enabled it is `None` and every hook in
//! the hot path is a single branch. Span recording never emits trace
//! events, so enabling spans leaves the JSONL/CSV event stream
//! byte-identical.

use std::collections::{BTreeMap, VecDeque};

use crate::net::NodeId;
use crate::time::{SimDuration, SimTime};

/// Operation class a span tree belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SpanOpClass {
    /// A foreground Set.
    Set,
    /// A foreground Get (including MGet sub-gets).
    Get,
    /// A background repair of one key.
    Repair,
}

impl SpanOpClass {
    /// Stable lower-case label.
    pub fn label(self) -> &'static str {
        match self {
            SpanOpClass::Set => "set",
            SpanOpClass::Get => "get",
            SpanOpClass::Repair => "repair",
        }
    }
}

/// A named phase on an operation's causal span tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SpanPhase {
    /// Waiting for a free client CPU (ARPE thread).
    ClientCpuQueue,
    /// Client CPU service: think time, liveness checks, post issue.
    ClientCpu,
    /// Transport protocol overhead (rendezvous handshake/registration).
    NetProto,
    /// Waiting behind earlier transfers on the sender's tx NIC.
    TxQueue,
    /// Wire serialization out of the sender.
    Tx,
    /// Link propagation (latency + straggler jitter).
    Propagate,
    /// Waiting behind earlier arrivals on the receiver's rx NIC.
    RxQueue,
    /// Wire serialization into the receiver (incl. eager-copy cost).
    Rx,
    /// Waiting for the failure detector to flag a dead target.
    FailDetect,
    /// Waiting for a free server worker.
    SrvCpuQueue,
    /// Server worker service (lookup, memcpy, ARPE offload work).
    SrvCpu,
    /// Flash read on an SSD-assisted server.
    SsdRead,
    /// Erasure encode.
    Encode,
    /// Erasure decode / reconstruction.
    Decode,
    /// Armed hedge timer waiting to fire.
    HedgeWait,
    /// Exponential backoff between retry attempts.
    RetryBackoff,
    /// Back-to-back post pacing between fan-out issues.
    Post,
}

impl SpanPhase {
    /// Stable kebab-case label.
    pub fn label(self) -> &'static str {
        match self {
            SpanPhase::ClientCpuQueue => "client-cpu-queue",
            SpanPhase::ClientCpu => "client-cpu",
            SpanPhase::NetProto => "net-proto",
            SpanPhase::TxQueue => "tx-queue",
            SpanPhase::Tx => "tx",
            SpanPhase::Propagate => "propagate",
            SpanPhase::RxQueue => "rx-queue",
            SpanPhase::Rx => "rx",
            SpanPhase::FailDetect => "fail-detect",
            SpanPhase::SrvCpuQueue => "srv-cpu-queue",
            SpanPhase::SrvCpu => "srv-cpu",
            SpanPhase::SsdRead => "ssd-read",
            SpanPhase::Encode => "encode",
            SpanPhase::Decode => "decode",
            SpanPhase::HedgeWait => "hedge-wait",
            SpanPhase::RetryBackoff => "retry-backoff",
            SpanPhase::Post => "post",
        }
    }
}

/// One timed interval on an operation's causal span tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// What the operation was doing.
    pub phase: SpanPhase,
    /// Where it was doing it.
    pub node: NodeId,
    /// Interval start (virtual time).
    pub start: SimTime,
    /// Interval end (virtual time).
    pub end: SimTime,
}

/// A live (in-flight) operation's accumulating span tree.
#[derive(Debug)]
struct LiveOp {
    class: SpanOpClass,
    start: SimTime,
    spans: Vec<Span>,
}

/// Critical-path attribution of one completed operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpAttribution {
    /// Operation class.
    pub class: SpanOpClass,
    /// Admission instant.
    pub start: SimTime,
    /// Wall time, admission to completion.
    pub latency: SimDuration,
    /// Whether the op completed successfully.
    pub ok: bool,
    /// Critical-path nanoseconds per `(phase, node index)`, in
    /// `BTreeMap` key order.
    pub phases: Vec<(SpanPhase, usize, u64)>,
    /// Wall nanoseconds the backward walk could not attribute to any
    /// recorded span.
    pub other_ns: u64,
}

impl OpAttribution {
    /// Nanoseconds attributed to named phases (wall minus unattributed).
    pub fn attributed_ns(&self) -> u64 {
        self.latency.as_nanos().saturating_sub(self.other_ns)
    }
}

/// A retained slowest-op record: the raw span tree, kept for Perfetto
/// export.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlowOp {
    /// Span-layer op id.
    pub op: u64,
    /// Operation class.
    pub class: SpanOpClass,
    /// Admission instant.
    pub start: SimTime,
    /// Completion instant.
    pub end: SimTime,
    /// The raw span tree, in insertion order.
    pub spans: Vec<Span>,
}

/// Synthetic Perfetto `tid` carrying each op's envelope slice (real
/// node ids are small, so this track never collides with one).
const OP_TRACK: u64 = 1_000_000;

/// Collects span trees for in-flight operations, extracts each op's
/// critical path at completion, and aggregates per-phase time by
/// percentile cohort. Owned by the `TraceBus`; absent when spans are
/// not enabled.
#[derive(Debug, Default)]
pub struct SpanCollector {
    scope: Option<u64>,
    next_op: u64,
    /// In-flight trees in dense slots: op ids come from a counter, so op
    /// `base + i` lives at `live[i]` (`None` once ended). Ended slots are
    /// popped from the front, so the window spans the oldest live op to
    /// the newest.
    live: VecDeque<Option<LiveOp>>,
    base: u64,
    done: Vec<OpAttribution>,
    slowest: Vec<SlowOp>,
    keep_slowest: usize,
}

impl SpanCollector {
    /// A collector retaining raw spans for the `keep_slowest` slowest
    /// ops (for Perfetto export); attribution is kept for every op.
    pub fn new(keep_slowest: usize) -> Self {
        SpanCollector {
            keep_slowest,
            ..Self::default()
        }
    }

    /// The op id all ambient [`SpanCollector::record`] calls currently
    /// attach to.
    pub fn scope(&self) -> Option<u64> {
        self.scope
    }

    /// Replaces the ambient scope, returning the previous one (for
    /// save/restore around callback dispatch).
    pub fn set_scope(&mut self, scope: Option<u64>) -> Option<u64> {
        std::mem::replace(&mut self.scope, scope)
    }

    /// Opens a span tree for a new operation admitted at `at`.
    pub fn begin_op(&mut self, class: SpanOpClass, at: SimTime) -> u64 {
        let op = self.next_op;
        self.next_op += 1;
        self.live.push_back(Some(LiveOp {
            class,
            start: at,
            spans: Vec::new(),
        }));
        op
    }

    /// The slot of `op`: `Some(None)` once it has ended and its slot is
    /// still in the window, `None` when it is unknown or long gone.
    fn slot(&mut self, op: u64) -> Option<&mut Option<LiveOp>> {
        let i = usize::try_from(op.checked_sub(self.base)?).ok()?;
        self.live.get_mut(i)
    }

    /// Records a span on the ambient scope's tree (no-op when no scope
    /// is set or the interval is empty).
    pub fn record(&mut self, phase: SpanPhase, node: NodeId, start: SimTime, end: SimTime) {
        if let Some(op) = self.scope {
            self.record_for(op, phase, node, start, end);
        }
    }

    /// Records a span on a specific op's tree (no-op once the op has
    /// completed — a cancelled straggler's late wire activity cannot
    /// retroactively change an attribution).
    pub fn record_for(
        &mut self,
        op: u64,
        phase: SpanPhase,
        node: NodeId,
        start: SimTime,
        end: SimTime,
    ) {
        if start >= end {
            return;
        }
        if let Some(Some(live)) = self.slot(op) {
            live.spans.push(Span {
                phase,
                node,
                start,
                end,
            });
        }
    }

    /// Closes an op's tree at `at`, extracts the critical path and
    /// stores the attribution (plus the raw tree if the op ranks among
    /// the slowest retained).
    pub fn end_op(&mut self, op: u64, at: SimTime, ok: bool) {
        let Some(live) = self.slot(op).and_then(Option::take) else {
            return;
        };
        while let Some(None) = self.live.front() {
            self.live.pop_front();
            self.base += 1;
        }
        let end = at.max(live.start);
        let latency = end.since(live.start);
        let (phases, other_ns) = critical_path(live.start, end, &live.spans);
        self.done.push(OpAttribution {
            class: live.class,
            start: live.start,
            latency,
            ok,
            phases,
            other_ns,
        });
        // `slowest` stays sorted slowest first, ties by op id: reject an
        // op no slower than the K-th outright, else insert in place.
        let slower = |s: &SlowOp| {
            let l = s.end.since(s.start);
            l > latency || (l == latency && s.op < op)
        };
        if self.slowest.len() == self.keep_slowest && self.slowest.last().is_none_or(slower) {
            return;
        }
        let pos = self.slowest.partition_point(slower);
        self.slowest.insert(
            pos,
            SlowOp {
                op,
                class: live.class,
                start: live.start,
                end,
                spans: live.spans,
            },
        );
        self.slowest.truncate(self.keep_slowest);
    }

    /// Attributions of every completed op, in completion order.
    pub fn attributions(&self) -> &[OpAttribution] {
        &self.done
    }

    /// The retained slowest ops, slowest first (ties broken by op id).
    pub fn slowest(&self) -> &[SlowOp] {
        &self.slowest
    }

    /// Completed ops so far.
    pub fn ops_completed(&self) -> usize {
        self.done.len()
    }

    /// Renders per-phase critical-path time bucketed by percentile
    /// cohort, one section per op class. All arithmetic is integer
    /// (permille), so the output is byte-identical across same-seed
    /// runs.
    pub fn explain_tail(&self) -> String {
        let mut out = String::from("critical-path tail attribution by percentile cohort\n");
        for class in [SpanOpClass::Get, SpanOpClass::Set, SpanOpClass::Repair] {
            let mut idx: Vec<usize> = (0..self.done.len())
                .filter(|&i| self.done[i].class == class)
                .collect();
            if idx.is_empty() {
                continue;
            }
            idx.sort_by_key(|&i| (self.done[i].latency.as_nanos(), i));
            let n = idx.len();
            out.push_str(&format!("\n== {}: {} ops ==\n", class.label(), n));
            let cohorts = [
                (500usize, 950usize, "p50-p95"),
                (950, 990, "p95-p99"),
                (990, 999, "p99-p99.9"),
                (999, 1000, "p99.9-max"),
            ];
            for (lo_pm, hi_pm, name) in cohorts {
                let lo = n * lo_pm / 1000;
                let hi = if hi_pm == 1000 { n } else { n * hi_pm / 1000 };
                if lo >= hi {
                    continue;
                }
                let cohort = &idx[lo..hi];
                let mut wall = 0u64;
                let mut other = 0u64;
                let mut acc: BTreeMap<(SpanPhase, usize), u64> = BTreeMap::new();
                for &i in cohort {
                    let a = &self.done[i];
                    wall += a.latency.as_nanos();
                    other += a.other_ns;
                    for &(p, node, ns) in &a.phases {
                        *acc.entry((p, node)).or_insert(0) += ns;
                    }
                }
                let attributed_pm = ((wall - other) * 1000).checked_div(wall).unwrap_or(1000);
                out.push_str(&format!(
                    "[{} {}] {} ops | wall {} | attributed {}.{}%\n",
                    class.label(),
                    name,
                    cohort.len(),
                    fmt_us(wall),
                    attributed_pm / 10,
                    attributed_pm % 10,
                ));
                let mut rows: Vec<((SpanPhase, usize), u64)> = acc.into_iter().collect();
                rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
                for ((phase, node), ns) in rows {
                    if ns == 0 {
                        continue;
                    }
                    let pm = ns * 1000 / wall.max(1);
                    out.push_str(&format!(
                        "  {:>3}.{}%  {:<16} @ n{:<4} {}\n",
                        pm / 10,
                        pm % 10,
                        phase.label(),
                        node,
                        fmt_us(ns),
                    ));
                }
                if other > 0 {
                    let pm = other * 1000 / wall.max(1);
                    out.push_str(&format!(
                        "  {:>3}.{}%  {:<16} @ --   {}\n",
                        pm / 10,
                        pm % 10,
                        "(unattributed)",
                        fmt_us(other),
                    ));
                }
            }
        }
        out
    }

    /// Serializes the retained slowest ops (at most `max_ops`) as a
    /// Chrome-trace / Perfetto JSON timeline: one envelope slice per op
    /// plus one complete-event slice per span, `pid` = op id, `tid` =
    /// node index. Hand-rolled JSON — no external dependencies.
    pub fn perfetto_json(&self, max_ops: usize) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
        let mut first = true;
        for s in self.slowest.iter().take(max_ops) {
            push_event(
                &mut out,
                &mut first,
                s.class.label(),
                "op",
                s.op,
                OP_TRACK,
                s.start.as_nanos(),
                s.end.since(s.start).as_nanos(),
            );
            for sp in &s.spans {
                push_event(
                    &mut out,
                    &mut first,
                    sp.phase.label(),
                    s.class.label(),
                    s.op,
                    sp.node.0 as u64,
                    sp.start.as_nanos(),
                    sp.end.since(sp.start).as_nanos(),
                );
            }
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Integer-math `µs` formatting (`123.456us`), deterministic by
/// construction.
fn fmt_us(ns: u64) -> String {
    format!("{}.{:03}us", ns / 1000, ns % 1000)
}

/// Appends one Chrome-trace complete event (`"ph":"X"`); `ts`/`dur`
/// are microseconds rendered by integer math.
#[allow(clippy::too_many_arguments)] // a trace event is naturally wide
fn push_event(
    out: &mut String,
    first: &mut bool,
    name: &str,
    cat: &str,
    pid: u64,
    tid: u64,
    ts_ns: u64,
    dur_ns: u64,
) {
    if !*first {
        out.push(',');
    }
    *first = false;
    out.push_str(&format!(
        "\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{}.{:03},\"dur\":{}.{:03},\"pid\":{},\"tid\":{}}}",
        name,
        cat,
        ts_ns / 1000,
        ts_ns % 1000,
        dur_ns / 1000,
        dur_ns % 1000,
        pid,
        tid,
    ));
}

/// Walks the span set backwards from `t1` and attributes each
/// critical-path interval to its `(phase, node)`.
///
/// At every step the walk picks the span with the **latest end at or
/// before the cursor** (ties: earliest start, then earliest insertion)
/// — the span whose completion released the cursor instant — then
/// attributes `[max(start, t0), end]` and jumps the cursor to the
/// span's start. Spans ending after the cursor are parallel losers and
/// are skipped; gaps the instrumentation does not cover accumulate in
/// the returned `other` nanoseconds. Attributed + other always equals
/// `t1 - t0`.
fn critical_path(t0: SimTime, t1: SimTime, spans: &[Span]) -> (Vec<(SpanPhase, usize, u64)>, u64) {
    // One entry per critical-path step; merged per `(phase, node)` below.
    let mut acc: Vec<(SpanPhase, usize, u64)> = Vec::new();
    let mut other = 0u64;
    let mut cursor = t1;
    while cursor > t0 {
        let mut best: Option<usize> = None;
        for (i, s) in spans.iter().enumerate() {
            // Candidates must end within (t0, cursor] and take nonzero
            // time (a zero-length span cannot make progress).
            if s.end > cursor || s.end <= t0 || s.start >= s.end {
                continue;
            }
            match best {
                None => best = Some(i),
                Some(b) => {
                    let sb = &spans[b];
                    if s.end > sb.end || (s.end == sb.end && s.start < sb.start) {
                        best = Some(i);
                    }
                }
            }
        }
        let Some(b) = best else {
            other += cursor.since(t0).as_nanos();
            break;
        };
        let s = &spans[b];
        if s.end < cursor {
            other += cursor.since(s.end).as_nanos();
        }
        let lo = s.start.max(t0);
        acc.push((s.phase, s.node.0, s.end.since(lo).as_nanos()));
        if s.start <= t0 {
            break;
        }
        cursor = s.start;
    }
    acc.sort_unstable_by_key(|&(p, n, _)| (p, n));
    acc.dedup_by(|next, kept| {
        let same = (next.0, next.1) == (kept.0, kept.1);
        if same {
            kept.2 += next.2;
        }
        same
    });
    // Every completed op keeps its attribution, so store an exact-size
    // copy: shrinking `acc` in place leaves a heap hole per op instead.
    (acc.to_vec(), other)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    fn span(phase: SpanPhase, node: usize, start: u64, end: u64) -> Span {
        Span {
            phase,
            node: NodeId(node),
            start: t(start),
            end: t(end),
        }
    }

    #[test]
    fn sequential_chain_is_fully_attributed() {
        let spans = vec![
            span(SpanPhase::ClientCpu, 5, 0, 10),
            span(SpanPhase::Tx, 5, 10, 40),
            span(SpanPhase::Propagate, 0, 40, 45),
            span(SpanPhase::SrvCpu, 0, 45, 95),
        ];
        let (phases, other) = critical_path(t(0), t(95), &spans);
        assert_eq!(other, 0);
        let total: u64 = phases.iter().map(|&(_, _, ns)| ns).sum();
        assert_eq!(total, 95);
        assert!(phases.contains(&(SpanPhase::SrvCpu, 0, 50)));
    }

    #[test]
    fn parallel_losers_are_excluded() {
        // Two legs race; the op settles when the slow leg (node 1)
        // finishes. The fast leg must contribute nothing.
        let spans = vec![
            span(SpanPhase::Tx, 0, 0, 20),
            span(SpanPhase::Tx, 1, 0, 100),
        ];
        let (phases, other) = critical_path(t(0), t(100), &spans);
        assert_eq!(other, 0);
        assert_eq!(phases, vec![(SpanPhase::Tx, 1, 100)]);
    }

    #[test]
    fn gaps_count_as_other_and_balance_exactly() {
        let spans = vec![span(SpanPhase::Rx, 2, 30, 60)];
        let (phases, other) = critical_path(t(0), t(100), &spans);
        // [60, 100] and [0, 30] are uncovered.
        assert_eq!(other, 70);
        assert_eq!(phases, vec![(SpanPhase::Rx, 2, 30)]);
    }

    #[test]
    fn spans_overrunning_the_window_are_clamped() {
        // A span that started before admission only counts from t0.
        let spans = vec![span(SpanPhase::SrvCpu, 0, 5, 50)];
        let (phases, other) = critical_path(t(10), t(50), &spans);
        assert_eq!(other, 0);
        assert_eq!(phases, vec![(SpanPhase::SrvCpu, 0, 40)]);
    }

    #[test]
    fn collector_end_to_end_and_slowest_retention() {
        let mut c = SpanCollector::new(1);
        let a = c.begin_op(SpanOpClass::Get, t(0));
        c.record_for(a, SpanPhase::Tx, NodeId(0), t(0), t(10));
        c.end_op(a, t(10), true);
        let b = c.begin_op(SpanOpClass::Get, t(20));
        c.record_for(b, SpanPhase::Rx, NodeId(1), t(20), t(120));
        c.end_op(b, t(120), true);
        assert_eq!(c.ops_completed(), 2);
        // Only the slower op's raw tree is retained.
        assert_eq!(c.slowest().len(), 1);
        assert_eq!(c.slowest()[0].op, b);
        let a0 = &c.attributions()[0];
        assert_eq!(a0.attributed_ns(), 10);
        assert_eq!(a0.other_ns, 0);
        let json = c.perfetto_json(10);
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"name\":\"rx\""));
        assert!(!json.contains("\"name\":\"tx\""));
        let text = c.explain_tail();
        assert!(text.contains("critical-path tail attribution"));
        assert!(text.contains("== get: 2 ops =="));
    }

    #[test]
    fn ambient_scope_routes_records() {
        let mut c = SpanCollector::new(0);
        let op = c.begin_op(SpanOpClass::Set, t(0));
        assert_eq!(c.set_scope(Some(op)), None);
        c.record(SpanPhase::Encode, NodeId(3), t(0), t(7));
        assert_eq!(c.set_scope(None), Some(op));
        // No scope: dropped silently.
        c.record(SpanPhase::Encode, NodeId(3), t(7), t(9));
        c.end_op(op, t(7), true);
        assert_eq!(c.attributions()[0].attributed_ns(), 7);
    }

    /// The `BTreeMap` critical-path walk the `Vec` accumulator replaced.
    fn reference_critical_path(
        t0: SimTime,
        t1: SimTime,
        spans: &[Span],
    ) -> (Vec<(SpanPhase, usize, u64)>, u64) {
        let mut acc: BTreeMap<(SpanPhase, usize), u64> = BTreeMap::new();
        let mut other = 0u64;
        let mut cursor = t1;
        while cursor > t0 {
            let mut best: Option<usize> = None;
            for (i, s) in spans.iter().enumerate() {
                if s.end > cursor || s.end <= t0 || s.start >= s.end {
                    continue;
                }
                match best {
                    None => best = Some(i),
                    Some(b) => {
                        let sb = &spans[b];
                        if s.end > sb.end || (s.end == sb.end && s.start < sb.start) {
                            best = Some(i);
                        }
                    }
                }
            }
            let Some(b) = best else {
                other += cursor.since(t0).as_nanos();
                break;
            };
            let s = &spans[b];
            if s.end < cursor {
                other += cursor.since(s.end).as_nanos();
            }
            let lo = s.start.max(t0);
            *acc.entry((s.phase, s.node.0)).or_insert(0) += s.end.since(lo).as_nanos();
            if s.start <= t0 {
                break;
            }
            cursor = s.start;
        }
        (
            acc.into_iter().map(|((p, n), ns)| (p, n, ns)).collect(),
            other,
        )
    }

    /// The collector the dense slots, the sorted insert and the `Vec`
    /// walk replaced: a `BTreeMap` of live trees, push + full sort +
    /// truncate of the slowest list.
    #[derive(Default)]
    struct ReferenceCollector {
        next_op: u64,
        live: BTreeMap<u64, LiveOp>,
        done: Vec<OpAttribution>,
        slowest: Vec<SlowOp>,
        keep_slowest: usize,
    }

    impl ReferenceCollector {
        fn begin_op(&mut self, class: SpanOpClass, at: SimTime) -> u64 {
            let op = self.next_op;
            self.next_op += 1;
            self.live.insert(
                op,
                LiveOp {
                    class,
                    start: at,
                    spans: Vec::new(),
                },
            );
            op
        }

        fn record_for(
            &mut self,
            op: u64,
            phase: SpanPhase,
            node: NodeId,
            start: SimTime,
            end: SimTime,
        ) {
            if start >= end {
                return;
            }
            if let Some(live) = self.live.get_mut(&op) {
                live.spans.push(Span {
                    phase,
                    node,
                    start,
                    end,
                });
            }
        }

        fn end_op(&mut self, op: u64, at: SimTime, ok: bool) {
            let Some(live) = self.live.remove(&op) else {
                return;
            };
            let end = at.max(live.start);
            let (phases, other_ns) = reference_critical_path(live.start, end, &live.spans);
            self.done.push(OpAttribution {
                class: live.class,
                start: live.start,
                latency: end.since(live.start),
                ok,
                phases,
                other_ns,
            });
            if self.keep_slowest > 0 {
                self.slowest.push(SlowOp {
                    op,
                    class: live.class,
                    start: live.start,
                    end,
                    spans: live.spans,
                });
                self.slowest.sort_by(|a, b| {
                    b.end
                        .since(b.start)
                        .as_nanos()
                        .cmp(&a.end.since(a.start).as_nanos())
                        .then(a.op.cmp(&b.op))
                });
                self.slowest.truncate(self.keep_slowest);
            }
        }
    }

    /// Drives both collectors through one seeded stream: ops begin, take
    /// spans on a coarse time grid (so latencies and span ends tie
    /// often), end out of order, and keep receiving records after they
    /// ended, plus records and ends for ids that never existed.
    fn drive_both(seed: u64, keep: usize) -> (SpanCollector, ReferenceCollector) {
        use crate::rng::SimRng;
        let phases = [
            SpanPhase::Tx,
            SpanPhase::Rx,
            SpanPhase::Propagate,
            SpanPhase::SrvCpu,
            SpanPhase::Decode,
        ];
        let classes = [SpanOpClass::Get, SpanOpClass::Set, SpanOpClass::Repair];
        let mut rng = SimRng::seed_from_u64(seed);
        let mut got = SpanCollector::new(keep);
        let mut want = ReferenceCollector {
            keep_slowest: keep,
            ..Default::default()
        };
        let mut open: Vec<(u64, u64)> = Vec::new();
        let mut ended: Vec<u64> = Vec::new();
        let mut now = 0u64;
        for _ in 0..3_000 {
            now += rng.next_below(3) * 10;
            match rng.next_below(10) {
                0..=2 => {
                    let class = classes[rng.index(classes.len())];
                    let a = got.begin_op(class, t(now));
                    let b = want.begin_op(class, t(now));
                    assert_eq!(a, b);
                    open.push((a, now));
                }
                3..=6 if !open.is_empty() => {
                    let (op, start) = open[rng.index(open.len())];
                    let lo = start + rng.next_below(4) * 10;
                    let hi = lo + rng.next_below(4) * 10;
                    let phase = phases[rng.index(phases.len())];
                    let node = NodeId(rng.index(3));
                    got.record_for(op, phase, node, t(lo), t(hi));
                    want.record_for(op, phase, node, t(lo), t(hi));
                }
                7..=8 if !open.is_empty() => {
                    let (op, start) = open.swap_remove(rng.index(open.len()));
                    // Sometimes before the op's own start: clamped.
                    let at = (start + rng.next_below(5) * 10).saturating_sub(10);
                    let ok = rng.next_below(4) != 0;
                    got.end_op(op, t(at), ok);
                    want.end_op(op, t(at), ok);
                    ended.push(op);
                }
                _ => {
                    // Ended or never-issued ids must stay ignored.
                    let op = match ended.len() {
                        0 => got.next_op + 5,
                        n => ended[rng.index(n)],
                    };
                    let op = if rng.next_below(2) == 0 {
                        op
                    } else {
                        got.next_op + op
                    };
                    got.record_for(op, SpanPhase::Rx, NodeId(0), t(0), t(now + 10));
                    want.record_for(op, SpanPhase::Rx, NodeId(0), t(0), t(now + 10));
                    got.end_op(op, t(now), true);
                    want.end_op(op, t(now), true);
                }
            }
        }
        (got, want)
    }

    #[test]
    fn collector_matches_the_btreemap_sort_truncate_reference() {
        for keep in [0, 1, 50] {
            for seed in 0..6 {
                let (got, want) = drive_both(seed, keep);
                assert!(got.ops_completed() > 100);
                assert_eq!(
                    got.attributions(),
                    &want.done[..],
                    "seed {seed} keep {keep}"
                );
                assert_eq!(got.slowest(), &want.slowest[..], "seed {seed} keep {keep}");
                assert_eq!(got.slowest().len(), keep.min(got.ops_completed()));
            }
        }
    }

    #[test]
    fn critical_path_matches_the_btreemap_walk() {
        use crate::rng::SimRng;
        let mut rng = SimRng::seed_from_u64(7);
        for _ in 0..2_000 {
            let n = rng.index(12);
            let spans: Vec<Span> = (0..n)
                .map(|_| {
                    let start = rng.next_below(10) * 10;
                    let end = start + rng.next_below(5) * 10;
                    let phase = [SpanPhase::Tx, SpanPhase::Rx, SpanPhase::SrvCpu][rng.index(3)];
                    span(phase, rng.index(3), start, end)
                })
                .collect();
            let t0 = t(rng.next_below(4) * 10);
            let t1 = t(t0.as_nanos() + rng.next_below(12) * 10);
            assert_eq!(
                critical_path(t0, t1, &spans),
                reference_critical_path(t0, t1, &spans),
                "{spans:?}"
            );
        }
    }

    #[test]
    fn late_records_after_end_are_ignored() {
        let mut c = SpanCollector::new(0);
        let op = c.begin_op(SpanOpClass::Get, t(0));
        c.end_op(op, t(5), false);
        c.record_for(op, SpanPhase::Rx, NodeId(0), t(5), t(50));
        assert_eq!(c.ops_completed(), 1);
        assert_eq!(c.attributions()[0].other_ns, 5);
    }
}
