//! End-to-end TraceBus guarantees: a traced run emits the full event
//! vocabulary with virtual timestamps, two identical runs produce
//! byte-identical trace text, and a disabled trace stays invisible.

use std::cell::RefCell;
use std::rc::Rc;

use eckv::prelude::*;
use eckv::simnet::{JsonlSink, SimDuration, Trace, TraceBus};

/// Runs the canonical Era-CE-CD write/kill/read workload with a JSONL sink
/// attached and returns (trace text, events emitted, series CSV).
fn traced_run(ops: usize) -> (String, u64, String) {
    let sink = Rc::new(RefCell::new(JsonlSink::new()));
    let mut bus = TraceBus::new();
    bus.add_sink(sink.clone());
    bus.enable_series(SimDuration::from_millis(10));
    let trace = Trace::from_bus(bus);

    let world = World::new_traced(
        EngineConfig::new(
            ClusterConfig::new(ClusterProfile::RiQdr, 5, 1),
            Scheme::era_ce_cd(3, 2),
        ),
        trace.clone(),
    );
    let mut sim = Simulation::new();
    let writes: Vec<Op> = (0..ops)
        .map(|i| Op::set_synthetic(format!("k{i}"), 64 << 10, i as u64))
        .collect();
    run_workload(&world, &mut sim, vec![writes]);
    world.cluster.kill_server(1);
    world.reset_metrics();
    let reads: Vec<Op> = (0..ops).map(|i| Op::get(format!("k{i}"))).collect();
    run_workload(&world, &mut sim, vec![reads]);
    assert_eq!(world.metrics.borrow().errors, 0);

    let text = sink.borrow().contents().to_string();
    let emitted = trace
        .with_bus(|bus| bus.events_emitted())
        .expect("trace is enabled");
    let series = trace
        .with_bus(|bus| bus.series().expect("series enabled").to_csv())
        .expect("trace is enabled");
    (text, emitted, series)
}

#[test]
fn traced_run_emits_full_event_vocabulary() {
    let (text, emitted, _) = traced_run(50);
    assert!(emitted > 0);
    // One schema-version header line precedes the events.
    assert_eq!(text.lines().count() as u64, emitted + 1);
    assert!(
        text.starts_with("{\"schema\":\"eckv.trace\",\"version\":1}\n"),
        "missing schema header: {}",
        text.lines().next().unwrap_or_default()
    );
    // Degraded reads past the killed server force decodes; writes encode.
    for needle in [
        "\"event\":\"op_admitted\"",
        "\"event\":\"op_completed\"",
        "\"event\":\"shard_send\"",
        "\"event\":\"shard_recv\"",
        "\"event\":\"nic_queue_enter\"",
        "\"event\":\"nic_queue_exit\"",
        "\"event\":\"encode_start\"",
        "\"event\":\"encode_end\"",
        "\"event\":\"decode_start\"",
        "\"event\":\"decode_end\"",
        "\"event\":\"failure_detected\"",
    ] {
        assert!(text.contains(needle), "missing {needle}");
    }
    // Every event line carries a virtual timestamp and a sequence number.
    for line in text.lines().skip(1).take(100) {
        assert!(line.starts_with("{\"at_ns\":"), "malformed line: {line}");
        assert!(line.contains("\"seq\":"), "malformed line: {line}");
    }
}

/// Runs the same write/kill/read workload with causal spans enabled and
/// returns (trace text, --explain-tail report, Perfetto JSON, per-op
/// (attributed ns, wall ns) pairs).
fn spanned_run(ops: usize) -> (String, String, String, Vec<(u64, u64)>) {
    let sink = Rc::new(RefCell::new(JsonlSink::new()));
    let mut bus = TraceBus::new();
    bus.add_sink(sink.clone());
    bus.enable_spans(16);
    let trace = Trace::from_bus(bus);

    let world = World::new_traced(
        EngineConfig::new(
            ClusterConfig::new(ClusterProfile::RiQdr, 5, 1),
            Scheme::era_ce_cd(3, 2),
        ),
        trace.clone(),
    );
    let mut sim = Simulation::new();
    let writes: Vec<Op> = (0..ops)
        .map(|i| Op::set_synthetic(format!("k{i}"), 64 << 10, i as u64))
        .collect();
    run_workload(&world, &mut sim, vec![writes]);
    world.cluster.kill_server(1);
    world.reset_metrics();
    let reads: Vec<Op> = (0..ops).map(|i| Op::get(format!("k{i}"))).collect();
    run_workload(&world, &mut sim, vec![reads]);
    assert_eq!(world.metrics.borrow().errors, 0);

    let text = sink.borrow().contents().to_string();
    let (explain, perfetto, per_op) = trace
        .with_bus(|bus| {
            let spans = bus.spans().expect("spans enabled");
            let per_op: Vec<(u64, u64)> = spans
                .attributions()
                .iter()
                .map(|a| (a.attributed_ns(), a.latency.as_nanos()))
                .collect();
            (spans.explain_tail(), spans.perfetto_json(8), per_op)
        })
        .expect("trace is enabled");
    (text, explain, perfetto, per_op)
}

#[test]
fn spans_attribute_nearly_all_tail_wall_time() {
    let (_, explain, perfetto, per_op) = spanned_run(120);
    assert!(
        explain.contains("critical-path tail attribution"),
        "{explain}"
    );
    assert!(perfetto.contains("\"traceEvents\""));
    assert!(perfetto.contains("\"ph\":\"X\""));

    // Every op in the p95+ tail cohort must have >=95% of its wall time
    // attributed to named phases (the acceptance bar for --explain-tail).
    assert!(!per_op.is_empty());
    let mut lats: Vec<u64> = per_op.iter().map(|&(_, wall)| wall).collect();
    lats.sort_unstable();
    let p95 = lats[lats.len().saturating_sub(1).min(lats.len() * 95 / 100)];
    let mut tail_ops = 0usize;
    for &(attributed, wall) in &per_op {
        if wall < p95 || wall == 0 {
            continue;
        }
        tail_ops += 1;
        assert!(
            attributed * 100 >= wall * 95,
            "tail op only {attributed} of {wall} ns attributed"
        );
    }
    assert!(tail_ops > 0, "no tail-cohort ops found");
}

#[test]
fn span_reports_are_deterministic_across_runs() {
    let (text_a, explain_a, perfetto_a, _) = spanned_run(60);
    let (text_b, explain_b, perfetto_b, _) = spanned_run(60);
    assert_eq!(explain_a, explain_b, "--explain-tail must be reproducible");
    assert_eq!(
        perfetto_a, perfetto_b,
        "Perfetto export must be reproducible"
    );
    assert_eq!(text_a, text_b);
}

#[test]
fn spans_leave_event_trace_byte_identical() {
    // Enabling spans must not add, drop, or reorder any trace event. The
    // series aggregator in traced_run never writes to sinks, so the two
    // sink texts must match byte for byte.
    let (plain, _, _) = traced_run(40);
    let (spanned, _, _, _) = spanned_run(40);
    assert_eq!(plain, spanned);
}

#[test]
fn identical_runs_produce_byte_identical_traces() {
    let (a, emitted_a, series_a) = traced_run(40);
    let (b, emitted_b, series_b) = traced_run(40);
    assert_eq!(emitted_a, emitted_b);
    assert_eq!(a, b, "same seed must reproduce the trace byte-for-byte");
    assert_eq!(series_a, series_b);
}

#[test]
fn series_covers_multiple_windows_with_nonzero_throughput() {
    let (_, _, series) = traced_run(300);
    let busy_windows = series
        .lines()
        .skip(1)
        .filter(|row| {
            let ops: u64 = row.split(',').nth(2).unwrap().parse().unwrap();
            ops > 0
        })
        .count();
    assert!(
        busy_windows >= 2,
        "expected >=2 windows with completions, got {busy_windows}:\n{series}"
    );
}

#[test]
fn disabled_trace_adds_no_events_and_changes_no_results() {
    // Same workload, one traced world and one plain one: the trace must not
    // perturb the simulation, and the disabled handle must never fire.
    let (_, emitted, _) = traced_run(25);
    assert!(emitted > 0);

    let plain = Trace::disabled();
    assert!(!plain.is_enabled());
    assert!(plain.with_bus(|b| b.events_emitted()).is_none());

    let run = |trace: Trace| {
        let world = World::new_traced(
            EngineConfig::new(
                ClusterConfig::new(ClusterProfile::RiQdr, 5, 1),
                Scheme::era_ce_cd(3, 2),
            ),
            trace,
        );
        let mut sim = Simulation::new();
        let writes: Vec<Op> = (0..25)
            .map(|i| Op::set_synthetic(format!("k{i}"), 64 << 10, i as u64))
            .collect();
        run_workload(&world, &mut sim, vec![writes]);
        let m = world.metrics.borrow();
        (m.ops(), m.bytes_written, m.elapsed())
    };
    let traced = run(Trace::from_bus(TraceBus::new()));
    let untraced = run(Trace::disabled());
    assert_eq!(traced, untraced, "tracing must not perturb the simulation");
}

#[test]
fn per_server_nic_use_covers_only_the_measured_window() {
    // `eckv-sim --workload ycsb-a --clients 150 --client-nodes 10
    // --size 32K --window 1` at fewer ops. The load phase used to count
    // toward the NIC busy totals divided by the run's elapsed time, so
    // servers printed rx near 200%.
    let clients = 150;
    let ops = 20;
    let world = World::new(
        EngineConfig::new(
            ClusterConfig::new(ClusterProfile::RiQdr, 5, clients).client_nodes(10),
            Scheme::era_ce_cd(3, 2),
        )
        .window(1)
        .validate(false),
    );
    let mut sim = Simulation::new();
    let cfg = eckv::ycsb::YcsbConfig {
        workload: eckv::ycsb::Workload::A,
        record_count: (ops * clients as u64 / 2).max(100),
        ops_per_client: ops,
        clients,
        value_len: 32 << 10,
        seed: 2017,
    };
    eckv::ycsb::run(&world, &mut sim, &cfg);
    // What eckv-sim divides by: the window's first admission to the end.
    let started = world.metrics.borrow().started_at.expect("ops ran");
    let elapsed = sim.now().since(started).as_nanos();
    assert!(elapsed > 0);
    let pct = |d: SimDuration| d.as_nanos() as f64 * 100.0 / elapsed as f64;
    let mut whole_run_rx_max = 0.0f64;
    for i in 0..world.cluster.servers.len() {
        let w = world.server_window(i);
        assert!(
            pct(w.nic_tx_busy) <= 100.0 && pct(w.nic_rx_busy) <= 100.0,
            "server {i}: nic tx {:.2}% rx {:.2}%",
            pct(w.nic_tx_busy),
            pct(w.nic_rx_busy)
        );
        let (_, rx) = world
            .cluster
            .net
            .borrow()
            .nic_busy(world.cluster.server_node(i));
        whole_run_rx_max = whole_run_rx_max.max(pct(rx));
        // Sets and hits are windowed too: only measured-phase ops count.
        let st = world.cluster.servers[i].borrow().stats();
        assert!(w.sets < st.sets, "server {i}: load-phase sets leaked in");
    }
    // Control: the unwindowed totals over the same elapsed time are the
    // over-100% figures this guards against.
    assert!(whole_run_rx_max > 100.0, "{whole_run_rx_max:.1}%");
}
