//! Cross-version golden for every trace exporter: one small traced
//! scenario — a kill, a straggler with hedged reads, admission shedding,
//! flash spills, an online repair under foreground load, and a scale-out
//! migration, together emitting every event kind in the schema —
//! rendered through the JSONL sink, the CSV sink, the span layer's
//! `explain_tail()` report and its Perfetto export, each compared byte for
//! byte against a file captured from an earlier build. Same-build
//! determinism is checked elsewhere; this pins the encoders across
//! rewrites.
//!
//! Regenerate the golden files (only after an *intentional* export
//! change) with:
//!
//! ```text
//! ECKV_BLESS_GOLDEN=1 cargo test --test exporter_golden
//! ```

use std::cell::RefCell;
use std::path::PathBuf;
use std::rc::Rc;

use eckv::prelude::*;
use eckv::simnet::{CsvSink, JsonlSink, Trace, TraceBus};
use eckv::store::SsdSpec;

/// Keys written in the load phase.
const KEYS: usize = 12;
/// Concurrent clients.
const CLIENTS: usize = 4;
/// The server killed and rebuilt online.
const DEAD: usize = 2;
/// The straggling (slow but alive) server.
const SLOW: usize = 0;
/// Raw span trees retained, and the number exported to Perfetto.
const KEEP_SLOWEST: usize = 6;

/// The four exports of one scenario run.
struct Exports {
    jsonl: String,
    csv: String,
    explain: String,
    perfetto: String,
}

fn scenario() -> Exports {
    let jsonl = Rc::new(RefCell::new(JsonlSink::new()));
    let csv = Rc::new(RefCell::new(CsvSink::new()));
    let mut bus = TraceBus::new();
    bus.add_sink(jsonl.clone());
    bus.add_sink(csv.clone());
    bus.enable_spans(KEEP_SLOWEST);
    let trace = Trace::from_bus(bus);
    let world = World::new_traced(
        EngineConfig::new(
            ClusterConfig::new(ClusterProfile::RiQdr, 5, CLIENTS)
                .workers(1)
                .max_servers(6)
                .server_memory(40 << 10)
                .ssd(SsdSpec::RI_QDR_PCIE.with_capacity(1 << 30)),
            Scheme::era_ce_cd(3, 2),
        )
        .window(2)
        .hedge(HedgeConfig::after(SimDuration::from_micros(40)))
        .deadline(SimDuration::from_micros(100))
        .repair(RepairConfig::default().window(2).bandwidth(2 << 30))
        .admission(AdmissionConfig::depth(3).repair_depth(1)),
        trace.clone(),
    );
    let mut sim = Simulation::new();

    // Load into RAM small enough that some chunks spill to flash.
    let writes: Vec<Vec<Op>> = (0..CLIENTS)
        .map(|c| {
            (c..KEYS)
                .step_by(CLIENTS)
                .map(|i| {
                    Op::set_synthetic(format!("x{i:02}"), ((i % 4) as u64 + 1) << 12, i as u64)
                })
                .collect()
        })
        .collect();
    run_workload(&world, &mut sim, writes);

    // Kill one server and let a few reads discover it.
    world.cluster.kill_server(DEAD);
    let probe: Vec<Op> = (0..KEYS).map(|i| Op::get(format!("x{i:02}"))).collect();
    run_workload(&world, &mut sim, vec![probe]);

    // Slow another server and rebuild the dead one online under reads.
    world
        .cluster
        .slow_server(sim.now(), SLOW, 8.0, SimDuration::from_micros(50));
    start_repair(&world, &mut sim, DEAD);
    let reads: Vec<Vec<Op>> = (0..CLIENTS)
        .map(|c| {
            (0..KEYS / 2)
                .map(|i| Op::get(format!("x{:02}", (i + c * 5) % KEYS)))
                .collect()
        })
        .collect();
    enqueue_workload(&world, &mut sim, reads);
    sim.run();
    assert!(
        world.last_repair_report().is_some(),
        "the online rebuild must finish"
    );

    // Grow the cluster: the spare joins and vshards migrate onto it.
    schedule_join(&world, &mut sim, SimDuration::from_micros(10));
    let tail: Vec<Vec<Op>> = vec![(0..KEYS / 3).map(|i| Op::get(format!("x{i:02}"))).collect()];
    enqueue_workload(&world, &mut sim, tail);
    sim.run();

    let (explain, perfetto) = trace
        .with_bus(|bus| {
            let spans = bus.spans().expect("spans enabled");
            (spans.explain_tail(), spans.perfetto_json(KEEP_SLOWEST))
        })
        .expect("trace is enabled");
    let jsonl = jsonl.borrow().contents().to_string();
    let csv = csv.borrow().contents().to_string();
    Exports {
        jsonl,
        csv,
        explain,
        perfetto,
    }
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(name)
}

/// Compares `got` with the named golden file, or rewrites the file when
/// `ECKV_BLESS_GOLDEN` is set.
fn check(name: &str, got: &str) {
    let path = golden_path(name);
    if std::env::var_os("ECKV_BLESS_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir golden");
        std::fs::write(&path, got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{name}: {e}; bless with ECKV_BLESS_GOLDEN=1"));
    if got != want {
        let line = got
            .lines()
            .zip(want.lines())
            .position(|(g, w)| g != w)
            .map_or_else(|| "length".to_string(), |i| format!("line {}", i + 1));
        panic!(
            "{name} diverged from the golden at {line} ({} vs {} bytes)",
            got.len(),
            want.len()
        );
    }
}

#[test]
fn every_exporter_matches_its_golden() {
    let e = scenario();
    check("exporters.jsonl", &e.jsonl);
    check("exporters.csv", &e.csv);
    check("exporters.explain.txt", &e.explain);
    check("exporters.perfetto.json", &e.perfetto);
}

#[test]
fn the_scenario_covers_the_whole_event_vocabulary() {
    let e = scenario();
    // The schema lists one `name: fields` line per event after its
    // two-line preamble.
    let schema = eckv::simnet::event_schema();
    for line in schema.lines().skip(2) {
        let event = line.split(':').next().expect("event name");
        let needle = format!("\"event\":\"{event}\"");
        assert!(e.jsonl.contains(&needle), "scenario never emits {event}");
    }
}
