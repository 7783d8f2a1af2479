//! The four workloads and one repetition of each.
//!
//! A repetition builds a fresh world, generates its inputs from the seed,
//! loads it (the set-up phase), then runs the measured phase and checks
//! the outputs. Simulated-time figures are deterministic per seed; host
//! figures are wall-clock and vary between repetitions.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::path::Path;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use eckv_core::{
    driver, start_repair, AdmissionConfig, EngineConfig, Op, OpKind, RepairConfig, Scheme, World,
};
use eckv_simnet::{
    ClusterProfile, JsonlSink, NodeId, SimDuration, SimRng, SimTime, Simulation, Trace, TraceBus,
};
use eckv_store::{Bytes, ClusterConfig, Payload};
use eckv_ycsb::{load_ops, run_ops, Workload, YcsbConfig};

use crate::host::rss_mib;
use crate::replay::{self, ReplayInput};
use crate::spans::Spans;

/// Workload names, as the command line and `BENCHMARK.json` give them.
pub const NAMES: [&str; 4] = [
    "ycsb-a-paper",
    "ycsb-b-rebuild",
    "inline-degraded",
    "ycsb-a-traced",
];

/// SDSC-Comet effective NIC bandwidth in bytes per second; the rebuild
/// throttle is a share of it, as in the repair-interference experiment.
const NIC_BYTES_PER_SEC: u64 = 5_625_000_000;

/// The server killed and rebuilt online by `ycsb-b-rebuild`.
const REBUILT_SERVER: usize = 2;

/// The servers killed before `inline-degraded` reads every key back.
const KILLED_SERVERS: [usize; 2] = [1, 3];

/// Times `inline-degraded` reads every key back.
const READ_PASSES: usize = 3;

/// Spans kept for the slowest ops when span tracing is on, as in
/// `eckv-sim --explain-tail`.
const KEEP_SLOWEST: usize = 50;

/// The shape of a closed-loop YCSB workload.
#[derive(Debug, Clone, Copy)]
struct YcsbShape {
    scheme: Scheme,
    workload: Workload,
    records: u64,
    clients: usize,
    client_nodes: usize,
    ops_per_client: u64,
    value_len: u64,
    admission_depth: Option<u64>,
    rebuild: bool,
    traced: bool,
}

/// The real-byte workload: values of mixed sizes written, two servers
/// killed, every key read back.
#[derive(Debug, Clone, Copy)]
struct InlineShape {
    values: usize,
    min_len: u64,
    max_len: u64,
    clients: usize,
}

#[derive(Debug, Clone, Copy)]
enum Shape {
    Ycsb(YcsbShape),
    Inline(InlineShape),
}

fn shape(name: &str, quick: bool) -> Shape {
    // `quick` divides the op and record counts for the self-test; it keeps
    // every mechanism (rebuild, shedding, decode, trace sink) in play.
    let q = |full: u64, small: u64| if quick { small } else { full };
    let paper = YcsbShape {
        scheme: Scheme::era_ce_cd(3, 2),
        workload: Workload::A,
        records: q(40_000, 2_000),
        clients: 150,
        client_nodes: 10,
        ops_per_client: q(400, 20),
        value_len: 32 << 10,
        admission_depth: None,
        rebuild: false,
        traced: false,
    };
    match name {
        "ycsb-a-paper" => Shape::Ycsb(paper),
        "ycsb-a-traced" => Shape::Ycsb(YcsbShape {
            records: q(5_000, 1_000),
            ops_per_client: q(100, 10),
            traced: true,
            ..paper
        }),
        "ycsb-b-rebuild" => Shape::Ycsb(YcsbShape {
            scheme: Scheme::era_se_sd(3, 2),
            workload: Workload::B,
            records: q(2_000, 200),
            clients: q(1_000, 200) as usize,
            client_nodes: 10,
            ops_per_client: q(300, 100),
            value_len: 4 << 10,
            admission_depth: Some(48),
            rebuild: true,
            traced: false,
        }),
        "inline-degraded" => Shape::Inline(InlineShape {
            values: q(1_000, 60) as usize,
            min_len: 16 << 10,
            max_len: 1 << 20,
            clients: 10,
        }),
        other => panic!("unknown workload {other}"),
    }
}

/// Inputs generated by the benchmark itself, outside every timed phase
/// (the real bytes of `inline-degraded`); shared by all repetitions.
pub struct Inputs {
    values: Vec<(Arc<str>, Bytes)>,
}

/// Generates the workload's own input bytes from the seed.
pub fn inputs(name: &str, seed: u64, quick: bool) -> Inputs {
    let values = match shape(name, quick) {
        Shape::Ycsb(_) => Vec::new(),
        Shape::Inline(s) => {
            let mut rng = SimRng::seed_from_u64(seed);
            // Log-uniform sizes, many small values and a few near 1 MiB,
            // taken at evenly spaced quantiles so every seed writes the same
            // bytes in total; the seed shuffles their order and fills them.
            let (lo, hi) = ((s.min_len as f64).ln(), (s.max_len as f64).ln());
            let mut lens: Vec<usize> = (0..s.values)
                .map(|i| (lo + (hi - lo) * (i as f64 + 0.5) / s.values as f64).exp() as usize)
                .collect();
            rng.shuffle(&mut lens);
            lens.into_iter()
                .enumerate()
                .map(|(i, len)| {
                    let mut bytes = vec![0u8; len];
                    for chunk in bytes.chunks_mut(8) {
                        let word = rng.next_u64().to_le_bytes();
                        chunk.copy_from_slice(&word[..chunk.len()]);
                    }
                    (Arc::from(format!("blob{i:06}")), Bytes::from(bytes))
                })
                .collect()
        }
    };
    Inputs { values }
}

/// What one repetition measured.
#[derive(Debug)]
pub struct Rep {
    /// Simulated-time and count figures; identical across repetitions at
    /// one seed (the determinism gate compares them bit for bit).
    pub sim: BTreeMap<&'static str, f64>,
    /// Host-time figures of this repetition.
    pub host: BTreeMap<&'static str, f64>,
    /// Measured-phase operations attempted.
    pub attempted: u64,
    /// Measured-phase operations that failed or failed integrity checks.
    pub failed: u64,
    /// Per-layer figures of the replays (traced repetitions only).
    pub replay: BTreeMap<&'static str, f64>,
}

impl Rep {
    /// A repetition with the figures that only some workloads produce
    /// (repair, real-byte codec calls, the trace sink) preset to zero.
    fn new() -> Self {
        let sim = [
            "core.sim_repair_s",
            "core.repair_keys",
            "core.repair_keys_lost",
            "core.repair_read_amplification",
            "core.fg_get_p99_during_repair_us",
            "core.stale_chunks",
            "erasure.encodes",
            "erasure.decodes",
            "erasure.encoded_mb",
            "erasure.decoded_mb",
            "tracebus.events_per_op",
            "tracebus.sink_mb",
        ];
        let host = [
            "ycsb.gen_s",
            "ycsb.stream_rss_mb",
            "core.start_repair_s",
            "tracebus.write_s",
        ];
        Rep {
            sim: sim.into_iter().map(|k| (k, 0.0)).collect(),
            host: host.into_iter().map(|k| (k, 0.0)).collect(),
            attempted: 0,
            failed: 0,
            replay: BTreeMap::new(),
        }
    }
}

/// Exact nearest-rank percentile of sorted nanosecond samples, in µs.
fn percentile_us(sorted: &[u64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1] as f64 / 1e3
}

/// Sorted latencies (ns) of the successful ops of `kind` in the timeline.
fn samples(world: &World, kind: OpKind, until: Option<SimTime>) -> Vec<u64> {
    let m = world.metrics.borrow();
    let mut v: Vec<u64> = m
        .timeline
        .as_ref()
        .expect("timeline recording is on")
        .iter()
        .filter(|p| p.kind == kind && p.ok && until.is_none_or(|u| p.at <= u))
        .map(|p| p.latency.as_nanos())
        .collect();
    v.sort_unstable();
    v
}

/// Event-loop figures of one stepping pass.
struct Stepped {
    events: u64,
    queue_hwm: usize,
    host_s: f64,
    repair_host_s: f64,
}

/// Steps `sim` to quiescence, recording the queue high-water mark and the
/// host time spent while an online repair was active.
fn step_all(world: &World, sim: &mut Simulation) -> Stepped {
    let t = Instant::now();
    let ev0 = sim.events_executed();
    let mut hwm = sim.events_pending();
    let mut repair_host_s = 0.0;
    if world.repair_active() {
        while world.repair_active() && sim.step() {
            hwm = hwm.max(sim.events_pending());
        }
        repair_host_s = t.elapsed().as_secs_f64();
    }
    while sim.step() {
        hwm = hwm.max(sim.events_pending());
    }
    Stepped {
        events: sim.events_executed() - ev0,
        queue_hwm: hwm,
        host_s: t.elapsed().as_secs_f64(),
        repair_host_s,
    }
}

/// Enqueues `streams` and steps to quiescence inside spans; returns the
/// enqueue host time and the stepping figures.
fn drive(
    world: &Rc<World>,
    sim: &mut Simulation,
    streams: Vec<Vec<Op>>,
    spans: &mut Spans,
) -> (f64, Stepped) {
    let t = Instant::now();
    spans.wrap("core", "enqueue_workload", || {
        driver::enqueue_workload(world, sim, streams)
    });
    let enqueue_s = t.elapsed().as_secs_f64();
    spans.enter("simnet", "step_loop");
    let stepped = step_all(world, sim);
    spans.exit();
    (enqueue_s, stepped)
}

fn nic_snapshot(world: &World) -> Vec<(SimDuration, SimDuration)> {
    let net = world.cluster.net.borrow();
    (0..net.len()).map(|i| net.nic_busy(NodeId(i))).collect()
}

/// Highest per-NIC tx and rx utilisation (%) between two snapshots over a
/// window of `span` simulated time.
fn nic_busy_max_pct(
    before: &[(SimDuration, SimDuration)],
    after: &[(SimDuration, SimDuration)],
    span: SimDuration,
) -> Result<(f64, f64), String> {
    let window = span.as_nanos() as f64;
    let (mut tx, mut rx) = (0.0f64, 0.0f64);
    for (b, a) in before.iter().zip(after) {
        tx = tx.max((a.0 - b.0).as_nanos() as f64 / window * 100.0);
        rx = rx.max((a.1 - b.1).as_nanos() as f64 / window * 100.0);
    }
    if tx > 100.0 || rx > 100.0 {
        return Err(format!(
            "NIC utilisation above 100% over the measured phase: tx {tx:.2}%, rx {rx:.2}%"
        ));
    }
    Ok((tx, rx))
}

/// Post-scan of the stored chunks through the stores' public API.
struct Scan {
    /// Chunks absent from their placement target.
    missing: Vec<String>,
    /// Chunks present but not derived from the key's last completed write.
    stale: u64,
}

/// Checks every written key's chunks on its placement targets against
/// the digest of the key's last completed write.
fn post_scan(world: &World) -> Scan {
    let striper = world.striper.as_ref().expect("erasure scheme");
    let mut scan = Scan {
        missing: Vec::new(),
        stale: 0,
    };
    let expected = world.expected.borrow();
    let mut keys: Vec<&Arc<str>> = expected.keys().collect();
    keys.sort();
    for key in keys {
        let w = expected[key];
        let value = Payload::Synthetic {
            len: w.len,
            digest: w.digest,
        };
        let shard_len = striper.shard_len_for(w.len as usize) as u64;
        for (i, &srv) in world.targets(key).iter().enumerate() {
            match world.cluster.servers[srv]
                .borrow()
                .store()
                .peek(&format!("{key}.s{i}"))
            {
                None => scan
                    .missing
                    .push(format!("{key} shard {i} on server {srv}")),
                Some(chunk) if chunk != value.shard(i, shard_len) => scan.stale += 1,
                Some(_) => {}
            }
        }
    }
    scan
}

/// Runs one repetition of workload `name`.
pub fn run_rep(
    name: &str,
    seed: u64,
    quick: bool,
    inputs: &Inputs,
    spans: &mut Spans,
    out_dir: &Path,
) -> Result<Rep, String> {
    match shape(name, quick) {
        Shape::Ycsb(s) => ycsb_rep(&s, seed, spans, out_dir),
        Shape::Inline(s) => inline_rep(&s, inputs, spans),
    }
}

fn ycsb_rep(s: &YcsbShape, seed: u64, spans: &mut Spans, out_dir: &Path) -> Result<Rep, String> {
    let mut rep = Rep::new();
    let cfg = YcsbConfig {
        workload: s.workload,
        record_count: s.records,
        ops_per_client: s.ops_per_client,
        clients: s.clients,
        value_len: s.value_len,
        seed,
    };

    // ---- set-up: stream generation, World::new, load phase ----
    let setup_start = Instant::now();
    spans.enter("bench", "setup");
    let rss0 = rss_mib();
    let t = Instant::now();
    let load = spans.wrap("ycsb", "load_ops", || load_ops(&cfg));
    let run = spans.wrap("ycsb", "run_ops", || run_ops(&cfg));
    rep.host.insert("ycsb.gen_s", t.elapsed().as_secs_f64());
    rep.host.insert("ycsb.stream_rss_mb", rss_mib() - rss0);

    let sink = Rc::new(RefCell::new(JsonlSink::new()));
    let trace = if s.traced {
        let mut bus = TraceBus::new();
        bus.add_sink(sink.clone());
        bus.enable_spans(KEEP_SLOWEST);
        Trace::from_bus(bus)
    } else {
        Trace::disabled()
    };
    let mut engine = EngineConfig::new(
        ClusterConfig::new(ClusterProfile::SdscComet, 5, s.clients)
            .client_nodes(s.client_nodes)
            .server_memory(64 << 30),
        s.scheme,
    )
    .window(1)
    // Concurrent YCSB updates of one key make stale-but-intact reads
    // legitimate, so reads are not digest-checked; the post-scan checks
    // the stored chunks instead.
    .validate(false)
    .record_timeline(true);
    if let Some(depth) = s.admission_depth {
        engine = engine.admission(AdmissionConfig::depth(depth));
    }
    if s.rebuild {
        engine = engine.repair(
            RepairConfig::default()
                .window(8)
                .bandwidth(NIC_BYTES_PER_SEC / 4),
        );
    }
    let t = Instant::now();
    let world = spans.wrap("core", "World::new", || World::new_traced(engine, trace));
    rep.host
        .insert("core.world_new_s", t.elapsed().as_secs_f64());
    let mut sim = Simulation::new();

    let load_n: u64 = load.iter().map(|c| c.len() as u64).sum();
    spans.enter("core", "load");
    let (load_enqueue_s, _) = drive(&world, &mut sim, load, spans);
    spans.exit();
    {
        let m = world.metrics.borrow();
        if m.errors != 0 || m.ops() != load_n {
            return Err(format!(
                "load phase: {} of {load_n} sets completed, {} failed",
                m.ops(),
                m.errors
            ));
        }
    }
    world.reset_metrics();
    if s.rebuild {
        world.cluster.kill_server(REBUILT_SERVER);
    }
    spans.exit();
    rep.host
        .insert("setup_s", setup_start.elapsed().as_secs_f64());

    // ---- measured phase ----
    let attempted: u64 = run.iter().map(|c| c.len() as u64).sum();
    let nic0 = nic_snapshot(&world);
    let sim0 = sim.now();
    let bus_events0 = world.trace.with_bus(|b| b.events_emitted()).unwrap_or(0);
    let measured_start = Instant::now();
    spans.enter("bench", "measured");
    if s.rebuild {
        let t = Instant::now();
        spans.wrap("core", "start_repair", || {
            start_repair(&world, &mut sim, REBUILT_SERVER)
        });
        rep.host
            .insert("core.start_repair_s", t.elapsed().as_secs_f64());
    }
    let (run_enqueue_s, stepped) = drive(&world, &mut sim, run, spans);
    let mut sink_mb = 0.0;
    if s.traced {
        // What `eckv-sim --trace --explain-tail` does after its run.
        spans.enter("tracebus", "write_jsonl");
        let t = Instant::now();
        let tail = world
            .trace
            .with_bus(|b| b.spans().map(|sc| sc.explain_tail()));
        let path = out_dir.join(format!("trace-{}.jsonl", std::process::id()));
        let written = {
            let sink = sink.borrow();
            sink_mb = sink.contents().len() as f64 / (1 << 20) as f64;
            std::fs::write(&path, sink.contents())
        };
        rep.host
            .insert("tracebus.write_s", t.elapsed().as_secs_f64());
        spans.exit();
        written.map_err(|e| format!("writing {}: {e}", path.display()))?;
        std::fs::remove_file(&path).map_err(|e| format!("removing {}: {e}", path.display()))?;
        if tail.flatten().is_none_or(|t| t.is_empty()) {
            return Err("span tracing produced no tail attribution".into());
        }
    }
    let measured_s = measured_start.elapsed().as_secs_f64();
    spans.exit();
    rep.host.insert("measured_s", measured_s);
    rep.host
        .insert("core.enqueue_s", load_enqueue_s + run_enqueue_s);
    rep.host.insert("core.repair_host_s", stepped.repair_host_s);
    rep.host.insert(
        "simnet.ns_per_event",
        stepped.host_s * 1e9 / stepped.events.max(1) as f64,
    );

    // ---- checks and simulated figures ----
    let span = sim.now().since(sim0);
    let (tx, rx) = nic_busy_max_pct(&nic0, &nic_snapshot(&world), span)?;
    let m = world.metrics.borrow().clone();
    rep.attempted = attempted;
    rep.failed = m.errors + m.integrity_errors;
    if m.ops() != attempted {
        return Err(format!(
            "{attempted} ops attempted but {} completed or failed",
            m.ops()
        ));
    }
    if s.rebuild {
        let report = world
            .last_repair_report()
            .ok_or("the rebuild did not finish")?;
        if report.keys_lost != 0 {
            return Err(format!("the rebuild lost {} keys", report.keys_lost));
        }
        let end = sim0 + report.elapsed;
        if m.finished_at <= end {
            return Err(format!(
                "foreground ops ended at {} before the rebuild did at {end}",
                m.finished_at
            ));
        }
        let during = samples(&world, OpKind::Get, Some(end));
        let sim = &mut rep.sim;
        sim.insert("core.sim_repair_s", report.elapsed.as_secs_f64());
        sim.insert("core.repair_keys", report.keys_repaired as f64);
        sim.insert("core.repair_keys_lost", report.keys_lost as f64);
        sim.insert(
            "core.repair_read_amplification",
            report.bytes_read as f64 / report.bytes_written.max(1) as f64,
        );
        sim.insert(
            "core.fg_get_p99_during_repair_us",
            if during.is_empty() {
                0.0
            } else {
                percentile_us(&during, 99.0)
            },
        );
    }
    // Full redundancy: every chunk of every key is on its target.
    let scan = post_scan(&world);
    if !scan.missing.is_empty() {
        return Err(format!(
            "post-scan: {} chunks missing: {:?}",
            scan.missing.len(),
            scan.missing
        ));
    }
    let gets = samples(&world, OpKind::Get, None);
    let sets = samples(&world, OpKind::Set, None);
    let bus_events = world.trace.with_bus(|b| b.events_emitted()).unwrap_or(0) - bus_events0;
    common_figures(&mut rep, &world, &m, &gets, &sets, m.ops());
    let sim = &mut rep.sim;
    sim.insert("core.stale_chunks", scan.stale as f64);
    sim.insert("simnet.events", stepped.events as f64);
    sim.insert(
        "simnet.events_per_op",
        stepped.events as f64 / m.ops() as f64,
    );
    sim.insert("simnet.queue_hwm", stepped.queue_hwm as f64);
    sim.insert("simnet.nic_tx_busy_max_pct", tx);
    sim.insert("simnet.nic_rx_busy_max_pct", rx);
    sim.insert("tracebus.events_per_op", bus_events as f64 / m.ops() as f64);
    sim.insert("tracebus.sink_mb", sink_mb);
    rep.host
        .insert("host_ops_per_s", attempted as f64 / measured_s);

    if spans.enabled() {
        let keys: Vec<Arc<str>> = run_ops(&cfg)
            .into_iter()
            .flatten()
            .map(|op| Arc::from(op.key()))
            .collect();
        let lost: &[usize] = if s.rebuild { &[REBUILT_SERVER] } else { &[] };
        rep.replay = replay::run(
            &world,
            &ReplayInput {
                keys: &keys,
                values: &[],
                value_len: s.value_len as usize,
                lost_servers: lost,
                seed,
            },
            spans,
        )?;
    }
    Ok(rep)
}

/// Figures every workload reports from the measured phase's metrics.
fn common_figures(
    rep: &mut Rep,
    world: &World,
    m: &eckv_core::Metrics,
    gets: &[u64],
    sets: &[u64],
    ops: u64,
) {
    if gets.is_empty() || sets.is_empty() {
        // The figures stay unset; the run's metric check reports them.
        return;
    }
    let mem = world.memory_report();
    let stats = world.cluster.aggregate_stats();
    let user_bytes: u64 = world.expected.borrow().values().map(|w| w.len).sum();
    let (sb, gb) = (m.avg_set_breakdown(), m.avg_get_breakdown());
    let sim = &mut rep.sim;
    sim.insert("sim_ops_per_s", m.throughput_ops_per_sec());
    sim.insert("bench.sim_get_samples", gets.len() as f64);
    sim.insert("bench.sim_set_samples", sets.len() as f64);
    sim.insert("sim_get_p50_us", percentile_us(gets, 50.0));
    sim.insert("sim_get_p99_us", percentile_us(gets, 99.0));
    sim.insert("sim_set_p50_us", percentile_us(sets, 50.0));
    sim.insert("sim_set_p99_us", percentile_us(sets, 99.0));
    sim.insert("ok_op_pct", 100.0 * (ops - rep.failed) as f64 / ops as f64);
    sim.insert(
        "stored_bytes_per_user_byte",
        mem.used_bytes as f64 / user_bytes as f64,
    );
    sim.insert("core.set_request_us", sb.request.as_micros_f64());
    sim.insert("core.set_wait_us", sb.wait_response.as_micros_f64());
    sim.insert("core.set_compute_us", sb.compute.as_micros_f64());
    sim.insert("core.get_request_us", gb.request.as_micros_f64());
    sim.insert("core.get_wait_us", gb.wait_response.as_micros_f64());
    sim.insert("core.get_compute_us", gb.compute.as_micros_f64());
    sim.insert("core.retries", m.retries as f64);
    sim.insert("core.ops_failed", rep.failed as f64);
    sim.insert("core.repair_promotions", m.repair_promotions as f64);
    let lookups = (stats.hits + stats.misses).max(1);
    sim.insert("store.hit_ratio", stats.hits as f64 / lookups as f64);
    sim.insert("store.evictions", stats.evictions as f64);
    sim.insert("store.used_mb", mem.used_bytes as f64 / (1 << 20) as f64);
    sim.insert("store.sheds", m.sheds as f64);
    sim.insert("store.shed_ratio", m.shed_rate());
}

fn inline_rep(s: &InlineShape, inputs: &Inputs, spans: &mut Spans) -> Result<Rep, String> {
    let mut rep = Rep::new();
    let streams = |make: &dyn Fn(&Arc<str>, &Bytes) -> Op| -> Vec<Vec<Op>> {
        let mut out: Vec<Vec<Op>> = vec![Vec::new(); s.clients];
        for (i, (k, v)) in inputs.values.iter().enumerate() {
            out[i % s.clients].push(make(k, v));
        }
        out
    };
    let n = inputs.values.len() as u64;

    // ---- set-up: World::new and the write phase (input bytes excluded) ----
    let writes = streams(&|k, v| Op::set_inline(k.clone(), v.clone()));
    let setup_start = Instant::now();
    spans.enter("bench", "setup");
    let t = Instant::now();
    let world = spans.wrap("core", "World::new", || {
        World::new(
            EngineConfig::new(
                ClusterConfig::new(ClusterProfile::SdscComet, 5, s.clients).client_nodes(5),
                Scheme::era_ce_cd(3, 2),
            )
            .window(1)
            .validate(true)
            .record_timeline(true),
        )
    });
    rep.host
        .insert("core.world_new_s", t.elapsed().as_secs_f64());
    let mut sim = Simulation::new();
    spans.enter("core", "load");
    let (load_enqueue_s, _) = drive(&world, &mut sim, writes, spans);
    spans.exit();
    spans.exit();
    rep.host
        .insert("setup_s", setup_start.elapsed().as_secs_f64());
    let (load_ops, load_failed) = {
        let m = world.metrics.borrow();
        (m.ops(), m.errors + m.integrity_errors)
    };
    if load_ops != n || load_failed != 0 {
        return Err(format!(
            "write phase: {load_ops} of {n} sets completed, {load_failed} failed"
        ));
    }
    // The only sets of this workload are the write phase's.
    let sets = samples(&world, OpKind::Set, None);
    let set_breakdown = world.metrics.borrow().avg_set_breakdown();
    world.reset_metrics();
    for srv in KILLED_SERVERS {
        world.cluster.kill_server(srv);
    }

    // ---- measured phase: read every key back with two servers down ----
    // Each pass reads every key, starting a different share of the way in,
    // so a client's reads mix differently sized values in every pass.
    let mut reads: Vec<Vec<Op>> = vec![Vec::new(); s.clients];
    for pass in 0..READ_PASSES {
        let offset = pass * inputs.values.len() / READ_PASSES;
        for i in 0..inputs.values.len() {
            let (key, _) = &inputs.values[(i + offset) % inputs.values.len()];
            reads[i % s.clients].push(Op::get(key.clone()));
        }
    }
    let attempted = n * READ_PASSES as u64;
    let nic0 = nic_snapshot(&world);
    let sim0 = sim.now();
    let measured_start = Instant::now();
    spans.enter("bench", "measured");
    let (run_enqueue_s, stepped) = drive(&world, &mut sim, reads, spans);
    spans.exit();
    let measured_s = measured_start.elapsed().as_secs_f64();
    rep.host.insert("measured_s", measured_s);
    rep.host
        .insert("host_ops_per_s", attempted as f64 / measured_s);
    rep.host
        .insert("core.enqueue_s", load_enqueue_s + run_enqueue_s);
    rep.host.insert("core.repair_host_s", stepped.repair_host_s);
    rep.host.insert(
        "simnet.ns_per_event",
        stepped.host_s * 1e9 / stepped.events.max(1) as f64,
    );

    let (tx, rx) = nic_busy_max_pct(&nic0, &nic_snapshot(&world), sim.now().since(sim0))?;
    let m = world.metrics.borrow().clone();
    rep.attempted = attempted;
    rep.failed = m.errors + m.integrity_errors;
    if m.get_count != attempted || m.errors != 0 || m.integrity_errors != 0 {
        return Err(format!(
            "read-back: {} of {attempted} reads done, {} failed, {} integrity errors",
            m.get_count, m.errors, m.integrity_errors
        ));
    }
    if m.get_degraded_count == 0 {
        return Err("no read decoded with erasures".into());
    }
    let gets = samples(&world, OpKind::Get, None);
    common_figures(&mut rep, &world, &m, &gets, &sets, attempted);
    rep.sim
        .insert("core.set_request_us", set_breakdown.request.as_micros_f64());
    rep.sim.insert(
        "core.set_wait_us",
        set_breakdown.wait_response.as_micros_f64(),
    );
    rep.sim
        .insert("core.set_compute_us", set_breakdown.compute.as_micros_f64());
    let user_bytes: u64 = inputs.values.iter().map(|(_, v)| v.len() as u64).sum();
    let sim = &mut rep.sim;
    sim.insert("simnet.events", stepped.events as f64);
    sim.insert(
        "simnet.events_per_op",
        stepped.events as f64 / attempted as f64,
    );
    sim.insert("simnet.queue_hwm", stepped.queue_hwm as f64);
    sim.insert("simnet.nic_tx_busy_max_pct", tx);
    sim.insert("simnet.nic_rx_busy_max_pct", rx);
    // Real-byte codec calls: one encode per written value, one decode per
    // degraded read (estimated at the mean value size).
    sim.insert("erasure.encodes", n as f64);
    sim.insert("erasure.decodes", m.get_degraded_count as f64);
    sim.insert("erasure.encoded_mb", user_bytes as f64 / (1 << 20) as f64);
    sim.insert(
        "erasure.decoded_mb",
        m.get_degraded_count as f64 * (user_bytes as f64 / n as f64) / (1 << 20) as f64,
    );

    if spans.enabled() {
        let keys: Vec<Arc<str>> = inputs.values.iter().map(|(k, _)| k.clone()).collect();
        let values: Vec<Bytes> = inputs.values.iter().map(|(_, v)| v.clone()).collect();
        rep.replay = replay::run(
            &world,
            &ReplayInput {
                keys: &keys,
                values: &values,
                value_len: 0,
                lost_servers: &KILLED_SERVERS,
                seed: 0,
            },
            spans,
        )?;
    }
    Ok(rep)
}
