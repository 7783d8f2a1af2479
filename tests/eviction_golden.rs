//! Cross-version golden for LRU eviction: which items a store node
//! evicts, in what order they spill to the flash tier, and what the
//! statistics say afterwards.
//!
//! Two scenarios write one JSONL file:
//!
//! * A two-tier store driven op by op from a seeded stream: a small RAM
//!   [`StoreNode`] spills its victims into a small flash node, which
//!   evicts for good when it overflows. Sets (some with a TTL), overwrites,
//!   reads at advancing instants, deletes and one `flush_all` each log the
//!   outcome, every victim in spill order and the statistics of both
//!   tiers.
//! * A traced engine run of an SSD-assisted cluster whose RAM is far
//!   smaller than the data set, so chunk victims spill to flash and reads
//!   fall through to it: the flash spills, flash reads and op completions
//!   of its TraceBus JSONL stream, plus each server's RAM and flash
//!   statistics.
//!
//! Regenerate the golden file (only after an *intentional* change to the
//! eviction policy) with:
//!
//! ```text
//! ECKV_BLESS_GOLDEN=1 cargo test --test eviction_golden
//! ```

use std::cell::RefCell;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::rc::Rc;
use std::sync::Arc;

use eckv::prelude::*;
use eckv::simnet::{JsonlSink, SimRng, Trace, TraceBus};
use eckv::store::{SetOutcome, SsdSpec, StoreNode, StoreStats};

/// Ops in the two-tier store stream.
const STORE_OPS: usize = 1_000;
/// Distinct keys the stream draws from.
const STORE_KEYS: u64 = 40;
/// RAM and flash capacity of the two-tier store.
const RAM: u64 = 48 << 10;
const FLASH: u64 = 96 << 10;

/// Statistics as `[items, used, hits, misses, sets, evictions,
/// evicted_bytes, expired]`.
fn stats_json(s: &StoreStats) -> String {
    format!(
        "[{},{},{},{},{},{},{},{}]",
        s.items, s.used_bytes, s.hits, s.misses, s.sets, s.evictions, s.evicted_bytes, s.expired
    )
}

fn outcome_json(o: SetOutcome) -> String {
    match o {
        SetOutcome::Stored => "\"stored\"".to_string(),
        SetOutcome::StoredWithEviction { evicted_bytes } => {
            format!("{{\"evicted_bytes\":{evicted_bytes}}}")
        }
        SetOutcome::TooLarge => "\"too_large\"".to_string(),
    }
}

/// Appends `victims` as a JSON array of `"key:len"` strings.
fn victims_json(out: &mut String, victims: &[(Arc<str>, u64)]) {
    out.push('[');
    for (i, (k, len)) in victims.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write!(out, "\"{k}:{len}\"").expect("write to String");
    }
    out.push(']');
}

/// The two-tier store scenario, one JSON line per op.
fn two_tier_store() -> String {
    let mut rng = SimRng::seed_from_u64(0xE71C7);
    let mut ram = StoreNode::new(RAM);
    let mut flash = StoreNode::new(FLASH);
    let mut out = String::new();
    let mut now_us = 0u64;
    for step in 0..STORE_OPS {
        now_us += rng.range_u64(1, 40);
        let now = SimTime::from_nanos(now_us * 1_000);
        let key = format!("k{:03}", rng.next_below(STORE_KEYS));
        let roll = rng.next_below(100);
        write!(
            out,
            "{{\"step\":{step},\"t_us\":{now_us},\"key\":\"{key}\","
        )
        .expect("write");
        if step == STORE_OPS / 2 {
            ram.flush_all();
            out.push_str("\"op\":\"flush_all\"");
        } else if roll < 50 {
            // Sizes straddle many slab classes; a few exceed RAM outright.
            let len = match rng.next_below(20) {
                0 => 64 << 10,
                _ => rng.range_u64(16, 6_000),
            };
            let ttl = (rng.next_below(4) == 0)
                .then(|| SimTime::from_nanos((now_us + rng.range_u64(5, 300)) * 1_000));
            let mut spilled: Vec<(Arc<str>, u64)> = Vec::new();
            let mut dropped: Vec<(Arc<str>, u64)> = Vec::new();
            let outcome = ram.set_spilling(
                key.as_str().into(),
                Payload::synthetic(len, step as u64),
                ttl,
                &mut |k, p| {
                    spilled.push((k.clone(), p.len()));
                    flash.set_spilling(k, p, None, &mut |k2, p2| {
                        dropped.push((k2, p2.len()));
                    });
                },
            );
            write!(
                out,
                "\"op\":\"set\",\"len\":{len},\"ttl_us\":{},\"outcome\":{},\"spilled\":",
                ttl.map_or(0, |t| t.as_nanos() / 1_000),
                outcome_json(outcome)
            )
            .expect("write");
            victims_json(&mut out, &spilled);
            out.push_str(",\"flash_dropped\":");
            victims_json(&mut out, &dropped);
        } else if roll < 92 {
            let tier = match ram.get_at(&key, now) {
                Some(p) => format!("\"ram:{}:{:016x}\"", p.len(), p.digest()),
                None => match flash.get_at(&key, now) {
                    Some(p) => format!("\"flash:{}:{:016x}\"", p.len(), p.digest()),
                    None => "null".to_string(),
                },
            };
            write!(out, "\"op\":\"get\",\"hit\":{tier}").expect("write");
        } else {
            let gone = ram.delete(&key);
            write!(out, "\"op\":\"delete\",\"existed\":{gone}").expect("write");
        }
        writeln!(
            out,
            ",\"ram\":{},\"flash\":{}}}",
            stats_json(&ram.stats()),
            stats_json(&flash.stats())
        )
        .expect("write");
    }
    out
}

/// The traced SSD-assisted cluster scenario: the flash and completion
/// events of the TraceBus JSONL stream, then one statistics line per
/// server.
fn spilling_cluster() -> String {
    let jsonl = Rc::new(RefCell::new(JsonlSink::new()));
    let mut bus = TraceBus::new();
    bus.add_sink(jsonl.clone());
    let trace = Trace::from_bus(bus);
    let world = World::new_traced(
        EngineConfig::new(
            ClusterConfig::new(ClusterProfile::RiQdr, 5, 3)
                .workers(2)
                .server_memory(64 << 10)
                .ssd(SsdSpec::RI_QDR_PCIE.with_capacity(160 << 10)),
            Scheme::era_ce_cd(3, 2),
        )
        .window(2),
        trace,
    );
    let mut sim = Simulation::new();
    let key = |i: usize| format!("v{i:02}");
    // Load 30 values of 2-16 KB, overwrite every fifth, then read every
    // key back: RAM holds a fraction, flash most of the rest.
    let writes: Vec<Vec<Op>> = (0..3)
        .map(|c| {
            (c..30)
                .step_by(3)
                .map(|i| Op::set_synthetic(key(i), ((i % 8) as u64 + 1) << 11, i as u64))
                .collect()
        })
        .collect();
    run_workload(&world, &mut sim, writes);
    let rewrites: Vec<Vec<Op>> = vec![(0..30)
        .step_by(5)
        .map(|i| Op::set_synthetic(key(i), 3 << 11, 100 + i as u64))
        .collect()];
    run_workload(&world, &mut sim, rewrites);
    let reads: Vec<Vec<Op>> = (0..3)
        .map(|c| (0..30).map(|i| Op::get(key((i + c * 7) % 30))).collect())
        .collect();
    run_workload(&world, &mut sim, reads);

    let mut out: String = jsonl
        .borrow()
        .contents()
        .lines()
        .filter(|l| {
            ["ssd_spill", "ssd_read", "op_completed"]
                .iter()
                .any(|e| l.contains(&format!("\"event\":\"{e}\"")))
        })
        .flat_map(|l| [l, "\n"])
        .collect();
    for (i, srv) in world.cluster.servers.iter().enumerate() {
        let srv = srv.borrow();
        writeln!(
            out,
            "{{\"server\":{i},\"ram\":{},\"flash\":{}}}",
            stats_json(&srv.stats()),
            stats_json(&srv.ssd_stats().expect("ssd attached"))
        )
        .expect("write");
    }
    out
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(name)
}

#[test]
fn eviction_order_matches_its_golden() {
    let got = two_tier_store() + &spilling_cluster();
    let path = golden_path("eviction.jsonl");
    if std::env::var_os("ECKV_BLESS_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir golden");
        std::fs::write(&path, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("eviction.jsonl: {e}; bless with ECKV_BLESS_GOLDEN=1"));
    if got != want {
        let line = got
            .lines()
            .zip(want.lines())
            .position(|(g, w)| g != w)
            .map_or_else(|| "length".to_string(), |i| format!("line {}", i + 1));
        panic!(
            "eviction.jsonl diverged from the golden at {line} ({} vs {} bytes)",
            got.len(),
            want.len()
        );
    }
}

#[test]
fn the_scenarios_exercise_every_eviction_path() {
    let store = two_tier_store();
    for needle in [
        "\"evicted_bytes\":",
        "\"too_large\"",
        "\"flash_dropped\":[\"",
        "\"hit\":\"flash:",
        "\"op\":\"flush_all\"",
        "\"existed\":true",
    ] {
        assert!(
            store.contains(needle),
            "store scenario never shows {needle}"
        );
    }
    let last = store.lines().last().expect("ops logged");
    assert!(
        !last.contains(",0],\"flash\""),
        "TTL expiry never fired: {last}"
    );
    let cluster = spilling_cluster();
    for event in ["ssd_spill", "ssd_read"] {
        let needle = format!("\"event\":\"{event}\"");
        assert!(cluster.contains(&needle), "cluster never emits {event}");
    }
}
