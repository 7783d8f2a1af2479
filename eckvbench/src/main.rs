//! eckvbench: the end-to-end and per-layer benchmark of the eckv workspace.
//!
//! ```text
//! cargo run --release --manifest-path eckvbench/Cargo.toml -- \
//!     --workload ycsb-a-paper --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One run repeats the workload (set-up plus measured phase, fresh world
//! each time) until `--seconds` of host time are spent, at least
//! [`MIN_REPS`] times. Simulated-time figures must repeat bit for bit
//! across the repetitions; host figures are reported as medians. With
//! `--trace 0` the last line of stdout is the end-to-end metrics as JSON;
//! with `--trace 1` every other repetition records spans around the calls
//! into each crate and runs the layer replays, and the JSON holds the
//! per-layer metrics. A failed correctness check exits with status 1
//! before any figures are printed. `WORKLOADS.md` documents the workloads.

mod host;
mod replay;
mod spans;
mod workload;

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use spans::{Spans, LAYERS};
use workload::Rep;

/// A seed held back from tuning, for confirming a later claim on inputs
/// no change was written against.
const CONFIRM_SEED: u64 = 0x5EED_C0DE;

/// Fewest repetitions per run, whatever `--seconds` says.
const MIN_REPS: usize = 3;

/// Most repetitions per run.
const MAX_REPS: usize = 40;

/// Where traced runs write the span log and the temporary trace sink,
/// relative to the working directory.
const OUT_DIR: &str = ".bench_out";

/// End-to-end metrics: name, unit. Every workload reports every one.
pub const END_TO_END: [(&str, &str); 10] = [
    ("sim_ops_per_s", "1/s"),
    ("sim_get_p50_us", "us"),
    ("sim_get_p99_us", "us"),
    ("sim_set_p50_us", "us"),
    ("sim_set_p99_us", "us"),
    ("ok_op_pct", "%"),
    ("stored_bytes_per_user_byte", "ratio"),
    ("host_ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics: name, unit. Workloads a metric does not apply to
/// report 0.
pub const PER_LAYER: [(&str, &str); 56] = [
    ("ycsb.gen_s", "s"),
    ("ycsb.stream_rss_mb", "MiB"),
    ("core.world_new_s", "s"),
    ("core.enqueue_s", "s"),
    ("core.set_request_us", "us"),
    ("core.set_wait_us", "us"),
    ("core.set_compute_us", "us"),
    ("core.get_request_us", "us"),
    ("core.get_wait_us", "us"),
    ("core.get_compute_us", "us"),
    ("core.sim_repair_s", "s"),
    ("core.repair_keys", "count"),
    ("core.repair_keys_lost", "count"),
    ("core.repair_read_amplification", "ratio"),
    ("core.repair_promotions", "count"),
    ("core.fg_get_p99_during_repair_us", "us"),
    ("core.start_repair_s", "s"),
    ("core.repair_host_s", "s"),
    ("core.retries", "count"),
    ("core.ops_failed", "count"),
    ("core.stale_chunks", "count"),
    ("simnet.events", "count"),
    ("simnet.events_per_op", "count"),
    ("simnet.ns_per_event", "ns"),
    ("simnet.queue_hwm", "count"),
    ("simnet.nic_tx_busy_max_pct", "%"),
    ("simnet.nic_rx_busy_max_pct", "%"),
    ("store.placement_ns", "ns"),
    ("store.digest_gbps", "GB/s"),
    ("store.hit_ratio", "ratio"),
    ("store.evictions", "count"),
    ("store.used_mb", "MiB"),
    ("store.sheds", "count"),
    ("store.shed_ratio", "ratio"),
    ("erasure.encode_gbps", "GB/s"),
    ("erasure.decode_gbps", "GB/s"),
    ("erasure.encodes", "count"),
    ("erasure.decodes", "count"),
    ("erasure.est_share_pct", "%"),
    ("gf.matrix_mac_gbps", "GB/s"),
    ("gf.mul_slice_xor_gbps", "GB/s"),
    ("tracebus.events_per_op", "count"),
    ("tracebus.sink_mb", "MiB"),
    ("tracebus.write_s", "s"),
    ("bench.self_s", "s"),
    ("ycsb.self_s", "s"),
    ("core.self_s", "s"),
    ("simnet.self_s", "s"),
    ("store.self_s", "s"),
    ("erasure.self_s", "s"),
    ("gf.self_s", "s"),
    ("tracebus.self_s", "s"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.reps", "count"),
    ("bench.sim_get_samples", "count"),
    ("bench.sim_set_samples", "count"),
];

/// Parsed command line.
#[derive(Debug, Clone)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                if !workload::NAMES.contains(&value) {
                    return Err(format!(
                        "unknown workload {value}; one of {}",
                        workload::NAMES.join(", ")
                    ));
                }
                workload = Some(value.to_owned());
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn median(mut v: Vec<f64>) -> f64 {
    assert!(!v.is_empty(), "median of nothing");
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Everything one run measured, ready to print.
#[derive(Debug)]
pub struct Outcome {
    /// Metric name to value, for the metrics of the run's mode.
    pub metrics: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    pub reps: usize,
    pub get_samples: f64,
    pub set_samples: f64,
}

/// Runs workload `name` repeatedly for about `seconds` and aggregates.
pub fn measure(
    name: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
) -> Result<Outcome, String> {
    let out_dir = Path::new(OUT_DIR);
    std::fs::create_dir_all(out_dir).map_err(|e| format!("creating {OUT_DIR}: {e}"))?;
    let inputs = workload::inputs(name, seed, quick);
    let start = Instant::now();
    let min_reps = if trace { MIN_REPS + 1 } else { MIN_REPS };
    let mut target = min_reps;
    let mut reps: Vec<(Rep, Option<Spans>)> = Vec::new();
    let mut peak_rss = 0.0;
    while reps.len() < target {
        // Traced runs alternate: odd repetitions carry spans and replays,
        // even ones are the untraced baseline for the overhead figure.
        let traced = trace && reps.len() % 2 == 1;
        let mut spans = Spans::new(traced);
        let rep = workload::run_rep(name, seed, quick, &inputs, &mut spans, out_dir)?;
        let host: Vec<String> = rep
            .host
            .iter()
            .map(|(k, v)| format!("{k}={v:.4}"))
            .collect();
        eprintln!("rep {} traced={traced}: {}", reps.len(), host.join(" "));
        reps.push((rep, traced.then_some(spans)));
        if reps.len() == 1 {
            // The first repetition reaches the workload's peak; later ones
            // would only add allocator drift that depends on their number.
            peak_rss = host::peak_rss_mib();
        }
        // Re-estimated after every repetition, so traced repetitions (which
        // also run the replays) count at their own cost.
        let per_rep = start.elapsed().as_secs_f64() / reps.len() as f64;
        target = ((seconds / per_rep) as usize).clamp(min_reps, MAX_REPS);
    }

    // Determinism gate: simulated figures repeat exactly at one seed.
    let first = &reps[0].0;
    for (i, (r, _)) in reps.iter().enumerate().skip(1) {
        let diff: Vec<String> = r
            .sim
            .iter()
            .filter(|(k, v)| first.sim.get(*k).map(|f| f.to_bits()) != Some(v.to_bits()))
            .map(|(k, v)| format!("{k}: {:?} vs {v}", first.sim.get(k)))
            .collect();
        if !diff.is_empty() || r.sim.len() != first.sim.len() {
            return Err(format!(
                "simulated figures differ between repetition 0 and {i} at seed {seed}: {}",
                diff.join(", ")
            ));
        }
    }
    if first.sim["core.stale_chunks"] > 0.0 {
        eprintln!(
            "note: the post-scan found {} chunks of an older write on the rebuilt server \
             (known repair/update race, reported as core.stale_chunks)",
            first.sim["core.stale_chunks"]
        );
    }
    for (r, _) in &reps {
        if r.failed != 0 {
            return Err(format!(
                "{} of {} measured ops failed",
                r.failed, r.attempted
            ));
        }
    }

    let host = |key: &str, traced: Option<bool>| -> f64 {
        median(
            reps.iter()
                .filter(|(_, s)| traced.is_none_or(|t| s.is_some() == t))
                .map(|(r, _)| r.host[key])
                .collect(),
        )
    };
    let mut metrics: BTreeMap<&'static str, f64> = BTreeMap::new();
    if !trace {
        for (name, _) in END_TO_END {
            let v = match name {
                "setup_s" | "host_ops_per_s" => host(name, None),
                "peak_rss_mb" => peak_rss,
                _ => first.sim[name],
            };
            metrics.insert(name, v);
        }
    } else {
        let traced: Vec<(&Rep, &Spans)> = reps
            .iter()
            .filter_map(|(r, s)| s.as_ref().map(|s| (r, s)))
            .collect();
        let total = |t: bool| {
            median(
                reps.iter()
                    .filter(|(_, s)| s.is_some() == t)
                    .map(|(r, _)| r.host["setup_s"] + r.host["measured_s"])
                    .collect(),
            )
        };
        let (traced_s, untraced_s) = (total(true), total(false));
        for (key, v) in &first.sim {
            metrics.insert(key, *v);
        }
        for key in first.host.keys() {
            metrics.insert(key, host(key, Some(true)));
        }
        metrics.insert(
            "ycsb.stream_rss_mb",
            reps.iter()
                .map(|(r, _)| r.host["ycsb.stream_rss_mb"])
                .fold(0.0, f64::max),
        );
        for key in traced[0].0.replay.keys() {
            metrics.insert(
                key,
                median(traced.iter().map(|(r, _)| r.replay[key]).collect()),
            );
        }
        for (layer, metric) in LAYERS {
            let own = traced.iter().map(|(_, s)| s.self_seconds()[layer]);
            metrics.insert(metric, median(own.collect()));
        }
        let codec_s = metrics["erasure.encoded_mb"] * (1 << 20) as f64
            / (metrics["erasure.encode_gbps"] * 1e9)
            + metrics["erasure.decoded_mb"] * (1 << 20) as f64
                / (metrics["erasure.decode_gbps"] * 1e9);
        metrics.insert("erasure.est_share_pct", 100.0 * codec_s / untraced_s);
        metrics.insert(
            "bench.trace_overhead_pct",
            100.0 * (traced_s - untraced_s) / untraced_s,
        );
        metrics.insert("bench.reps", reps.len() as f64);
        let log: String = traced.iter().map(|(_, s)| s.to_jsonl()).collect();
        let path = out_dir.join(format!("spans-{name}-seed{seed}.jsonl"));
        std::fs::write(&path, log).map_err(|e| format!("writing {}: {e}", path.display()))?;
        metrics.retain(|k, _| PER_LAYER.iter().any(|(n, _)| n == k));
    }

    let wanted: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    for (name, _) in wanted {
        match metrics.get(name) {
            Some(v) if v.is_finite() => {}
            Some(v) => return Err(format!("metric {name} is not finite: {v}")),
            None => return Err(format!("metric {name} was not measured")),
        }
    }
    Ok(Outcome {
        metrics,
        attempted: reps.iter().map(|(r, _)| r.attempted).sum(),
        failed: reps.iter().map(|(r, _)| r.failed).sum(),
        reps: reps.len(),
        get_samples: first.sim["bench.sim_get_samples"],
        set_samples: first.sim["bench.sim_set_samples"],
    })
}

/// The result line: one JSON object with every metric and its unit.
fn result_json(o: &Outcome, trace: bool) -> String {
    let wanted: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let metrics: Vec<String> = wanted
        .iter()
        .map(|(name, unit)| {
            format!(
                "\"{name}\": {{\"value\": {:?}, \"unit\": \"{unit}\"}}",
                o.metrics[name]
            )
        })
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("eckvbench: {e}");
            eprintln!(
                "usage: eckvbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                workload::NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    host::warm_allocator();
    println!("{}", host::fingerprint(args.seed, CONFIRM_SEED));
    let outcome = match measure(&args.workload, args.seed, args.seconds, args.trace, false) {
        Ok(o) => o,
        Err(e) => {
            eprintln!(
                "eckvbench: {} seed {}: CHECK FAILED: {e}",
                args.workload, args.seed
            );
            return ExitCode::FAILURE;
        }
    };
    println!(
        "workload={} seed={} trace={} reps={}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        outcome.reps
    );
    let wanted: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for (name, unit) in wanted {
        let n = match *name {
            "sim_get_p50_us" | "sim_get_p99_us" => format!(" (n={})", outcome.get_samples),
            "sim_set_p50_us" | "sim_set_p99_us" => format!(" (n={})", outcome.set_samples),
            _ => String::new(),
        };
        println!("{name:<34} {:>16.6} {unit}{n}", outcome.metrics[name]);
    }
    println!("{}", result_json(&outcome, args.trace));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_metric_is_declared_in_benchmark_json() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in workload::NAMES {
            assert!(json.contains(&format!("\"name\": \"{w}\"")), "{w}");
        }
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        assert!(parse_args(&args(
            "--workload ycsb-a-paper --seed 3 --seconds 2 --trace 1"
        ))
        .is_ok());
        assert!(parse_args(&args("--workload nope --seed 3")).is_err());
        assert!(parse_args(&args("--workload ycsb-a-paper --seed x")).is_err());
        assert!(parse_args(&args("--workload ycsb-a-paper --seed 1 --trace 2")).is_err());
        assert!(parse_args(&args("--seed 1")).is_err());
    }

    /// Quick-scale run of every workload in both modes: each named metric
    /// is present, finite and has a unit, and the simulated figures repeat
    /// exactly (the run fails otherwise).
    #[test]
    fn quick_scale_self_test() {
        for w in workload::NAMES {
            let a = measure(w, 7, 0.1, false, true).unwrap_or_else(|e| panic!("{w}: {e}"));
            assert!(a.attempted > 0 && a.failed == 0, "{w}");
            for (name, unit) in END_TO_END {
                assert!(!unit.is_empty());
                assert!(a.metrics[name].is_finite(), "{w} {name}");
            }
            let t = measure(w, 7, 0.1, true, true).unwrap_or_else(|e| panic!("{w}: {e}"));
            for (name, unit) in PER_LAYER {
                assert!(!unit.is_empty());
                assert!(t.metrics[name].is_finite(), "{w} {name}");
            }
            let b = measure(w, 7, 0.1, false, true).unwrap_or_else(|e| panic!("{w}: {e}"));
            for name in END_TO_END
                .map(|(n, _)| n)
                .iter()
                .filter(|n| n.starts_with("sim_"))
            {
                assert_eq!(
                    a.metrics[name].to_bits(),
                    b.metrics[name].to_bits(),
                    "{w} {name}"
                );
            }
            let json = result_json(&a, false);
            assert!(json.starts_with("{\"correct\": true"), "{json}");
        }
    }
}
