//! Multi-client YCSB driver over the resilient KV engine.

use std::rc::Rc;
use std::sync::Arc;

use eckv_core::{driver, ops::Op, World};
use eckv_simnet::{SimRng, Simulation, Summary};

use crate::workload::{KeyChooser, Workload};
use crate::zipfian::{Latest, ScrambledZipfian};

/// Parameters of one YCSB experiment (the paper: 250 K records, 150
/// clients, 2.5 K ops per client, 16 B keys, 1–32 KB values).
#[derive(Debug, Clone, Copy)]
pub struct YcsbConfig {
    /// Which mix to run.
    pub workload: Workload,
    /// Records loaded before the measured run.
    pub record_count: u64,
    /// Operations each client performs in the measured run.
    pub ops_per_client: u64,
    /// Concurrent client processes.
    pub clients: usize,
    /// Value size in bytes.
    pub value_len: u64,
    /// Workload seed (same seed, same request stream).
    pub seed: u64,
}

/// Results of a YCSB run.
#[derive(Debug, Clone, Copy)]
pub struct YcsbReport {
    /// Mix that was run.
    pub workload: Workload,
    /// Value size in bytes.
    pub value_len: u64,
    /// Operations completed in the measured phase.
    pub ops: u64,
    /// Aggregate throughput, operations/second.
    pub throughput: f64,
    /// Read latency digest.
    pub read_latency: Summary,
    /// Update latency digest.
    pub write_latency: Summary,
    /// Failed operations.
    pub errors: u64,
}

/// Builds the YCSB key of `record` in `buf` and copies it into its one
/// shared allocation.
fn shared_key(buf: &mut String, record: u64) -> Arc<str> {
    use std::fmt::Write;
    buf.clear();
    // 16-byte keys as in the paper ("user" + zero-padded id).
    write!(buf, "user{record:012}").expect("writing to a String cannot fail");
    Arc::from(buf.as_str())
}

/// The keys of the loaded records, built once each; every op on a
/// record clones its key's `Arc`.
struct RecordKeys {
    loaded: Vec<Arc<str>>,
    buf: String,
}

impl RecordKeys {
    fn new(record_count: u64) -> Self {
        let mut buf = String::new();
        let loaded = (0..record_count).map(|r| shared_key(&mut buf, r)).collect();
        RecordKeys { loaded, buf }
    }

    /// The key of `record`. Records inserted past the loaded set
    /// (workload D) get a key of their own.
    fn key(&mut self, record: u64) -> Arc<str> {
        match usize::try_from(record)
            .ok()
            .and_then(|r| self.loaded.get(r))
        {
            Some(key) => key.clone(),
            None => shared_key(&mut self.buf, record),
        }
    }
}

/// Builds the load-phase streams: the records split evenly across clients.
pub fn load_ops(cfg: &YcsbConfig) -> Vec<Vec<Op>> {
    let per_client = cfg.record_count.div_ceil(cfg.clients as u64);
    let mut buf = String::new();
    (0..cfg.clients as u64)
        .map(|c| {
            let lo = c * per_client;
            let hi = ((c + 1) * per_client).min(cfg.record_count);
            (lo..hi)
                .map(|r| Op::set_synthetic(shared_key(&mut buf, r), cfg.value_len, r))
                .collect()
        })
        .collect()
}

/// Builds the measured-run streams: `ops_per_client` reads/updates with
/// Zipfian-skewed keys.
pub fn run_ops(cfg: &YcsbConfig) -> Vec<Vec<Op>> {
    let mut root = SimRng::seed_from_u64(cfg.seed);
    // Building a generator sums zeta over every record: do it once and
    // hand each client a clone.
    let template = if cfg.workload == Workload::D {
        KeyChooser::Latest(Latest::new(cfg.record_count))
    } else {
        KeyChooser::Zipfian(ScrambledZipfian::new(cfg.record_count))
    };
    let mut keys = RecordKeys::new(cfg.record_count);
    (0..cfg.clients)
        .map(|c| {
            let mut rng = root.fork();
            let mut chooser = template.clone();
            // Workload D inserts new records; each client gets a disjoint
            // id range above the loaded set.
            let mut next_insert = cfg.record_count + c as u64 * cfg.ops_per_client;
            (0..cfg.ops_per_client)
                .map(|i| {
                    if rng.next_f64() < cfg.workload.read_proportion() {
                        Op::get(keys.key(chooser.next(&mut rng)))
                    } else if cfg.workload == Workload::D {
                        let record = next_insert;
                        next_insert += 1;
                        if let KeyChooser::Latest(l) = &mut chooser {
                            l.record_inserted();
                        }
                        Op::set_synthetic(keys.key(record), cfg.value_len, record)
                    } else {
                        // Updates rewrite the whole value, new version.
                        Op::set_synthetic(
                            keys.key(chooser.next(&mut rng)),
                            cfg.value_len,
                            (c as u64) << 32 | i,
                        )
                    }
                })
                .collect()
        })
        .collect()
}

/// Runs load + measured phases and reports the measured phase.
///
/// The world should be built with `validate(false)`: concurrent updates to
/// Zipfian-hot keys make stale-but-intact reads legitimate, which digest
/// validation would misreport.
///
/// # Panics
///
/// Panics if `cfg.clients` exceeds the world's configured client count.
pub fn run(world: &Rc<World>, sim: &mut Simulation, cfg: &YcsbConfig) -> YcsbReport {
    driver::run_workload(world, sim, load_ops(cfg));
    world.reset_metrics();
    driver::run_workload(world, sim, run_ops(cfg));
    let m = world.metrics.borrow();
    YcsbReport {
        workload: cfg.workload,
        value_len: cfg.value_len,
        ops: m.ops(),
        throughput: m.throughput_ops_per_sec(),
        read_latency: m.get_summary(),
        write_latency: m.set_summary(),
        errors: m.errors,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eckv_core::{EngineConfig, Scheme};
    use eckv_simnet::ClusterProfile;
    use eckv_store::ClusterConfig;

    fn world(scheme: Scheme, clients: usize) -> Rc<World> {
        World::new(
            EngineConfig::new(
                ClusterConfig::new(ClusterProfile::SdscComet, 5, clients).client_nodes(2),
                scheme,
            )
            .validate(false),
        )
    }

    fn cfg(workload: Workload) -> YcsbConfig {
        YcsbConfig {
            workload,
            record_count: 200,
            ops_per_client: 50,
            clients: 4,
            value_len: 4096,
            seed: 42,
        }
    }

    /// The YCSB key format, one fresh `String` per call.
    fn key_for(record: u64) -> String {
        format!("user{record:012}")
    }

    /// `run_ops` as it was before keys were shared: a fresh `String` and
    /// a fresh `Arc` for every op. The reference the shared-key streams
    /// must equal op for op.
    fn run_ops_reference(cfg: &YcsbConfig) -> Vec<Vec<Op>> {
        let mut root = SimRng::seed_from_u64(cfg.seed);
        let template = if cfg.workload == Workload::D {
            KeyChooser::Latest(Latest::new(cfg.record_count))
        } else {
            KeyChooser::Zipfian(ScrambledZipfian::new(cfg.record_count))
        };
        (0..cfg.clients)
            .map(|c| {
                let mut rng = root.fork();
                let mut chooser = template.clone();
                let mut next_insert = cfg.record_count + c as u64 * cfg.ops_per_client;
                (0..cfg.ops_per_client)
                    .map(|i| {
                        if rng.next_f64() < cfg.workload.read_proportion() {
                            Op::get(key_for(chooser.next(&mut rng)))
                        } else if cfg.workload == Workload::D {
                            let record = next_insert;
                            next_insert += 1;
                            if let KeyChooser::Latest(l) = &mut chooser {
                                l.record_inserted();
                            }
                            Op::set_synthetic(key_for(record), cfg.value_len, record)
                        } else {
                            Op::set_synthetic(
                                key_for(chooser.next(&mut rng)),
                                cfg.value_len,
                                (c as u64) << 32 | i,
                            )
                        }
                    })
                    .collect()
            })
            .collect()
    }

    fn op_key(op: &Op) -> &Arc<str> {
        match op {
            Op::Set { key, .. } | Op::Get { key } => key,
            Op::MGet { .. } => panic!("YCSB streams hold no bulk gets"),
        }
    }

    #[test]
    fn shared_keys_keep_the_stream_and_share_allocations() {
        for workload in [Workload::A, Workload::B, Workload::D] {
            for seed in [42, 0x5EED_C0DE] {
                let cfg = YcsbConfig {
                    workload,
                    seed,
                    ..cfg(workload)
                };
                let shared = run_ops(&cfg);
                let reference = run_ops_reference(&cfg);
                assert_eq!(
                    format!("{shared:?}"),
                    format!("{reference:?}"),
                    "{workload:?} seed {seed}"
                );
                // Two ops on one loaded record hold one allocation.
                let ops: Vec<&Op> = shared.iter().flatten().collect();
                let (a, b) = ops
                    .iter()
                    .enumerate()
                    .find_map(|(i, a)| {
                        let id: u64 = a.key()[4..].parse().ok()?;
                        let b = ops[i + 1..].iter().find(|b| b.key() == a.key())?;
                        (id < cfg.record_count).then_some((*a, *b))
                    })
                    .expect("a Zipfian stream revisits a record");
                assert!(
                    Arc::ptr_eq(op_key(a), op_key(b)),
                    "{workload:?} seed {seed}"
                );
            }
        }
        // The load phase names every record with the same key text.
        let load = load_ops(&cfg(Workload::A));
        for (r, op) in load.iter().flatten().enumerate() {
            assert_eq!(op.key(), key_for(r as u64));
        }
    }

    #[test]
    fn op_mix_matches_proportions() {
        let streams = run_ops(&YcsbConfig {
            ops_per_client: 2000,
            ..cfg(Workload::B)
        });
        let (mut reads, mut writes) = (0u64, 0u64);
        for s in &streams {
            for op in s {
                match op.kind() {
                    eckv_core::OpKind::Get => reads += 1,
                    eckv_core::OpKind::Set => writes += 1,
                }
            }
        }
        let total = reads + writes;
        assert_eq!(total, 8000);
        let read_frac = reads as f64 / total as f64;
        assert!((0.93..=0.97).contains(&read_frac), "read_frac={read_frac}");
    }

    #[test]
    fn load_covers_every_record_exactly_once() {
        let streams = load_ops(&cfg(Workload::A));
        let mut keys: Vec<String> = streams
            .iter()
            .flatten()
            .map(|op| op.key().to_owned())
            .collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), 200);
    }

    #[test]
    fn run_produces_report_for_each_scheme() {
        for scheme in [Scheme::AsyncRep { replicas: 3 }, Scheme::era_ce_cd(3, 2)] {
            let w = world(scheme, 4);
            let mut sim = Simulation::new();
            let report = run(&w, &mut sim, &cfg(Workload::A));
            assert_eq!(report.ops, 200, "{scheme}");
            assert_eq!(report.errors, 0, "{scheme}");
            assert!(report.throughput > 0.0);
            assert!(report.read_latency.count > 0);
            assert!(report.write_latency.count > 0);
        }
    }

    #[test]
    fn same_seed_reproduces_the_stream() {
        let a = run_ops(&cfg(Workload::A));
        let b = run_ops(&cfg(Workload::A));
        let fmt = |streams: &Vec<Vec<Op>>| {
            streams
                .iter()
                .flatten()
                .map(|o| format!("{:?}-{}", o.kind(), o.key()))
                .collect::<Vec<_>>()
        };
        assert_eq!(fmt(&a), fmt(&b));
    }

    #[test]
    fn workload_d_reads_skew_to_recent_inserts() {
        let streams = run_ops(&cfg(Workload::D));
        // D must contain ~5% inserts of brand-new record ids.
        let inserts: Vec<&Op> = streams
            .iter()
            .flatten()
            .filter(|op| op.kind() == eckv_core::OpKind::Set)
            .collect();
        assert!(!inserts.is_empty());
        for op in inserts {
            let id: u64 = op.key()[4..].parse().unwrap();
            assert!(id >= 200, "insert id {id} must be above the loaded set");
        }
    }

    #[test]
    fn workload_d_runs_end_to_end() {
        let w = world(Scheme::era_ce_cd(3, 2), 4);
        let mut sim = Simulation::new();
        let report = run(&w, &mut sim, &cfg(Workload::D));
        assert_eq!(report.ops, 200);
        // Reads of freshly-inserted keys can race their inserts (separate
        // clients); misses are legitimate, corruption is not.
        assert_eq!(w.metrics.borrow().integrity_errors, 0);
        assert!(report.throughput > 0.0);
    }

    #[test]
    fn keys_are_16_bytes() {
        let mut buf = String::new();
        assert_eq!(shared_key(&mut buf, 0).len(), 16);
        assert_eq!(shared_key(&mut buf, 249_999).len(), 16);
    }
}
