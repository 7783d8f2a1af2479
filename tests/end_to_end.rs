//! Cross-crate integration: real bytes through codec, engine, simulated
//! cluster and back, including repair and burst-buffer flows.

use eckv::boldio::{testdfsio, DfsioConfig, LustreConfig};
use eckv::prelude::*;

fn world_for(scheme: Scheme) -> std::rc::Rc<World> {
    World::new(EngineConfig::new(
        ClusterConfig::new(ClusterProfile::RiQdr, 5, 2),
        scheme,
    ))
}

#[test]
fn inline_values_survive_every_failure_pattern() {
    // Write real bytes under RS(3,2), then check every possible pair of
    // server failures still yields bit-exact reads.
    for scheme in [Scheme::era_ce_cd(3, 2), Scheme::era_se_sd(3, 2)] {
        for (a, b) in [(0usize, 1usize), (0, 4), (1, 3), (2, 3), (3, 4)] {
            let world = world_for(scheme);
            let mut sim = Simulation::new();
            let value: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
            let writes: Vec<Op> = (0..10)
                .map(|i| Op::set_inline(format!("k{i}"), value.clone()))
                .collect();
            eckv::core::driver::run_workload(&world, &mut sim, vec![writes]);
            world.cluster.kill_server(a);
            world.cluster.kill_server(b);
            world.reset_metrics();
            let reads: Vec<Op> = (0..10).map(|i| Op::get(format!("k{i}"))).collect();
            eckv::core::driver::run_workload(&world, &mut sim, vec![reads]);
            let m = world.metrics.borrow();
            assert_eq!(m.errors, 0, "{scheme} failures ({a},{b})");
            assert_eq!(m.integrity_errors, 0, "{scheme} failures ({a},{b})");
        }
    }
}

#[test]
fn mixed_value_sizes_roundtrip() {
    let world = world_for(Scheme::era_ce_cd(3, 2));
    let mut sim = Simulation::new();
    let sizes = [0usize, 1, 100, 1 << 10, 16 << 10, 100_000, 1 << 20];
    let writes: Vec<Op> = sizes
        .iter()
        .enumerate()
        .map(|(i, &len)| {
            let value: Vec<u8> = (0..len).map(|j| (j * 31 + i) as u8).collect();
            Op::set_inline(format!("size-{len}"), value)
        })
        .collect();
    eckv::core::driver::run_workload(&world, &mut sim, vec![writes]);
    world.reset_metrics();
    let reads: Vec<Op> = sizes
        .iter()
        .map(|len| Op::get(format!("size-{len}")))
        .collect();
    eckv::core::driver::run_workload(&world, &mut sim, vec![reads]);
    let m = world.metrics.borrow();
    assert_eq!(m.errors, 0);
    assert_eq!(m.integrity_errors, 0);
}

/// The server storing shard `shard` of `key`.
fn holder_of(world: &World, key: &str, shard: usize) -> usize {
    let shard_key = format!("{key}.s{shard}");
    world
        .cluster
        .servers
        .iter()
        .position(|srv| srv.borrow().store().contains(&shard_key))
        .unwrap_or_else(|| panic!("no server holds {shard_key}"))
}

/// Replaces the stored shard `shard` of `key` with a copy that has one
/// byte flipped, through the `StoreNode` API.
fn flip_stored_chunk_byte(world: &World, key: &str, shard: usize) {
    let shard_key = format!("{key}.s{shard}");
    let mut server = world.cluster.servers[holder_of(world, key, shard)].borrow_mut();
    let Some(Payload::Inline(bytes)) = server.store().peek(&shard_key) else {
        panic!("{shard_key} is not inline");
    };
    let mut corrupt = bytes.to_vec();
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 0x40;
    server
        .store_mut()
        .set(shard_key.into(), Payload::inline(corrupt));
}

#[test]
fn corrupted_inline_chunk_is_detected() {
    // Era-CE-CD RS(3,2), validation on. A healthy read fetches data
    // shards 0..3; with shard 0's holder dead a degraded read decodes from
    // shards 1, 2 and parity 3. A flipped byte in any chunk the read uses
    // must surface as exactly one integrity error.
    let value: Vec<u8> = (0..10_000u32).map(|i| (i * 7 % 251) as u8).collect();
    for (corrupt, kill_holder_of_shard0) in [
        (None, false),
        (Some(0), false),
        (None, true),
        (Some(3), true),
    ] {
        let world = world_for(Scheme::era_ce_cd(3, 2));
        assert!(world.cfg.validate);
        let mut sim = Simulation::new();
        let writes = vec![Op::set_inline("victim", value.clone())];
        eckv::core::driver::run_workload(&world, &mut sim, vec![writes]);
        if let Some(shard) = corrupt {
            flip_stored_chunk_byte(&world, "victim", shard);
        }
        if kill_holder_of_shard0 {
            world.cluster.kill_server(holder_of(&world, "victim", 0));
        }
        world.reset_metrics();
        eckv::core::driver::run_workload(&world, &mut sim, vec![vec![Op::get("victim")]]);
        let m = world.metrics.borrow();
        let case = format!("corrupt {corrupt:?}, shard 0 holder dead: {kill_holder_of_shard0}");
        assert_eq!(m.get_count, 1, "{case}");
        assert_eq!(m.integrity_errors, u64::from(corrupt.is_some()), "{case}");
    }
}

#[test]
fn two_clients_do_not_corrupt_each_other() {
    let world = world_for(Scheme::era_se_cd(3, 2));
    let mut sim = Simulation::new();
    let streams: Vec<Vec<Op>> = (0..2)
        .map(|c| {
            (0..25)
                .map(|i| {
                    let v: Vec<u8> = (0..2000).map(|j| (j + c * 7 + i) as u8).collect();
                    Op::set_inline(format!("c{c}-k{i}"), v)
                })
                .collect()
        })
        .collect();
    eckv::core::driver::run_workload(&world, &mut sim, streams);
    world.reset_metrics();
    let reads: Vec<Vec<Op>> = (0..2)
        .map(|c| (0..25).map(|i| Op::get(format!("c{c}-k{i}"))).collect())
        .collect();
    eckv::core::driver::run_workload(&world, &mut sim, reads);
    let m = world.metrics.borrow();
    assert_eq!(m.errors, 0);
    assert_eq!(m.integrity_errors, 0);
    assert_eq!(m.get_count, 50);
}

#[test]
fn burst_buffer_end_to_end_with_erasure() {
    let cfg = DfsioConfig::small_test();
    let world = World::new(
        EngineConfig::new(
            ClusterConfig::new(ClusterProfile::RiQdr, 5, cfg.buffer_maps())
                .client_nodes(cfg.buffer_hosts)
                .server_memory(24 << 30),
            Scheme::era_ce_cd(3, 2),
        )
        .window(cfg.pipeline)
        .validate(false),
    );
    let mut sim = Simulation::new();
    let report = testdfsio::run_boldio(&world, &mut sim, &cfg, &LustreConfig::RI_QDR);
    assert!(report.write_mbps > 0.0);
    assert!(report.read_mbps > 0.0);
    assert!(report.buffer_memory_used > 0);
}

#[test]
fn deterministic_across_identical_runs() {
    fn digest() -> (u64, u64) {
        let world = world_for(Scheme::era_ce_cd(3, 2));
        let mut sim = Simulation::new();
        let writes: Vec<Op> = (0..50)
            .map(|i| Op::set_synthetic(format!("k{i}"), 8192, i))
            .collect();
        eckv::core::driver::run_workload(&world, &mut sim, vec![writes]);
        let elapsed = world.metrics.borrow().elapsed().as_nanos();
        (elapsed, sim.events_executed())
    }
    assert_eq!(digest(), digest(), "simulation must be fully deterministic");
}
