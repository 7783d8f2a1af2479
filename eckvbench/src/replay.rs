//! Layer replays: the workload's keys, values and erasure pattern pushed
//! directly through single layers' public functions, so each layer's host
//! throughput is measured in isolation at the workload's own sizes.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use eckv_core::World;
use eckv_gf::slice::{matrix_mac, mul_slice_xor};
use eckv_simnet::SimRng;
use eckv_store::{fnv1a_64, Bytes};

use crate::spans::Spans;

/// Bytes each throughput replay pushes through its layer: far beyond the
/// CPU caches, and a few hundred milliseconds of work at most.
const REPLAY_BYTES: usize = 96 << 20;

/// Keys replayed through placement at most.
const REPLAY_KEYS: usize = 200_000;

/// Parity coefficients for the GF replays (two rows over three sources,
/// all above 1 so every product takes the multiply path).
const COEFFS: [[u8; 3]; 2] = [[0x8e, 0x47, 0xad], [0x24, 0x9d, 0x51]];

/// What a workload hands to the replays.
pub struct ReplayInput<'a> {
    /// The keys the workload touched, in issue order.
    pub keys: &'a [Arc<str>],
    /// The workload's real values; empty for synthetic workloads, whose
    /// values are `value_len` seeded bytes.
    pub values: &'a [Bytes],
    /// Synthetic value size in bytes.
    pub value_len: usize,
    /// Servers down while the workload read: their shards are erased in
    /// the decode replay.
    pub lost_servers: &'a [usize],
    /// Seed of the synthetic value bytes.
    pub seed: u64,
}

fn gbps(bytes: usize, secs: f64) -> f64 {
    bytes as f64 / secs / 1e9
}

/// Runs every replay against `world`'s placement map and codec.
pub fn run(
    world: &World,
    input: &ReplayInput,
    spans: &mut Spans,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let synthetic: Vec<Bytes>;
    let values: &[Bytes] = if input.values.is_empty() {
        let mut rng = SimRng::seed_from_u64(input.seed);
        let bytes: Vec<u8> = (0..input.value_len).map(|_| rng.next_u64() as u8).collect();
        synthetic = vec![Bytes::from(bytes)];
        &synthetic
    } else {
        input.values
    };
    let striper = world.striper.as_ref().expect("erasure scheme");
    let per_key = world.scheme.servers_per_key();
    let mut out = BTreeMap::new();

    // Placement: key -> vshard -> server group.
    let keys = &input.keys[..input.keys.len().min(REPLAY_KEYS)];
    spans.enter("store", "targets_for");
    let t = Instant::now();
    for key in keys {
        black_box(
            world
                .cluster
                .targets_for(black_box(key.as_bytes()), per_key),
        )
        .map_err(|e| format!("placement of {key}: {e}"))?;
    }
    let secs = t.elapsed().as_secs_f64();
    spans.exit();
    out.insert("store.placement_ns", secs * 1e9 / keys.len().max(1) as f64);

    // Payload digests at the workload's value sizes.
    spans.enter("store", "fnv1a_64");
    let (mut bytes, t) = (0usize, Instant::now());
    for v in values.iter().cycle() {
        black_box(fnv1a_64(black_box(v)));
        bytes += v.len();
        if bytes >= REPLAY_BYTES / 4 {
            break;
        }
    }
    out.insert("store.digest_gbps", gbps(bytes, t.elapsed().as_secs_f64()));
    spans.exit();

    // Codec: encode each value, erase the shards on the lost servers,
    // decode, and check the value comes back.
    let (mut enc_s, mut dec_s, mut bytes) = (0.0, 0.0, 0usize);
    for (i, v) in values.iter().cycle().enumerate() {
        spans.enter("erasure", "encode_value");
        let t = Instant::now();
        let stripe = black_box(striper.encode_value(black_box(v)));
        enc_s += t.elapsed().as_secs_f64();
        spans.exit();
        let targets = world.targets(&input.keys[i % input.keys.len()]);
        let mut shards: Vec<Option<Vec<u8>>> = stripe
            .shards
            .into_iter()
            .zip(&targets)
            .map(|(s, srv)| (!input.lost_servers.contains(srv)).then_some(s))
            .collect();
        spans.enter("erasure", "decode_value");
        let t = Instant::now();
        let back = striper
            .decode_value(&mut shards, stripe.original_len)
            .map_err(|e| format!("decode replay: {e}"))?;
        dec_s += t.elapsed().as_secs_f64();
        spans.exit();
        if back[..] != v[..] {
            return Err(format!("decode replay of value {i} returned other bytes"));
        }
        bytes += v.len();
        if bytes >= REPLAY_BYTES {
            break;
        }
    }
    out.insert("erasure.encode_gbps", gbps(bytes, enc_s));
    out.insert("erasure.decode_gbps", gbps(bytes, dec_s));

    // GF kernels at the workload's shard sizes.
    let max_shard = values
        .iter()
        .map(|v| striper.shard_len_for(v.len()))
        .max()
        .expect("at least one value");
    let src: Vec<Vec<u8>> = (0..3)
        .map(|j| (0..max_shard).map(|i| (i * 31 + j * 7) as u8).collect())
        .collect();
    let mut dst = vec![vec![0u8; max_shard]; 2];
    let rows: Vec<&[u8]> = COEFFS.iter().map(|r| &r[..]).collect();
    spans.enter("gf", "matrix_mac");
    let (mut bytes, t) = (0usize, Instant::now());
    for v in values.iter().cycle() {
        let len = striper.shard_len_for(v.len());
        let srcs: Vec<&[u8]> = src.iter().map(|s| &s[..len]).collect();
        let mut dsts: Vec<&mut [u8]> = dst.iter_mut().map(|d| &mut d[..len]).collect();
        matrix_mac(&rows, black_box(&srcs), black_box(&mut dsts));
        bytes += 3 * len;
        if bytes >= REPLAY_BYTES {
            break;
        }
    }
    out.insert("gf.matrix_mac_gbps", gbps(bytes, t.elapsed().as_secs_f64()));
    spans.exit();
    spans.enter("gf", "mul_slice_xor");
    let (mut bytes, t) = (0usize, Instant::now());
    for v in values.iter().cycle() {
        let len = striper.shard_len_for(v.len());
        mul_slice_xor(COEFFS[0][0], black_box(&src[0][..len]), &mut dst[0][..len]);
        bytes += len;
        if bytes >= REPLAY_BYTES {
            break;
        }
    }
    out.insert(
        "gf.mul_slice_xor_gbps",
        gbps(bytes, t.elapsed().as_secs_f64()),
    );
    spans.exit();
    black_box(&dst);
    Ok(out)
}
