//! Set operation policy and encode glue, one flavour per resilience
//! scheme.
//!
//! All paths route around servers the client *believes* are dead (its
//! failure view); a transport error updates the view and surfaces as a
//! retryable failure, which the driver transparently re-dispatches —
//! the fail-over behaviour the paper's clients implement. Writes degrade
//! gracefully: an erasure Set succeeds if at least `k` chunks land, a
//! replicated Set if at least one copy lands. The parallel fan-outs
//! (replicated, Era-CE posts, Era-SE peer distribution) all drive
//! [`crate::fanout::FanOut`] in write mode; only Sync-Rep keeps its
//! deliberately sequential chain.

use std::rc::Rc;
use std::sync::Arc;

use eckv_simnet::{trace_codec, CodecOp, Delivery, Network, SimDuration, Simulation, SpanPhase};
use eckv_store::Bytes;
use eckv_store::{rpc, Payload};

use crate::fanout::{
    client_set_io, FanOut, FanOutSpec, Liveness, QuorumPolicy, Settled, ShardIo, ShardReply,
};
use crate::flow::{finish_op, DoneCb, OpOutcome};
use crate::ops::OpKind;
use crate::scheme::{Scheme, Side};
use crate::world::World;

/// Builds the `k + m` chunk payloads for a value: really encoded for inline
/// values, derived descriptors for synthetic ones.
pub(crate) fn build_shards(world: &World, payload: &Payload, shard_len: u64) -> Vec<Payload> {
    let striper = world.striper.as_ref().expect("erasure scheme");
    let n = striper.codec().total_shards();
    match payload {
        Payload::Inline(bytes) => {
            let stripe = striper.encode_value(bytes);
            stripe
                .shards
                .into_iter()
                .map(|s| Payload::inline(Bytes::from(s)))
                .collect()
        }
        Payload::Synthetic { .. } => (0..n).map(|i| payload.shard(i, shard_len)).collect(),
    }
}

/// The terminal "no viable holder" failure: nothing was issued, nothing
/// new can be discovered, so a retry is pointless.
fn fail_unwritable(world: &Rc<World>, sim: &mut Simulation, value_len: u64, done: DoneCb) {
    let op_start = sim.now();
    finish_op(
        world,
        sim,
        op_start,
        OpOutcome {
            kind: OpKind::Set,
            at: op_start,
            request: SimDuration::ZERO,
            compute: SimDuration::ZERO,
            ok: false,
            integrity_ok: true,
            retryable: false,
            degraded: false,
            value_len,
            note_written: None,
        },
        done,
    );
}

/// Entry point: dispatches on the scheme.
pub(crate) fn start_set(
    world: &Rc<World>,
    sim: &mut Simulation,
    client: usize,
    key: Arc<str>,
    payload: Payload,
    done: DoneCb,
) {
    let Ok(mut targets) = world.try_targets(&key) else {
        // The membership dropped below the scheme's group width (an
        // over-eager drain): there is no valid placement to write to, so
        // the operation fails cleanly instead of panicking.
        let value_len = payload.len();
        fail_unwritable(world, sim, value_len, done);
        return;
    };
    match world.scheme {
        Scheme::NoRep | Scheme::AsyncRep { .. } => {
            set_parallel_replicated(world, sim, client, key, payload, targets, done)
        }
        Scheme::SyncRep { .. } => {
            set_sync_replicated(world, sim, client, key, payload, targets, done)
        }
        Scheme::Erasure {
            encode_at: Side::Client,
            ..
        } => set_era_client_encode(world, sim, client, key, payload, targets, done),
        Scheme::Erasure {
            encode_at: Side::Server,
            ..
        } => set_era_server_encode(world, sim, client, key, payload, targets, done),
        Scheme::Hybrid {
            threshold,
            replicas,
            ..
        } => {
            // Small values replicate (chunking overheads dominate there);
            // large values take the Era-CE-CD path.
            if payload.len() <= threshold {
                targets.truncate(replicas);
                set_parallel_replicated(world, sim, client, key, payload, targets, done)
            } else {
                set_era_client_encode(world, sim, client, key, payload, targets, done)
            }
        }
    }
}

/// NoRep / Async-Rep (and the hybrid small-value path): post a copy to
/// every replica holder the client believes alive, wait for all.
fn set_parallel_replicated(
    world: &Rc<World>,
    sim: &mut Simulation,
    client: usize,
    key: Arc<str>,
    payload: Payload,
    targets: Vec<usize>,
    done: DoneCb,
) {
    let op_start = sim.now();
    let post = world.cluster.net_config().post_overhead;
    let value_len = payload.len();
    let digest = payload.digest();

    if !targets.iter().any(|&s| world.view_alive(client, s)) {
        // Every believed-alive replica holder is gone; nothing new to
        // discover, so this is final.
        fail_unwritable(world, sim, value_len, done);
        return;
    }

    let spec = FanOutSpec {
        candidates: targets.into_iter().enumerate().collect(),
        pinned: 0,
        // Durable as long as one copy lands; zero copies with fresh
        // discoveries is worth one retry.
        policy: QuorumPolicy::write(1),
        liveness: Liveness::View(client),
        hedge_node: world.cluster.client_node(client),
    };
    let key2 = key.clone();
    let io = client_set_io(world, client, rpc::RpcPriority::Foreground, move |_slot| {
        (key2.clone(), payload.clone())
    });
    let world2 = world.clone();
    let launched = FanOut::launch(
        world,
        sim,
        spec,
        op_start,
        io,
        Box::new(move |sim, s: Settled| {
            finish_op(
                &world2,
                sim,
                op_start,
                OpOutcome {
                    kind: OpKind::Set,
                    at: s.last,
                    request: post * s.posts,
                    compute: SimDuration::ZERO,
                    ok: s.succeeded >= 1,
                    integrity_ok: true,
                    retryable: true,
                    degraded: false,
                    value_len,
                    note_written: Some((key, digest)),
                },
                done,
            );
        }),
    );
    debug_assert!(launched, "a live replica existed at the pre-check");
}

/// Sync-Rep: each replica write completes before the next is issued. This
/// chain is deliberately sequential (the paper's blocking baseline), so it
/// stays off the parallel fan-out core.
fn set_sync_replicated(
    world: &Rc<World>,
    sim: &mut Simulation,
    client: usize,
    key: Arc<str>,
    payload: Payload,
    mut targets: Vec<usize>,
    done: DoneCb,
) {
    targets.retain(|&s| world.view_alive(client, s));
    if targets.is_empty() {
        let value_len = payload.len();
        fail_unwritable(world, sim, value_len, done);
        return;
    }
    let op_start = sim.now();
    sync_step(world, sim, client, key, payload, targets, 0, op_start, done);
}

#[allow(clippy::too_many_arguments)]
fn sync_step(
    world: &Rc<World>,
    sim: &mut Simulation,
    client: usize,
    key: Arc<str>,
    payload: Payload,
    targets: Vec<usize>,
    idx: usize,
    op_start: eckv_simnet::SimTime,
    done: DoneCb,
) {
    let post = world.cluster.net_config().post_overhead;
    let value_len = payload.len();
    if idx == targets.len() {
        let digest = payload.digest();
        let at = sim.now();
        finish_op(
            world,
            sim,
            op_start,
            OpOutcome {
                kind: OpKind::Set,
                at,
                request: post * targets.len() as u64,
                compute: SimDuration::ZERO,
                ok: true,
                integrity_ok: true,
                retryable: false,
                degraded: false,
                value_len,
                note_written: Some((key, digest)),
            },
            done,
        );
        return;
    }
    let srv = targets[idx];
    let issue_at = world.reserve_client_cpu(client, sim.now(), post);
    let server = world.cluster.servers[srv].clone();
    let client_node = world.cluster.client_node(client);
    let world2 = world.clone();
    let key2 = key.clone();
    let payload2 = payload.clone();
    rpc::set(
        &world.cluster.net,
        &server,
        sim,
        issue_at,
        client_node,
        key.clone(),
        payload.clone(),
        rpc::RpcPriority::Foreground,
        move |sim, reply| match reply {
            Ok(_) => sync_step(
                &world2,
                sim,
                client,
                key2,
                payload2,
                targets,
                idx + 1,
                op_start,
                done,
            ),
            Err(err) => {
                // Blocking semantics: the op fails at the first broken
                // link in the chain. A dead replica updates the view (the
                // retry skips it); a shed replica stays in the view and a
                // backed-off retry walks the same chain again.
                let t = match err {
                    rpc::RpcError::ServerDead(t) => {
                        world2.mark_dead(client, srv);
                        t
                    }
                    rpc::RpcError::Shed(t) => {
                        world2.note_shed(t, client_node, srv, rpc::RpcPriority::Foreground);
                        t
                    }
                };
                finish_op(
                    &world2,
                    sim,
                    op_start,
                    OpOutcome {
                        kind: OpKind::Set,
                        at: t,
                        request: post * (idx as u64 + 1),
                        compute: SimDuration::ZERO,
                        ok: false,
                        integrity_ok: true,
                        retryable: true,
                        degraded: false,
                        value_len,
                        note_written: None,
                    },
                    done,
                );
            }
        },
    );
}

/// Era-CE-*: encode at the client, then fan the `k + m` chunks out to the
/// believed-alive chunk holders through the write-mode fan-out.
fn set_era_client_encode(
    world: &Rc<World>,
    sim: &mut Simulation,
    client: usize,
    key: Arc<str>,
    payload: Payload,
    mut targets: Vec<usize>,
    done: DoneCb,
) {
    let op_start = sim.now();
    let value_len = payload.len();
    let digest = payload.digest();
    let shard_len = world.shard_len(value_len);
    let (k, m, _, _, _) = world.scheme.erasure_params().expect("erasure or hybrid");
    targets.truncate(k + m);
    let post = world.cluster.net_config().post_overhead;
    let client_node = world.cluster.client_node(client);

    // Only chunks whose holder is believed alive are sent; a write
    // degrades gracefully as long as k chunks land.
    let live = targets
        .iter()
        .filter(|&&s| world.view_alive(client, s))
        .count();
    if live < k {
        fail_unwritable(world, sim, value_len, done);
        return;
    }

    let shards = build_shards(world, &payload, shard_len);
    // Encoding occupies the client's ARPE thread, then the posts go out
    // back to back.
    let t_enc = world.encode_time_at(client_node, value_len);
    world.reserve_client_cpu(client, op_start, t_enc);
    trace_codec(
        &world.trace,
        client_node,
        CodecOp::Encode,
        op_start,
        t_enc,
        value_len,
    );

    let spec = FanOutSpec {
        candidates: targets.into_iter().enumerate().collect(),
        pinned: 0,
        policy: QuorumPolicy::write(k),
        liveness: Liveness::View(client),
        hedge_node: client_node,
    };
    let key2 = key.clone();
    let io = client_set_io(world, client, rpc::RpcPriority::Foreground, move |slot| {
        (World::shard_key(&key2, slot), shards[slot].clone())
    });
    let world2 = world.clone();
    let launched = FanOut::launch(
        world,
        sim,
        spec,
        op_start,
        io,
        Box::new(move |sim, s: Settled| {
            finish_op(
                &world2,
                sim,
                op_start,
                OpOutcome {
                    kind: OpKind::Set,
                    at: s.last,
                    request: post * s.posts,
                    compute: t_enc,
                    ok: s.succeeded >= k,
                    integrity_ok: true,
                    retryable: true,
                    degraded: false,
                    value_len,
                    note_written: Some((key, digest)),
                },
                done,
            );
        }),
    );
    debug_assert!(launched, "k live holders existed at the pre-check");
}

/// Era-SE-*: one full-value transfer to the first believed-alive chunk
/// holder, which encodes and distributes chunks to its live peers (a
/// pre-filtered write fan-out) before acking.
fn set_era_server_encode(
    world: &Rc<World>,
    sim: &mut Simulation,
    client: usize,
    key: Arc<str>,
    payload: Payload,
    mut targets: Vec<usize>,
    done: DoneCb,
) {
    let op_start = sim.now();
    let value_len = payload.len();
    let digest = payload.digest();
    let shard_len = world.shard_len(value_len);
    let (k, m, _, _, _) = world.scheme.erasure_params().expect("erasure scheme");
    targets.truncate(k + m);
    let post = world.cluster.net_config().post_overhead;
    let client_node = world.cluster.client_node(client);

    // The encoder is the first believed-alive chunk holder (the primary,
    // unless it failed); it keeps the chunk of its own position.
    let live: Vec<(usize, usize)> = targets
        .iter()
        .enumerate()
        .filter(|&(_, &s)| world.view_alive(client, s))
        .map(|(i, &s)| (i, s))
        .collect();
    if live.len() < k {
        fail_unwritable(world, sim, value_len, done);
        return;
    }
    let (encoder_pos, encoder_srv) = live[0];
    let peers: Vec<(usize, usize)> = live[1..].to_vec();

    let shards = build_shards(world, &payload, shard_len);
    let encoder = world.cluster.servers[encoder_srv].clone();
    let encoder_node = encoder.borrow().node();
    // A straggling encoder pays for its degraded codec throughput.
    let t_enc = world.encode_time_at(encoder_node, value_len);

    let issue_at = world.reserve_client_cpu(client, op_start, post);
    let req_bytes = rpc::REQUEST_OVERHEAD + key.len() + value_len as usize;
    let world2 = world.clone();
    let net = world.cluster.net.clone();
    Network::send(
        &world.cluster.net,
        sim,
        issue_at,
        client_node,
        encoder_node,
        req_bytes,
        move |sim, delivery| {
            let at = match delivery {
                Delivery::TargetDead(t) => {
                    world2.mark_dead(client, encoder_srv);
                    finish_op(
                        &world2,
                        sim,
                        op_start,
                        OpOutcome {
                            kind: OpKind::Set,
                            at: t,
                            request: post,
                            compute: SimDuration::ZERO,
                            ok: false,
                            integrity_ok: true,
                            retryable: true,
                            degraded: false,
                            value_len,
                            note_written: None,
                        },
                        done,
                    );
                    return;
                }
                Delivery::Delivered(at) => at,
            };
            // The encoder's ingest bypasses `rpc::set`, so it applies the
            // admission bound itself: a capped encoder refuses with a
            // fast ack before reserving any worker or codec time.
            if !encoder.borrow_mut().admit(at, rpc::RpcPriority::Foreground) {
                let world4 = world2.clone();
                Network::send(
                    &net,
                    sim,
                    at,
                    encoder_node,
                    client_node,
                    rpc::ACK_BYTES,
                    move |sim, d| {
                        world4.note_shed(
                            d.at(),
                            client_node,
                            encoder_srv,
                            rpc::RpcPriority::Foreground,
                        );
                        finish_op(
                            &world4,
                            sim,
                            op_start,
                            OpOutcome {
                                kind: OpKind::Set,
                                at: d.at(),
                                request: post,
                                compute: SimDuration::ZERO,
                                ok: false,
                                integrity_ok: true,
                                retryable: true,
                                degraded: false,
                                value_len,
                                note_written: None,
                            },
                            done,
                        );
                    },
                );
                return;
            }
            // Ingest the value, encode on the server's workers, store the
            // encoder's own chunk.
            let enc_done = {
                let mut p = encoder.borrow_mut();
                let costs = p.costs();
                let ingest_done = p.reserve_cpu(at, costs.op_time(value_len));
                let enc_done = p.reserve_cpu(ingest_done, t_enc);
                trace_codec(
                    &world2.trace,
                    encoder_node,
                    CodecOp::Encode,
                    ingest_done,
                    t_enc,
                    value_len,
                );
                enc_done
            };
            let mut shards = shards;
            let own_chunk = std::mem::replace(&mut shards[encoder_pos], Payload::synthetic(0, 0));
            encoder
                .borrow_mut()
                .store_mut()
                .set(World::shard_key(&key, encoder_pos), own_chunk);

            // Degenerate single-node stripe (k = 1, everyone else dead):
            // ack straight after the local store.
            if peers.is_empty() {
                let ok = k <= 1;
                let world4 = world2.clone();
                let key3 = key.clone();
                Network::send(
                    &net,
                    sim,
                    enc_done,
                    encoder_node,
                    client_node,
                    rpc::ACK_BYTES,
                    move |sim, d| {
                        finish_op(
                            &world4,
                            sim,
                            op_start,
                            OpOutcome {
                                kind: OpKind::Set,
                                at: d.at(),
                                request: post,
                                compute: SimDuration::ZERO,
                                ok: ok && d.is_delivered(),
                                integrity_ok: true,
                                retryable: false,
                                degraded: false,
                                value_len,
                                note_written: Some((key3, digest)),
                            },
                            done,
                        );
                    },
                );
                return;
            }

            // Distribute the peers' chunks (their liveness was judged at
            // admission; the fan-out must not re-filter mid-flight), then
            // ack the client.
            let spec = FanOutSpec {
                candidates: peers,
                pinned: 0,
                policy: QuorumPolicy::write(k.saturating_sub(1)),
                liveness: Liveness::PreFiltered,
                hedge_node: encoder_node,
            };
            let io: ShardIo = {
                let world = world2.clone();
                let net = net.clone();
                let key = key.clone();
                Rc::new(move |sim, issue, reply| {
                    let start = issue.from + post * (issue.seq + 1);
                    world
                        .trace
                        .span_record(SpanPhase::Post, encoder_node, issue.from, start);
                    let server = world.cluster.servers[issue.srv].clone();
                    let world3 = world.clone();
                    let srv = issue.srv;
                    rpc::set(
                        &net,
                        &server,
                        sim,
                        start,
                        encoder_node,
                        World::shard_key(&key, issue.slot),
                        shards[issue.slot].clone(),
                        rpc::RpcPriority::Foreground,
                        move |sim, r| {
                            reply.deliver(
                                sim,
                                match r {
                                    Ok(a) => ShardReply::Good {
                                        at: a.at,
                                        value: None,
                                    },
                                    Err(rpc::RpcError::ServerDead(t)) => {
                                        world3.mark_dead(client, srv);
                                        ShardReply::Dead { at: t }
                                    }
                                    Err(rpc::RpcError::Shed(t)) => {
                                        world3.note_shed(
                                            t,
                                            encoder_node,
                                            srv,
                                            rpc::RpcPriority::Foreground,
                                        );
                                        ShardReply::Shed { at: t }
                                    }
                                },
                            );
                        },
                    );
                    start
                })
            };
            let world3 = world2.clone();
            let launched = FanOut::launch(
                &world2,
                sim,
                spec,
                enc_done,
                io,
                Box::new(move |sim, s: Settled| {
                    // Encoder's own chunk + successful peers.
                    let ok = 1 + s.succeeded >= k;
                    // Ack back to the client.
                    let world4 = world3.clone();
                    Network::send(
                        &net,
                        sim,
                        s.last,
                        encoder_node,
                        client_node,
                        rpc::ACK_BYTES,
                        move |sim, d| {
                            finish_op(
                                &world4,
                                sim,
                                op_start,
                                OpOutcome {
                                    kind: OpKind::Set,
                                    at: d.at(),
                                    request: post,
                                    compute: SimDuration::ZERO,
                                    ok: ok && d.is_delivered(),
                                    integrity_ok: true,
                                    retryable: true,
                                    degraded: false,
                                    value_len,
                                    note_written: Some((key, digest)),
                                },
                                done,
                            );
                        },
                    );
                }),
            );
            debug_assert!(launched, "peers outnumber k - 1 when live >= k");
        },
    );
}
