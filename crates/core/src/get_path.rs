//! Get operation policy and decode glue, including degraded
//! (post-failure) reads.
//!
//! Every multi-holder read drives [`crate::fanout::FanOut`]; this module
//! keeps only what differs per scheme: candidate selection, quorum
//! policy, decode placement (client vs aggregator), and completion
//! accounting. Server selection consults the client's failure view;
//! transport errors update the view and surface as retryable failures so
//! the driver can re-dispatch the read against the survivors (the
//! paper's fail-over).

use std::rc::Rc;
use std::sync::Arc;

use eckv_simnet::{
    trace_codec, CodecOp, Delivery, Network, SimDuration, SimTime, Simulation, SpanPhase,
};
use eckv_store::{rpc, Payload, ValueHasher};

use crate::fanout::{
    client_get_io, FanOut, FanOutSpec, Liveness, QuorumPolicy, Settled, ShardIo, ShardReply,
};
use crate::flow::{finish_op, DoneCb, OpOutcome};
use crate::ops::OpKind;
use crate::scheme::{Scheme, Side};
use crate::world::{World, Written};

/// Entry point: dispatches on the scheme.
pub(crate) fn start_get(
    world: &Rc<World>,
    sim: &mut Simulation,
    client: usize,
    key: Arc<str>,
    done: DoneCb,
) {
    if world.try_targets(&key).is_err() {
        // The membership dropped below the scheme's group width (an
        // over-eager drain): no valid placement exists to read from, so
        // the operation fails cleanly instead of panicking.
        let op_start = sim.now();
        finish_op(
            world,
            sim,
            op_start,
            OpOutcome {
                kind: OpKind::Get,
                at: op_start,
                request: SimDuration::ZERO,
                compute: SimDuration::ZERO,
                ok: false,
                integrity_ok: true,
                retryable: false,
                degraded: false,
                value_len: 0,
                note_written: None,
            },
            done,
        );
        return;
    }
    match world.scheme {
        Scheme::NoRep | Scheme::AsyncRep { .. } | Scheme::SyncRep { .. } => {
            get_replicated(world, sim, client, key, done)
        }
        Scheme::Erasure {
            decode_at: Side::Client,
            ..
        } => {
            let op_start = sim.now();
            get_era_client_decode(world, sim, client, key, op_start, SimDuration::ZERO, done)
        }
        Scheme::Erasure {
            decode_at: Side::Server,
            ..
        } => get_era_server_decode(world, sim, client, key, done),
        Scheme::Hybrid { replicas, .. } => get_hybrid(world, sim, client, key, replicas, done),
    }
}

/// Hybrid read: probe the plain (replicated) key at the first live replica
/// holder; a miss means the value was erasure-coded, so fall through to
/// the chunk path. The probe costs one extra round trip for large values —
/// the price of needing no metadata service.
fn get_hybrid(
    world: &Rc<World>,
    sim: &mut Simulation,
    client: usize,
    key: Arc<str>,
    replicas: usize,
    done: DoneCb,
) {
    let op_start = sim.now();
    let check = world.cfg.liveness_check;
    let post = world.cluster.net_config().post_overhead;
    let client_node = world.cluster.client_node(client);
    let rep_targets: Vec<usize> = world.targets(&key).into_iter().take(replicas).collect();

    let Some(&srv) = rep_targets.iter().find(|&&s| world.view_alive(client, s)) else {
        // No replica holder is reachable; the chunk path may still work.
        get_era_client_decode(world, sim, client, key, op_start, check, done);
        return;
    };
    let issue_at = world.reserve_client_cpu(client, op_start, check + post);
    let server = world.cluster.servers[srv].clone();
    let world2 = world.clone();
    rpc::get(
        &world.cluster.net,
        &server,
        sim,
        issue_at,
        client_node,
        key.clone(),
        move |sim, reply| match reply {
            Ok(r) if r.value.is_some() => {
                let value = r.value.expect("checked");
                let integrity = check_value(&world2, &key, &value);
                let len = value.len();
                finish_op(
                    &world2,
                    sim,
                    op_start,
                    OpOutcome {
                        kind: OpKind::Get,
                        at: r.at,
                        request: check + post,
                        compute: SimDuration::ZERO,
                        ok: true,
                        integrity_ok: integrity,
                        retryable: false,
                        degraded: false,
                        value_len: len,
                        note_written: None,
                    },
                    done,
                );
            }
            // A clean miss means the value was erasure-coded: fall through
            // to the chunk path, keeping the probe's cost in the request
            // phase.
            Ok(r) => {
                debug_assert!(r.value.is_none());
                get_era_client_decode(&world2, sim, client, key, op_start, check + post, done)
            }
            // A dead replica holder is a view update, not evidence the
            // value was chunked: retry so the probe hits the next replica.
            // A shed probe retries the same holder after backoff.
            Err(err) => {
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
                        kind: OpKind::Get,
                        at: t,
                        request: check + post,
                        compute: SimDuration::ZERO,
                        ok: false,
                        integrity_ok: true,
                        retryable: true,
                        degraded: false,
                        value_len: 0,
                        note_written: None,
                    },
                    done,
                );
            }
        },
    );
}

/// Validates a full value returned by a replicated Get.
fn check_value(world: &World, key: &str, value: &Payload) -> bool {
    if !world.cfg.validate {
        return true;
    }
    match world.expected.borrow().get(key) {
        Some(w) => w.len == value.len() && w.digest == value.digest(),
        None => true, // nothing recorded; cannot judge
    }
}

/// Replication / NoRep: read the whole value from the first live replica.
fn get_replicated(
    world: &Rc<World>,
    sim: &mut Simulation,
    client: usize,
    key: Arc<str>,
    done: DoneCb,
) {
    let op_start = sim.now();
    let targets = world.targets(&key);
    let check = world.cfg.liveness_check;
    let post = world.cluster.net_config().post_overhead;

    if !targets.iter().any(|&s| world.view_alive(client, s)) {
        // All replicas believed down: the operation fails for good.
        let at = world.reserve_client_cpu(client, op_start, check);
        finish_op(
            world,
            sim,
            op_start,
            OpOutcome {
                kind: OpKind::Get,
                at,
                request: check,
                compute: SimDuration::ZERO,
                ok: false,
                integrity_ok: true,
                retryable: false,
                degraded: false,
                value_len: 0,
                note_written: None,
            },
            done,
        );
        return;
    }
    world.reserve_client_cpu(client, op_start, check);
    let spec = FanOutSpec {
        candidates: targets.into_iter().enumerate().collect(),
        pinned: 0,
        policy: QuorumPolicy::single(false),
        liveness: Liveness::View(client),
        hedge_node: world.cluster.client_node(client),
    };
    let io = client_get_io(
        world,
        client,
        key.clone(),
        false,
        true,
        rpc::RpcPriority::Foreground,
    );
    let world2 = world.clone();
    let launched = FanOut::launch(
        world,
        sim,
        spec,
        op_start,
        io,
        Box::new(move |sim, s: Settled| {
            let ok = !s.good.is_empty();
            let (integrity, len) = s
                .good
                .first()
                .map_or((true, 0), |(_, v)| (check_value(&world2, &key, v), v.len()));
            finish_op(
                &world2,
                sim,
                op_start,
                OpOutcome {
                    kind: OpKind::Get,
                    at: s.last,
                    request: check + post,
                    compute: SimDuration::ZERO,
                    ok,
                    integrity_ok: integrity,
                    // Discovery fails over on the retry; a shed reply
                    // retries the same holder after backoff.
                    retryable: s.discovered || s.shed > 0,
                    degraded: false,
                    value_len: len,
                    note_written: None,
                },
                done,
            );
        }),
    );
    debug_assert!(launched, "a live replica existed at the pre-check");
}

/// Picks the first `k` chunk holders the client believes alive (by shard
/// index order). Returns `(shard_index, server)` pairs, or `None` if fewer
/// than `k` survive in the view.
fn choose_chunks(
    world: &World,
    client: usize,
    targets: &[usize],
    k: usize,
) -> Option<Vec<(usize, usize)>> {
    let alive: Vec<(usize, usize)> = targets
        .iter()
        .enumerate()
        .filter(|&(_, &s)| world.view_alive(client, s))
        .map(|(i, &s)| (i, s))
        .collect();
    if alive.len() < k {
        None
    } else {
        Some(alive[..k].to_vec())
    }
}

/// The fetched chunks as borrowed `(shard index, bytes)` survivors, or
/// `None` unless every chunk is present and inline.
pub(crate) fn inline_chunks(chunks: &[(usize, Option<Payload>)]) -> Option<Vec<(usize, &[u8])>> {
    chunks
        .iter()
        .map(|(idx, c)| match c {
            Some(Payload::Inline(b)) => Some((*idx, &b[..])),
            _ => None,
        })
        .collect()
}

/// Verifies fetched chunks against the write record; for inline values the
/// exact bytes are decoded and digested against the write-time digest.
fn check_chunks(
    world: &World,
    expected: Option<Written>,
    chunks: &[(usize, Option<Payload>)],
) -> bool {
    if !world.cfg.validate {
        return true;
    }
    let Some(w) = expected else { return true };
    let shard_len = world.shard_len(w.len);
    if let Some(present) = inline_chunks(chunks) {
        // Stream the digest over the data shards (fetched ones borrowed,
        // missing ones recovered); the value is never joined.
        let striper = world.striper.as_ref().expect("erasure scheme");
        match striper.data_shards(&present, w.len as usize) {
            Ok(data) => {
                let mut h = ValueHasher::new();
                for shard in &data {
                    h.update(shard);
                }
                h.finish() == w.digest
            }
            Err(_) => false,
        }
    } else {
        // Synthetic: each chunk's digest must match the derivation used at
        // write time.
        let parent = Payload::Synthetic {
            len: w.len,
            digest: w.digest,
        };
        chunks.iter().all(|(idx, chunk)| match chunk {
            Some(c) => c.digest() == parent.shard(*idx, shard_len).digest(),
            None => false,
        })
    }
}

/// Era-*-CD: fetch `k` chunks through the fan-out core (top-up on misses,
/// hedged against stragglers), decode at the client only if a data chunk
/// is missing. `request_base` carries request-phase cost already paid by
/// a caller (the hybrid probe).
fn get_era_client_decode(
    world: &Rc<World>,
    sim: &mut Simulation,
    client: usize,
    key: Arc<str>,
    op_start: SimTime,
    request_base: SimDuration,
    done: DoneCb,
) {
    let (k, m, _, _, _) = world.scheme.erasure_params().expect("erasure scheme");
    let mut targets = world.targets(&key);
    targets.truncate(k + m);
    let check = world.cfg.liveness_check;
    let post = world.cluster.net_config().post_overhead;
    let now = sim.now();

    if choose_chunks(world, client, &targets, k).is_none() {
        let at = world.reserve_client_cpu(client, now, check);
        finish_op(
            world,
            sim,
            op_start,
            OpOutcome {
                kind: OpKind::Get,
                at,
                request: request_base + check,
                compute: SimDuration::ZERO,
                ok: false,
                integrity_ok: true,
                retryable: false,
                degraded: false,
                value_len: 0,
                note_written: None,
            },
            done,
        );
        return;
    }
    world.reserve_client_cpu(client, now, check);

    let client_node = world.cluster.client_node(client);
    let spec = FanOutSpec {
        candidates: targets.iter().enumerate().map(|(i, &s)| (i, s)).collect(),
        pinned: 0,
        policy: QuorumPolicy::read(k),
        liveness: Liveness::View(client),
        hedge_node: client_node,
    };
    let io = client_get_io(
        world,
        client,
        key.clone(),
        true,
        true,
        rpc::RpcPriority::Foreground,
    );
    let world2 = world.clone();
    let launched = FanOut::launch(
        world,
        sim,
        spec,
        now,
        io,
        Box::new(move |sim, s: Settled| {
            let ok = s.good.len() >= k;
            let expected = world2.expected.borrow().get(&key).copied();
            let value_len =
                expected.map_or_else(|| s.good.iter().map(|(_, c)| c.len()).sum(), |w| w.len);
            let now = sim.now();
            let request = request_base + check + post * s.posts;
            if !ok {
                finish_op(
                    &world2,
                    sim,
                    op_start,
                    OpOutcome {
                        kind: OpKind::Get,
                        at: now,
                        request,
                        compute: SimDuration::ZERO,
                        ok: false,
                        integrity_ok: true,
                        retryable: s.discovered || s.shed > 0,
                        degraded: false,
                        value_len,
                        note_written: None,
                    },
                    done,
                );
                return;
            }
            let used: Vec<(usize, Option<Payload>)> = s
                .good
                .into_iter()
                .take(k)
                .map(|(i, c)| (i, Some(c)))
                .collect();
            let erased_data = (0..k)
                .filter(|i| !used.iter().any(|&(idx, _)| idx == *i))
                .count();
            let integrity = check_chunks(&world2, expected, &used);
            let was_degraded = erased_data > 0;
            let (at, compute) = if erased_data > 0 {
                // This read had to decode — the key is in degraded mode.
                // Promote it to the front of any active repair queue.
                crate::repair::note_degraded_read(&world2, now, &key);
                let t_dec = world2.decode_time_at(client_node, value_len, erased_data);
                let dec_done = world2.reserve_client_cpu(client, now, t_dec);
                trace_codec(
                    &world2.trace,
                    client_node,
                    CodecOp::Decode,
                    now,
                    t_dec,
                    value_len,
                );
                (dec_done, t_dec)
            } else {
                (now, SimDuration::ZERO)
            };
            finish_op(
                &world2,
                sim,
                op_start,
                OpOutcome {
                    kind: OpKind::Get,
                    at,
                    request,
                    compute,
                    ok: true,
                    integrity_ok: integrity,
                    retryable: false,
                    degraded: was_degraded,
                    value_len,
                    note_written: None,
                },
                done,
            );
        }),
    );
    debug_assert!(launched, "k live holders existed at the pre-check");
}

/// Era-*-SD: the first live chunk holder aggregates (and if necessary
/// decodes) the value server-side, then returns it whole. The gather
/// fan-in runs on the shared core, so it tops up on chunk misses and
/// hedges against straggling peers exactly like the client-decode path.
fn get_era_server_decode(
    world: &Rc<World>,
    sim: &mut Simulation,
    client: usize,
    key: Arc<str>,
    done: DoneCb,
) {
    let op_start = sim.now();
    let (k, m, _, _, _) = world.scheme.erasure_params().expect("erasure scheme");
    let mut targets = world.targets(&key);
    targets.truncate(k + m);
    let check = world.cfg.liveness_check;
    let post = world.cluster.net_config().post_overhead;
    let client_node = world.cluster.client_node(client);

    let Some(chosen) = choose_chunks(world, client, &targets, k) else {
        let at = world.reserve_client_cpu(client, op_start, check);
        finish_op(
            world,
            sim,
            op_start,
            OpOutcome {
                kind: OpKind::Get,
                at,
                request: check,
                compute: SimDuration::ZERO,
                ok: false,
                integrity_ok: true,
                retryable: false,
                degraded: false,
                value_len: 0,
                note_written: None,
            },
            done,
        );
        return;
    };

    // The aggregator is the first live chunk holder (the primary, unless it
    // failed).
    let (_, agg_srv) = chosen[0];
    let aggregator = world.cluster.servers[agg_srv].clone();
    let agg_node = aggregator.borrow().node();

    let issue_at = world.reserve_client_cpu(client, op_start, check + post);
    let req_bytes = rpc::REQUEST_OVERHEAD + key.len();
    let world2 = world.clone();
    Network::send(
        &world.cluster.net,
        sim,
        issue_at,
        client_node,
        agg_node,
        req_bytes,
        move |sim, delivery| {
            let at = match delivery {
                Delivery::TargetDead(t) => {
                    world2.mark_dead(client, agg_srv);
                    finish_op(
                        &world2,
                        sim,
                        op_start,
                        OpOutcome {
                            kind: OpKind::Get,
                            at: t,
                            request: check + post,
                            compute: SimDuration::ZERO,
                            ok: false,
                            integrity_ok: true,
                            retryable: true,
                            degraded: false,
                            value_len: 0,
                            note_written: None,
                        },
                        done,
                    );
                    return;
                }
                Delivery::Delivered(at) => at,
            };
            // The aggregation fan-in bypasses `rpc::get`, so the
            // aggregator applies the admission bound itself: under a
            // hot-key herd it refuses with a fast ack instead of queueing
            // a gather it cannot serve in time.
            if !aggregator
                .borrow_mut()
                .admit(at, rpc::RpcPriority::Foreground)
            {
                let world4 = world2.clone();
                Network::send(
                    &world2.cluster.net,
                    sim,
                    at,
                    agg_node,
                    client_node,
                    rpc::ACK_BYTES,
                    move |sim, d| {
                        world4.note_shed(
                            d.at(),
                            client_node,
                            agg_srv,
                            rpc::RpcPriority::Foreground,
                        );
                        finish_op(
                            &world4,
                            sim,
                            op_start,
                            OpOutcome {
                                kind: OpKind::Get,
                                at: d.at(),
                                request: check + post,
                                compute: SimDuration::ZERO,
                                ok: false,
                                integrity_ok: true,
                                retryable: true,
                                degraded: false,
                                value_len: 0,
                                note_written: None,
                            },
                            done,
                        );
                    },
                );
                return;
            }
            let costs = aggregator.borrow().costs();
            let t1 = aggregator.borrow_mut().reserve_cpu(at, costs.op_time(0));

            // Candidate order: the admission-time choice first (pinned —
            // the failure view may have moved while the request crossed
            // the wire), then the untried positions for top-up/hedging.
            let pinned = chosen.len();
            let rest: Vec<(usize, usize)> = targets
                .iter()
                .enumerate()
                .filter(|(i, _)| !chosen.iter().any(|&(c, _)| c == *i))
                .map(|(i, &s)| (i, s))
                .collect();
            let mut candidates = chosen;
            candidates.extend(rest);
            let spec = FanOutSpec {
                candidates,
                pinned,
                policy: QuorumPolicy::read(k),
                liveness: Liveness::View(client),
                hedge_node: agg_node,
            };
            let io: ShardIo = {
                let world = world2.clone();
                let aggregator = aggregator.clone();
                let key = key.clone();
                Box::new(move |sim, issue, reply| {
                    if issue.srv == agg_srv {
                        // Local chunk: a store lookup on the aggregator
                        // itself.
                        let chunk = aggregator
                            .borrow_mut()
                            .store_mut()
                            .get(&World::shard_key(&key, issue.slot));
                        let bytes = chunk.as_ref().map_or(0, Payload::len);
                        let costs = aggregator.borrow().costs();
                        let local_done = aggregator
                            .borrow_mut()
                            .reserve_cpu(issue.from, costs.op_time(bytes));
                        let r = match chunk {
                            Some(c) => ShardReply::Good {
                                at: local_done,
                                value: Some(c),
                            },
                            None => ShardReply::Empty { at: local_done },
                        };
                        reply(sim, r);
                        issue.from
                    } else {
                        let start = issue.from + post * (issue.seq + 1);
                        world
                            .trace
                            .span_record(SpanPhase::Post, agg_node, issue.from, start);
                        let server = world.cluster.servers[issue.srv].clone();
                        let world3 = world.clone();
                        let srv = issue.srv;
                        rpc::get_with_cancel(
                            &world.cluster.net,
                            &server,
                            sim,
                            start,
                            agg_node,
                            World::shard_key(&key, issue.slot),
                            issue.cancel,
                            rpc::RpcPriority::Foreground,
                            move |sim, r| {
                                reply(
                                    sim,
                                    match r {
                                        Ok(g) => match g.value {
                                            Some(v) => ShardReply::Good {
                                                at: g.at,
                                                value: Some(v),
                                            },
                                            None => ShardReply::Empty { at: g.at },
                                        },
                                        Err(rpc::RpcError::ServerDead(t)) => {
                                            world3.mark_dead(client, srv);
                                            ShardReply::Dead { at: t }
                                        }
                                        Err(rpc::RpcError::Shed(t)) => {
                                            world3.note_shed(
                                                t,
                                                agg_node,
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
                    }
                })
            };
            let world3 = world2.clone();
            let launched = FanOut::launch(
                &world2,
                sim,
                spec,
                t1,
                io,
                Box::new(move |sim, s: Settled| {
                    let ok = s.good.len() >= k;
                    let used: Vec<(usize, Option<Payload>)> = s
                        .good
                        .into_iter()
                        .take(k)
                        .map(|(i, c)| (i, Some(c)))
                        .collect();
                    let expected = world3.expected.borrow().get(&key).copied();
                    let integrity = !ok || check_chunks(&world3, expected, &used);
                    let value_len = expected.map_or_else(
                        || {
                            used.iter()
                                .filter_map(|(_, c)| c.as_ref())
                                .map(Payload::len)
                                .sum()
                        },
                        |w| w.len,
                    );
                    // Server-side decode if a data chunk was reconstructed
                    // from parity; a straggling aggregator decodes
                    // proportionally slower.
                    let erased_data = (0..k)
                        .filter(|i| !used.iter().any(|&(idx, _)| idx == *i))
                        .count();
                    let last = s.last;
                    let was_degraded = ok && erased_data > 0;
                    let respond_at = if ok && erased_data > 0 {
                        // Server-side decode still means the key is
                        // degraded: promote it in any active repair queue.
                        crate::repair::note_degraded_read(&world3, last, &key);
                        let t_dec = world3.decode_time_at(agg_node, value_len, erased_data);
                        let dec_done = aggregator.borrow_mut().reserve_cpu(last, t_dec);
                        trace_codec(
                            &world3.trace,
                            agg_node,
                            CodecOp::Decode,
                            last,
                            t_dec,
                            value_len,
                        );
                        dec_done
                    } else {
                        last
                    };
                    let resp_bytes = rpc::ACK_BYTES
                        + used
                            .iter()
                            .filter_map(|(_, c)| c.as_ref())
                            .map(|c| c.len() as usize)
                            .sum::<usize>()
                            .min(value_len as usize + rpc::ACK_BYTES);
                    let retryable = s.discovered || s.shed > 0;
                    let world4 = world3.clone();
                    Network::send(
                        &world3.cluster.net,
                        sim,
                        respond_at,
                        agg_node,
                        client_node,
                        resp_bytes,
                        move |sim, d| {
                            finish_op(
                                &world4,
                                sim,
                                op_start,
                                OpOutcome {
                                    kind: OpKind::Get,
                                    at: d.at(),
                                    request: check + post,
                                    compute: SimDuration::ZERO,
                                    ok: ok && d.is_delivered(),
                                    integrity_ok: integrity,
                                    retryable,
                                    degraded: was_degraded,
                                    value_len,
                                    note_written: None,
                                },
                                done,
                            );
                        },
                    );
                }),
            );
            debug_assert!(launched, "the pinned wave is never short of k");
        },
    );
}
