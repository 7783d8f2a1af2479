//! Client-visible Set/Get RPCs composed over the simulated transport.
//!
//! Each RPC is request transfer → server worker processing → response
//! transfer. The non-blocking engine in `eckv-core` issues many of these
//! concurrently and reaps completions through its window, exactly like the
//! `memcached_iset`/`iget` + `memcached_wait` APIs the paper builds on.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::Arc;

use eckv_simnet::{Delivery, Network, NodeId, Serve, SimTime, Simulation};

use crate::payload::Payload;
use crate::server::KvServer;
use crate::store_node::SetOutcome;

/// Wire size of a Set/Get request header (opcode, key length, flags, cas).
pub const REQUEST_OVERHEAD: usize = 48;
/// Wire size of a status-only response (ack / miss).
pub const ACK_BYTES: usize = 32;

/// Errors surfaced to the RPC caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RpcError {
    /// The target server is dead; the error surfaced at the given time.
    ServerDead(SimTime),
    /// The server is alive but refused the request at its bounded-queue
    /// admission cap; the fast refusal reached the client at the given
    /// time. Retryable — the server has not failed, it is overloaded.
    Shed(SimTime),
}

impl std::fmt::Display for RpcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RpcError::ServerDead(t) => write!(f, "server unreachable (detected at {t})"),
            RpcError::Shed(t) => write!(f, "server shed the request (refused at {t})"),
        }
    }
}

impl std::error::Error for RpcError {}

/// Traffic class of a request, used by server admission control: under
/// overload, background repair traffic is shed at a stricter bound than
/// foreground client traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RpcPriority {
    /// Client-facing Set/Get traffic.
    #[default]
    Foreground,
    /// Background rebuild traffic (survivor reads, shard write-backs).
    Repair,
}

impl RpcPriority {
    /// Whether this is background repair traffic.
    pub fn is_repair(self) -> bool {
        matches!(self, RpcPriority::Repair)
    }
}

/// Reply to a Set RPC: when it completed and what the store did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SetReply {
    /// Completion instant at the client.
    pub at: SimTime,
    /// What the server's store did with the item.
    pub outcome: SetOutcome,
}

/// Reply to a Get RPC: when it completed and the value, if any.
#[derive(Debug, Clone, PartialEq)]
pub struct GetReply {
    /// Completion instant at the client.
    pub at: SimTime,
    /// The value, or `None` on miss.
    pub value: Option<Payload>,
}

/// Issues a Set of (`key`, `payload`) from `client` to `server`, starting
/// no earlier than `start`.
///
/// `on_reply` fires when the ack arrives back at the client (or when the
/// failure is detected). A server at its admission cap answers with a
/// fast [`RpcError::Shed`] refusal instead of queueing the work: no
/// worker time is reserved and only the status-only ack crosses back.
#[allow(clippy::too_many_arguments)] // an RPC is naturally wide: route + payload + continuation
pub fn set<F>(
    net: &Rc<RefCell<Network>>,
    server: &Rc<RefCell<KvServer>>,
    sim: &mut Simulation,
    start: SimTime,
    client: NodeId,
    key: Arc<str>,
    payload: Payload,
    prio: RpcPriority,
    on_reply: F,
) where
    F: FnOnce(&mut Simulation, Result<SetReply, RpcError>) + 'static,
{
    let server_node = server.borrow().node();
    let request_bytes = REQUEST_OVERHEAD + key.len() + payload.len() as usize;
    let server = server.clone();
    Network::call(
        net,
        sim,
        start,
        client,
        server_node,
        request_bytes,
        move |_, at| {
            if !server.borrow_mut().admit(at, prio) {
                return shed(at);
            }
            let (done, outcome) = server.borrow_mut().process_set(at, key, payload);
            Serve::Reply {
                at: done,
                bytes: ACK_BYTES,
                reply: Answer::Served(outcome),
            }
        },
        move |sim, end| {
            on_reply(
                sim,
                end.map_err(RpcError::ServerDead)
                    .and_then(|(answer, d)| answer.settle(d))
                    .map(|(at, outcome)| SetReply { at, outcome }),
            )
        },
    );
}

/// The server's answer to a request, carried back on the reply leg.
enum Answer<T> {
    /// The request was processed.
    Served(T),
    /// Admission refused the request.
    Shed,
}

impl<T> Answer<T> {
    /// What the caller learns once the reply leg ends: a refusal is a
    /// shed whatever became of its ack, a served reply needs its ack
    /// delivered.
    fn settle(self, d: Delivery) -> Result<(SimTime, T), RpcError> {
        match (self, d) {
            (Answer::Shed, d) => Err(RpcError::Shed(d.at())),
            (Answer::Served(_), Delivery::TargetDead(t)) => Err(RpcError::ServerDead(t)),
            (Answer::Served(v), Delivery::Delivered(at)) => Ok((at, v)),
        }
    }
}

/// The status-only refusal of a shed request, sent at the delivery
/// instant. It reserves no server worker time — that is what makes
/// shedding cheaper than serving — so the only cost is the ack's wire
/// crossing.
fn shed<T>(at: SimTime) -> Serve<Answer<T>> {
    Serve::Reply {
        at,
        bytes: ACK_BYTES,
        reply: Answer::Shed,
    }
}

/// A shared cancellation flag for speculative (hedged) requests. The
/// issuer keeps a clone; once the race is decided it calls
/// [`CancelToken::cancel`], and any losing request whose server has not
/// started processing yet is dropped there — no worker time, no response
/// bytes. Models piggy-backed cancellation à la "The Tail at Scale".
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Rc<Cell<bool>>);

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks the race as decided; in-flight requests carrying this token
    /// are dropped at the server if they have not been processed yet.
    pub fn cancel(&self) {
        self.0.set(true);
    }

    /// Whether [`CancelToken::cancel`] has been called.
    pub fn is_cancelled(&self) -> bool {
        self.0.get()
    }
}

/// Issues a Get of `key` from `client` to `server`, starting no earlier
/// than `start`.
pub fn get<F>(
    net: &Rc<RefCell<Network>>,
    server: &Rc<RefCell<KvServer>>,
    sim: &mut Simulation,
    start: SimTime,
    client: NodeId,
    key: Arc<str>,
    on_reply: F,
) where
    F: FnOnce(&mut Simulation, Result<GetReply, RpcError>) + 'static,
{
    get_with_cancel(
        net,
        server,
        sim,
        start,
        client,
        key,
        CancelToken::new(),
        RpcPriority::Foreground,
        on_reply,
    );
}

/// Like [`get`], but the request carries `cancel`: if the token is
/// cancelled before the request reaches the server, the server drops it —
/// no processing, no response, and **`on_reply` never fires**. Callers
/// must not rely on the callback for accounting of cancelled requests.
#[allow(clippy::too_many_arguments)] // an RPC is naturally wide: route + payload + continuation
pub fn get_with_cancel<F>(
    net: &Rc<RefCell<Network>>,
    server: &Rc<RefCell<KvServer>>,
    sim: &mut Simulation,
    start: SimTime,
    client: NodeId,
    key: Arc<str>,
    cancel: CancelToken,
    prio: RpcPriority,
    on_reply: F,
) where
    F: FnOnce(&mut Simulation, Result<GetReply, RpcError>) + 'static,
{
    let server_node = server.borrow().node();
    let request_bytes = REQUEST_OVERHEAD + key.len();
    let server = server.clone();
    Network::call(
        net,
        sim,
        start,
        client,
        server_node,
        request_bytes,
        move |_, at| {
            if cancel.is_cancelled() {
                return Serve::Drop;
            }
            if !server.borrow_mut().admit(at, prio) {
                return shed(at);
            }
            let (done, value) = server.borrow_mut().process_get(at, &key);
            let response_bytes = ACK_BYTES + value.as_ref().map_or(0, |v| v.len() as usize);
            Serve::Reply {
                at: done,
                bytes: response_bytes,
                reply: Answer::Served(value),
            }
        },
        move |sim, end| {
            on_reply(
                sim,
                end.map_err(RpcError::ServerDead)
                    .and_then(|(answer, d)| answer.settle(d))
                    .map(|(at, value)| GetReply { at, value }),
            )
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServerCosts;
    use eckv_simnet::{ClusterProfile, TransportKind};

    fn setup() -> (Rc<RefCell<Network>>, Rc<RefCell<KvServer>>, Simulation) {
        let cfg = ClusterProfile::RiQdr.net_config(TransportKind::Rdma);
        let net = Network::new(2, cfg);
        let server = Rc::new(RefCell::new(KvServer::new(
            NodeId(0),
            4,
            1 << 30,
            ServerCosts::default(),
        )));
        (net, server, Simulation::new())
    }

    #[test]
    fn set_then_get_roundtrip_over_the_wire() {
        let (net, server, mut sim) = setup();
        let client = NodeId(1);
        let value = Payload::inline(vec![42u8; 4096]);
        let got: Rc<RefCell<Option<GetReply>>> = Rc::new(RefCell::new(None));
        let got2 = got.clone();

        let net2 = net.clone();
        let server2 = server.clone();
        set(
            &net,
            &server,
            &mut sim,
            SimTime::ZERO,
            client,
            "k".into(),
            value.clone(),
            RpcPriority::Foreground,
            move |sim, reply| {
                let reply = reply.expect("server is alive");
                assert_eq!(reply.outcome, SetOutcome::Stored);
                get(
                    &net2,
                    &server2,
                    sim,
                    reply.at,
                    client,
                    "k".into(),
                    move |_, reply| {
                        *got2.borrow_mut() = Some(reply.expect("alive"));
                    },
                );
            },
        );
        sim.run();
        let reply = got.borrow().clone().expect("get completed");
        assert_eq!(reply.value.unwrap(), value);
    }

    #[test]
    fn get_miss_returns_none() {
        let (net, server, mut sim) = setup();
        let seen = Rc::new(RefCell::new(false));
        let seen2 = seen.clone();
        get(
            &net,
            &server,
            &mut sim,
            SimTime::ZERO,
            NodeId(1),
            "ghost".into(),
            move |_, reply| {
                assert!(reply.unwrap().value.is_none());
                *seen2.borrow_mut() = true;
            },
        );
        sim.run();
        assert!(*seen.borrow());
    }

    #[test]
    fn rpc_to_dead_server_errors() {
        let (net, server, mut sim) = setup();
        net.borrow_mut().kill(NodeId(0));
        let seen = Rc::new(RefCell::new(false));
        let seen2 = seen.clone();
        set(
            &net,
            &server,
            &mut sim,
            SimTime::ZERO,
            NodeId(1),
            "k".into(),
            Payload::synthetic(100, 0),
            RpcPriority::Foreground,
            move |_, reply| {
                assert!(matches!(reply, Err(RpcError::ServerDead(_))));
                *seen2.borrow_mut() = true;
            },
        );
        sim.run();
        assert!(*seen.borrow());
    }

    #[test]
    fn cancelled_get_is_dropped_at_the_server() {
        let (net, server, mut sim) = setup();
        // Store a value directly so a get would otherwise hit.
        server
            .borrow_mut()
            .store_mut()
            .set("k".into(), Payload::synthetic(4096, 1));
        let fired = Rc::new(RefCell::new(false));
        let f2 = fired.clone();
        let token = CancelToken::new();
        get_with_cancel(
            &net,
            &server,
            &mut sim,
            SimTime::ZERO,
            NodeId(1),
            "k".into(),
            token.clone(),
            RpcPriority::Foreground,
            move |_, _| {
                *f2.borrow_mut() = true;
            },
        );
        // Cancel before the request can reach the server.
        token.cancel();
        assert!(token.is_cancelled());
        sim.run();
        assert!(!*fired.borrow(), "cancelled get must not call back");
        // Only the request crossed the wire; the response was never sent.
        assert_eq!(net.borrow().messages_sent(), 1);

        // An uncancelled token leaves the RPC untouched.
        let (net, server, mut sim) = setup();
        let fired = Rc::new(RefCell::new(false));
        let f2 = fired.clone();
        get_with_cancel(
            &net,
            &server,
            &mut sim,
            SimTime::ZERO,
            NodeId(1),
            "k".into(),
            CancelToken::new(),
            RpcPriority::Foreground,
            move |_, _| {
                *f2.borrow_mut() = true;
            },
        );
        sim.run();
        assert!(*fired.borrow());
    }

    #[test]
    fn admission_caps_shed_repair_before_foreground() {
        use crate::server::AdmissionCaps;
        use eckv_simnet::QueueCap;

        let (net, server, mut sim) = setup();
        server.borrow_mut().set_admission(Some(AdmissionCaps {
            foreground: QueueCap::depth(64),
            repair: QueueCap::depth(0),
        }));
        let busy_before = server.borrow().cpu_busy();

        // Repair traffic is refused outright at its zero-depth bound...
        let repair_reply: Rc<RefCell<Option<Result<GetReply, RpcError>>>> =
            Rc::new(RefCell::new(None));
        let r2 = repair_reply.clone();
        get_with_cancel(
            &net,
            &server,
            &mut sim,
            SimTime::ZERO,
            NodeId(1),
            "k".into(),
            CancelToken::new(),
            RpcPriority::Repair,
            move |_, reply| *r2.borrow_mut() = Some(reply),
        );
        // ...while a foreground get on the same server is served.
        let fg_reply: Rc<RefCell<Option<Result<GetReply, RpcError>>>> = Rc::new(RefCell::new(None));
        let f2 = fg_reply.clone();
        get(
            &net,
            &server,
            &mut sim,
            SimTime::ZERO,
            NodeId(1),
            "k".into(),
            move |_, reply| *f2.borrow_mut() = Some(reply),
        );
        sim.run();
        let shed_at = match repair_reply.borrow().as_ref() {
            Some(Err(RpcError::Shed(t))) => *t,
            other => panic!("repair get must be shed, got {other:?}"),
        };
        assert!(
            shed_at > SimTime::ZERO,
            "the refusal still crosses the wire"
        );
        assert!(
            matches!(fg_reply.borrow().as_ref(), Some(Ok(_))),
            "foreground get must be admitted"
        );
        // The shed request reserved no worker time: only the admitted
        // foreground get's service shows up.
        let fg_service = ServerCosts::default().op_time(0);
        assert_eq!(server.borrow().cpu_busy(), busy_before + fg_service);
    }

    #[test]
    fn bigger_values_take_longer_on_the_wire() {
        fn set_latency(bytes: usize) -> u64 {
            let (net, server, mut sim) = setup();
            let done = Rc::new(RefCell::new(SimTime::ZERO));
            let d2 = done.clone();
            set(
                &net,
                &server,
                &mut sim,
                SimTime::ZERO,
                NodeId(1),
                "k".into(),
                Payload::synthetic(bytes as u64, 0),
                RpcPriority::Foreground,
                move |_, reply| {
                    *d2.borrow_mut() = reply.unwrap().at;
                },
            );
            sim.run();
            let t = done.borrow().as_nanos();
            t
        }
        let small = set_latency(1024);
        let large = set_latency(1 << 20);
        assert!(large > small * 5, "small={small} large={large}");
    }
}
