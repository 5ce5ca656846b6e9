//! Protocol-erased deployments: the one [`Process`] of the crate.
//!
//! Each protocol module defines its own node and message types, so a
//! handler only ever matches on its own protocol's messages.  [`AnyNode`]
//! and [`AnyMsg`] put them behind enum dispatch, so a deployment is
//! described once — by a [`ProtocolKind`] and a [`SystemConfig`] — and
//! executed anywhere a [`Process`] can run: `snow_sim::Simulation`, or any
//! future substrate.
//!
//! `AnyNode` is the only `Process` implementation in this crate.  Each
//! protocol node exposes its handlers as inherent methods (`id`,
//! `handle_invoke`, `handle_message`, `abort`) that write into the
//! substrate's `Effects<AnyMsg>` directly: every send is wrapped once, by a
//! `From<XMsg> for AnyMsg` conversion, as the handler emits it.  Enum
//! dispatch (rather than `Box<dyn Any>` downcasting) keeps dispatch static
//! and messages `Clone + Debug`.

use crate::list::{self, Algorithm};
use crate::{blocking, eiger, simple, ProtocolKind};
use snow_core::{
    Effects, MsgInfo, Process, ProcessId, ProtocolMessage, Result, SystemConfig, TxId, TxSpec,
};

/// A message of any protocol: the per-protocol message type, tagged.
#[derive(Debug, Clone)]
pub enum AnyMsg {
    /// Algorithm A, B or C traffic.
    List(list::ListMsg),
    /// Eiger-style traffic.
    Eiger(eiger::EigerMsg),
    /// Blocking-2PL traffic.
    Blocking(blocking::BlockingMsg),
    /// Simple-operation traffic.
    Simple(simple::SimpleMsg),
}

impl From<list::ListMsg> for AnyMsg {
    fn from(m: list::ListMsg) -> Self {
        AnyMsg::List(m)
    }
}

impl From<eiger::EigerMsg> for AnyMsg {
    fn from(m: eiger::EigerMsg) -> Self {
        AnyMsg::Eiger(m)
    }
}

impl From<blocking::BlockingMsg> for AnyMsg {
    fn from(m: blocking::BlockingMsg) -> Self {
        AnyMsg::Blocking(m)
    }
}

impl From<simple::SimpleMsg> for AnyMsg {
    fn from(m: simple::SimpleMsg) -> Self {
        AnyMsg::Simple(m)
    }
}

impl ProtocolMessage for AnyMsg {
    #[inline]
    fn info(&self) -> MsgInfo {
        match self {
            AnyMsg::List(m) => m.info(),
            AnyMsg::Eiger(m) => m.info(),
            AnyMsg::Blocking(m) => m.info(),
            AnyMsg::Simple(m) => m.info(),
        }
    }
}

/// A process of any protocol deployment.
#[derive(Debug)]
pub enum AnyNode {
    /// An Algorithm A, B or C process.
    List(list::ListNode),
    /// An Eiger-style process.
    Eiger(eiger::EigerNode),
    /// A blocking-2PL process.
    Blocking(blocking::BlockingNode),
    /// A simple-operation process.
    Simple(simple::SimpleNode),
}

impl Process for AnyNode {
    type Msg = AnyMsg;

    fn id(&self) -> ProcessId {
        match self {
            AnyNode::List(n) => n.id(),
            AnyNode::Eiger(n) => n.id(),
            AnyNode::Blocking(n) => n.id(),
            AnyNode::Simple(n) => n.id(),
        }
    }

    fn on_invoke(&mut self, tx_id: TxId, spec: TxSpec, effects: &mut Effects<AnyMsg>) {
        match self {
            AnyNode::List(n) => n.handle_invoke(tx_id, spec, effects),
            AnyNode::Eiger(n) => n.handle_invoke(tx_id, spec, effects),
            AnyNode::Blocking(n) => n.handle_invoke(tx_id, spec, effects),
            AnyNode::Simple(n) => n.handle_invoke(tx_id, spec, effects),
        }
    }

    fn on_abort(&mut self, tx_id: TxId) {
        match self {
            AnyNode::List(n) => n.abort(tx_id),
            AnyNode::Eiger(n) => n.abort(tx_id),
            AnyNode::Blocking(n) => n.abort(tx_id),
            AnyNode::Simple(n) => n.abort(tx_id),
        }
    }

    /// A message of the wrong protocol reaching a node is a harness bug (it
    /// cannot happen through [`deploy_any`], which builds homogeneous
    /// deployments) and panics loudly.
    fn on_message(&mut self, from: ProcessId, msg: AnyMsg, effects: &mut Effects<AnyMsg>) {
        match (self, msg) {
            (AnyNode::List(n), AnyMsg::List(m)) => n.handle_message(from, m, effects),
            (AnyNode::Eiger(n), AnyMsg::Eiger(m)) => n.handle_message(from, m, effects),
            (AnyNode::Blocking(n), AnyMsg::Blocking(m)) => n.handle_message(from, m, effects),
            (AnyNode::Simple(n), AnyMsg::Simple(m)) => n.handle_message(from, m, effects),
            (node, m) => panic!(
                "protocol mismatch: {} received a message of another deployment: {m:?}",
                node.id()
            ),
        }
    }
}

/// Builds the protocol-erased node set of `protocol` over `config` — the
/// single `ProtocolKind`-dispatched deployment path, which
/// [`crate::ClusterSpec::build`] puts on `snow_sim::Simulation`.
///
/// ```
/// use snow_core::SystemConfig;
/// use snow_protocols::{deploy_any, ProtocolKind};
///
/// // Two servers, one reader, one writer — one node per process, ready
/// // to run on any substrate that drives the `Process` contract.
/// let config = SystemConfig::mwmr(2, 1, 1);
/// let nodes = deploy_any(ProtocolKind::AlgB, &config).unwrap();
/// assert_eq!(
///     nodes.len() as u32,
///     config.num_servers + config.num_readers + config.num_writers,
/// );
///
/// // Configuration requirements are validated here, once, for every
/// // substrate: Algorithm A insists on client-to-client communication.
/// let no_c2c = SystemConfig::mwsr(2, 1, false);
/// assert!(deploy_any(ProtocolKind::AlgA, &no_c2c).is_err());
/// ```
pub fn deploy_any(protocol: ProtocolKind, config: &SystemConfig) -> Result<Vec<AnyNode>> {
    let family = |algorithm| list::deploy(algorithm, config);
    Ok(match protocol {
        ProtocolKind::AlgA => family(Algorithm::A)?.into_iter().map(AnyNode::List).collect(),
        ProtocolKind::AlgB => family(Algorithm::B)?.into_iter().map(AnyNode::List).collect(),
        ProtocolKind::AlgC => family(Algorithm::C)?.into_iter().map(AnyNode::List).collect(),
        ProtocolKind::Eiger => eiger::deploy(config)?.into_iter().map(AnyNode::Eiger).collect(),
        ProtocolKind::Blocking => {
            blocking::deploy(config)?.into_iter().map(AnyNode::Blocking).collect()
        }
        ProtocolKind::Simple => simple::deploy(config)?.into_iter().map(AnyNode::Simple).collect(),
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use snow_core::{ClientId, ObjectId, ServerId, Value};
    use snow_sim::{Scheduler, Simulation};
    use std::collections::VecDeque;

    /// The protocol modules' unit tests run `protocol` on this: its
    /// [`deploy_any`] node set on a serial simulation driven by `scheduler`.
    pub(crate) fn simulation<S: Scheduler<AnyMsg>>(
        protocol: ProtocolKind,
        config: &SystemConfig,
        scheduler: S,
    ) -> Simulation<AnyNode, S> {
        let mut sim = Simulation::new(scheduler);
        for node in deploy_any(protocol, config).unwrap() {
            sim.add_process(node);
        }
        sim
    }

    #[test]
    fn deployments_are_homogeneous_and_cover_every_process() {
        for protocol in ProtocolKind::all() {
            let config = if protocol.needs_c2c() {
                SystemConfig::mwsr(2, 2, true)
            } else {
                SystemConfig::mwmr(2, 2, 2)
            };
            let nodes = deploy_any(protocol, &config).unwrap();
            assert_eq!(
                nodes.len() as u32,
                config.num_servers + config.num_readers + config.num_writers,
                "{protocol:?}"
            );
            let ids: Vec<ProcessId> = nodes.iter().map(|n| n.id()).collect();
            assert!(ids.contains(&ProcessId::Server(ServerId(0))));
            assert!(ids.contains(&ProcessId::Client(ClientId(0))));
        }
    }

    /// A slab slot, `Option<PendingMessage<AnyMsg>>`, is the message
    /// pool's working set — what the benchmark's
    /// `sim.flood_100k_ns_per_step` walks; the `None` fits the payload's
    /// niche.  It may shrink (ROADMAP item 9 wants it to); it must not
    /// silently widen.  The heap entry beside it is pinned ≤ 16 B in
    /// `snow_sim::pool` (`a_heap_entry_cannot_silently_widen`).  A payload
    /// that carries an object list in place keeps it to 16 B (`update-coor`,
    /// `info-reader`) or 24 B (`get-tag-arr`): one that widened every
    /// message by 56 B cost 12 % of `closed-b-wan3`'s throughput.
    #[test]
    fn the_pools_working_set_cannot_silently_widen() {
        assert!(std::mem::size_of::<Option<snow_sim::PendingMessage<AnyMsg>>>() <= 104);
        assert!(std::mem::size_of::<snow_core::WriteObjects>() <= 16);
        assert!(std::mem::size_of::<snow_core::ReadObjects>() <= 24);
    }

    #[test]
    fn invalid_configs_are_rejected_through_the_erased_path() {
        let no_c2c = SystemConfig::mwsr(2, 1, false);
        assert!(deploy_any(ProtocolKind::AlgA, &no_c2c).is_err());
    }

    #[test]
    #[should_panic(expected = "protocol mismatch")]
    fn cross_protocol_messages_panic() {
        let config = SystemConfig::mwmr(2, 1, 1);
        let mut nodes = deploy_any(ProtocolKind::AlgB, &config).unwrap();
        let mut effects = Effects::new(0);
        let foreign = AnyMsg::Simple(simple::SimpleMsg::ReadReq {
            tx: TxId(0),
            object: ObjectId(0),
        });
        nodes[0].on_message(ProcessId::Client(ClientId(0)), foreign, &mut effects);
    }

    /// The object a write-value ack names, in any protocol.
    fn write_ack(msg: &AnyMsg) -> Option<ObjectId> {
        match msg {
            AnyMsg::List(list::ListMsg::WriteAck { object, .. })
            | AnyMsg::Eiger(eiger::EigerMsg::WriteAck { object, .. })
            | AnyMsg::Blocking(blocking::BlockingMsg::WriteAck { object, .. })
            | AnyMsg::Simple(simple::SimpleMsg::WriteAck { object, .. }) => Some(*object),
            _ => None,
        }
    }

    /// The node of `nodes` whose id is `id`.
    fn at(nodes: &mut [AnyNode], id: ProcessId) -> &mut AnyNode {
        nodes.iter_mut().find(|n| n.id() == id).unwrap()
    }

    /// Counts the RESPs a handler at `from` left in `effects`, then
    /// delivers its sends, and every send they cause, in FIFO order until
    /// none is left, counting RESPs on the way.  Write-value acks are set
    /// aside in `held` instead of delivered.
    fn run(
        nodes: &mut [AnyNode],
        from: ProcessId,
        effects: &mut Effects<AnyMsg>,
        held: &mut Vec<(ProcessId, AnyMsg)>,
    ) -> usize {
        let mut responses = effects.drain_responses().len();
        let mut queue: VecDeque<_> = effects.drain_sends().map(|(to, m)| (from, to, m)).collect();
        while let Some((from, to, msg)) = queue.pop_front() {
            if write_ack(&msg).is_some() {
                held.push((from, msg));
                continue;
            }
            at(nodes, to).on_message(from, msg, effects);
            queue.extend(effects.drain_sends().map(|(next, m)| (to, next, m)));
            responses += effects.drain_responses().len();
        }
        responses
    }

    /// Every protocol, driven by hand: a 2-object WRITE runs to its ack
    /// phase with both acks held back, then object 0's ack arrives twice.
    /// Neither copy may emit anything — no RESP and, for A/B/C, no
    /// registration; object 1's ack then completes the WRITE exactly once.
    #[test]
    fn a_duplicated_write_ack_cannot_complete_a_write() {
        for protocol in ProtocolKind::all() {
            let config = if protocol.needs_c2c() {
                SystemConfig::mwsr(2, 1, true)
            } else {
                SystemConfig::mwmr(2, 1, 1)
            };
            let writer = ProcessId::Client(config.writers().next().unwrap());
            let mut nodes = deploy_any(protocol, &config).unwrap();
            let (mut effects, mut held) = (Effects::new(0), Vec::new());
            let spec = TxSpec::write(vec![(ObjectId(0), Value(1)), (ObjectId(1), Value(2))]);
            at(&mut nodes, writer).on_invoke(TxId(1), spec, &mut effects);
            assert_eq!(run(&mut nodes, writer, &mut effects, &mut held), 0);
            held.sort_by_key(|(_, ack)| write_ack(ack));
            let [(s0, ack0), (s1, ack1)] = <[_; 2]>::try_from(held).expect("an ack per object");

            for _ in 0..2 {
                at(&mut nodes, writer).on_message(s0, ack0.clone(), &mut effects);
                let sends = effects.drain_sends().len();
                assert_eq!(sends + effects.drain_responses().len(), 0, "{protocol:?}");
            }
            at(&mut nodes, writer).on_message(s1, ack1, &mut effects);
            let responses = run(&mut nodes, writer, &mut effects, &mut Vec::new());
            assert_eq!(responses, 1, "{protocol:?}");
        }
    }
}
