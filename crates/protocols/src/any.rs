//! Protocol-erased deployments: one code path for every executor.
//!
//! Each protocol module defines its own node and message types, which is
//! what lets the simulator type-check protocol invariants — but it also used
//! to force every executor to repeat a per-protocol `match`.  [`AnyNode`] and
//! [`AnyMsg`] erase the per-protocol types behind enum dispatch, so a
//! deployment is described once — by a [`ProtocolKind`] and a
//! [`SystemConfig`] — and executed anywhere a [`Process`] can run:
//! `snow_sim::Simulation`, `snow_sim::ParallelSimulation`, or any future
//! substrate.
//!
//! Enum dispatch (rather than `Box<dyn Any>` downcasting) keeps dispatch
//! static, keeps messages `Clone + Debug`, and — crucially for the golden
//! fixtures — adds no sends, no reordering and no scheduler interaction:
//! a wrapped deployment produces bit-identical schedules to the typed one.
//! Each protocol's handlers are generic over the message type of the
//! [`Effects`] buffer they write into, so an [`AnyNode`] runs them directly
//! on the substrate's `Effects<AnyMsg>`: every send is wrapped once, by a
//! `From<XMsg> for AnyMsg` conversion, as the handler emits it.

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
            AnyNode::List(n) => n.on_abort(tx_id),
            AnyNode::Eiger(n) => n.on_abort(tx_id),
            AnyNode::Blocking(n) => n.on_abort(tx_id),
            AnyNode::Simple(n) => n.on_abort(tx_id),
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
/// single `ProtocolKind`-dispatched deployment path shared by both
/// execution substrates, `snow_sim::Simulation` and
/// `snow_sim::ParallelSimulation` (via [`crate::ClusterSpec::build`]).
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
mod tests {
    use super::*;
    use snow_core::{ClientId, ObjectId, ServerId};

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
    /// silently widen.  The heap entry beside it is pinned ≤ 24 B in
    /// `snow_sim::pool` (`a_heap_entry_cannot_silently_widen`).
    #[test]
    fn the_pools_working_set_cannot_silently_widen() {
        assert!(std::mem::size_of::<Option<snow_sim::PendingMessage<AnyMsg>>>() <= 112);
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
}
