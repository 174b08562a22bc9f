//! Property tests for the IPC substrate.

use std::collections::{HashMap, VecDeque};

use proptest::prelude::*;

use cor_ipc::message::{Message, MsgItem, MsgKind};
use cor_ipc::port::{NodeId, PortError, PortId, PortRegistry};
use cor_ipc::protocol::{self, ProtocolMsg};
use cor_ipc::segment::SegmentRegistry;
use cor_mem::page::Frame;
use cor_mem::space::SegmentId;

/// Reference model for [`PortRegistry`]: a hash map from every id ever
/// allocated to its home, liveness and queued message tags.
#[derive(Default)]
struct PortModel {
    ports: HashMap<PortId, (NodeId, bool, VecDeque<u32>)>,
    next: u64,
}

impl PortModel {
    fn live(&mut self, p: PortId) -> Result<&mut (NodeId, bool, VecDeque<u32>), PortError> {
        match self.ports.get_mut(&p) {
            Some(e) if e.1 => Ok(e),
            _ => Err(PortError::Dead(p)),
        }
    }

    fn home(&mut self, p: PortId) -> Result<NodeId, PortError> {
        self.live(p).map(|e| e.0)
    }

    fn queue_len(&mut self, p: PortId) -> usize {
        self.live(p).map_or(0, |e| e.2.len())
    }

    fn live_ports(&self) -> usize {
        self.ports.values().filter(|e| e.1).count()
    }
}

/// Picks a port id for an op: mostly allocated ones, sometimes ids that
/// were never allocated (the next id, one far past it, and the largest).
fn pick_port(sel: u64, allocated: u64) -> PortId {
    match sel % (allocated + 3) {
        i if i < allocated => PortId(i),
        i if i == allocated => PortId(allocated),
        i if i == allocated + 1 => PortId(allocated + 1000),
        _ => PortId(u64::MAX),
    }
}

proptest! {
    /// The port slab agrees with a hash-map model on every observable
    /// (home, queue length, liveness, live count, FIFO order) across
    /// random allocate/enqueue/dequeue/relocate/deallocate/purge_node
    /// sequences, and ids that were never allocated read as dead.
    #[test]
    fn port_slab_matches_hash_map_model(
        ops in prop::collection::vec((0u8..6, any::<u64>(), 0u32..3), 1..300)
    ) {
        let mut reg = PortRegistry::new();
        let mut model = PortModel::default();
        let mut tag = 0u32;
        for &(op, sel, node) in &ops {
            let node = NodeId(node);
            let p = pick_port(sel, model.next);
            match op {
                0 => {
                    let id = reg.allocate(node);
                    prop_assert_eq!(id, PortId(model.next));
                    model.ports.insert(id, (node, true, VecDeque::new()));
                    model.next += 1;
                }
                1 => {
                    let got = reg.enqueue(p, Message::new(MsgKind::User(tag), p));
                    let want = model.live(p).map(|e| e.2.push_back(tag));
                    prop_assert_eq!(got, want);
                    tag += 1;
                }
                2 => {
                    let got = reg.dequeue(p).map(|m| m.map(|m| m.kind));
                    let want = model.live(p).map(|e| e.2.pop_front().map(MsgKind::User));
                    prop_assert_eq!(got, want);
                }
                3 => {
                    let got = reg.relocate(p, node);
                    let want = model.live(p).map(|e| e.0 = node);
                    prop_assert_eq!(got, want);
                }
                4 => {
                    reg.deallocate(p);
                    if let Ok(e) = model.live(p) {
                        e.1 = false;
                        e.2.clear();
                    }
                }
                _ => {
                    let mut want = 0;
                    for e in model.ports.values_mut().filter(|e| e.1 && e.0 == node) {
                        want += e.2.len();
                        e.2.clear();
                    }
                    prop_assert_eq!(reg.purge_node(node), want);
                }
            }
            prop_assert_eq!(reg.home(p), model.home(p));
            prop_assert_eq!(reg.queue_len(p), model.queue_len(p));
            prop_assert_eq!(reg.is_alive(p), model.home(p).is_ok());
            prop_assert_eq!(reg.live_ports(), model.live_ports());
        }
        // Every id, allocated or not, ends in the model's state, and each
        // live queue drains in FIFO order.
        for i in 0..model.next + 2 {
            let p = PortId(i);
            prop_assert_eq!(reg.home(p), model.home(p));
            let want: Vec<MsgKind> = match model.live(p) {
                Ok(e) => e.2.drain(..).map(MsgKind::User).collect(),
                Err(_) => Vec::new(),
            };
            let mut got = Vec::new();
            while let Ok(Some(m)) = reg.dequeue(p) {
                got.push(m.kind);
            }
            prop_assert_eq!(got, want);
        }
        let far = PortId(u64::MAX);
        prop_assert_eq!(reg.home(far), Err(PortError::Dead(far)));
        prop_assert_eq!(reg.queue_len(far), 0);
    }

    /// Protocol encode/parse is the identity for arbitrary field values.
    #[test]
    fn protocol_request_roundtrips(seg in any::<u64>(), offset in any::<u64>(), count in 1u64..1000) {
        let m = protocol::imag_read_request(PortId(1), PortId(2), SegmentId(seg), offset, count);
        match protocol::parse(&m) {
            Some(ProtocolMsg::ImagReadRequest { seg: s, offset: o, count: c, reply, seq }) => {
                prop_assert_eq!((s, o, c, reply, seq), (SegmentId(seg), offset, count, PortId(2), 0));
            }
            other => prop_assert!(false, "bad parse: {:?}", other),
        }
    }

    /// Replies roundtrip with their page payloads intact.
    #[test]
    fn protocol_reply_roundtrips(seg in any::<u64>(), offset in any::<u64>(), n in 1usize..32, fill in any::<u8>()) {
        let frames: Vec<Frame> = (0..n)
            .map(|i| Frame::new(cor_mem::page::page_from_bytes(&[fill ^ i as u8])))
            .collect();
        let m = protocol::imag_read_reply(PortId(3), SegmentId(seg), offset, frames);
        match protocol::parse(&m) {
            Some(ProtocolMsg::ImagReadReply { seg: s, offset: o, frames, .. }) => {
                prop_assert_eq!((s, o), (SegmentId(seg), offset));
                prop_assert_eq!(frames.len(), n);
                for (i, f) in frames.iter().enumerate() {
                    f.with(|d| assert_eq!(d[0], fill ^ i as u8));
                }
            }
            other => prop_assert!(false, "bad parse: {:?}", other),
        }
    }

    /// FIFO delivery holds for any interleaving of enqueues and dequeues.
    #[test]
    fn ports_are_fifo(ops in prop::collection::vec(any::<bool>(), 1..200)) {
        let mut reg = PortRegistry::new();
        let port = reg.allocate(NodeId(0));
        let mut next_in = 0u32;
        let mut next_out = 0u32;
        for &enq in &ops {
            if enq {
                reg.enqueue(port, Message::new(MsgKind::User(next_in), port)).unwrap();
                next_in += 1;
            } else if let Some(m) = reg.dequeue(port).unwrap() {
                prop_assert_eq!(m.kind, MsgKind::User(next_out));
                next_out += 1;
            }
        }
        prop_assert_eq!(reg.queue_len(port) as u32, next_in - next_out);
    }

    /// Segment refcounting: interleaved add/release sequences die exactly
    /// when the running balance hits zero, never before.
    #[test]
    fn segment_death_exactly_at_zero(deltas in prop::collection::vec(1u64..20, 1..40)) {
        let mut segs = SegmentRegistry::new();
        let seg = segs.create(PortId(1), 10_000);
        let mut balance = 0u64;
        let mut dead = false;
        for (i, &d) in deltas.iter().enumerate() {
            if i % 2 == 0 {
                if dead {
                    prop_assert!(segs.add_refs(seg, d).is_err());
                } else {
                    segs.add_refs(seg, d).unwrap();
                    balance += d;
                }
            } else if !dead {
                let release = d.min(balance);
                if release > 0 {
                    let died = segs.release_refs(seg, release).unwrap();
                    balance -= release;
                    prop_assert_eq!(died, balance == 0);
                    dead = died;
                }
            }
        }
        prop_assert_eq!(segs.get(seg).is_none(), dead);
    }

    /// Wire size is additive over items and monotone in payload.
    #[test]
    fn wire_size_additive(sizes in prop::collection::vec(0usize..4096, 0..10)) {
        let dest = PortId(0);
        let mut msg = Message::new(MsgKind::User(0), dest);
        let mut expected = cor_ipc::message::HEADER_SIZE;
        for &s in &sizes {
            let item = MsgItem::Inline(vec![0; s]);
            expected += item.wire_size();
            msg.items.push(item);
        }
        prop_assert_eq!(msg.wire_size(), expected);
    }
}
