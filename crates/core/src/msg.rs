//! The user-level messaging layer.
//!
//! All five macrobenchmarks (and the microbenchmarks) are written against a
//! small messaging interface modelled on the paper's use of Tempest active
//! messages (§4.1): a user message names a destination node, a handler and a
//! payload; the layer fragments it into 256-byte network messages (244
//! payload bytes each after the 12-byte header), moves the fragments through
//! the NI, and reassembles them at the destination before invoking the
//! handler.
//!
//! The types in this module are pure data structures — the timing of every
//! operation is charged by the machine model in [`crate::machine`]. Keeping
//! them separate makes them easy to unit test and reuse.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use cni_net::message::{fragments_for_bytes, NodeId, NET_PAYLOAD_BYTES};

/// Identifies the handler a message should be dispatched to at the receiver.
pub type HandlerId = u16;

/// A user-level (active) message.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AmMessage {
    /// Sending node (filled in by the messaging layer).
    pub src: NodeId,
    /// Receiver-side handler to invoke.
    pub handler: HandlerId,
    /// Logical payload size in bytes (drives fragmentation and timing).
    pub bytes: usize,
    /// Small inline data words carried for the workload's logic (node ids,
    /// values, ...). These are part of the payload, not in addition to it.
    pub data: Vec<u64>,
}

impl AmMessage {
    /// Creates a message with the given handler, logical size and inline
    /// data.
    pub fn new(handler: HandlerId, bytes: usize, data: Vec<u64>) -> Self {
        AmMessage {
            src: NodeId(0),
            handler,
            bytes,
            data,
        }
    }

    /// Number of network messages this user message fragments into.
    pub fn fragment_count(&self) -> usize {
        fragments_for_bytes(self.bytes)
    }
}

/// One network message's worth of a user message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FragPayload {
    /// Sending node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Per-sender user-message identifier (for reassembly).
    pub msg_id: u64,
    /// Index of this fragment within the user message.
    pub frag_index: u32,
    /// Total number of fragments in the user message.
    pub frag_count: u32,
    /// User payload bytes carried by this fragment (≤ 244).
    pub payload_bytes: usize,
    /// The full user message, shared by every fragment (the simulator does
    /// not split actual bytes — timing uses `payload_bytes`).
    pub message: Arc<AmMessage>,
}

/// Splits a user message into per-network-message fragments.
///
/// ```
/// use cni_core::msg::{fragment_message, AmMessage};
/// use cni_net::message::NodeId;
///
/// let msg = AmMessage::new(3, 1000, vec![]);
/// let frags = fragment_message(NodeId(0), NodeId(1), 7, msg);
/// assert_eq!(frags.len(), 5); // 1000 bytes / 244-byte fragments
/// assert_eq!(frags.iter().map(|f| f.payload_bytes).sum::<usize>(), 1000);
/// ```
pub fn fragment_message(
    src: NodeId,
    dst: NodeId,
    msg_id: u64,
    message: AmMessage,
) -> Vec<FragPayload> {
    let mut frags = Vec::with_capacity(fragments_for_bytes(message.bytes));
    fragment_message_with(src, dst, msg_id, message, |frag| frags.push(frag));
    frags
}

/// Splits a user message into fragments, handing each to `sink` — the
/// allocation-free core of [`fragment_message`], used by the machine's send
/// path to append fragments straight into a node's [`OutgoingBuffer`] without
/// materialising an intermediate `Vec` per message.
///
/// Returns the number of fragments produced.
pub fn fragment_message_with(
    src: NodeId,
    dst: NodeId,
    msg_id: u64,
    mut message: AmMessage,
    mut sink: impl FnMut(FragPayload),
) -> usize {
    message.src = src;
    let total = message.bytes;
    let count = fragments_for_bytes(total);
    let shared = Arc::new(message);
    let mut remaining = total;
    for i in 0..count {
        let payload_bytes = remaining
            .min(NET_PAYLOAD_BYTES)
            .max(if total == 0 { 0 } else { 1 });
        remaining = remaining.saturating_sub(payload_bytes);
        sink(FragPayload {
            src,
            dst,
            msg_id,
            frag_index: i as u32,
            frag_count: count as u32,
            payload_bytes,
            message: Arc::clone(&shared),
        });
    }
    count
}

/// Reassembles fragments back into user messages at the receiver.
#[derive(Debug, Default, Clone)]
pub struct Assembler {
    partial: HashMap<(NodeId, u64), (u32, Arc<AmMessage>)>,
    completed: u64,
}

impl Assembler {
    /// Creates an empty assembler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Accepts one fragment; returns the completed message when the last
    /// fragment of a user message arrives.
    ///
    /// The fragment is consumed: when the final fragment's arrival leaves the
    /// assembler holding the only reference to the shared message, the
    /// message is moved out instead of cloned, so steady-state reassembly
    /// never copies payload data. A single-fragment message completes on
    /// arrival without touching the table of partial messages.
    pub fn push(&mut self, frag: FragPayload) -> Option<AmMessage> {
        let key = (frag.src, frag.msg_id);
        let frag_count = frag.frag_count;
        let FragPayload { message, .. } = frag;
        if frag_count <= 1 {
            self.completed += 1;
            return Some(unwrap_shared(message));
        }
        let arrived = match self.partial.entry(key) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                // Drop this fragment's reference before the completion check
                // so `Arc::try_unwrap` below can succeed.
                drop(message);
                let e = e.get_mut();
                e.0 += 1;
                e.0
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert((1, message));
                1
            }
        };
        if arrived >= frag_count {
            let (_, msg) = self.partial.remove(&key).expect("entry just updated");
            self.completed += 1;
            Some(unwrap_shared(msg))
        } else {
            None
        }
    }

    /// Number of user messages fully reassembled so far.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Number of user messages currently partially assembled.
    pub fn in_progress(&self) -> usize {
        self.partial.len()
    }
}

/// Moves a message out of its last shared reference, cloning it only if
/// another reference is still alive.
fn unwrap_shared(message: Arc<AmMessage>) -> AmMessage {
    Arc::try_unwrap(message).unwrap_or_else(|shared| AmMessage::clone(&shared))
}

/// A slab arena for in-flight fragment payloads.
///
/// The opaque tokens that flow through the NI queue models
/// ([`cni_nic::frag::FragRef`] carries one) are arena handles: slot index in
/// the low 32 bits, a generation counter in the high 32 bits so a stale or
/// double-freed token is caught immediately instead of silently resolving to
/// the wrong fragment. Freed slots go on a free list and are reused, so in
/// steady state insert/take perform **no allocation** — this replaced a
/// `HashMap<u64, FragPayload>` that hashed and rehashed every fragment twice
/// per hop on the simulator's hot path.
#[derive(Debug, Default, Clone)]
pub struct FragArena {
    slots: Vec<ArenaSlot>,
    free: Vec<u32>,
    len: usize,
}

#[derive(Debug, Clone)]
enum ArenaSlot {
    Vacant {
        generation: u32,
    },
    Occupied {
        generation: u32,
        payload: FragPayload,
    },
}

fn arena_token(index: u32, generation: u32) -> u64 {
    (u64::from(generation) << 32) | u64::from(index)
}

impl FragArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stores `payload` and returns its token.
    pub fn insert(&mut self, payload: FragPayload) -> u64 {
        self.len += 1;
        if let Some(index) = self.free.pop() {
            let slot = &mut self.slots[index as usize];
            let generation = match *slot {
                ArenaSlot::Vacant { generation } => generation,
                ArenaSlot::Occupied { .. } => unreachable!("free list points at occupied slot"),
            };
            *slot = ArenaSlot::Occupied {
                generation,
                payload,
            };
            arena_token(index, generation)
        } else {
            let index = u32::try_from(self.slots.len()).expect("more than 2^32 live fragments");
            self.slots.push(ArenaSlot::Occupied {
                generation: 0,
                payload,
            });
            arena_token(index, 0)
        }
    }

    /// Looks up a token without removing it.
    pub fn get(&self, token: u64) -> Option<&FragPayload> {
        let index = (token & u64::from(u32::MAX)) as usize;
        let generation = (token >> 32) as u32;
        match self.slots.get(index) {
            Some(ArenaSlot::Occupied {
                generation: g,
                payload,
            }) if *g == generation => Some(payload),
            _ => None,
        }
    }

    /// Removes and returns a token's payload; the slot is recycled.
    ///
    /// # Panics
    ///
    /// Panics if the token is unknown or stale — that indicates the NI model
    /// lost or duplicated a fragment, which is a simulator bug worth failing
    /// loudly on.
    pub fn take(&mut self, token: u64) -> FragPayload {
        let index = (token & u64::from(u32::MAX)) as usize;
        let generation = (token >> 32) as u32;
        let slot = self
            .slots
            .get_mut(index)
            .unwrap_or_else(|| panic!("unknown fragment token {token}"));
        match std::mem::replace(
            slot,
            ArenaSlot::Vacant {
                generation: generation.wrapping_add(1),
            },
        ) {
            ArenaSlot::Occupied {
                generation: g,
                payload,
            } if g == generation => {
                self.free.push(index as u32);
                self.len -= 1;
                payload
            }
            previous => {
                // Put whatever was there back before failing so the panic
                // message, not a corrupted arena, is what the test sees.
                *slot = previous;
                panic!("unknown fragment token {token}")
            }
        }
    }

    /// Number of live fragments.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the arena holds no fragments.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Software send buffer: fragments the messaging layer has produced but not
/// yet managed to hand to the NI (because the NI send queue or the sliding
/// window was full). This is the "buffer messages in user space" path of the
/// paper's deadlock-avoidance rule (§4.1).
#[derive(Debug, Default, Clone)]
pub struct OutgoingBuffer {
    queue: VecDeque<FragPayload>,
    high_water: usize,
}

impl OutgoingBuffer {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a fragment.
    pub fn push(&mut self, frag: FragPayload) {
        self.queue.push_back(frag);
        self.high_water = self.high_water.max(self.queue.len());
    }

    /// Returns a fragment to the *front* of the buffer — used when the NI
    /// refused a fragment that had already been popped, so the retry keeps
    /// the original FIFO order without cloning the payload.
    pub fn push_front(&mut self, frag: FragPayload) {
        self.queue.push_front(frag);
        self.high_water = self.high_water.max(self.queue.len());
    }

    /// Next fragment to hand to the NI, if any.
    pub fn front(&self) -> Option<&FragPayload> {
        self.queue.front()
    }

    /// Removes the front fragment.
    pub fn pop(&mut self) -> Option<FragPayload> {
        self.queue.pop_front()
    }

    /// Number of buffered fragments.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Largest number of fragments ever buffered (a measure of how much
    /// software buffering the NI forced).
    pub fn high_water(&self) -> usize {
        self.high_water
    }
}

/// A split-phase barrier helper.
///
/// Workloads enter the barrier and then keep polling; the machine's node 0
/// coordinates arrival/release messages using reserved handler ids. The
/// helper only tracks local state; the message exchange is done by the
/// workload/machine using ordinary active messages.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct BarrierState {
    /// Barriers this node has entered.
    pub entered: u64,
    /// Barriers this node has seen released.
    pub released: u64,
}

impl BarrierState {
    /// Enters the next barrier; returns its sequence number.
    pub fn enter(&mut self) -> u64 {
        self.entered += 1;
        self.entered
    }

    /// Records a release.
    pub fn release(&mut self) {
        self.released += 1;
    }

    /// Whether the node is currently waiting inside a barrier.
    pub fn waiting(&self) -> bool {
        self.entered > self.released
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_messages_are_a_single_fragment() {
        let frags = fragment_message(NodeId(0), NodeId(1), 0, AmMessage::new(1, 12, vec![7]));
        assert_eq!(frags.len(), 1);
        assert_eq!(frags[0].payload_bytes, 12);
        assert_eq!(frags[0].frag_count, 1);
        assert_eq!(frags[0].message.data, vec![7]);
        assert_eq!(frags[0].src, NodeId(0));
        assert_eq!(frags[0].message.src, NodeId(0));
    }

    #[test]
    fn zero_byte_messages_still_produce_one_fragment() {
        let frags = fragment_message(NodeId(2), NodeId(3), 1, AmMessage::new(0, 0, vec![]));
        assert_eq!(frags.len(), 1);
        assert_eq!(frags[0].payload_bytes, 0);
    }

    #[test]
    fn large_messages_fragment_and_preserve_total_bytes() {
        for bytes in [245, 488, 2048, 4096] {
            let frags = fragment_message(NodeId(0), NodeId(1), 9, AmMessage::new(2, bytes, vec![]));
            assert_eq!(frags.len(), fragments_for_bytes(bytes));
            assert_eq!(frags.iter().map(|f| f.payload_bytes).sum::<usize>(), bytes);
            assert!(frags.iter().all(|f| f.payload_bytes <= NET_PAYLOAD_BYTES));
            for (i, f) in frags.iter().enumerate() {
                assert_eq!(f.frag_index, i as u32);
                assert_eq!(f.frag_count, frags.len() as u32);
            }
        }
    }

    #[test]
    fn assembler_completes_only_after_every_fragment() {
        let mut asm = Assembler::new();
        let frags = fragment_message(NodeId(4), NodeId(0), 3, AmMessage::new(9, 1000, vec![1]));
        let n = frags.len();
        for (i, frag) in frags.into_iter().enumerate() {
            let result = asm.push(frag);
            if i + 1 < n {
                assert!(result.is_none());
                assert_eq!(asm.in_progress(), 1);
            } else {
                let msg = result.expect("last fragment completes the message");
                assert_eq!(msg.handler, 9);
                assert_eq!(msg.bytes, 1000);
                assert_eq!(msg.src, NodeId(4));
            }
        }
        assert_eq!(asm.completed(), 1);
        assert_eq!(asm.in_progress(), 0);
    }

    #[test]
    fn single_fragment_messages_complete_without_partial_state() {
        let mut asm = Assembler::new();
        // A multi-fragment message from node 1 stays in progress while
        // single-fragment messages (even from the same sender) pass through.
        let mut big = fragment_message(NodeId(1), NodeId(0), 0, AmMessage::new(1, 500, vec![]));
        assert!(asm.push(big.remove(0)).is_none());
        for (src, id) in [(1, 1), (2, 0), (1, 2)] {
            let mut frags =
                fragment_message(NodeId(src), NodeId(0), id, AmMessage::new(7, 64, vec![id]));
            assert_eq!(frags.len(), 1);
            let msg = asm
                .push(frags.pop().unwrap())
                .expect("one fragment completes");
            assert_eq!((msg.src, msg.data), (NodeId(src), vec![id]));
            assert_eq!(asm.in_progress(), 1);
        }
        assert_eq!(asm.completed(), 3);
        let completed = big.into_iter().filter_map(|f| asm.push(f)).count();
        assert_eq!((completed, asm.completed(), asm.in_progress()), (1, 4, 0));
    }

    #[test]
    fn assembler_handles_interleaved_senders() {
        let mut asm = Assembler::new();
        let a = fragment_message(NodeId(1), NodeId(0), 0, AmMessage::new(1, 500, vec![]));
        let b = fragment_message(NodeId(2), NodeId(0), 0, AmMessage::new(2, 500, vec![]));
        // Interleave fragments from the two senders.
        let mut done = 0;
        for (fa, fb) in a.into_iter().zip(b) {
            if asm.push(fa).is_some() {
                done += 1;
            }
            if asm.push(fb).is_some() {
                done += 1;
            }
        }
        assert_eq!(done, 2);
    }

    #[test]
    fn frag_arena_round_trips() {
        let mut arena = FragArena::new();
        let frag = fragment_message(NodeId(0), NodeId(5), 0, AmMessage::new(0, 8, vec![]))
            .pop()
            .unwrap();
        let token = arena.insert(frag.clone());
        assert_eq!(arena.len(), 1);
        assert_eq!(arena.get(token).unwrap().dst, NodeId(5));
        let back = arena.take(token);
        assert_eq!(back, frag);
        assert!(arena.is_empty());
    }

    #[test]
    #[should_panic(expected = "unknown fragment token")]
    fn taking_an_unknown_token_panics() {
        FragArena::new().take(99);
    }

    #[test]
    #[should_panic(expected = "unknown fragment token")]
    fn stale_generation_tokens_are_rejected() {
        let mut arena = FragArena::new();
        let frag = fragment_message(NodeId(0), NodeId(1), 0, AmMessage::new(0, 8, vec![]))
            .pop()
            .unwrap();
        let token = arena.insert(frag.clone());
        arena.take(token);
        // The slot is recycled with a new generation; the old token is dead.
        let fresh = arena.insert(frag);
        assert_ne!(fresh, token);
        assert!(arena.get(token).is_none());
        arena.take(token);
    }

    #[test]
    fn arena_reuses_slots_without_growing() {
        let mut arena = FragArena::new();
        let frag = fragment_message(NodeId(0), NodeId(1), 0, AmMessage::new(0, 8, vec![]))
            .pop()
            .unwrap();
        for _ in 0..1000 {
            let token = arena.insert(frag.clone());
            let _ = arena.take(token);
        }
        assert!(arena.is_empty());
        assert_eq!(arena.slots.len(), 1, "churn must reuse the single slot");
    }

    #[test]
    fn outgoing_buffer_is_fifo_and_tracks_high_water() {
        let mut buf = OutgoingBuffer::new();
        assert!(buf.is_empty());
        for i in 0..5 {
            let frag = fragment_message(NodeId(0), NodeId(1), i, AmMessage::new(0, 8, vec![]))
                .pop()
                .unwrap();
            buf.push(frag);
        }
        assert_eq!(buf.len(), 5);
        assert_eq!(buf.high_water(), 5);
        assert_eq!(buf.pop().unwrap().msg_id, 0);
        assert_eq!(buf.front().unwrap().msg_id, 1);
        assert_eq!(buf.high_water(), 5, "high water does not shrink");
    }

    #[test]
    fn barrier_state_tracks_waiting() {
        let mut b = BarrierState::default();
        assert!(!b.waiting());
        assert_eq!(b.enter(), 1);
        assert!(b.waiting());
        b.release();
        assert!(!b.waiting());
    }
}
