//! Ordered event queue.
//!
//! The simulator is a classic discrete-event design: components schedule
//! future work as events, and a central loop pops the earliest event and
//! dispatches it. [`EventQueue`] keeps events ordered by time and, within a
//! single cycle, by insertion order (FIFO) so simulations are deterministic
//! regardless of the queue's internal layout.
//!
//! Two interchangeable backends implement the ordering (selectable through
//! [`QueueBackend`]):
//!
//! * **[`QueueBackend::BinaryHeap`]** — a `std::collections::BinaryHeap` of
//!   `(time, sequence)`-ordered entries. Every push/pop is `O(log n)` and a
//!   pop may shuffle `O(log n)` entries through the heap.
//! * **[`QueueBackend::TimingWheel`]** (the default) — a hierarchical timing
//!   wheel: eleven levels of 64 one-cycle (level 0) to 64¹⁰-cycle (level 10)
//!   slots, each with a 64-bit occupancy bitmap. Scheduling is `O(1)`
//!   (compute level and slot from `time ^ now`, append to the slot's list);
//!   popping finds the lowest occupied level with two or three
//!   `trailing_zeros` instructions and cascades coarse slots toward level 0
//!   as time advances. Entries live in one slab per wheel whose freed
//!   entries are reused, so the wheel retains memory for its peak number of
//!   pending events and performs **no allocation in steady state** — the
//!   property the machine model's hot loop depends on.
//!
//! Both backends produce *bit-identical* pop sequences (each level-0 slot
//! holds exactly one cycle, so FIFO-within-cycle is the slot list's order,
//! and cascading preserves insertion order); `tests/properties.rs` proves this
//! over randomized schedules. The one intentional divergence: scheduling an
//! event *in the past* (disallowed, and caught by a debug assertion) is
//! clamped to the current cycle by the wheel, while the heap preserves the
//! stale timestamp ordering.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::Cycle;

/// Which data structure an [`EventQueue`] uses internally.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum QueueBackend {
    /// `O(log n)` binary heap (the original backend; kept as the reference
    /// implementation and for head-to-head benchmarking).
    BinaryHeap,
    /// `O(1)` hierarchical timing wheel, allocation-free in steady state.
    #[default]
    TimingWheel,
}

impl std::fmt::Display for QueueBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueueBackend::BinaryHeap => write!(f, "heap"),
            QueueBackend::TimingWheel => write!(f, "wheel"),
        }
    }
}

/// A heap entry: time, monotonically increasing sequence number (to break
/// ties deterministically) and the user event payload.
#[derive(Clone)]
struct HeapEntry<E> {
    at: Cycle,
    seq: u64,
    event: E,
}

impl<E> PartialEq for HeapEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<E> Eq for HeapEntry<E> {}

impl<E> PartialOrd for HeapEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for HeapEntry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert the ordering so the earliest event
        // (and lowest sequence number) is popped first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

// ---------------------------------------------------------------------------
// Hierarchical timing wheel
// ---------------------------------------------------------------------------

/// log2 of the slot count per level.
const LEVEL_BITS: u32 = 6;
/// Slots per level (one `u64` occupancy bitmap covers a whole level).
const SLOTS_PER_LEVEL: usize = 1 << LEVEL_BITS;
/// Levels needed so the wheel spans the full 64-bit cycle range
/// (`6 bits × 11 levels = 66 bits`).
const LEVELS: usize = 11;

/// "No entry": the end of a slot list or of the free list.
const NIL: u32 = u32::MAX;

/// One pending event in the wheel's entry slab.
#[derive(Clone)]
struct WheelEntry<E> {
    at: Cycle,
    /// The wrapper's sequence number. The wheel orders by time and list
    /// position alone; the sequence number rides along so the speculative
    /// delta journal can tell pre-mark entries from post-mark ones (see
    /// [`EventQueue::rollback_delta`]).
    seq: u64,
    /// The next entry in the same slot's FIFO list, or in the free list.
    next: u32,
    /// `None` exactly while the entry is on the free list.
    event: Option<E>,
}

/// A slot's FIFO list of slab indices (`head` is [`NIL`] when empty; `tail`
/// is meaningful only when `head` is not).
#[derive(Clone, Copy)]
struct SlotList {
    head: u32,
    tail: u32,
}

const EMPTY_SLOT: SlotList = SlotList {
    head: NIL,
    tail: NIL,
};

#[derive(Clone)]
struct WheelLevel {
    /// Bit `s` set iff `slots[s]` is non-empty.
    occupied: u64,
    slots: [SlotList; SLOTS_PER_LEVEL],
}

const EMPTY_LEVEL: WheelLevel = WheelLevel {
    occupied: 0,
    slots: [EMPTY_SLOT; SLOTS_PER_LEVEL],
};

/// A hierarchical timing wheel keyed by absolute cycle.
///
/// Every pending event lives in one entry slab; a slot is a FIFO list of
/// slab indices, and freed entries go on an intrusive free list. Retained
/// memory therefore follows the peak number of pending events rather than
/// each slot's own peak, a cascade relinks indices instead of moving
/// entries, and once the slab has grown to the peak nothing allocates.
///
/// Invariants (all relative to `elapsed`, the time of the last pop):
///
/// * every pending entry's time `t` satisfies `t >= elapsed`;
/// * an entry lives at level `l` = index of the highest 6-bit group in which
///   `t` and `elapsed` differ (level 0 if `t == elapsed`), in slot
///   `(t >> 6l) & 63`;
/// * hence every level-0 slot holds exactly one cycle's events, in insertion
///   order, and all entries in a lower level precede all entries in any
///   higher level.
#[derive(Clone)]
struct Wheel<E> {
    levels: Box<[WheelLevel; LEVELS]>,
    entries: Vec<WheelEntry<E>>,
    /// Head of the free list threaded through vacant `entries`.
    free: u32,
    elapsed: Cycle,
    len: usize,
}

fn level_for(at: Cycle, elapsed: Cycle) -> usize {
    let diff = at ^ elapsed;
    if diff == 0 {
        0
    } else {
        ((63 - diff.leading_zeros()) / LEVEL_BITS) as usize
    }
}

fn slot_for(at: Cycle, level: usize) -> usize {
    ((at >> (LEVEL_BITS as usize * level)) & (SLOTS_PER_LEVEL as u64 - 1)) as usize
}

/// First cycle covered by `slot` of `level`, given the current `elapsed`.
fn slot_start(elapsed: Cycle, level: usize, slot: usize) -> Cycle {
    let low_bits = LEVEL_BITS as usize * level;
    let high_bits = low_bits + LEVEL_BITS as usize;
    let high = if high_bits >= 64 {
        0
    } else {
        (elapsed >> high_bits) << high_bits
    };
    high | ((slot as Cycle) << low_bits)
}

impl<E> Wheel<E> {
    fn new() -> Self {
        Wheel {
            levels: Box::new([EMPTY_LEVEL; LEVELS]),
            entries: Vec::new(),
            free: NIL,
            elapsed: 0,
            len: 0,
        }
    }

    fn schedule(&mut self, at: Cycle, seq: u64, event: E) {
        // Past events (a modelling error, debug-asserted against by the
        // `EventQueue` wrapper) are clamped to the current cycle.
        let at = at.max(self.elapsed);
        self.insert(at, seq, event);
    }

    /// Stores an entry in the slab and links it into its slot.
    fn insert(&mut self, at: Cycle, seq: u64, event: E) {
        let entry = WheelEntry {
            at,
            seq,
            next: NIL,
            event: Some(event),
        };
        let index = if self.free == NIL {
            let index = u32::try_from(self.entries.len())
                .ok()
                .filter(|&i| i != NIL)
                .expect("more than 2^32 - 1 pending events");
            self.entries.push(entry);
            index
        } else {
            let index = self.free;
            self.free = self.entries[index as usize].next;
            self.entries[index as usize] = entry;
            index
        };
        self.link(index);
        self.len += 1;
    }

    /// Appends slab entry `index` to the slot its time maps to.
    fn link(&mut self, index: u32) {
        let entry = &mut self.entries[index as usize];
        entry.next = NIL;
        let level = level_for(entry.at, self.elapsed);
        let slot = slot_for(entry.at, level);
        let lvl = &mut self.levels[level];
        let list = &mut lvl.slots[slot];
        if list.head == NIL {
            list.head = index;
        } else {
            self.entries[list.tail as usize].next = index;
        }
        list.tail = index;
        lvl.occupied |= 1u64 << slot;
    }

    /// Times of the entries in a slot list, in list order.
    fn times(&self, list: SlotList) -> impl Iterator<Item = Cycle> + '_ {
        let mut index = list.head;
        std::iter::from_fn(move || {
            let entry = self.entries.get(index as usize)?;
            index = entry.next;
            Some(entry.at)
        })
    }

    fn pop(&mut self) -> Option<(Cycle, u64, E)> {
        self.pop_before(Cycle::MAX)
    }

    /// Pops the earliest event strictly before `horizon`, or `None` if the
    /// wheel is empty or its earliest event is at or past the horizon.
    ///
    /// This is the epoch primitive the sharded machine driver runs on: a
    /// shard drains its queue with `pop_before(epoch_end)` and stops exactly
    /// at the epoch boundary without ever observing a later event. A refused
    /// pop leaves the wheel untouched — in particular `elapsed` does not
    /// advance, so a later `schedule` close to the current time is never
    /// clamped differently than it would be on the heap backend.
    fn pop_before(&mut self, horizon: Cycle) -> Option<(Cycle, u64, E)> {
        if self.len == 0 {
            return None;
        }
        loop {
            let (level, slot) = self
                .min_position()
                .expect("len > 0 implies an occupied slot");
            if level == 0 {
                // A level-0 slot holds exactly one cycle's events; the head
                // entry's time is the queue minimum.
                let lvl = &mut self.levels[0];
                let list = &mut lvl.slots[slot];
                let index = list.head;
                let entry = &mut self.entries[index as usize];
                if entry.at >= horizon {
                    return None;
                }
                list.head = entry.next;
                if list.head == NIL {
                    lvl.occupied &= !(1u64 << slot);
                }
                let event = entry.event.take().expect("linked entries hold an event");
                let (at, seq) = (entry.at, entry.seq);
                entry.next = self.free;
                self.free = index;
                self.len -= 1;
                debug_assert!(at >= self.elapsed);
                self.elapsed = at;
                return Some((at, seq, event));
            }
            // Cascade the coarse slot down: advance the wheel to the slot's
            // first cycle and relink its entries, which all land at strictly
            // lower levels. Walking the list in order preserves insertion
            // order, so FIFO-within-cycle survives the cascade.
            let start = slot_start(self.elapsed, level, slot);
            if start >= horizon {
                // Every entry in this slot — and, by the level ordering
                // invariant, every pending entry — is at or past the horizon.
                return None;
            }
            // When the horizon falls *inside* this slot's covered range, the
            // slot's earliest entry (the queue minimum: lowest occupied
            // level, earliest slot) decides the outcome — check it before
            // cascading so a refusal performs no state change at all. Slots
            // the horizon clears entirely skip the scan, so `pop` (horizon
            // `Cycle::MAX`) never pays for it.
            let span = 1u64 << (LEVEL_BITS as usize * level);
            if horizon < start.saturating_add(span) {
                let earliest = self
                    .times(self.levels[level].slots[slot])
                    .min()
                    .expect("occupancy bit was set");
                if earliest >= horizon {
                    return None;
                }
            }
            debug_assert!(start >= self.elapsed);
            let lvl = &mut self.levels[level];
            let mut index = std::mem::replace(&mut lvl.slots[slot], EMPTY_SLOT).head;
            lvl.occupied &= !(1u64 << slot);
            self.elapsed = start;
            while index != NIL {
                let next = self.entries[index as usize].next;
                self.link(index);
                index = next;
            }
        }
    }

    /// The lowest occupied `(level, slot)` — the position holding the queue
    /// minimum. Entries at a lower level always precede entries at any
    /// higher level, so the next event is in the lowest occupied level's
    /// earliest slot (lowest set bit: slot indices never wrap past the
    /// current position, because `elapsed` only advances to the time of a
    /// popped — i.e. globally earliest — event). This is the one scan both
    /// `pop_before` and `next_occupied` resolve positions through.
    fn min_position(&self) -> Option<(usize, usize)> {
        if self.len == 0 {
            return None;
        }
        let level = self
            .levels
            .iter()
            .position(|l| l.occupied != 0)
            .expect("len > 0 implies an occupied slot");
        let slot = self.levels[level].occupied.trailing_zeros() as usize;
        Some((level, slot))
    }

    /// Exact time of the earliest pending event, without mutating the wheel.
    fn next_occupied(&self) -> Option<Cycle> {
        let (level, slot) = self.min_position()?;
        // Level-0 slots hold a single cycle; coarser slots can mix cycles, so
        // scan for the minimum (peeks are rare — the hot loop only pops).
        self.times(self.levels[level].slots[slot]).min()
    }

    /// Removes every pending entry, passing each one that `keep` accepts to
    /// `out` in slab order. The slab keeps its capacity.
    fn drain_into(&mut self, out: &mut Vec<(Cycle, u64, E)>, keep: impl Fn(u64) -> bool) {
        for entry in self.entries.drain(..) {
            if let Some(event) = entry.event.filter(|_| keep(entry.seq)) {
                out.push((entry.at, entry.seq, event));
            }
        }
        *self.levels = [EMPTY_LEVEL; LEVELS];
        self.free = NIL;
        self.len = 0;
    }

    fn clear(&mut self) {
        self.drain_into(&mut Vec::new(), |_| false);
    }
}

// ---------------------------------------------------------------------------
// Public queue
// ---------------------------------------------------------------------------

#[derive(Clone)]
enum Backend<E> {
    Heap(BinaryHeap<HeapEntry<E>>),
    Wheel(Wheel<E>),
}

/// Retained capacity ceiling for the delta journal's pop log: after a
/// [`EventQueue::commit_delta`] the buffer is trimmed back to at most this
/// many entries, so one dense speculative phase cannot pin a huge allocation
/// for the rest of the run.
pub const DELTA_TRIM_ENTRIES: usize = 1024;

/// Journal of everything popped since the last [`EventQueue::mark_delta`],
/// plus the clock and sequence counter at the mark. Entries scheduled after
/// the mark carry sequence numbers `>= mark_seq`, so a rollback can identify
/// and discard them without the queue ever storing a full snapshot of
/// itself.
#[derive(Clone)]
struct Journal<E> {
    active: bool,
    mark_seq: u64,
    mark_now: Cycle,
    popped: Vec<(Cycle, u64, E)>,
}

impl<E> Journal<E> {
    fn new() -> Self {
        Journal {
            active: false,
            mark_seq: 0,
            mark_now: 0,
            popped: Vec::new(),
        }
    }
}

/// A time-ordered event queue with deterministic FIFO tie-breaking.
///
/// # Example
///
/// ```
/// use cni_sim::event::EventQueue;
///
/// let mut q = EventQueue::new();
/// q.schedule(3, "c");
/// q.schedule(1, "a");
/// q.schedule(1, "b"); // same cycle: FIFO order preserved
/// assert_eq!(q.pop(), Some((1, "a")));
/// assert_eq!(q.pop(), Some((1, "b")));
/// assert_eq!(q.pop(), Some((3, "c")));
/// ```
///
/// Cloning a queue (requires `E: Clone`) captures its exact state — pending
/// entries, FIFO tie-breaking sequence and clock — which is what the
/// speculative epoch driver's shard checkpoints are built from: a restored
/// clone replays the exact same pop sequence as the original.
#[derive(Clone)]
pub struct EventQueue<E> {
    backend: Backend<E>,
    kind: QueueBackend,
    next_seq: u64,
    now: Cycle,
    journal: Journal<E>,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue positioned at cycle zero, using the default
    /// (timing-wheel) backend.
    pub fn new() -> Self {
        Self::with_backend(QueueBackend::default())
    }

    /// Creates an empty queue using the given backend.
    pub fn with_backend(kind: QueueBackend) -> Self {
        let backend = match kind {
            QueueBackend::BinaryHeap => Backend::Heap(BinaryHeap::new()),
            QueueBackend::TimingWheel => Backend::Wheel(Wheel::new()),
        };
        EventQueue {
            backend,
            kind,
            next_seq: 0,
            now: 0,
            journal: Journal::new(),
        }
    }

    /// Which backend this queue uses.
    pub fn backend(&self) -> QueueBackend {
        self.kind
    }

    /// The time of the most recently popped event (the simulation clock).
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        match &self.backend {
            Backend::Heap(heap) => heap.len(),
            Backend::Wheel(wheel) => wheel.len,
        }
    }

    /// Number of events the queue can hold before it next allocates — the
    /// wheel's entry slab or the heap's buffer. Neither shrinks, so this
    /// follows the peak number of pending events.
    pub fn capacity(&self) -> usize {
        match &self.backend {
            Backend::Heap(heap) => heap.capacity(),
            Backend::Wheel(wheel) => wheel.entries.capacity(),
        }
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Schedules `event` to fire at absolute cycle `at`.
    ///
    /// Scheduling an event in the past (before [`EventQueue::now`]) usually
    /// indicates a modelling error, so debug builds assert against it. In
    /// release builds the heap backend fires it at the next pop while the
    /// wheel backend clamps it to the current cycle.
    pub fn schedule(&mut self, at: Cycle, event: E) {
        debug_assert!(
            at >= self.now,
            "scheduling an event at {at} before the current time {}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        match &mut self.backend {
            Backend::Heap(heap) => heap.push(HeapEntry { at, seq, event }),
            Backend::Wheel(wheel) => wheel.schedule(at, seq, event),
        }
    }

    /// Schedules `event` to fire `delay` cycles after the current time.
    pub fn schedule_in(&mut self, delay: Cycle, event: E) {
        let at = self.now.saturating_add(delay);
        self.schedule(at, event);
    }

    /// Exact cycle of the earliest pending event — the "next occupied slot"
    /// peek the adaptive-lookahead planner builds traffic forecasts from.
    ///
    /// Both backends answer without mutating the queue, and the answer is
    /// **exact** (not a lower bound): the sharded driver places the next
    /// epoch on the grid cell containing this cycle, so an early answer
    /// would plan epochs that pop nothing. Heap-vs-wheel agreement is pinned
    /// in `tests/properties.rs`.
    pub fn next_occupied(&self) -> Option<Cycle> {
        match &self.backend {
            Backend::Heap(heap) => heap.peek().map(|e| e.at),
            Backend::Wheel(wheel) => wheel.next_occupied(),
        }
    }

    /// Time of the earliest pending event, if any — an alias of
    /// [`EventQueue::next_occupied`], kept for the pre-lookahead callers.
    pub fn peek_time(&self) -> Option<Cycle> {
        self.next_occupied()
    }

    /// Pops the earliest event, advancing the simulation clock to its time.
    pub fn pop(&mut self) -> Option<(Cycle, E)> {
        debug_assert!(
            !self.journal.active,
            "pop() bypasses the delta journal; use pop_before inside a marked window"
        );
        let (at, event) = match &mut self.backend {
            Backend::Heap(heap) => heap.pop().map(|e| (e.at, e.event))?,
            Backend::Wheel(wheel) => wheel.pop().map(|(at, _, e)| (at, e))?,
        };
        // The clock never moves backwards even if an event was scheduled in
        // the past (see `schedule`).
        self.now = self.now.max(at);
        Some((self.now, event))
    }

    /// Pops the earliest event only if it fires strictly before `horizon` —
    /// the epoch primitive of the sharded machine driver.
    ///
    /// Returns `None` (without advancing the clock) when the queue is empty
    /// or its earliest event is at or past the horizon; the queue remains
    /// fully usable and later events stay pending. `pop_before(Cycle::MAX)`
    /// is equivalent to [`EventQueue::pop`].
    pub fn pop_before(&mut self, horizon: Cycle) -> Option<(Cycle, E)>
    where
        E: Clone,
    {
        let (at, seq, event) = match &mut self.backend {
            Backend::Heap(heap) => {
                if heap.peek().is_none_or(|e| e.at >= horizon) {
                    return None;
                }
                heap.pop().map(|e| (e.at, e.seq, e.event))?
            }
            Backend::Wheel(wheel) => wheel.pop_before(horizon)?,
        };
        if self.journal.active {
            self.journal.popped.push((at, seq, event.clone()));
        }
        self.now = self.now.max(at);
        Some((self.now, event))
    }

    /// Removes all pending events without changing the clock.
    pub fn clear(&mut self) {
        debug_assert!(
            !self.journal.active,
            "clear() would lose entries the delta journal needs to restore"
        );
        match &mut self.backend {
            Backend::Heap(heap) => heap.clear(),
            Backend::Wheel(wheel) => wheel.clear(),
        }
    }

    // -- Speculative delta journal -----------------------------------------
    //
    // The sharded driver's incremental checkpoints need to rewind the queue
    // to a marked point without ever cloning it. The journal makes that
    // possible with two observations:
    //
    // * every entry scheduled after the mark carries a wrapper sequence
    //   number `>= mark_seq`, so it can be discarded on rollback;
    // * every entry popped after the mark is logged (time, seq, clone), so
    //   it can be re-inserted on rollback.
    //
    // Rebuilding in ascending `(at, seq)` order reproduces FIFO-within-cycle
    // exactly — the wrapper hands out sequence numbers in schedule order, so
    // sorted reinsertion is the original insertion order.

    /// Starts (or restarts) a delta window at the current queue state.
    ///
    /// While the window is active every [`EventQueue::pop_before`] is logged
    /// so [`EventQueue::rollback_delta`] can rewind the queue to this exact
    /// state. Re-marking while a window is active simply moves the mark —
    /// the speculative driver re-marks on every snapshot.
    pub fn mark_delta(&mut self) {
        self.journal.active = true;
        self.journal.mark_seq = self.next_seq;
        self.journal.mark_now = self.now;
        self.journal.popped.clear();
    }

    /// Ends the delta window, keeping the current (post-speculation) state.
    ///
    /// Also trims the journal's retained buffer to [`DELTA_TRIM_ENTRIES`] so
    /// a single dense speculative phase cannot pin a large allocation for
    /// the rest of the run.
    pub fn commit_delta(&mut self) {
        self.journal.active = false;
        self.journal.popped.clear();
        if self.journal.popped.capacity() > DELTA_TRIM_ENTRIES {
            self.journal.popped.shrink_to(DELTA_TRIM_ENTRIES);
        }
    }

    /// Rewinds the queue to the state captured by the last
    /// [`EventQueue::mark_delta`]: entries scheduled since the mark are
    /// dropped, entries popped since the mark are re-inserted, and the clock
    /// and sequence counter return to their marked values. The window ends.
    pub fn rollback_delta(&mut self)
    where
        E: Clone,
    {
        self.rollback_delta_impl(0);
    }

    /// Test-only oracle mutation: identical to
    /// [`EventQueue::rollback_delta`] except the first re-insertable popped
    /// entry is silently dropped — used to prove the differential harness
    /// catches a broken queue restore.
    #[doc(hidden)]
    pub fn rollback_delta_dropping_one(&mut self)
    where
        E: Clone,
    {
        self.rollback_delta_impl(1);
    }

    fn rollback_delta_impl(&mut self, drop_popped: usize)
    where
        E: Clone,
    {
        assert!(
            self.journal.active,
            "rollback_delta without a matching mark_delta"
        );
        let mark_seq = self.journal.mark_seq;
        let mark_now = self.journal.mark_now;
        // Survivors: pending entries from before the mark, plus logged pops
        // from before the mark (the sabotage variant drops the first of the
        // restorable pops, after filtering, so the divergence is real).
        let mut survivors: Vec<(Cycle, u64, E)> = Vec::new();
        match &mut self.backend {
            Backend::Heap(heap) => {
                survivors.extend(
                    heap.drain()
                        .filter(|e| e.seq < mark_seq)
                        .map(|e| (e.at, e.seq, e.event)),
                );
            }
            Backend::Wheel(wheel) => {
                wheel.drain_into(&mut survivors, |seq| seq < mark_seq);
                // Every survivor fires at or after the marked clock, so the
                // wheel's level invariant holds when re-anchored there (a
                // refused pop never moves `elapsed`, so `elapsed == now`
                // between wrapper calls).
                wheel.elapsed = mark_now;
            }
        }
        survivors.extend(
            self.journal
                .popped
                .drain(..)
                .filter(|(_, seq, _)| *seq < mark_seq)
                .skip(drop_popped),
        );
        survivors.sort_unstable_by_key(|&(at, seq, _)| (at, seq));
        match &mut self.backend {
            Backend::Heap(heap) => {
                for (at, seq, event) in survivors {
                    heap.push(HeapEntry { at, seq, event });
                }
            }
            Backend::Wheel(wheel) => {
                for (at, seq, event) in survivors {
                    wheel.insert(at, seq, event);
                }
            }
        }
        self.now = mark_now;
        self.next_seq = mark_seq;
        self.journal.active = false;
    }

    /// Number of pops logged in the active delta window.
    pub fn delta_len(&self) -> usize {
        self.journal.popped.len()
    }

    /// Retained capacity of the delta journal's pop log, in entries — the
    /// quantity [`DELTA_TRIM_ENTRIES`] caps across commits.
    pub fn delta_capacity(&self) -> usize {
        self.journal.popped.capacity()
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("backend", &self.kind)
            .field("now", &self.now)
            .field("pending", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::DetRng;

    const BACKENDS: [QueueBackend; 2] = [QueueBackend::BinaryHeap, QueueBackend::TimingWheel];

    #[test]
    fn pops_in_time_order() {
        for backend in BACKENDS {
            let mut q = EventQueue::with_backend(backend);
            q.schedule(30, 3);
            q.schedule(10, 1);
            q.schedule(20, 2);
            assert_eq!(q.pop(), Some((10, 1)), "{backend}");
            assert_eq!(q.pop(), Some((20, 2)), "{backend}");
            assert_eq!(q.pop(), Some((30, 3)), "{backend}");
            assert_eq!(q.pop(), None, "{backend}");
        }
    }

    #[test]
    fn same_cycle_events_are_fifo() {
        for backend in BACKENDS {
            let mut q = EventQueue::with_backend(backend);
            for i in 0..100 {
                q.schedule(42, i);
            }
            for i in 0..100 {
                assert_eq!(q.pop(), Some((42, i)), "{backend}");
            }
        }
    }

    #[test]
    fn clock_advances_with_pops() {
        for backend in BACKENDS {
            let mut q = EventQueue::with_backend(backend);
            assert_eq!(q.now(), 0);
            q.schedule(7, ());
            q.schedule(9, ());
            q.pop();
            assert_eq!(q.now(), 7, "{backend}");
            q.pop();
            assert_eq!(q.now(), 9, "{backend}");
        }
    }

    #[test]
    fn schedule_in_is_relative_to_now() {
        for backend in BACKENDS {
            let mut q = EventQueue::with_backend(backend);
            q.schedule(5, "first");
            q.pop();
            q.schedule_in(10, "second");
            assert_eq!(q.peek_time(), Some(15), "{backend}");
        }
    }

    #[test]
    fn len_and_clear() {
        for backend in BACKENDS {
            let mut q = EventQueue::with_backend(backend);
            q.schedule(1, ());
            q.schedule(2, ());
            assert_eq!(q.len(), 2, "{backend}");
            assert!(!q.is_empty(), "{backend}");
            q.clear();
            assert!(q.is_empty(), "{backend}");
            // The queue keeps working after a clear.
            q.schedule(5, ());
            assert_eq!(q.pop(), Some((5, ())), "{backend}");
        }
    }

    #[test]
    fn peek_does_not_advance_clock() {
        for backend in BACKENDS {
            let mut q = EventQueue::with_backend(backend);
            q.schedule(99, ());
            assert_eq!(q.peek_time(), Some(99), "{backend}");
            assert_eq!(q.now(), 0, "{backend}");
        }
    }

    #[test]
    fn default_backend_is_the_wheel() {
        let q: EventQueue<()> = EventQueue::new();
        assert_eq!(q.backend(), QueueBackend::TimingWheel);
    }

    #[test]
    fn wheel_handles_far_future_events_across_levels() {
        let mut q = EventQueue::with_backend(QueueBackend::TimingWheel);
        // One event per wheel level, far beyond the level-0 horizon.
        let times = [
            1u64,
            63,
            64,
            4095,
            4096,
            1 << 20,
            1 << 35,
            1 << 52,
            u64::MAX / 2,
        ];
        for (i, &t) in times.iter().enumerate() {
            q.schedule(t, i);
        }
        for (i, &t) in times.iter().enumerate() {
            assert_eq!(q.pop(), Some((t, i)));
        }
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn wheel_preserves_fifo_through_cascades() {
        let mut q = EventQueue::with_backend(QueueBackend::TimingWheel);
        // Two batches for the same far-future cycle, scheduled around an
        // intervening pop that forces a cascade before the second batch.
        q.schedule(10_000, 0);
        q.schedule(10_000, 1);
        q.schedule(5, 99);
        assert_eq!(q.pop(), Some((5, 99)));
        q.schedule(10_000, 2);
        assert_eq!(q.pop(), Some((10_000, 0)));
        assert_eq!(q.pop(), Some((10_000, 1)));
        assert_eq!(q.pop(), Some((10_000, 2)));
    }

    #[test]
    fn pop_before_respects_the_horizon() {
        for backend in BACKENDS {
            let mut q = EventQueue::with_backend(backend);
            q.schedule(5, "a");
            q.schedule(99, "b");
            assert_eq!(q.pop_before(5), None, "{backend}: horizon is exclusive");
            assert_eq!(q.pop_before(6), Some((5, "a")), "{backend}");
            assert_eq!(q.pop_before(99), None, "{backend}");
            assert_eq!(q.pop_before(Cycle::MAX), Some((99, "b")), "{backend}");
            assert_eq!(q.pop_before(Cycle::MAX), None, "{backend}: empty");
        }
    }

    #[test]
    fn refused_pop_before_leaves_the_queue_untouched() {
        for backend in BACKENDS {
            let mut q = EventQueue::with_backend(backend);
            // 110 sits in a coarse wheel slot whose range straddles the
            // horizon; the refusal must not cascade-and-clamp.
            q.schedule(110, "far");
            assert_eq!(q.pop_before(100), None, "{backend}");
            assert_eq!(q.now(), 0, "{backend}: refusal advanced the clock");
            // A later schedule below the refused horizon keeps its exact
            // time on both backends.
            q.schedule(50, "near");
            assert_eq!(q.pop_before(100), Some((50, "near")), "{backend}");
            assert_eq!(q.pop(), Some((110, "far")), "{backend}");
        }
    }

    #[test]
    fn backends_pop_before_identically_under_random_churn() {
        let mut rng = DetRng::new(0x90B0);
        let mut heap = EventQueue::with_backend(QueueBackend::BinaryHeap);
        let mut wheel = EventQueue::with_backend(QueueBackend::TimingWheel);
        let mut next_id = 0u64;
        for _ in 0..5_000 {
            if rng.gen_bool(0.55) || heap.is_empty() {
                let delta = match rng.gen_index(8) {
                    0 => rng.gen_range(1 << 16),
                    1..=2 => rng.gen_range(2_000),
                    _ => rng.gen_range(16),
                };
                let at = heap.now() + delta;
                heap.schedule(at, next_id);
                wheel.schedule(at, next_id);
                next_id += 1;
            } else {
                // Horizons land before, inside and beyond the pending range.
                let horizon = heap.now() + rng.gen_range(3_000);
                assert_eq!(heap.pop_before(horizon), wheel.pop_before(horizon));
                assert_eq!(heap.now(), wheel.now());
            }
        }
        loop {
            let (h, w) = (heap.pop(), wheel.pop());
            assert_eq!(h, w);
            if h.is_none() {
                break;
            }
        }
    }

    #[test]
    fn delta_rollback_restores_the_marked_state_under_random_churn() {
        for backend in BACKENDS {
            let mut rng = DetRng::new(0xDE17A);
            let mut q = EventQueue::with_backend(backend);
            let mut next_id = 0u64;
            for round in 0..200 {
                // Build up some pre-mark state.
                for _ in 0..rng.gen_index(6) {
                    q.schedule(q.now() + rng.gen_range(2_000), next_id);
                    next_id += 1;
                }
                let reference = q.clone();
                q.mark_delta();
                // A speculative burst: interleaved pops and schedules.
                for _ in 0..rng.gen_index(12) {
                    if rng.gen_bool(0.5) {
                        q.schedule(q.now() + rng.gen_range(500), next_id);
                        next_id += 1;
                    } else {
                        let horizon = q.now() + rng.gen_range(3_000);
                        q.pop_before(horizon);
                    }
                }
                if round % 2 == 0 {
                    q.rollback_delta();
                    // The rewound queue must replay exactly like the clone
                    // taken at the mark.
                    let mut a = q.clone();
                    let mut b = reference.clone();
                    assert_eq!(a.len(), b.len(), "{backend}");
                    assert_eq!(a.now(), b.now(), "{backend}");
                    loop {
                        let (x, y) = (a.pop_before(Cycle::MAX), b.pop_before(Cycle::MAX));
                        assert_eq!(x, y, "{backend}");
                        if x.is_none() {
                            break;
                        }
                    }
                } else {
                    q.commit_delta();
                }
            }
        }
    }

    #[test]
    fn commit_trims_the_journal_buffer() {
        let mut q = EventQueue::new();
        for i in 0..(DELTA_TRIM_ENTRIES as u64 * 4) {
            q.schedule(i, i);
        }
        q.mark_delta();
        while q.pop_before(Cycle::MAX).is_some() {}
        assert!(q.delta_len() == DELTA_TRIM_ENTRIES * 4);
        assert!(q.delta_capacity() >= DELTA_TRIM_ENTRIES * 4);
        q.commit_delta();
        assert!(
            q.delta_capacity() <= DELTA_TRIM_ENTRIES,
            "retained {} entries of journal capacity after commit",
            q.delta_capacity()
        );
    }

    #[test]
    fn sabotaged_rollback_observably_diverges() {
        for backend in BACKENDS {
            let mut q = EventQueue::with_backend(backend);
            q.schedule(5, "a");
            q.schedule(9, "b");
            q.mark_delta();
            assert_eq!(q.pop_before(100), Some((5, "a")));
            q.rollback_delta_dropping_one();
            // The dropped entry is the restorable pop: "a" is gone, "b" is
            // still pending — a clean rollback would have both.
            assert_eq!(q.len(), 1, "{backend}");
            assert_eq!(q.pop(), Some((9, "b")), "{backend}");
        }
    }

    #[test]
    fn backends_pop_identically_under_random_churn() {
        // A compact in-crate version of the cross-backend determinism
        // property (the full randomized suite lives in tests/properties.rs).
        let mut rng = DetRng::new(0xC0FFEE);
        let mut heap = EventQueue::with_backend(QueueBackend::BinaryHeap);
        let mut wheel = EventQueue::with_backend(QueueBackend::TimingWheel);
        let mut next_id = 0u64;
        for _ in 0..5_000 {
            if rng.gen_bool(0.6) || heap.is_empty() {
                // Small offsets force plenty of same-cycle ties.
                let at = heap.now() + rng.gen_range(8);
                heap.schedule(at, next_id);
                wheel.schedule(at, next_id);
                next_id += 1;
            } else {
                assert_eq!(heap.pop(), wheel.pop());
            }
        }
        loop {
            let (h, w) = (heap.pop(), wheel.pop());
            assert_eq!(h, w);
            if h.is_none() {
                break;
            }
        }
    }
}
