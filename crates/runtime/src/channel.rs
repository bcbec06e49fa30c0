//! Channels: static unidirectional FIFO connections between VDP slots.

use crate::packet::Packet;
use crate::tuple::Tuple;
use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, Ordering};

/// Life-cycle state of a channel (the paper's enable/disable/destroy options).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ChannelState {
    /// Packets in the channel gate the destination VDP's readiness.
    Enabled,
    /// The channel is ignored by the readiness check; packets still queue.
    Disabled,
    /// The channel is permanently removed from the readiness check.
    Destroyed,
}

/// Static description of a channel, as given to the VSA builder
/// (`prt_channel_new` analogue).
#[derive(Clone, Debug)]
pub struct ChannelSpec {
    /// Maximum packet size in bytes (checked on push).
    pub max_bytes: usize,
    /// Source VDP tuple.
    pub src: Tuple,
    /// Output slot on the source VDP.
    pub src_slot: usize,
    /// Destination VDP tuple.
    pub dst: Tuple,
    /// Input slot on the destination VDP.
    pub dst_slot: usize,
    /// Whether the channel starts enabled (the paper allows creating a
    /// channel in the disabled state and enabling it mid-run).
    pub enabled: bool,
}

impl ChannelSpec {
    /// A channel carrying packets of at most `max_bytes` from
    /// `(src, src_slot)` to `(dst, dst_slot)`, initially enabled.
    pub fn new(
        max_bytes: usize,
        src: impl Into<Tuple>,
        src_slot: usize,
        dst: impl Into<Tuple>,
        dst_slot: usize,
    ) -> Self {
        ChannelSpec {
            max_bytes,
            src: src.into(),
            src_slot,
            dst: dst.into(),
            dst_slot,
            enabled: true,
        }
    }

    /// Mark the channel as initially disabled.
    pub fn disabled(mut self) -> Self {
        self.enabled = false;
        self
    }
}

// Layout of `ChannelQueue::word`: life-cycle state in the low two bits
// (a `ChannelState`, or ABSENT: nothing feeds the slot), the bit that hands
// the spill deque to one side at a time, then the queue depth.
const ENABLED: u32 = ChannelState::Enabled as u32;
const DISABLED: u32 = ChannelState::Disabled as u32;
const DESTROYED: u32 = ChannelState::Destroyed as u32;
const ABSENT: u32 = 3;
const STATE_MASK: u32 = 0b11;
const SPILL_BUSY: u32 = 0b100;
const DEPTH_SHIFT: u32 = 3;
const ONE: u32 = 1 << DEPTH_SHIFT;

/// Packets queued behind the first. Boxed and allocated on the first spill:
/// 8 bytes in place of a `VecDeque`'s 32 keep a queue to one cache line.
#[allow(clippy::box_collection)]
type Spill = Option<Box<VecDeque<Packet>>>;

/// The runtime half of a channel: one input slot's FIFO and life-cycle
/// state. Every input slot of every local VDP owns one, in a single arena
/// indexed by `VDP input base + slot`; an unwired slot's stays absent.
///
/// A channel has exactly one producer (the worker that owns the source
/// VDP, or the node's proxy for an inter-node channel; seeds and restores
/// run before any thread starts) and one consumer (the worker that owns
/// the destination VDP) — the builder rejects a second channel on an input
/// slot. So the first queued packet lives in a plain cell: the producer
/// writes `head` only while the depth it reads is zero, the consumer takes
/// it only while the depth it reads is not, and release/acquire on `word`
/// orders the two. Readiness is one load of `word`. Later packets go to
/// `spill` (no benchmark workload ever queues a second one).
#[repr(align(64))]
pub(crate) struct ChannelQueue {
    word: AtomicU32,
    /// Written by the producer only.
    high_water: AtomicU32,
    max_bytes: usize,
    head: UnsafeCell<Option<Packet>>,
    spill: UnsafeCell<Spill>,
}

// SAFETY: `head` and `spill` are only reached through `push`/`pop`/
// `snapshot`, whose contracts (one producer, one consumer, quiescent
// snapshot) plus the `word` protocol above keep every access exclusive;
// `Packet` is `Send + Sync`, the remaining fields are atomics or immutable
// while shared.
unsafe impl Sync for ChannelQueue {}

impl ChannelQueue {
    /// The queue of an input slot nothing feeds.
    pub fn absent() -> Self {
        ChannelQueue {
            word: AtomicU32::new(ABSENT),
            high_water: AtomicU32::new(0),
            max_bytes: usize::MAX,
            head: UnsafeCell::new(None),
            spill: UnsafeCell::new(None),
        }
    }

    /// Attach a channel (or an implicit seed channel) to this slot.
    /// Returns `false` when one is attached already.
    pub fn wire(&mut self, max_bytes: usize, enabled: bool) -> bool {
        if self.state().is_some() {
            return false;
        }
        *self.word.get_mut() = if enabled { ENABLED } else { DISABLED };
        self.max_bytes = max_bytes;
        true
    }

    /// Deepest the queue has ever been (Section II: unbounded channels make
    /// queue depth the memory high-water mark).
    pub fn high_water(&self) -> usize {
        self.high_water.load(Ordering::Relaxed) as usize
    }

    /// Current life-cycle state; `None` when nothing feeds the slot.
    pub fn state(&self) -> Option<ChannelState> {
        match self.word.load(Ordering::Acquire) & STATE_MASK {
            ENABLED => Some(ChannelState::Enabled),
            DISABLED => Some(ChannelState::Disabled),
            DESTROYED => Some(ChannelState::Destroyed),
            _ => None,
        }
    }

    /// Consumer: move the life-cycle state, leaving the depth bits the
    /// producer may be changing alone.
    fn transition(&self, from: impl Fn(u32) -> bool, to: u32) {
        let _ = self
            .word
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |w| {
                from(w & STATE_MASK).then_some((w & !STATE_MASK) | to)
            });
    }

    /// Enable the channel (no-op once destroyed).
    pub fn enable(&self) {
        self.transition(|s| s == DISABLED, ENABLED);
    }

    /// Disable the channel (no-op once destroyed).
    pub fn disable(&self) {
        self.transition(|s| s == ENABLED, DISABLED);
    }

    /// Destroy the channel: it never gates readiness again.
    pub fn destroy(&self) {
        self.transition(|s| s != ABSENT, DESTROYED);
    }

    /// Take the spill deque for the duration of `f`. Only the producer and
    /// the consumer ever contend, each for one deque operation.
    fn with_spill<R>(&self, f: impl FnOnce(&mut Spill) -> R) -> R {
        while self.word.fetch_or(SPILL_BUSY, Ordering::Acquire) & SPILL_BUSY != 0 {
            std::thread::yield_now();
        }
        // SAFETY: SPILL_BUSY was clear and is now ours (acquire above,
        // release below), so no other reference to `spill` exists.
        let r = f(unsafe { &mut *self.spill.get() });
        self.word.fetch_and(!SPILL_BUSY, Ordering::Release);
        r
    }

    /// Append a packet (FIFO order).
    ///
    /// # Safety
    /// The caller must be this channel's only producer: no other thread may
    /// be inside `push` on the same queue.
    pub unsafe fn push(&self, p: Packet) {
        assert!(
            p.bytes() <= self.max_bytes,
            "packet of {} bytes exceeds channel capacity {}",
            p.bytes(),
            self.max_bytes
        );
        let before = if self.word.load(Ordering::Acquire) >> DEPTH_SHIFT == 0 {
            // SAFETY: depth 0 means the consumer's last pop (its release
            // decrement is what we just acquired) has finished with `head`,
            // and it will not look again until it sees the increment below.
            unsafe { *self.head.get() = Some(p) };
            self.word.fetch_add(ONE, Ordering::SeqCst)
        } else {
            self.with_spill(|s| {
                s.get_or_insert_with(Default::default).push_back(p);
                self.word.fetch_add(ONE, Ordering::SeqCst)
            })
        };
        let depth = (before >> DEPTH_SHIFT) + 1;
        if depth > self.high_water.load(Ordering::Relaxed) {
            self.high_water.store(depth, Ordering::Relaxed);
        }
    }

    /// Pop the oldest packet, if any.
    ///
    /// # Safety
    /// The caller must be this channel's only consumer: no other thread may
    /// be inside `pop` on the same queue.
    pub unsafe fn pop(&self) -> Option<Packet> {
        if self.word.load(Ordering::Acquire) >> DEPTH_SHIFT == 0 {
            return None;
        }
        // SAFETY: depth > 0 as read by the only thread that lowers it, so
        // the producer sees depth > 0 too and stays out of `head`; a packet
        // it put there is visible through the acquire load above. `head` is
        // written only into an empty queue, so when occupied it is the
        // oldest packet.
        let p = match unsafe { (*self.head.get()).take() } {
            Some(p) => p,
            None => self
                .with_spill(|s| s.as_mut().and_then(|s| s.pop_front()))
                .expect("depth counts a spilled packet"),
        };
        self.word.fetch_sub(ONE, Ordering::Release);
        Some(p)
    }

    /// Number of queued packets.
    pub fn len(&self) -> usize {
        (self.word.load(Ordering::Acquire) >> DEPTH_SHIFT) as usize
    }

    /// Whether this channel lets the destination VDP fire: an enabled
    /// channel must hold a packet; a disabled, destroyed or absent one
    /// never blocks. One load — `SeqCst`, like the increment in `push`,
    /// because an idle worker's last look before parking races a producer's
    /// look at the parked flag (see `ThreadNotifier`).
    pub fn satisfied(&self) -> bool {
        let w = self.word.load(Ordering::SeqCst);
        w & STATE_MASK != ENABLED || w >> DEPTH_SHIFT != 0
    }

    /// Queue a packet before the run starts (seeds).
    pub fn seed(&mut self, p: Packet) {
        // SAFETY: `&mut self` excludes every other producer and consumer.
        unsafe { self.push(p) }
    }

    /// Checkpoint view: life-cycle state plus the queued packets, oldest
    /// first (clones alias the payloads); `None` when nothing feeds the slot.
    ///
    /// # Safety
    /// Neither the producer nor the consumer may be inside `push`/`pop`
    /// (a checkpoint cut: workers parked, arrivals drained).
    pub unsafe fn snapshot(&self) -> Option<(ChannelState, Vec<Packet>)> {
        let state = self.state()?;
        // SAFETY: both sides are quiescent per the contract.
        let (head, spill) = unsafe { (&*self.head.get(), &*self.spill.get()) };
        let spill = spill.iter().flat_map(|s| s.iter());
        Some((state, head.iter().chain(spill).cloned().collect()))
    }

    /// Restore-time overwrite: replace the FIFO contents and force the
    /// life-cycle state, including transitions `enable`/`disable` forbid
    /// (a checkpoint may legitimately re-create any recorded state).
    pub fn restore(&mut self, state: ChannelState, packets: Vec<Packet>) {
        (*self.head.get_mut(), *self.spill.get_mut()) = (None, None);
        *self.word.get_mut() = state as u32;
        packets.into_iter().for_each(|p| self.seed(p));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wired(max_bytes: usize, enabled: bool) -> ChannelQueue {
        let mut q = ChannelQueue::absent();
        assert!(q.wire(max_bytes, enabled));
        q
    }

    fn pop_u32(q: &mut ChannelQueue) -> Option<u32> {
        // SAFETY: `&mut` access, nothing else touches the queue.
        unsafe { q.pop() }.map(|p| p.take::<u32>())
    }

    #[test]
    fn fifo_order_through_the_inline_slot_and_the_spill() {
        let mut q = wired(64, true);
        for v in 1..=4u32 {
            q.seed(Packet::new(v, 4));
        }
        assert_eq!((q.len(), q.high_water()), (4, 4));
        assert_eq!(pop_u32(&mut q), Some(1));
        assert_eq!(pop_u32(&mut q), Some(2));
        // The inline slot is free but the spill is not: a new packet must
        // queue behind 3 and 4, not jump into the slot.
        q.seed(Packet::new(5u32, 4));
        assert_eq!(pop_u32(&mut q), Some(3));
        assert_eq!(pop_u32(&mut q), Some(4));
        assert_eq!(pop_u32(&mut q), Some(5));
        assert_eq!(pop_u32(&mut q), None);
        assert_eq!((q.len(), q.high_water()), (0, 4));
    }

    #[test]
    fn state_transitions() {
        let mut q = wired(8, false);
        assert_eq!(q.state(), Some(ChannelState::Disabled));
        assert!(q.satisfied(), "disabled channel never blocks");
        q.enable();
        assert_eq!(q.state(), Some(ChannelState::Enabled));
        assert!(!q.satisfied(), "enabled empty channel blocks");
        q.seed(Packet::new(0u8, 1));
        assert!(q.satisfied());
        q.destroy();
        assert_eq!(q.state(), Some(ChannelState::Destroyed));
        q.enable(); // must not resurrect
        assert_eq!(q.state(), Some(ChannelState::Destroyed));
        assert!(q.satisfied());
        assert_eq!(q.len(), 1, "state changes leave the depth alone");
    }

    #[test]
    fn absent_slot_never_gates_and_cannot_be_switched_on() {
        let q = ChannelQueue::absent();
        assert!(q.satisfied());
        q.enable();
        q.destroy();
        assert_eq!(q.state(), None);
        let mut q = wired(8, true);
        assert!(!q.wire(8, true), "second channel on one slot");
    }

    #[test]
    #[should_panic(expected = "exceeds channel capacity")]
    fn oversized_packet_rejected() {
        let mut q = wired(4, true);
        q.seed(Packet::new([0u8; 16], 16));
    }

    /// One producer thread, one consumer thread, a queue that keeps
    /// spilling: every packet arrives once, in order.
    #[test]
    fn spsc_threads_keep_order_across_the_spill() {
        let q = wired(8, true);
        let n = 20_000u32;
        std::thread::scope(|s| {
            s.spawn(|| {
                for v in 0..n {
                    // SAFETY: this thread is the only producer.
                    unsafe { q.push(Packet::new(v, 4)) };
                }
            });
            let mut next = 0;
            while next < n {
                // SAFETY: this thread is the only consumer.
                match unsafe { q.pop() } {
                    Some(p) => {
                        assert_eq!(p.take::<u32>(), next);
                        next += 1;
                    }
                    None => std::thread::yield_now(),
                }
            }
        });
        assert_eq!(q.len(), 0);
        assert!(q.high_water() >= 1);
    }
}
