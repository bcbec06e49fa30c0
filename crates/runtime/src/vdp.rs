//! Virtual Data Processors: the processing elements of a VSA.

use crate::channel::ChannelQueue;
use crate::packet::{Packet, WireError};
use crate::sched::WorkerServices;
use crate::tuple::Tuple;
use std::any::{Any, TypeId};
use std::cell::RefCell;
use std::ops::Range;

/// Per-worker scratch storage VDP logic can use across firings.
///
/// Each worker thread owns one `WorkerScratch` for the lifetime of the run;
/// values stored in it (keyed by type) persist across firings of every VDP
/// scheduled on that worker. Kernel code uses it to keep a
/// `pulsar_linalg::Workspace` warm so steady-state firings allocate
/// nothing.
#[derive(Default)]
pub struct WorkerScratch {
    /// A handful of types at most, so a linear scan beats hashing.
    slots: RefCell<Vec<ScratchSlot>>,
}

/// One type's value; `None` while a `with` call has it out.
type ScratchSlot = (TypeId, Option<Box<dyn Any + Send>>);

impl WorkerScratch {
    /// Create an empty scratch store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Run `f` with this worker's instance of `T`, creating it on first
    /// use. The value is taken out of the store for the duration of `f`,
    /// so nested `with` calls for *different* types are fine; a nested call
    /// for the same type would see a fresh default.
    pub fn with<T: Default + Send + 'static, R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        let id = TypeId::of::<T>();
        let (idx, taken) = {
            let mut slots = self.slots.borrow_mut();
            let idx = slots.iter().position(|(t, _)| *t == id).unwrap_or_else(|| {
                slots.push((id, None));
                slots.len() - 1
            });
            (idx, slots[idx].1.take())
        };
        let mut value: Box<T> = match taken {
            Some(boxed) => boxed.downcast().expect("scratch slot type mismatch"),
            None => Box::default(),
        };
        let r = f(&mut value);
        // Slots are only ever appended, so `idx` is still this type's.
        self.slots.borrow_mut()[idx].1 = Some(value);
        r
    }
}

/// User code executed when a VDP fires.
///
/// A VDP's persistent local variables are simply the fields of the type
/// implementing this trait (the `qr_local_t` store of the C API). The
/// closure blanket impl covers stateless VDPs.
pub trait VdpLogic: Send {
    /// One firing: pop from inputs, compute, push to outputs.
    fn fire(&mut self, ctx: &mut VdpContext<'_>);

    /// Append this VDP's persistent local store to `out` for a checkpoint.
    ///
    /// The default writes nothing, which is correct for stateless VDPs
    /// (all state flows through packets). VDPs with a local store must
    /// override both this and [`VdpLogic::restore`] with an inverse pair.
    fn snapshot(&self, out: &mut Vec<u8>) {
        let _ = out;
    }

    /// Rebuild the local store from bytes written by [`VdpLogic::snapshot`].
    ///
    /// The default accepts only an empty snapshot (the stateless case);
    /// non-empty bytes reaching a logic that never snapshots any are a
    /// checkpoint/plan mismatch and yield a typed error instead of a
    /// silently wrong resume.
    fn restore(&mut self, bytes: &[u8]) -> Result<(), WireError> {
        if bytes.is_empty() {
            Ok(())
        } else {
            Err(WireError::Malformed(
                "stateless VDP given a non-empty local-store snapshot",
            ))
        }
    }
}

impl<F: FnMut(&mut VdpContext<'_>) + Send> VdpLogic for F {
    fn fire(&mut self, ctx: &mut VdpContext<'_>) {
        self(ctx)
    }
}

/// Specification of a VDP, handed to the VSA builder
/// (`prt_vdp_new` analogue).
pub struct VdpSpec {
    /// Unique identity.
    pub tuple: Tuple,
    /// Number of firings before the VDP is destroyed.
    pub counter: u32,
    /// Number of input slots.
    pub n_in: usize,
    /// Number of output slots.
    pub n_out: usize,
    /// The executable code.
    pub logic: Box<dyn VdpLogic>,
}

impl VdpSpec {
    /// Create a VDP with `counter` firings and the given slot counts.
    pub fn new(
        tuple: impl Into<Tuple>,
        counter: u32,
        n_in: usize,
        n_out: usize,
        logic: impl VdpLogic + 'static,
    ) -> Self {
        VdpSpec {
            tuple: tuple.into(),
            counter,
            n_in,
            n_out,
            logic: Box::new(logic),
        }
    }
}

/// Where an output slot delivers its packets (resolved at launch).
pub(crate) enum OutputTarget {
    /// No channel attached.
    Unwired,
    /// Same-node destination: push straight into the channel queue.
    Local {
        /// Index of the destination slot's queue in the run's arena.
        queue: u32,
        /// Global thread index of the destination VDP's owner (to wake).
        owner: u32,
    },
    /// Different node: hand to this node's proxy for transmission.
    Remote { wire_id: u32, dst_node: u32 },
    /// No destination VDP: packets accumulate in the worker's exit list
    /// under this dense id (the `(tuple, slot)` key lives in the run).
    Exit { id: u32 },
}

/// Runtime state of one VDP (owned exclusively by its worker thread). Its
/// slot tables are ranges into the run's flat queue and output arenas.
pub(crate) struct VdpState {
    pub tuple: Tuple,
    pub counter: u32,
    pub fired: u32,
    pub inputs: Range<u32>,
    pub outputs: Range<u32>,
    pub logic: Option<Box<dyn VdpLogic>>,
}

/// A `u32` arena range as slice bounds.
pub(crate) fn span(r: &Range<u32>) -> Range<usize> {
    r.start as usize..r.end as usize
}

/// The environment a VDP sees while firing: its channels, identity, and the
/// runtime services (delivery, tracing, channel control).
pub struct VdpContext<'a> {
    pub(crate) tuple: &'a Tuple,
    pub(crate) remaining: u32,
    pub(crate) firing: u32,
    pub(crate) inputs: &'a [ChannelQueue],
    pub(crate) outputs: &'a [OutputTarget],
    pub(crate) services: &'a WorkerServices<'a>,
    pub(crate) label: Option<String>,
}

impl<'a> VdpContext<'a> {
    /// This VDP's identity tuple.
    pub fn tuple(&self) -> &Tuple {
        self.tuple
    }

    /// Firings left *after* the current one.
    pub fn remaining(&self) -> u32 {
        self.remaining
    }

    /// Zero-based index of the current firing.
    pub fn firing(&self) -> u32 {
        self.firing
    }

    /// Node executing this firing.
    pub fn node(&self) -> usize {
        self.services.node
    }

    /// Node-local worker thread executing this firing.
    pub fn thread(&self) -> usize {
        self.services.local_thread
    }

    /// This worker thread's persistent scratch store. The returned
    /// reference borrows the context's lifetime, so it can be captured
    /// before entering a [`VdpContext::kernel`] closure.
    pub fn scratch(&self) -> &'a WorkerScratch {
        self.services.scratch
    }

    /// Pop a packet from an input slot, panicking when none is queued
    /// (fire conditions guarantee one on every active channel).
    pub fn pop(&mut self, slot: usize) -> Packet {
        self.try_pop(slot)
            .unwrap_or_else(|| panic!("VDP {} popped empty input slot {}", self.tuple, slot))
    }

    /// Pop a packet from an input slot, if one is queued.
    pub fn try_pop(&mut self, slot: usize) -> Option<Packet> {
        // SAFETY: a context exposes only the firing VDP's own input slots,
        // and a VDP fires on exactly one worker thread — the one consumer.
        unsafe { self.inputs[slot].pop() }
    }

    /// Number of packets waiting on an input slot.
    pub fn input_len(&self, slot: usize) -> usize {
        self.inputs[slot].len()
    }

    /// Push a packet to an output slot. Pushing to an unconnected slot is an
    /// error (wire the channel or drop the data explicitly).
    pub fn push(&mut self, slot: usize, p: Packet) {
        match self.outputs[slot] {
            OutputTarget::Local { queue, owner } => self.services.deliver_local(queue, owner, p),
            OutputTarget::Remote { wire_id, dst_node } => {
                self.services.deliver_remote(wire_id, dst_node, p)
            }
            OutputTarget::Exit { id } => self.services.deliver_exit(id, p),
            OutputTarget::Unwired => panic!(
                "VDP {} pushed to unconnected output slot {}",
                self.tuple, slot
            ),
        }
    }

    /// Whether an output slot has a channel attached.
    pub fn output_connected(&self, slot: usize) -> bool {
        !matches!(self.outputs[slot], OutputTarget::Unwired)
    }

    /// Enable this VDP's input channel at `slot` (paper Section V-C: the
    /// binary→flat channel starts disabled and is enabled mid-run).
    pub fn enable_input(&self, slot: usize) {
        self.inputs[slot].enable();
    }

    /// Disable this VDP's input channel at `slot`.
    pub fn disable_input(&self, slot: usize) {
        self.inputs[slot].disable();
    }

    /// Permanently remove this VDP's input channel at `slot` from its
    /// readiness condition.
    pub fn destroy_input(&self, slot: usize) {
        self.inputs[slot].destroy();
    }

    /// Label the current firing in the execution trace (defaults to
    /// `fire<tuple>`). `label` runs only when the run records a trace, so
    /// an untraced firing builds no string.
    pub fn set_label(&mut self, label: impl FnOnce(&Self) -> String) {
        if self.services.tracing() {
            self.label = Some(label(self));
        }
    }

    /// Run a computational kernel and record it as a separate span in the
    /// execution trace (used to paint Figure-7-style traces).
    pub fn kernel<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let t0 = self.services.now_us();
        let r = f();
        self.services
            .record_span(self.tuple, || name.to_string(), t0);
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_keeps_values_in_place_and_nests_across_types() {
        let s = WorkerScratch::new();
        s.with(|v: &mut Vec<u32>| v.push(1));
        // A nested `with` of a different type appends a slot (possibly
        // moving the table) while the outer value is out; both survive.
        let outer = s.with(|v: &mut Vec<u32>| {
            s.with(|t: &mut String| t.push('x'));
            v.push(2);
            v.len()
        });
        assert_eq!(outer, 2);
        assert_eq!(s.with(|t: &mut String| t.clone()), "x");
        assert_eq!(s.with(|v: &mut Vec<u32>| v.clone()), vec![1, 2]);
        // Same type nested: the inner call sees a fresh default, and the
        // outer value is what stays.
        s.with(|v: &mut Vec<u32>| {
            assert!(s.with(|inner: &mut Vec<u32>| inner.is_empty()));
            v.push(3);
        });
        assert_eq!(s.with(|v: &mut Vec<u32>| v.clone()), vec![1, 2, 3]);
        assert_eq!(s.slots.borrow().len(), 2);
    }
}
