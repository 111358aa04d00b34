//! Deterministic event queue.
//!
//! A policy layer over a pluggable [`Scheduler`] backend keyed on
//! `(time, sequence)`: events scheduled for the same instant pop in
//! insertion order, which makes whole simulations reproducible bit-for-bit
//! across runs — and across backends, since every backend implements the
//! same stable `(time, seq)` min-order (see [`crate::sched`]). The backend
//! is chosen at construction ([`EventQueue::with_sched`]); the default is
//! the binary heap.
//!
//! Cancellation uses generation-stamped slots instead of a tombstone set:
//! [`schedule_cancellable`](EventQueue::schedule_cancellable) hands out a
//! [`ScheduledId`] naming a slot plus the generation it was issued under, and
//! the backend entry carries the slot index. The pop path checks cancellation
//! with one array index — no hashing, no allocation — and plain
//! [`schedule`](EventQueue::schedule) (the vast majority of traffic) carries
//! a sentinel slot and skips the bookkeeping entirely. A stale id (already
//! fired or already cancelled) fails the generation check and is a no-op, so
//! `len()` can never under-count and no tombstone can leak.
//!
//! Cancelled entries are retired *lazily*: they stay in the backend until
//! they reach the head, where [`pop`](EventQueue::pop) and
//! [`peek_time`](EventQueue::peek_time) discard them (see
//! [`drop_cancelled_heads`](EventQueue::drop_cancelled_heads)).

use crate::sched::{AnySched, Entry, SchedKind, Scheduler};
use crate::time::Time;

/// Handle to a cancellable scheduled event.
///
/// Ids are generation-stamped: once the event fires or is cancelled, the id
/// goes stale and later [`EventQueue::cancel`] calls with it are no-ops,
/// even if the underlying slot has been reused for a newer event.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ScheduledId {
    slot: u32,
    gen: u32,
}

/// Slot index carried by backend entries that were scheduled without a
/// cancellation handle.
const NO_SLOT: u32 = u32::MAX;

/// Per-slot cancellation state. `gen` advances every time the slot is
/// retired (fire or cancel), invalidating outstanding ids; `live` is false
/// while a cancelled entry is still sitting in the backend.
#[derive(Clone, Copy, Debug)]
struct Slot {
    gen: u32,
    live: bool,
}

/// A deterministic min-priority event queue.
pub struct EventQueue<E> {
    sched: AnySched<E>,
    next_seq: u64,
    slots: Vec<Slot>,
    free_slots: Vec<u32>,
    /// Entries still in the backend whose slot was cancelled.
    cancelled_in_heap: usize,
    now: Time,
    popped: u64,
    /// Scheduler interactions: one per [`pop_batch`](Self::pop_batch) (or
    /// per backend pop on the sequential path). `popped / pops` is the
    /// average batch size.
    pops: u64,
    /// The pending same-timestamp batch, **in reverse `(at, seq)` order**
    /// so [`batch_next`](Self::batch_next) serves from the tail. Entries
    /// here have left the backend but are still logically queued: `len`,
    /// `for_each_live`, and the invariant check all account for them, and
    /// [`cancel`](Self::cancel) still works on them (liveness is re-checked
    /// at serve time).
    batch: Vec<Entry<E>>,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue at time zero on the default backend
    /// ([`SchedKind::default`], the calendar queue).
    pub fn new() -> Self {
        Self::with_sched(SchedKind::default())
    }

    /// Create an empty queue at time zero on the given scheduler backend.
    /// Backend choice never changes pop order — only performance.
    pub fn with_sched(kind: SchedKind) -> Self {
        EventQueue {
            sched: AnySched::new(kind),
            next_seq: 0,
            slots: Vec::new(),
            free_slots: Vec::new(),
            cancelled_in_heap: 0,
            now: Time::ZERO,
            popped: 0,
            pops: 0,
            batch: Vec::new(),
        }
    }

    /// Which scheduler backend this queue runs on.
    pub fn sched_kind(&self) -> SchedKind {
        self.sched.kind()
    }

    /// Current simulated time: the timestamp of the last popped event.
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Number of events popped so far (for progress reporting).
    #[inline]
    pub fn popped(&self) -> u64 {
        self.popped
    }

    /// Number of scheduler interactions so far: one per
    /// [`pop_batch`](Self::pop_batch), one per sequential [`pop`](Self::pop)
    /// that reached the backend. `popped() / pops()` is the average number
    /// of events served per scheduler interaction.
    #[inline]
    pub fn pops(&self) -> u64 {
        self.pops
    }

    /// Number of pending (non-cancelled) events, including any entries of a
    /// partially served batch.
    #[inline]
    pub fn len(&self) -> usize {
        self.sched.len() + self.batch.len() - self.cancelled_in_heap
    }

    /// True when no live events remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    #[inline]
    fn push_entry(&mut self, at: Time, slot: u32, event: E) {
        assert!(
            at >= self.now,
            "event scheduled in the past: {at} < now {}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.sched.push(Entry {
            at,
            seq,
            slot,
            event,
        });
    }

    /// Schedule `event` at absolute time `at`. The event cannot be
    /// cancelled; use [`schedule_cancellable`](Self::schedule_cancellable)
    /// when a cancellation handle is needed.
    ///
    /// # Panics
    /// Panics if `at` is earlier than the current time: simulated causality
    /// must never run backwards.
    #[inline]
    pub fn schedule(&mut self, at: Time, event: E) {
        self.push_entry(at, NO_SLOT, event);
    }

    /// Schedule `event` `delay` after the current time. A zero delay is
    /// legal: the event fires at `now()`, after everything already scheduled
    /// for that instant (sequence order).
    #[inline]
    pub fn schedule_in(&mut self, delay: Time, event: E) {
        self.schedule(self.now + delay, event);
    }

    /// Schedule `event` at absolute time `at`, returning a handle that can
    /// cancel it until it fires.
    ///
    /// # Panics
    /// Panics if `at` is earlier than the current time.
    pub fn schedule_cancellable(&mut self, at: Time, event: E) -> ScheduledId {
        let slot = match self.free_slots.pop() {
            Some(s) => {
                self.slots[s as usize].live = true;
                s
            }
            None => {
                let s = self.slots.len();
                assert!(s < NO_SLOT as usize, "slot index space exhausted");
                self.slots.push(Slot { gen: 0, live: true });
                s as u32
            }
        };
        self.push_entry(at, slot, event);
        ScheduledId {
            slot,
            gen: self.slots[slot as usize].gen,
        }
    }

    /// Cancel a previously scheduled event. Cancelling an already-fired or
    /// already-cancelled event is a no-op (the stale id fails its generation
    /// check), so `len()` stays accurate.
    pub fn cancel(&mut self, id: ScheduledId) {
        if let Some(slot) = self.slots.get_mut(id.slot as usize) {
            if slot.gen == id.gen && slot.live {
                slot.live = false;
                // Invalidate the id immediately; the backend entry is
                // retired lazily on pop/peek, which recycles the slot.
                slot.gen = slot.gen.wrapping_add(1);
                self.cancelled_in_heap += 1;
            }
        }
    }

    /// Retire the slot of an entry leaving the backend. Returns true when
    /// the entry was live (should be delivered).
    #[inline]
    fn retire(&mut self, slot: u32) -> bool {
        if slot == NO_SLOT {
            return true;
        }
        let s = &mut self.slots[slot as usize];
        if s.live {
            // Fired: invalidate outstanding ids, then recycle.
            s.live = false;
            s.gen = s.gen.wrapping_add(1);
            self.free_slots.push(slot);
            true
        } else {
            // Cancelled earlier; gen was already bumped then.
            self.cancelled_in_heap -= 1;
            self.free_slots.push(slot);
            false
        }
    }

    /// The explicit lazy-skip step: discard cancelled entries sitting at the
    /// backend head, recycling their slots. After this, the head (if any) is
    /// live, so `peek_time` and `pop` necessarily agree on it. Amortized
    /// O(1): each cancelled entry is discarded exactly once.
    fn drop_cancelled_heads(&mut self) {
        while let Some(entry) = self.sched.peek_min() {
            let slot = entry.slot;
            if slot == NO_SLOT || self.slots[slot as usize].live {
                return;
            }
            self.sched.pop_min();
            self.retire(slot);
        }
    }

    /// Discard cancelled entries at the tail (= serving end) of the pending
    /// batch, recycling their slots. The mirror of
    /// [`Self::drop_cancelled_heads`] for the batch buffer.
    fn drop_cancelled_batch_tail(&mut self) {
        while let Some(entry) = self.batch.last() {
            let slot = entry.slot;
            if slot == NO_SLOT || self.slots[slot as usize].live {
                return;
            }
            self.batch.pop();
            self.retire(slot);
        }
    }

    /// Pop the next live event, advancing the clock to its timestamp.
    /// Serves any partially dispatched batch first, so sequential and
    /// batched consumption can be mixed freely without reordering.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        if let Some(event) = self.batch_next() {
            return Some((self.now, event));
        }
        self.drop_cancelled_heads();
        let entry = self.sched.pop_min()?;
        debug_assert!(
            entry.slot == NO_SLOT || self.slots[entry.slot as usize].live,
            "head still cancelled after drop_cancelled_heads"
        );
        self.retire(entry.slot);
        debug_assert!(entry.at >= self.now);
        self.now = entry.at;
        self.popped += 1;
        self.pops += 1;
        Some((entry.at, entry.event))
    }

    /// Remove the next live event *and every further event sharing its
    /// timestamp* from the backend in one scheduler interaction, advancing
    /// the clock once. Returns the batch timestamp; the events themselves
    /// are then served in `(at, seq)` order by
    /// [`batch_next`](Self::batch_next). Returns `None` when no live events
    /// remain.
    ///
    /// Dispatching via pop_batch/batch_next is observably identical to
    /// sequential [`pop`](Self::pop)s: in-batch order is the same `(at,
    /// seq)` order, and events cancelled *mid-batch* (by an earlier event of
    /// the same batch) are still skipped, because liveness is re-checked
    /// when each entry is served, not when the batch is formed.
    pub fn pop_batch(&mut self) -> Option<Time> {
        // Leftovers from a batch whose dispatch stopped early are served
        // before the backend is touched again.
        self.drop_cancelled_batch_tail();
        if let Some(entry) = self.batch.last() {
            return Some(entry.at);
        }
        self.drop_cancelled_heads();
        self.sched.pop_batch(&mut self.batch);
        // The backend appends in (at, seq) order; serve from the tail.
        self.batch.reverse();
        let at = self.batch.last()?.at;
        debug_assert!(at >= self.now);
        self.now = at;
        self.pops += 1;
        Some(at)
    }

    /// The next live event of the batch formed by the last
    /// [`pop_batch`](Self::pop_batch), or `None` when the batch is
    /// exhausted. Entries cancelled since the batch was formed are skipped
    /// and their slots recycled, exactly as the sequential pop path would.
    pub fn batch_next(&mut self) -> Option<E> {
        while let Some(entry) = self.batch.pop() {
            if self.retire(entry.slot) {
                self.popped += 1;
                return Some(entry.event);
            }
        }
        None
    }

    /// Timestamp of the next live event without popping it.
    ///
    /// Takes `&mut self` only for the lazy-skip: cancelled entries at the
    /// head are discarded (via [`Self::drop_cancelled_heads`]) so the peek
    /// stays amortized O(1). The set of live events is unchanged.
    pub fn peek_time(&mut self) -> Option<Time> {
        self.drop_cancelled_batch_tail();
        if let Some(entry) = self.batch.last() {
            return Some(entry.at);
        }
        self.drop_cancelled_heads();
        self.sched.peek_min().map(|e| e.at)
    }

    /// Visit every live (non-cancelled) pending event, in backend storage
    /// order (NOT time order). Used by audit layers that need to account for
    /// resources referenced by in-flight events; O(entries), so callers
    /// should rate-limit it.
    pub fn for_each_live(&self, f: &mut dyn FnMut(&E)) {
        // Entries of a partially served batch are still pending: anything
        // they reference (e.g. packet-arena slots) is still owned by the
        // queue, so audits must see them.
        for entry in &self.batch {
            if entry.slot == NO_SLOT || self.slots[entry.slot as usize].live {
                f(&entry.event);
            }
        }
        self.sched.for_each(&mut |entry| {
            if entry.slot == NO_SLOT || self.slots[entry.slot as usize].live {
                f(&entry.event);
            }
        });
    }

    /// Verify the queue's internal bookkeeping. Used by the audit layer;
    /// O(entries + slots), so callers should rate-limit it.
    ///
    /// Checks: no live entry is scheduled before `now`, the count of dead
    /// backend entries matches `cancelled_in_heap` (so `len()` is exact),
    /// every live slot has exactly one backend entry referring to it, and
    /// the backend's own structural invariants hold
    /// ([`Scheduler::check_backend`]).
    pub fn check_invariants(&self) -> Result<(), String> {
        self.sched.check_backend()?;
        let mut dead = 0usize;
        // simlint::allow(hot-path-alloc, audit-only scan, rate-limited by callers)
        let mut live_refs = vec![0u32; self.slots.len()];
        let mut err = None;
        let mut visit = |entry: &Entry<E>| {
            let slot_live = entry.slot == NO_SLOT || self.slots[entry.slot as usize].live;
            if slot_live {
                if entry.at < self.now && err.is_none() {
                    err = Some(format!(
                        "live event at {} is before now {}",
                        entry.at, self.now
                    ));
                }
            } else {
                dead += 1;
            }
            if entry.slot != NO_SLOT {
                live_refs[entry.slot as usize] += 1;
            }
        };
        for entry in &self.batch {
            visit(entry);
        }
        self.sched.for_each(&mut visit);
        if let Some(e) = err {
            return Err(e);
        }
        if dead != self.cancelled_in_heap {
            return Err(format!(
                "cancelled_in_heap {} but {dead} dead entries in backend",
                self.cancelled_in_heap
            ));
        }
        for (i, slot) in self.slots.iter().enumerate() {
            if slot.live && live_refs[i] != 1 {
                return Err(format!(
                    "live slot {i} referenced by {} backend entries (expected 1)",
                    live_refs[i]
                ));
            }
        }
        Ok(())
    }
}

impl<E: Clone> EventQueue<E> {
    /// Capture the queue's complete state into an owned
    /// [`QueueSnapshot`]. Entries (backend + any pending batch) are stored
    /// in canonical `(at, seq)` order, so two queues with the same live
    /// state produce identical snapshots regardless of backend internals.
    ///
    /// Cold path by design (clones every entry); used by simulation
    /// snapshot/warm-start, never per event.
    pub fn snapshot(&self) -> QueueSnapshot<E> {
        let mut entries: Vec<Entry<E>> = Vec::with_capacity(self.sched.len() + self.batch.len());
        // simlint::allow(hot-path-alloc, snapshot is an explicit cold path, never per event)
        self.sched.for_each(&mut |e| entries.push(e.clone()));
        for e in &self.batch {
            // simlint::allow(hot-path-alloc, snapshot is an explicit cold path, never per event)
            entries.push(e.clone());
        }
        entries.sort_by_key(Entry::key);
        QueueSnapshot {
            kind: self.sched.kind(),
            entries,
            // simlint::allow(hot-path-alloc, snapshot is an explicit cold path, never per event)
            slots: self.slots.clone(),
            // simlint::allow(hot-path-alloc, snapshot is an explicit cold path, never per event)
            free_slots: self.free_slots.clone(),
            cancelled_in_heap: self.cancelled_in_heap,
            now: self.now,
            popped: self.popped,
            pops: self.pops,
            next_seq: self.next_seq,
        }
    }

    /// Rebuild a queue from a [`QueueSnapshot`]. The slot table, free list,
    /// clock, and counters are restored verbatim — outstanding
    /// [`ScheduledId`]s taken before the snapshot remain valid against the
    /// restored queue — and every entry is re-inserted into a fresh backend
    /// of the snapshot's kind. The stable `(at, seq)` order contract makes
    /// the rebuilt backend's internal layout irrelevant: pop order is
    /// bit-identical to the original queue's.
    pub fn restore(snap: &QueueSnapshot<E>) -> EventQueue<E> {
        let mut q = EventQueue {
            sched: AnySched::new(snap.kind),
            next_seq: snap.next_seq,
            // simlint::allow(hot-path-alloc, snapshot restore is an explicit cold path, never per event)
            slots: snap.slots.clone(),
            // simlint::allow(hot-path-alloc, snapshot restore is an explicit cold path, never per event)
            free_slots: snap.free_slots.clone(),
            cancelled_in_heap: snap.cancelled_in_heap,
            now: snap.now,
            popped: snap.popped,
            pops: snap.pops,
            batch: Vec::new(),
        };
        for e in &snap.entries {
            // simlint::allow(hot-path-alloc, snapshot restore is an explicit cold path, never per event)
            q.sched.push(e.clone());
        }
        q
    }
}

/// Owned image of an [`EventQueue`]'s complete deterministic state:
/// canonically ordered entries plus the cancellation slot table, clock, and
/// counters. Produced by [`EventQueue::snapshot`], consumed by
/// [`EventQueue::restore`]. Entry order is `(at, seq)` — backend-layout
/// independent — so snapshots of equivalent queues compare equal
/// field-by-field and digest identically.
#[derive(Clone, Debug)]
pub struct QueueSnapshot<E> {
    kind: SchedKind,
    entries: Vec<Entry<E>>,
    slots: Vec<Slot>,
    free_slots: Vec<u32>,
    cancelled_in_heap: usize,
    now: Time,
    popped: u64,
    pops: u64,
    next_seq: u64,
}

impl<E> QueueSnapshot<E> {
    /// The captured entries in canonical `(at, seq)` order, cancelled ones
    /// included (their slots are dead in the captured slot table). Exposed
    /// so state digests can hash exactly what a restore would rebuild.
    pub fn entries(&self) -> &[Entry<E>] {
        &self.entries
    }

    /// The captured clock.
    pub fn now(&self) -> Time {
        self.now
    }

    /// The captured pop counter.
    pub fn popped(&self) -> u64 {
        self.popped
    }

    /// The captured sequence counter (next `seq` to be assigned).
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Scheduler backend the snapshot was taken on (restores rebuild the
    /// same kind).
    pub fn kind(&self) -> SchedKind {
        self.kind
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Run a test body against a fresh queue on every backend, so every
    /// scenario below pins identical behavior across both.
    fn on_all_backends<E>(f: impl Fn(&mut EventQueue<E>, SchedKind)) {
        for kind in SchedKind::ALL {
            let mut q = EventQueue::with_sched(kind);
            assert_eq!(q.sched_kind(), kind);
            f(&mut q, kind);
        }
    }

    #[test]
    fn pops_in_time_order() {
        on_all_backends(|q, kind| {
            q.schedule(Time::from_us(3), "c");
            q.schedule(Time::from_us(1), "a");
            q.schedule(Time::from_us(2), "b");
            let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
            assert_eq!(order, vec!["a", "b", "c"], "{kind:?}");
        });
    }

    #[test]
    fn ties_break_by_insertion_order() {
        on_all_backends(|q, kind| {
            let t = Time::from_us(5);
            for i in 0..100 {
                q.schedule(t, i);
            }
            let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
            assert_eq!(order, (0..100).collect::<Vec<_>>(), "{kind:?}");
        });
    }

    #[test]
    fn mixed_cancellable_ties_break_by_insertion_order() {
        on_all_backends(|q, kind| {
            let t = Time::from_us(5);
            for i in 0..100 {
                if i % 3 == 0 {
                    let _ = q.schedule_cancellable(t, i);
                } else {
                    q.schedule(t, i);
                }
            }
            let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
            assert_eq!(order, (0..100).collect::<Vec<_>>(), "{kind:?}");
        });
    }

    #[test]
    fn clock_advances_monotonically() {
        on_all_backends(|q, _| {
            q.schedule(Time::from_us(10), ());
            q.schedule(Time::from_us(10), ());
            q.schedule(Time::from_us(20), ());
            let mut last = Time::ZERO;
            while let Some((t, ())) = q.pop() {
                assert!(t >= last);
                last = t;
                assert_eq!(q.now(), t);
            }
            assert_eq!(last, Time::from_us(20));
        });
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn rejects_past_events() {
        let mut q = EventQueue::new();
        q.schedule(Time::from_us(10), ());
        q.pop();
        q.schedule(Time::from_us(5), ());
    }

    #[test]
    fn zero_delay_schedule_in_fires_at_now_after_existing_ties() {
        on_all_backends(|q, kind| {
            q.schedule(Time::from_us(10), 0);
            q.pop();
            // Zero delay: due at now() exactly, but after events already
            // scheduled for this instant (sequence order).
            q.schedule(q.now(), 1);
            q.schedule_in(Time::ZERO, 2);
            q.schedule_in(Time::from_us(1), 3);
            assert_eq!(q.peek_time(), Some(Time::from_us(10)), "{kind:?}");
            assert_eq!(q.pop(), Some((Time::from_us(10), 1)), "{kind:?}");
            assert_eq!(q.pop(), Some((Time::from_us(10), 2)), "{kind:?}");
            assert_eq!(q.pop(), Some((Time::from_us(11), 3)), "{kind:?}");
            assert_eq!(q.now(), Time::from_us(11));
        });
    }

    #[test]
    fn cancellation_skips_events() {
        on_all_backends(|q, kind| {
            let a = q.schedule_cancellable(Time::from_us(1), "a");
            q.schedule(Time::from_us(2), "b");
            q.cancel(a);
            assert_eq!(q.len(), 1, "{kind:?}");
            assert_eq!(q.pop().map(|(_, e)| e), Some("b"), "{kind:?}");
            assert!(q.pop().is_none(), "{kind:?}");
        });
    }

    #[test]
    fn cancel_after_fire_is_noop() {
        on_all_backends(|q, _| {
            let a = q.schedule_cancellable(Time::from_us(1), "a");
            assert!(q.pop().is_some());
            q.cancel(a);
            q.schedule(Time::from_us(2), "b");
            assert_eq!(q.pop().map(|(_, e)| e), Some("b"));
        });
    }

    /// Regression: the old tombstone-set design let `cancel()` on a fired id
    /// insert a never-matching tombstone, making `len()` under-report and
    /// underflow-panic once the heap drained below the tombstone count.
    #[test]
    fn cancel_after_fire_keeps_len_exact() {
        on_all_backends(|q, _| {
            let a = q.schedule_cancellable(Time::from_us(1), "a");
            q.pop();
            assert_eq!(q.len(), 0);
            q.cancel(a); // stale id: must not disturb the live count
            assert_eq!(q.len(), 0);
            assert!(q.is_empty());
            q.schedule(Time::from_us(2), "b");
            assert_eq!(q.len(), 1); // would panic on underflow before the fix
            q.cancel(a); // still a no-op, even with events pending
            assert_eq!(q.len(), 1);
            assert_eq!(q.pop().map(|(_, e)| e), Some("b"));
            assert_eq!(q.len(), 0);
        });
    }

    /// Cancel with a stale id whose slot has been recycled by a *new*
    /// cancellable event after the original was popped: the generation check
    /// must protect the new occupant.
    #[test]
    fn cancel_on_popped_id_after_slot_reuse_is_noop() {
        on_all_backends(|q, kind| {
            let a = q.schedule_cancellable(Time::from_us(1), "a");
            assert_eq!(q.pop().map(|(_, e)| e), Some("a"));
            // Slot freed by the pop; this reuses it under a newer gen.
            let b = q.schedule_cancellable(Time::from_us(2), "b");
            q.cancel(a); // stale: must not kill "b"
            assert_eq!(q.len(), 1, "{kind:?}");
            assert_eq!(q.pop().map(|(_, e)| e), Some("b"), "{kind:?}");
            q.cancel(b); // also stale now (fired)
            assert!(q.is_empty());
            q.check_invariants().unwrap();
        });
    }

    #[test]
    fn double_cancel_is_noop() {
        on_all_backends(|q, _| {
            let a = q.schedule_cancellable(Time::from_us(1), "a");
            q.schedule(Time::from_us(2), "b");
            q.cancel(a);
            q.cancel(a);
            q.cancel(a);
            assert_eq!(q.len(), 1);
            assert_eq!(q.pop().map(|(_, e)| e), Some("b"));
            assert!(q.pop().is_none());
            assert_eq!(q.len(), 0);
        });
    }

    #[test]
    fn schedule_in_is_relative_to_now() {
        on_all_backends(|q, _| {
            q.schedule(Time::from_us(10), 0);
            q.pop();
            q.schedule_in(Time::from_us(5), 1);
            assert_eq!(q.pop().map(|(t, _)| t), Some(Time::from_us(15)));
        });
    }

    #[test]
    fn peek_skips_cancelled() {
        on_all_backends(|q, kind| {
            let a = q.schedule_cancellable(Time::from_us(1), "a");
            q.schedule(Time::from_us(2), "b");
            q.cancel(a);
            assert_eq!(q.peek_time(), Some(Time::from_us(2)), "{kind:?}");
        });
    }

    /// Regression for the lazy-skip contract: when the head entry is
    /// cancelled *between* a peek and the next peek/pop, both must agree on
    /// the new head — the stale peeked time must never be delivered.
    #[test]
    fn peek_and_pop_agree_when_head_cancelled_between_calls() {
        on_all_backends(|q, kind| {
            let a = q.schedule_cancellable(Time::from_us(1), "a");
            q.schedule(Time::from_us(2), "b");
            assert_eq!(q.peek_time(), Some(Time::from_us(1)), "{kind:?}");
            q.cancel(a); // head dies after it was peeked
            let peeked = q.peek_time();
            assert_eq!(peeked, Some(Time::from_us(2)), "{kind:?}");
            let (t, e) = q.pop().unwrap();
            assert_eq!(Some(t), peeked, "{kind:?}: peek/pop disagree");
            assert_eq!(e, "b");
            // And with pop first (no intervening peek): same skip.
            let c = q.schedule_cancellable(Time::from_us(3), "c");
            q.schedule(Time::from_us(4), "d");
            q.cancel(c);
            assert_eq!(q.pop(), Some((Time::from_us(4), "d")), "{kind:?}");
            q.check_invariants().unwrap();
        });
    }

    #[test]
    fn cancel_interleaved_with_peek() {
        on_all_backends(|q, kind| {
            let a = q.schedule_cancellable(Time::from_us(1), 1);
            let b = q.schedule_cancellable(Time::from_us(2), 2);
            q.schedule(Time::from_us(3), 3);
            assert_eq!(q.peek_time(), Some(Time::from_us(1)), "{kind:?}");
            q.cancel(a);
            assert_eq!(q.peek_time(), Some(Time::from_us(2)), "{kind:?}");
            q.cancel(b);
            assert_eq!(q.peek_time(), Some(Time::from_us(3)), "{kind:?}");
            assert_eq!(q.len(), 1);
            assert_eq!(q.pop(), Some((Time::from_us(3), 3)));
            assert_eq!(q.peek_time(), None);
        });
    }

    #[test]
    fn mass_cancel_then_drain() {
        on_all_backends(|q, kind| {
            let ids: Vec<_> = (0..1000)
                .map(|i| q.schedule_cancellable(Time::from_us(i), i))
                .collect();
            // Keep every 10th event; cancel the rest in scattered order.
            for (i, id) in ids.iter().enumerate() {
                if i % 10 != 0 {
                    q.cancel(*id);
                }
            }
            assert_eq!(q.len(), 100, "{kind:?}");
            let survivors: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
            assert_eq!(survivors, (0..1000).step_by(10).collect::<Vec<_>>());
            assert_eq!(q.len(), 0);
            assert!(q.is_empty());
        });
    }

    #[test]
    fn invariants_hold_through_schedule_cancel_pop_cycles() {
        on_all_backends(|q, _| {
            q.check_invariants().unwrap();
            let mut ids = Vec::new();
            for i in 0..200u64 {
                if i % 2 == 0 {
                    ids.push(q.schedule_cancellable(Time::from_us(i + 1), i));
                } else {
                    q.schedule(Time::from_us(i + 1), i);
                }
                q.check_invariants().unwrap();
            }
            for (k, id) in ids.iter().enumerate() {
                if k % 3 == 0 {
                    q.cancel(*id);
                    q.check_invariants().unwrap();
                }
            }
            while q.pop().is_some() {
                q.check_invariants().unwrap();
            }
            assert!(q.is_empty());
            q.check_invariants().unwrap();
        });
    }

    #[test]
    fn slot_reuse_does_not_resurrect_old_ids() {
        on_all_backends(|q, _| {
            // Run many schedule/fire/cancel-stale cycles through the same
            // slot.
            let mut stale = Vec::new();
            for round in 0..50u64 {
                let id = q.schedule_cancellable(Time::from_us(round + 1), round);
                // Every stale id from prior rounds must be inert against the
                // recycled slot now hosting the current event.
                for old in &stale {
                    q.cancel(*old);
                }
                assert_eq!(q.len(), 1);
                assert_eq!(q.pop().map(|(_, e)| e), Some(round));
                stale.push(id);
            }
            assert!(q.is_empty());
        });
    }

    /// Calendar-specific end-to-end: growth/shrink resizes while pops cross
    /// bucket-day and year boundaries must preserve global order and the
    /// queue invariants.
    #[test]
    fn calendar_resize_across_day_boundaries_preserves_order() {
        let mut q: EventQueue<u64> = EventQueue::with_sched(SchedKind::Calendar);
        let mut x = 0x0123_4567_89AB_CDEFu64;
        let mut ids = Vec::new();
        for i in 0..600u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // Spread across many microseconds so entries span several
            // calendar days/years at the initial 1 µs width.
            let at = q.now() + Time::from_ns(x % 50_000);
            if i % 4 == 0 {
                ids.push(q.schedule_cancellable(at, i));
            } else {
                q.schedule(at, i);
            }
            if i % 3 == 0 {
                q.pop();
            }
            if i % 7 == 0 {
                if let Some(id) = ids.pop() {
                    q.cancel(id);
                }
            }
            q.check_invariants().unwrap();
        }
        let mut last = q.now();
        while let Some((t, _)) = q.pop() {
            assert!(t >= last);
            last = t;
            q.check_invariants().unwrap();
        }
        assert!(q.is_empty());
    }

    /// The headline batching contract: pop_batch/batch_next delivers the
    /// exact same (time, event) sequence as sequential pop, on every
    /// backend, with scattered cancellations in the mix.
    #[test]
    fn batched_dispatch_matches_sequential() {
        on_all_backends(|batched, kind| {
            let mut sequential = EventQueue::with_sched(kind);
            let mut x = 0x6C62272E07BB0142u64;
            let mut ids_b = Vec::new();
            let mut ids_s = Vec::new();
            for i in 0..2000u64 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                // Coarse grid => many same-timestamp collisions.
                let at = Time::from_ns((x % 64) * 100);
                if i % 4 == 0 {
                    ids_b.push(batched.schedule_cancellable(at, i));
                    ids_s.push(sequential.schedule_cancellable(at, i));
                } else {
                    batched.schedule(at, i);
                    sequential.schedule(at, i);
                }
            }
            for k in (0..ids_b.len()).step_by(3) {
                batched.cancel(ids_b[k]);
                sequential.cancel(ids_s[k]);
            }
            let mut got = Vec::new();
            while let Some(t) = batched.pop_batch() {
                assert_eq!(t, batched.now(), "{kind:?}");
                while let Some(e) = batched.batch_next() {
                    got.push((t, e));
                }
                batched.check_invariants().unwrap();
            }
            let mut want = Vec::new();
            while let Some(te) = sequential.pop() {
                want.push(te);
            }
            assert_eq!(got, want, "{kind:?}");
            assert_eq!(batched.popped(), sequential.popped(), "{kind:?}");
            assert!(
                batched.pops() < sequential.pops(),
                "{kind:?}: batching must reduce scheduler interactions \
                 ({} vs {})",
                batched.pops(),
                sequential.pops()
            );
        });
    }

    /// An event cancelled by an *earlier event of the same batch* must not
    /// be delivered — liveness is checked at serve time, exactly like the
    /// sequential path.
    #[test]
    fn mid_batch_cancellation_skips_event() {
        on_all_backends(|q, kind| {
            let t = Time::from_us(7);
            q.schedule(t, 0u64);
            let victim = q.schedule_cancellable(t, 1u64);
            q.schedule(t, 2u64);
            assert_eq!(q.pop_batch(), Some(t), "{kind:?}");
            assert_eq!(q.batch_next(), Some(0), "{kind:?}");
            // "Handler" of event 0 cancels event 1 mid-batch.
            q.cancel(victim);
            assert_eq!(q.batch_next(), Some(2), "{kind:?}");
            assert_eq!(q.batch_next(), None, "{kind:?}");
            assert!(q.is_empty(), "{kind:?}");
            q.check_invariants().unwrap();
        });
    }

    /// Mixing consumption styles: a partially served batch is drained by
    /// plain pop(), and peek_time/len stay exact throughout.
    #[test]
    fn partial_batch_interops_with_pop_peek_len() {
        on_all_backends(|q, kind| {
            let t = Time::from_us(3);
            for i in 0..4u64 {
                q.schedule(t, i);
            }
            q.schedule(Time::from_us(5), 99);
            assert_eq!(q.pop_batch(), Some(t), "{kind:?}");
            assert_eq!(q.batch_next(), Some(0));
            assert_eq!(q.len(), 4, "{kind:?}: 3 batch leftovers + 1 pending");
            assert_eq!(q.peek_time(), Some(t), "{kind:?}");
            assert_eq!(q.pop(), Some((t, 1)), "{kind:?}");
            q.check_invariants().unwrap();
            // A fresh pop_batch serves the leftovers before re-entering the
            // backend.
            assert_eq!(q.pop_batch(), Some(t), "{kind:?}");
            assert_eq!(q.batch_next(), Some(2));
            assert_eq!(q.batch_next(), Some(3));
            assert_eq!(q.batch_next(), None);
            assert_eq!(q.pop_batch(), Some(Time::from_us(5)), "{kind:?}");
            assert_eq!(q.batch_next(), Some(99));
            assert!(q.pop_batch().is_none(), "{kind:?}");
        });
    }

    /// Scheduling from inside a batch (zero-delay self-post) lands in the
    /// backend, not the current batch: it is served by the *next*
    /// pop_batch at the same timestamp — identical to what sequential pop
    /// order dictates (the new event's seq is larger than every already
    /// scheduled one).
    #[test]
    fn schedule_during_batch_defers_to_next_batch() {
        on_all_backends(|q, kind| {
            let t = Time::from_us(2);
            q.schedule(t, 0u64);
            q.schedule(t, 1u64);
            assert_eq!(q.pop_batch(), Some(t));
            assert_eq!(q.batch_next(), Some(0));
            q.schedule_in(Time::ZERO, 7u64); // handler posts at same instant
            assert_eq!(q.batch_next(), Some(1), "{kind:?}");
            assert_eq!(q.batch_next(), None, "{kind:?}");
            assert_eq!(q.pop_batch(), Some(t), "{kind:?}");
            assert_eq!(q.batch_next(), Some(7), "{kind:?}");
            assert!(q.is_empty());
        });
    }

    /// Snapshot/restore round-trip: the restored queue pops the exact same
    /// (time, event) stream, honors pre-snapshot ScheduledIds, and keeps
    /// counters — on every backend.
    #[test]
    fn snapshot_restore_preserves_stream_and_ids() {
        on_all_backends(|q, kind| {
            let mut ids = Vec::new();
            for i in 0..500u64 {
                let at = Time::from_ns((i * 37) % 900);
                if i % 5 == 0 {
                    ids.push(q.schedule_cancellable(at, i));
                } else {
                    q.schedule(at, i);
                }
            }
            // Burn some history so now/popped are non-trivial.
            for _ in 0..100 {
                q.pop();
            }
            q.cancel(ids[20]);
            let snap = q.snapshot();
            let mut restored = EventQueue::restore(&snap);
            assert_eq!(restored.sched_kind(), kind);
            assert_eq!(restored.now(), q.now());
            assert_eq!(restored.popped(), q.popped());
            assert_eq!(restored.len(), q.len());
            restored.check_invariants().unwrap();
            // A pre-snapshot id cancels the same event in both queues.
            q.cancel(ids[40]);
            restored.cancel(ids[40]);
            // Diverge identically: same schedules after the fork.
            q.schedule(q.now() + Time::from_ns(5), 9999);
            restored.schedule(restored.now() + Time::from_ns(5), 9999);
            loop {
                let a = q.pop();
                let b = restored.pop();
                assert_eq!(a, b, "{kind:?}");
                if a.is_none() {
                    break;
                }
            }
        });
    }

    /// Snapshotting mid-batch captures the unserved batch entries: the
    /// restored queue re-delivers exactly the remainder.
    #[test]
    fn snapshot_mid_batch_keeps_unserved_entries() {
        on_all_backends(|q, kind| {
            let t = Time::from_us(1);
            for i in 0..5u64 {
                q.schedule(t, i);
            }
            assert_eq!(q.pop_batch(), Some(t));
            assert_eq!(q.batch_next(), Some(0));
            assert_eq!(q.batch_next(), Some(1));
            let snap = q.snapshot();
            let mut restored = EventQueue::restore(&snap);
            assert_eq!(restored.len(), 3, "{kind:?}");
            let rest: Vec<_> = std::iter::from_fn(|| restored.pop()).collect();
            assert_eq!(
                rest,
                vec![(t, 2), (t, 3), (t, 4)],
                "{kind:?}"
            );
        });
    }
}
