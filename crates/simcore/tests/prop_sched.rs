//! Differential property test for the scheduler backends.
//!
//! Random schedule / schedule_cancellable / cancel / pop / peek streams are
//! driven simultaneously through an [`EventQueue`] on each backend (binary
//! heap, calendar queue) *and* through a naive sorted-`Vec` shadow model.
//! At every step all three must agree on `len()` and
//! `peek_time()`, and every pop must return the identical
//! `(time, seq, event)` triple — the executable form of the backend
//! contract: scheduler choice is unobservable.

use proptest::prelude::*;
use simcore::{EventQueue, SchedKind, Time};

/// The obviously-correct reference: every scheduled event with an explicit
/// lifecycle state, popped by scanning for the live minimum.
struct Shadow {
    events: Vec<ShadowEv>,
    now: u64,
}

struct ShadowEv {
    at: u64,
    seq: u64,
    val: u64,
    state: State,
}

#[derive(PartialEq)]
enum State {
    Live,
    Cancelled,
    Popped,
}

impl Shadow {
    fn new() -> Self {
        Shadow {
            events: Vec::new(),
            now: 0,
        }
    }

    /// Schedule; returns the shadow id (index) for cancellation.
    fn schedule(&mut self, at: u64, val: u64) -> usize {
        assert!(at >= self.now);
        let seq = self.events.len() as u64;
        self.events.push(ShadowEv {
            at,
            seq,
            val,
            state: State::Live,
        });
        self.events.len() - 1
    }

    /// Cancel iff still live — popped/cancelled ids are stale no-ops,
    /// mirroring the generation-check semantics.
    fn cancel(&mut self, id: usize) {
        if self.events[id].state == State::Live {
            self.events[id].state = State::Cancelled;
        }
    }

    fn min_live(&self) -> Option<usize> {
        self.events
            .iter()
            .enumerate()
            .filter(|(_, e)| e.state == State::Live)
            .min_by_key(|(_, e)| (e.at, e.seq))
            .map(|(i, _)| i)
    }

    fn pop(&mut self) -> Option<(u64, u64)> {
        let i = self.min_live()?;
        self.events[i].state = State::Popped;
        self.now = self.events[i].at;
        Some((self.events[i].at, self.events[i].val))
    }

    fn peek(&self) -> Option<u64> {
        self.min_live().map(|i| self.events[i].at)
    }

    fn len(&self) -> usize {
        self.events
            .iter()
            .filter(|e| e.state == State::Live)
            .count()
    }
}

/// Decode a delay from an op word: a mix of zero delays (forcing same-time
/// seq ties), sub-µs jitter (dense calendar buckets), ~100 µs timer-like
/// horizons, and rare multi-ms jumps (sparse year-skips + resizes).
fn delay_ps(w: u64) -> u64 {
    match (w >> 3) & 3 {
        0 => 0,
        1 => (w >> 5) % 1_000_000,         // < 1 µs
        2 => (w >> 5) % 200_000_000,       // < 200 µs
        _ => (w >> 5) % 5_000_000_000,     // < 5 ms
    }
}

/// Drive one op stream through every backend plus the shadow, checking
/// agreement after each op.
fn run_differential(ops: &[u64]) -> Result<(), TestCaseError> {
    let mut queues: Vec<EventQueue<u64>> = SchedKind::ALL
        .iter()
        .map(|&k| EventQueue::with_sched(k))
        .collect();
    let mut shadow = Shadow::new();
    // Parallel id lists: entry j of each queue's list and of `shadow_ids`
    // name the same logical scheduled event.
    let mut ids: Vec<Vec<simcore::ScheduledId>> = vec![Vec::new(); queues.len()];
    let mut shadow_ids: Vec<usize> = Vec::new();

    for (step, &w) in ops.iter().enumerate() {
        let val = step as u64;
        match w & 7 {
            // Plain schedule (weighted heaviest, like real traffic).
            0..=2 => {
                let at = shadow.now + delay_ps(w);
                for q in queues.iter_mut() {
                    q.schedule(Time::from_ps(at), val);
                }
                shadow.schedule(at, val);
            }
            // Cancellable schedule.
            3 => {
                let at = shadow.now + delay_ps(w);
                for (q, idlist) in queues.iter_mut().zip(ids.iter_mut()) {
                    idlist.push(q.schedule_cancellable(Time::from_ps(at), val));
                }
                shadow_ids.push(shadow.schedule(at, val));
            }
            // Pop.
            4 | 5 => {
                let want = shadow.pop();
                for (q, k) in queues.iter_mut().zip(SchedKind::ALL) {
                    let got = q.pop().map(|(t, v)| (t.as_ps(), v));
                    prop_assert_eq!(
                        got, want,
                        "step {}: pop mismatch on {:?}", step, k
                    );
                }
            }
            // Cancel a previously issued id (possibly stale).
            6 => {
                if !shadow_ids.is_empty() {
                    let j = ((w >> 3) as usize) % shadow_ids.len();
                    for (q, idlist) in queues.iter_mut().zip(ids.iter()) {
                        q.cancel(idlist[j]);
                    }
                    shadow.cancel(shadow_ids[j]);
                }
            }
            // Peek.
            _ => {
                let want = shadow.peek();
                for (q, k) in queues.iter_mut().zip(SchedKind::ALL) {
                    prop_assert_eq!(
                        q.peek_time().map(|t| t.as_ps()),
                        want,
                        "step {}: peek mismatch on {:?}", step, k
                    );
                }
            }
        }
        let want_len = shadow.len();
        for (q, k) in queues.iter().zip(SchedKind::ALL) {
            prop_assert_eq!(q.len(), want_len, "step {}: len mismatch on {:?}", step, k);
            prop_assert_eq!(q.is_empty(), want_len == 0, "step {step}: {k:?}");
        }
        if step % 16 == 0 {
            for (q, k) in queues.iter().zip(SchedKind::ALL) {
                if let Err(e) = q.check_invariants() {
                    return Err(TestCaseError::fail(format!(
                        "step {step}: invariants broken on {k:?}: {e}"
                    )));
                }
            }
        }
    }

    // Drain: the full remaining pop sequences must be identical too.
    loop {
        let want = shadow.pop();
        for (q, k) in queues.iter_mut().zip(SchedKind::ALL) {
            let got = q.pop().map(|(t, v)| (t.as_ps(), v));
            prop_assert_eq!(got, want, "drain: pop mismatch on {:?}", k);
        }
        if want.is_none() {
            break;
        }
    }
    for q in &queues {
        prop_assert_eq!(q.len(), 0);
        if let Err(e) = q.check_invariants() {
            return Err(TestCaseError::fail(format!("post-drain: {e}")));
        }
    }
    Ok(())
}

/// An op word with an explicit kind (low 3 bits) and delay class (see
/// [`delay_ps`]).
fn op(kind: u64, class: u64, amount: u64) -> u64 {
    kind | (class << 3) | (amount << 5)
}

/// Drain-then-refill rounds for the calendar queue's capacity reclaim, one
/// per random word. Each round schedules two long-lived keepers (up to
/// 5 ms out), then a dense burst of zero and sub-µs delays large enough to
/// grow a bucket past its reclaim threshold, then pops that drain the
/// burst: the bucket empties and gives its capacity back while the keepers
/// hold the queue size, and so the bucket count, up. Every other round
/// pops on into the keepers, so the clock jumps across days and calendar
/// years before the next burst refills the emptied buckets.
fn drain_refill_ops(rounds: &[u64]) -> Vec<u64> {
    let mut ops = Vec::new();
    for (r, &x) in rounds.iter().enumerate() {
        let burst = 17 + x % 64;
        ops.push(op(3, 2 + (x & 1), x >> 8));
        ops.push(op(0, 3, x >> 16));
        for k in 0..burst {
            let kind = if k % 5 == 0 { 3 } else { 0 };
            ops.push(op(kind, (x >> (k % 64)) & 1, x.rotate_left(k as u32)));
        }
        if r % 3 == 0 {
            ops.push(6 | (x << 3));
        }
        let pops = burst + 2 * (r as u64 % 2);
        ops.extend(std::iter::repeat(4).take(pops as usize));
    }
    ops
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96 })]

    #[test]
    fn backends_agree_with_shadow_model(ops in proptest::collection::vec(0u64..u64::MAX, 0..400)) {
        run_differential(&ops)?;
    }

    #[test]
    fn backends_agree_across_drain_and_refill(
        rounds in proptest::collection::vec(0u64..u64::MAX, 1..16)
    ) {
        run_differential(&drain_refill_ops(&rounds))?;
    }
}

/// A directed stream that hammers the calendar queue's weak spots: long
/// same-timestamp tie runs, then a far-future jump (year skip + direct
/// search), then dense sub-width jitter forcing repeated resizes.
#[test]
fn directed_tie_and_jump_stream() {
    let mut ops = Vec::new();
    for i in 0..64u64 {
        ops.push(i << 5); // op 0 in the low bits: 64-way zero-delay tie
    }
    ops.extend(std::iter::repeat(4).take(32)); // pops through the tie run
    for i in 0..64u64 {
        ops.push((i << 5) | (3 << 3) | 3); // cancellable, multi-ms spread
    }
    for i in 0..48u64 {
        ops.push((i << 3) | 6); // scattered cancels
        ops.push(4);
        ops.push(7); // peeks interleaved
    }
    run_differential(&ops).unwrap();
}
