//! Pluggable event-scheduler backends.
//!
//! [`EventQueue`](crate::EventQueue) separates *policy* — generation-slot
//! cancellation, the monotonic clock, sequence-number tie-breaking — from
//! the ordered container that actually holds pending entries. The container
//! side is the [`Scheduler`] trait, with two deterministic backends:
//!
//! - [`BinaryHeapSched`]: `std::collections::BinaryHeap` with reversed
//!   ordering — the reference backend the differential tests compare
//!   against;
//! - [`CalendarQueue`]: a bucketed calendar queue (Brown 1988) with
//!   automatic resize. O(1) amortized when pending-event spacing is roughly
//!   uniform — the dense-timer regime of large incasts, where millions of
//!   RTO/pacing timers share a common horizon. The default backend, and
//!   the one the repository benchmark runs. The day width is 3× the
//!   min→max span of *all* stored entries over their count, so a
//!   far-future entry (a run's `End`, a long RTO) widens every day.
//!   Memory tracks the pending set: a pop that empties a bucket frees its
//!   allocation, so buckets do not keep the capacity of the densest day
//!   they ever held.
//!
//! # Contract
//!
//! Every backend must behave as a *stable min-queue over `(at, seq)`*:
//!
//! 1. `pop_min` returns the pending entry with the smallest `(at, seq)` key
//!    (keys are unique: the queue assigns strictly increasing `seq`);
//! 2. `peek_min` agrees with what `pop_min` would return next;
//! 3. pushes must accept any `entry.at`, including ones earlier than the
//!    last entry popped: the event queue enforces causality against its own
//!    clock, but it also retires *cancelled* heads early, and those can
//!    carry timestamps ahead of the clock.
//!
//! Rule 1 makes backend choice *unobservable*: any two backends driven with
//! the same pushes produce bit-identical pop sequences, which is what lets
//! `PRIOPLUS_SCHED` flip the backend without perturbing a single golden
//! trace. The differential property test (`simcore/tests/prop_sched.rs`)
//! checks both against a naive sorted-`Vec` model, and the golden-trace
//! suite pins end-to-end digests per backend.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::Time;

/// One pending event: absolute timestamp, tie-breaking sequence number, the
/// cancellation slot carried opaquely for [`crate::EventQueue`] (its
/// sentinel for "not cancellable" is `u32::MAX`), and the payload.
/// `Clone` (when `E: Clone`) exists for the queue's snapshot support — the
/// hot path only ever moves entries.
#[derive(Debug, Clone)]
pub struct Entry<E> {
    /// Absolute due time.
    pub at: Time,
    /// Strictly increasing insertion sequence; ties on `at` pop in `seq`
    /// order.
    pub seq: u64,
    /// Cancellation slot index (opaque to backends).
    pub slot: u32,
    /// The event payload.
    pub event: E,
}

impl<E> Entry<E> {
    /// The total-order key backends sort by.
    #[inline]
    pub fn key(&self) -> (Time, u64) {
        (self.at, self.seq)
    }
}

/// A deterministic stable min-queue over `(at, seq)` — the pluggable half
/// of [`crate::EventQueue`]. See the module docs for the exact contract.
pub trait Scheduler<E> {
    /// Insert an entry. `seq` values are unique and strictly increasing
    /// across pushes; `at` may be earlier than the last popped entry (see
    /// the module docs on cancelled-head retirement).
    fn push(&mut self, entry: Entry<E>);

    /// Remove and return the entry with the smallest `(at, seq)`.
    fn pop_min(&mut self) -> Option<Entry<E>>;

    /// The entry `pop_min` would return next, without removing it.
    fn peek_min(&self) -> Option<&Entry<E>>;

    /// Remove the minimum entry *and every further entry sharing its
    /// timestamp*, appending them to `out` in `(at, seq)` order. Appends
    /// nothing when empty. Equivalent to repeated `pop_min` while the head
    /// timestamp is unchanged — the default does exactly that — but
    /// backends can amortize the min search over the whole batch (the
    /// calendar queue locates the min bucket once and drains its tail).
    fn pop_batch(&mut self, out: &mut Vec<Entry<E>>) {
        let Some(first) = self.pop_min() else { return };
        let at = first.at;
        out.push(first);
        while self.peek_min().is_some_and(|e| e.at == at) {
            match self.pop_min() {
                Some(e) => out.push(e),
                None => break,
            }
        }
    }

    /// Number of stored entries (live and cancelled alike — cancellation is
    /// the queue's business, not the backend's).
    fn len(&self) -> usize;

    /// True when no entries are stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Visit every stored entry in unspecified order (audit support).
    fn for_each(&self, f: &mut dyn FnMut(&Entry<E>));

    /// Verify backend-internal structure (heap shape, bucket sort order,
    /// counts). Used by the audit layer on top of the queue's own checks.
    fn check_backend(&self) -> Result<(), String> {
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Backend selection
// ---------------------------------------------------------------------------

/// Which scheduler backend an [`crate::EventQueue`] uses.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum SchedKind {
    /// `std` binary heap (the reference backend).
    Binary,
    /// Bucketed calendar queue with automatic resize (the default).
    #[default]
    Calendar,
}

impl SchedKind {
    /// All backends, in a fixed order (test matrices iterate this).
    pub const ALL: [SchedKind; 2] = [SchedKind::Binary, SchedKind::Calendar];

    /// Canonical lowercase name (also what `PRIOPLUS_SCHED` accepts).
    pub fn name(self) -> &'static str {
        match self {
            SchedKind::Binary => "binary",
            SchedKind::Calendar => "calendar",
        }
    }

    /// Parse a canonical backend name, ignoring case and surrounding
    /// whitespace; `None` for anything else.
    pub fn parse(s: &str) -> Option<SchedKind> {
        let s = s.trim();
        SchedKind::ALL
            .into_iter()
            .find(|k| k.name().eq_ignore_ascii_case(s))
    }

    /// Resolve a `PRIOPLUS_SCHED` environment value (`None` = unset) to a
    /// backend: `Ok(Calendar)` when unset, `Ok(kind)` for a known name, and
    /// `Err(value)` for anything else. Pure so the env-var contract is unit
    /// testable without mutating process state ([`SchedKind::from_env`] and
    /// `scripts/ci.sh` both follow this table).
    pub fn from_env_value(v: Option<&str>) -> Result<SchedKind, String> {
        match v {
            None => Ok(SchedKind::default()),
            Some(s) => SchedKind::parse(s).ok_or_else(|| s.trim().to_string()),
        }
    }

    /// Backend selected by the `PRIOPLUS_SCHED` environment variable, or
    /// [`SchedKind::Calendar`] when unset. An unparsable value warns once on
    /// stderr and falls back to the default rather than aborting a run
    /// (`scripts/ci.sh` upgrades the same condition to a hard error before
    /// any test leg runs).
    pub fn from_env() -> SchedKind {
        let v = std::env::var("PRIOPLUS_SCHED").ok();
        Self::from_env_value(v.as_deref()).unwrap_or_else(|bad| {
            static WARNED: std::sync::Once = std::sync::Once::new();
            WARNED.call_once(|| {
                eprintln!(
                    "warning: PRIOPLUS_SCHED={bad:?} not one of \
                     binary|calendar; using calendar"
                );
            });
            SchedKind::default()
        })
    }
}

/// Enum-dispatched backend: one concrete type the event queue can hold while
/// the kind is chosen at runtime, with static dispatch inside each arm.
#[derive(Debug)]
pub enum AnySched<E> {
    /// Binary-heap backend.
    Binary(BinaryHeapSched<E>),
    /// Calendar-queue backend.
    Calendar(CalendarQueue<E>),
}

impl<E> AnySched<E> {
    /// Construct an empty backend of the given kind.
    pub fn new(kind: SchedKind) -> Self {
        match kind {
            SchedKind::Binary => AnySched::Binary(BinaryHeapSched::new()),
            SchedKind::Calendar => AnySched::Calendar(CalendarQueue::new()),
        }
    }

    /// Which backend this is.
    pub fn kind(&self) -> SchedKind {
        match self {
            AnySched::Binary(_) => SchedKind::Binary,
            AnySched::Calendar(_) => SchedKind::Calendar,
        }
    }
}

macro_rules! dispatch {
    ($self:ident, $b:ident => $body:expr) => {
        match $self {
            AnySched::Binary($b) => $body,
            AnySched::Calendar($b) => $body,
        }
    };
}

impl<E> Scheduler<E> for AnySched<E> {
    #[inline]
    fn push(&mut self, entry: Entry<E>) {
        dispatch!(self, b => b.push(entry))
    }
    #[inline]
    fn pop_min(&mut self) -> Option<Entry<E>> {
        dispatch!(self, b => b.pop_min())
    }
    #[inline]
    fn peek_min(&self) -> Option<&Entry<E>> {
        dispatch!(self, b => b.peek_min())
    }
    #[inline]
    fn pop_batch(&mut self, out: &mut Vec<Entry<E>>) {
        dispatch!(self, b => b.pop_batch(out))
    }
    #[inline]
    fn len(&self) -> usize {
        dispatch!(self, b => b.len())
    }
    fn for_each(&self, f: &mut dyn FnMut(&Entry<E>)) {
        dispatch!(self, b => b.for_each(f))
    }
    fn check_backend(&self) -> Result<(), String> {
        dispatch!(self, b => b.check_backend())
    }
}

// ---------------------------------------------------------------------------
// Binary heap backend
// ---------------------------------------------------------------------------

/// Reversed-order wrapper so the std max-heap pops the smallest key first.
#[derive(Debug)]
struct Rev<E>(Entry<E>);

impl<E> PartialEq for Rev<E> {
    fn eq(&self, other: &Self) -> bool {
        self.0.key() == other.0.key()
    }
}
impl<E> Eq for Rev<E> {}
impl<E> PartialOrd for Rev<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Rev<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        other.0.key().cmp(&self.0.key())
    }
}

/// The reference backend: `std::collections::BinaryHeap` in min-order.
#[derive(Debug)]
pub struct BinaryHeapSched<E> {
    heap: BinaryHeap<Rev<E>>,
}

impl<E> BinaryHeapSched<E> {
    /// Empty backend.
    pub fn new() -> Self {
        BinaryHeapSched {
            heap: BinaryHeap::new(),
        }
    }
}

impl<E> Default for BinaryHeapSched<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Scheduler<E> for BinaryHeapSched<E> {
    #[inline]
    fn push(&mut self, entry: Entry<E>) {
        self.heap.push(Rev(entry));
    }
    #[inline]
    fn pop_min(&mut self) -> Option<Entry<E>> {
        self.heap.pop().map(|r| r.0)
    }
    #[inline]
    fn peek_min(&self) -> Option<&Entry<E>> {
        self.heap.peek().map(|r| &r.0)
    }
    #[inline]
    fn len(&self) -> usize {
        self.heap.len()
    }
    fn for_each(&self, f: &mut dyn FnMut(&Entry<E>)) {
        for r in self.heap.iter() {
            f(&r.0);
        }
    }
}

// ---------------------------------------------------------------------------
// Calendar queue backend
// ---------------------------------------------------------------------------

/// Bucketed calendar queue (Brown 1988). Time is divided into fixed-width
/// "days"; day `d` hashes to bucket `d % nbuckets`, so each bucket holds
/// every `nbuckets`-th day ("one day per year"). A pop scans at most one
/// year of buckets starting from the current day and falls back to a direct
/// min search when the year is empty — O(1) amortized when event spacing is
/// near-uniform relative to the bucket width.
///
/// Buckets are kept sorted descending by `(at, seq)` (so the per-bucket
/// minimum is `last()`, poppable in O(1)), which preserves the stable-order
/// contract exactly: same-timestamp events always land in the same bucket
/// and pop in `seq` order.
///
/// The queue resizes when the entry count drifts outside `[nbuckets/4,
/// 2*nbuckets]`, re-deriving the day width as 3× (max − min) / count over
/// *every* stored entry. Resize rebuilds in O(n).
///
/// Memory tracks the pending set, not simulated time: a pop that empties a
/// bucket holding more than `RECLAIM_CAP` (16) entries of capacity frees it.
/// Without that, each bucket would keep the capacity of the densest day it
/// ever held, and a long run would sweep every bucket dense once.
#[derive(Debug)]
pub struct CalendarQueue<E> {
    /// Each bucket sorted descending by `(at, seq)`; `last()` is its min.
    buckets: Vec<Vec<Entry<E>>>,
    /// Power of two.
    nbuckets: usize,
    /// Bucket ("day") width in picoseconds, >= 1.
    width: u64,
    /// Timestamp (ps) of the last popped entry: the lower bound for every
    /// stored entry, and where the pop scan starts.
    last_ps: u64,
    count: usize,
}

/// Smallest bucket count; also the initial size.
const MIN_BUCKETS: usize = 4;
/// Initial day width: 1 µs in ps (immediately re-derived on first resize).
const INITIAL_WIDTH_PS: u64 = 1_000_000;
/// Most capacity (in entries) an empty bucket may keep; a pop that empties
/// a larger bucket gives its allocation back.
const RECLAIM_CAP: usize = 16;

impl<E> CalendarQueue<E> {
    /// Empty backend.
    pub fn new() -> Self {
        CalendarQueue {
            buckets: (0..MIN_BUCKETS).map(|_| Vec::new()).collect(),
            nbuckets: MIN_BUCKETS,
            width: INITIAL_WIDTH_PS,
            last_ps: 0,
            count: 0,
        }
    }

    #[inline]
    fn bucket_of(&self, at_ps: u64) -> usize {
        ((at_ps / self.width) as usize) & (self.nbuckets - 1)
    }

    fn insert_sorted(bucket: &mut Vec<Entry<E>>, entry: Entry<E>) {
        // Descending by key: binary-search under the reversed comparator.
        // Keys are unique, so the search always lands on Err(pos).
        let pos = bucket
            .binary_search_by(|p| entry.key().cmp(&p.key()))
            .unwrap_err();
        bucket.insert(pos, entry);
    }

    /// Bucket index holding the entry `pop_min` must return, or `None` when
    /// empty. Scans one "year" starting at the current day, then falls back
    /// to a direct min search across all bucket heads.
    fn locate_min(&self) -> Option<usize> {
        if self.count == 0 {
            return None;
        }
        let day = self.last_ps / self.width;
        let mask = self.nbuckets as u64 - 1;
        for s in 0..self.nbuckets as u64 {
            let i = ((day + s) & mask) as usize;
            if let Some(e) = self.buckets[i].last() {
                // Is this bucket's min due within the bucket's current day?
                let day_end = (day + s + 1).saturating_mul(self.width);
                if e.at.as_ps() < day_end {
                    return Some(i);
                }
            }
        }
        // Sparse regime: nothing due this year. Direct search.
        let mut best: Option<(Time, u64, usize)> = None;
        for (i, b) in self.buckets.iter().enumerate() {
            if let Some(e) = b.last() {
                let k = (e.at, e.seq, i);
                if best.map_or(true, |(a, s, _)| (e.at, e.seq) < (a, s)) {
                    best = Some(k);
                }
            }
        }
        best.map(|(_, _, i)| i)
    }

    /// Free bucket `i`'s allocation if it is empty and over `RECLAIM_CAP`.
    #[inline]
    fn reclaim(&mut self, i: usize) {
        let b = &mut self.buckets[i];
        if b.is_empty() && b.capacity() > RECLAIM_CAP {
            *b = Vec::new();
        }
    }

    /// Rebuild with a bucket count proportional to the entry count and a
    /// day width of 3× the min→max span over the entry count.
    fn resize(&mut self) {
        let target = self
            .count
            .max(1)
            .next_power_of_two()
            .clamp(MIN_BUCKETS, 1 << 22);
        let mut all: Vec<Entry<E>> = Vec::with_capacity(self.count);
        for b in &mut self.buckets {
            all.append(b);
        }
        let (mut lo, mut hi) = (u64::MAX, 0u64);
        for e in &all {
            let ps = e.at.as_ps();
            lo = lo.min(ps);
            hi = hi.max(ps);
        }
        if all.len() >= 2 && hi > lo {
            self.width = (3 * ((hi - lo) / all.len() as u64)).max(1);
        }
        self.nbuckets = target;
        self.buckets = (0..target).map(|_| Vec::new()).collect();
        for e in all {
            let i = self.bucket_of(e.at.as_ps());
            Self::insert_sorted(&mut self.buckets[i], e);
        }
    }
}

impl<E> Default for CalendarQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Scheduler<E> for CalendarQueue<E> {
    fn push(&mut self, entry: Entry<E>) {
        // The queue may retire a *cancelled* head whose timestamp is ahead
        // of the simulation clock, then push an earlier (still causal)
        // event; rewind the scan start so `last_ps` stays a lower bound for
        // every pending entry.
        self.last_ps = self.last_ps.min(entry.at.as_ps());
        let i = self.bucket_of(entry.at.as_ps());
        Self::insert_sorted(&mut self.buckets[i], entry);
        self.count += 1;
        if self.count > 2 * self.nbuckets {
            self.resize();
        }
    }

    fn pop_min(&mut self) -> Option<Entry<E>> {
        let i = self.locate_min()?;
        // simlint::allow(hot-path-unwrap, locate_min only returns non-empty buckets)
        let e = self.buckets[i].pop().expect("locate_min found this bucket");
        self.reclaim(i);
        self.count -= 1;
        self.last_ps = e.at.as_ps();
        if self.nbuckets > MIN_BUCKETS && 4 * self.count < self.nbuckets {
            self.resize();
        }
        Some(e)
    }

    fn peek_min(&self) -> Option<&Entry<E>> {
        self.locate_min()
            // simlint::allow(hot-path-unwrap, locate_min only returns non-empty buckets)
            .map(|i| self.buckets[i].last().expect("locate_min found this bucket"))
    }

    /// One `locate_min` amortized over the whole batch: same-timestamp
    /// entries always hash to the same bucket and sit contiguously at its
    /// tail (descending `(at, seq)` sort), so the batch is a straight run
    /// of tail pops with no re-scan per entry.
    fn pop_batch(&mut self, out: &mut Vec<Entry<E>>) {
        let Some(i) = self.locate_min() else { return };
        let bucket = &mut self.buckets[i];
        // simlint::allow(hot-path-unwrap, locate_min only returns non-empty buckets)
        let first = bucket.pop().expect("locate_min found this bucket");
        let at = first.at;
        out.push(first);
        let mut popped = 1usize;
        while bucket.last().is_some_and(|e| e.at == at) {
            match bucket.pop() {
                Some(e) => {
                    out.push(e);
                    popped += 1;
                }
                None => break,
            }
        }
        self.reclaim(i);
        self.count -= popped;
        self.last_ps = at.as_ps();
        if self.nbuckets > MIN_BUCKETS && 4 * self.count < self.nbuckets {
            self.resize();
        }
    }

    #[inline]
    fn len(&self) -> usize {
        self.count
    }

    fn for_each(&self, f: &mut dyn FnMut(&Entry<E>)) {
        for b in &self.buckets {
            for e in b {
                f(e);
            }
        }
    }

    fn check_backend(&self) -> Result<(), String> {
        if !self.nbuckets.is_power_of_two() || self.buckets.len() != self.nbuckets {
            return Err(format!(
                "calendar shape: {} buckets, nbuckets {}",
                self.buckets.len(),
                self.nbuckets
            ));
        }
        if self.width == 0 {
            return Err("calendar width is zero".into());
        }
        let mut n = 0usize;
        for (i, b) in self.buckets.iter().enumerate() {
            if b.is_empty() && b.capacity() > RECLAIM_CAP {
                return Err(format!(
                    "empty bucket {i} retains capacity {} > {RECLAIM_CAP}",
                    b.capacity()
                ));
            }
            n += b.len();
            for e in b {
                if self.bucket_of(e.at.as_ps()) != i {
                    return Err(format!(
                        "entry at {} (seq {}) misfiled in bucket {i}",
                        e.at, e.seq
                    ));
                }
                if e.at.as_ps() < self.last_ps {
                    return Err(format!(
                        "entry at {} before last popped {} ps",
                        e.at, self.last_ps
                    ));
                }
            }
            for w in b.windows(2) {
                if w[0].key() <= w[1].key() {
                    return Err(format!("bucket {i} not sorted descending"));
                }
            }
        }
        if n != self.count {
            return Err(format!("calendar count {} but {n} entries", self.count));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(at_ps: u64, seq: u64) -> Entry<u64> {
        Entry {
            at: Time::from_ps(at_ps),
            seq,
            slot: u32::MAX,
            event: seq,
        }
    }

    /// Every backend stores and moves whole `Entry`s during sift/percolate,
    /// so entry size is a direct hot-path cost. The header (at, seq, slot)
    /// is 24 bytes; an 8-byte payload must pack into 32 total. Downstream,
    /// `netsim` pins `Entry<Event>` ≤ 40 bytes for the same reason.
    #[test]
    fn entry_header_stays_small() {
        assert_eq!(std::mem::size_of::<Entry<u64>>(), 32);
    }

    /// Drain any backend and assert the pop order is sorted by (at, seq).
    fn drains_sorted(s: &mut dyn Scheduler<u64>) {
        let mut prev: Option<(Time, u64)> = None;
        while let Some(e) = s.pop_min() {
            if let Some(p) = prev {
                assert!(e.key() > p, "pop order regressed: {:?} after {:?}", e.key(), p);
            }
            prev = Some(e.key());
        }
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn env_value_parse_contract() {
        // Unset: the default backend, silently.
        assert_eq!(SchedKind::from_env_value(None), Ok(SchedKind::Calendar));
        // Every canonical name resolves, case-insensitively and
        // whitespace-tolerantly.
        for kind in SchedKind::ALL {
            assert_eq!(SchedKind::from_env_value(Some(kind.name())), Ok(kind));
            let shouty = kind.name().to_ascii_uppercase();
            assert_eq!(SchedKind::from_env_value(Some(&shouty)), Ok(kind));
        }
        assert_eq!(
            SchedKind::from_env_value(Some("  Calendar ")),
            Ok(SchedKind::Calendar)
        );
        // Only canonical names resolve; no aliases.
        for gone in ["heap", "binaryheap", "calq", "calqueue", "quad", "4ary"] {
            assert_eq!(SchedKind::from_env_value(Some(gone)), Err(gone.to_string()));
        }
        // Unknown values are an error carrying the offending (trimmed)
        // value — callers decide whether to warn (library) or abort (CI).
        assert_eq!(
            SchedKind::from_env_value(Some("fibheap")),
            Err("fibheap".to_string())
        );
        assert_eq!(
            SchedKind::from_env_value(Some(" bogus ")),
            Err("bogus".to_string())
        );
        assert_eq!(SchedKind::from_env_value(Some("")), Err(String::new()));
    }

    #[test]
    fn all_backends_sort_scattered_times() {
        for kind in SchedKind::ALL {
            let mut s = AnySched::new(kind);
            let mut x = 0x2545F4914F6CDD1Du64;
            for seq in 0..5000u64 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                s.push(entry(x % 1_000_000_000, seq));
            }
            s.check_backend().unwrap();
            drains_sorted(&mut s);
        }
    }

    #[test]
    fn all_backends_break_ties_by_seq() {
        for kind in SchedKind::ALL {
            let mut s = AnySched::new(kind);
            for seq in 0..100u64 {
                s.push(entry(42_000, seq));
            }
            for want in 0..100u64 {
                assert_eq!(s.peek_min().unwrap().seq, want, "{kind:?}");
                assert_eq!(s.pop_min().unwrap().seq, want, "{kind:?}");
            }
        }
    }

    #[test]
    fn calendar_grows_and_shrinks() {
        let mut s = CalendarQueue::new();
        for seq in 0..1000u64 {
            s.push(entry(seq * 300, seq));
        }
        assert!(s.nbuckets >= 512, "grew to {}", s.nbuckets);
        s.check_backend().unwrap();
        for _ in 0..995 {
            s.pop_min().unwrap();
        }
        assert!(s.nbuckets <= 16, "shrank to {}", s.nbuckets);
        s.check_backend().unwrap();
        drains_sorted(&mut s);
    }

    /// The k=8 fabric's queue shape at unit-test scale: a dense cluster of
    /// near-term packet events advancing through time, one far-future
    /// `End`, and an RTO timer re-armed on every 16th packet event (the
    /// superseded timer stays queued, as a cancelled tombstone does, until
    /// its day comes). The `End` stretches the day to ≈0.9 µs, so the 2 µs
    /// cluster spans a few buckets and the run sweeps ≈500 dense days.
    /// The buckets' retained capacity must track the pending set: at most
    /// 4 slots per peak pending entry (2× for `Vec` doubling, 2× for buckets
    /// that shrank without emptying) plus `RECLAIM_CAP` per bucket, the most
    /// an empty bucket may keep. Without reclamation it tracks the number of
    /// entries ever pushed instead.
    #[test]
    fn calendar_capacity_tracks_pending_set() {
        const PACKET: u64 = 0;
        const RTO: u64 = 1;
        const END: u64 = 2;
        const CLUSTER: u64 = 2048;
        const SPREAD_PS: u64 = 2_000_000;
        const RTO_PS: u64 = 10 * SPREAD_PS;
        const END_PS: u64 = 600_000_000;
        const PUSHES: u64 = 1_000_000;
        let mut s = CalendarQueue::new();
        let mut seq = 0u64;
        let mut push = |s: &mut CalendarQueue<u64>, at_ps: u64, kind: u64| {
            s.push(Entry {
                event: kind,
                ..entry(at_ps, seq)
            });
            seq += 1;
        };
        let mut x = 0x853C49E6748FEA9Bu64;
        let mut rand = move |n: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % n
        };
        push(&mut s, END_PS, END);
        for _ in 0..CLUSTER {
            push(&mut s, rand(SPREAD_PS), PACKET);
        }
        let (mut pushes, mut now, mut peak) = (CLUSTER + 1, 0u64, 0usize);
        for pops in 1u64.. {
            if pushes >= PUSHES {
                break;
            }
            let e = s.pop_min().unwrap();
            assert!(e.at.as_ps() >= now && e.event != END);
            now = e.at.as_ps();
            if e.event == PACKET {
                push(&mut s, now + rand(SPREAD_PS), PACKET);
                pushes += 1;
                if rand(16) == 0 {
                    push(&mut s, now + RTO_PS, RTO);
                    pushes += 1;
                }
            }
            peak = peak.max(s.len());
            if pops % 1024 == 0 {
                let retained: usize = s.buckets.iter().map(Vec::capacity).sum();
                let bound = 4 * peak + RECLAIM_CAP * s.nbuckets;
                assert!(
                    retained <= bound,
                    "retained {retained} > bound {bound} after {pushes} pushes \
                     (peak pending {peak}, {} buckets)",
                    s.nbuckets
                );
            }
            if pops % 65_536 == 0 {
                s.check_backend().unwrap();
            }
        }
        assert!(now < END_PS, "the cluster must never reach the End");
    }

    #[test]
    fn calendar_sparse_far_future_event_found_by_direct_search() {
        let mut s = CalendarQueue::new();
        // One event many "years" past the current day: the one-year scan
        // finds nothing and the direct search must locate it.
        s.push(entry(INITIAL_WIDTH_PS * MIN_BUCKETS as u64 * 1000 + 17, 0));
        assert_eq!(s.peek_min().unwrap().seq, 0);
        assert_eq!(s.pop_min().unwrap().seq, 0);
        assert!(s.pop_min().is_none());
    }

    #[test]
    fn batch_pop_matches_sequential_on_all_backends() {
        // Differential: pop_batch must yield exactly the entries repeated
        // pop_min would, grouped by timestamp, on every backend — including
        // across calendar resizes.
        for kind in SchedKind::ALL {
            let mut batched = AnySched::new(kind);
            let mut sequential = AnySched::new(kind);
            let mut x = 0xA3C59AC2F1039EB7u64;
            for seq in 0..3000u64 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                // Coarse timestamps force plenty of same-time collisions.
                let at = (x % 200) * 10_000;
                batched.push(entry(at, seq));
                sequential.push(entry(at, seq));
            }
            let mut out = Vec::new();
            while !batched.is_empty() {
                out.clear();
                batched.pop_batch(&mut out);
                assert!(!out.is_empty(), "{kind:?}: non-empty queue, empty batch");
                let at = out[0].at;
                for e in &out {
                    let want = sequential.pop_min().unwrap();
                    assert_eq!(e.key(), want.key(), "{kind:?}");
                    assert_eq!(e.at, at, "{kind:?}: mixed timestamps in batch");
                }
                // The batch must be exhaustive: the next head is strictly
                // later.
                if let Some(next) = batched.peek_min() {
                    assert!(next.at > at, "{kind:?}: batch left same-time entry");
                }
            }
            assert!(sequential.pop_min().is_none(), "{kind:?}");
        }
    }

    #[test]
    fn batch_pop_on_empty_appends_nothing() {
        for kind in SchedKind::ALL {
            let mut s: AnySched<u64> = AnySched::new(kind);
            let mut out = Vec::new();
            s.pop_batch(&mut out);
            assert!(out.is_empty(), "{kind:?}");
        }
    }

    #[test]
    fn calendar_batch_pop_keeps_structure_valid() {
        let mut s = CalendarQueue::new();
        let mut seq = 0u64;
        for round in 0..50u64 {
            for k in 0..40 {
                // Heavy ties: ten distinct timestamps per round.
                s.push(entry(round * INITIAL_WIDTH_PS + (k % 10) * 1000, seq));
                seq += 1;
            }
            let mut out = Vec::new();
            s.pop_batch(&mut out);
            assert!(!out.is_empty());
            s.check_backend().unwrap();
        }
        // Drain entirely by batches; shrink path must stay consistent.
        let mut prev: Option<(Time, u64)> = None;
        let mut out = Vec::new();
        while !s.is_empty() {
            out.clear();
            s.pop_batch(&mut out);
            for e in &out {
                if let Some(p) = prev {
                    assert!(e.key() > p);
                }
                prev = Some(e.key());
            }
            s.check_backend().unwrap();
        }
    }

    #[test]
    fn calendar_interleaves_push_pop_across_day_boundaries() {
        let mut s = CalendarQueue::new();
        let mut seq = 0u64;
        let mut now = 0u64;
        let mut prev: Option<(Time, u64)> = None;
        let mut x = 0x9E3779B97F4A7C15u64;
        for _ in 0..200 {
            // A burst spanning several days, then drain half.
            for _ in 0..20 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                s.push(entry(now + x % (INITIAL_WIDTH_PS * 3), seq));
                seq += 1;
            }
            for _ in 0..10 {
                let e = s.pop_min().unwrap();
                if let Some(p) = prev {
                    assert!(e.key() > p);
                }
                prev = Some(e.key());
                now = e.at.as_ps();
            }
            s.check_backend().unwrap();
        }
        drains_sorted(&mut s);
    }
}
