//! Per-layer tracing, measured from outside the simulator crates.
//!
//! Every timing wraps a call into a public function or trait of a layer:
//!
//! - per-call boundaries ([`Call`]) — transport methods through the
//!   forwarding [`Traced`] wrapper, arrival injection through
//!   [`TimedArrivals`], `Sim::add_flow` through [`add_flow`] — keep a count,
//!   total nanoseconds and a log2-nanosecond histogram, so memory stays
//!   fixed however many calls a run makes;
//! - coarse boundaries (setup, topology, `Sim::new`, run, prefix, snapshot,
//!   restore, fork) are [`Span`]s with parent ids, a few dozen per run.
//!
//! The recorder is per thread and off by default: an untraced run installs
//! no wrapper and [`span`] reduces to a flag test. Everything stays in
//! memory until [`finish`] hands it back.

use std::cell::RefCell;
use std::time::Instant;

use netsim::{
    AckEvent, ArrivalSource, FlowId, FlowParams, FlowSpec, Sim, Transport, TransportCtx, TrySend,
};
use simcore::Time;

/// A per-call boundary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Call {
    /// `Transport::on_ack`.
    OnAck,
    /// `Transport::try_send` and `Transport::on_sent`.
    Send,
    /// `Transport::on_timer`.
    Timer,
    /// Every other `Transport` method (`on_start`, `is_finished`,
    /// `cwnd_bytes`, `retransmits`, `check_invariants`, `clone_box`).
    OtherTransport,
    /// `ArrivalSource::inject`, minus the `add_flow` calls nested in it.
    Inject,
    /// `Sim::add_flow`, including the transport factory it calls.
    AddFlow,
    /// Trace generation in `workloads` (`OpenLoopGen`, `BackgroundSpec`).
    TraceGen,
}

impl Call {
    /// Every boundary, in report order.
    pub const ALL: [Call; 7] = [
        Call::OnAck,
        Call::Send,
        Call::Timer,
        Call::OtherTransport,
        Call::Inject,
        Call::AddFlow,
        Call::TraceGen,
    ];

    /// Stable name used in the trace dump.
    pub fn name(self) -> &'static str {
        match self {
            Call::OnAck => "transport.on_ack",
            Call::Send => "transport.send",
            Call::Timer => "transport.timer",
            Call::OtherTransport => "transport.other",
            Call::Inject => "workloads.inject",
            Call::AddFlow => "netsim.add_flow",
            Call::TraceGen => "workloads.trace_gen",
        }
    }

    /// Whether time in this call belongs to a layer other than `netsim`
    /// when it happens inside a run span (used for `netsim` self time).
    fn foreign(self) -> bool {
        matches!(
            self,
            Call::OnAck | Call::Send | Call::Timer | Call::OtherTransport | Call::Inject
        )
    }

    /// Whether this is a transport boundary.
    pub fn is_transport(self) -> bool {
        matches!(
            self,
            Call::OnAck | Call::Send | Call::Timer | Call::OtherTransport
        )
    }
}

/// Histogram buckets: bucket `b` holds calls of `[2^(b-1), 2^b)` ns, the
/// last one everything longer.
pub const HIST_BUCKETS: usize = 40;

/// Count, total time and log2 histogram of one per-call boundary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CallStats {
    /// Calls made.
    pub calls: u64,
    /// Total nanoseconds inside the calls.
    pub ns: u64,
    /// Calls per log2-nanosecond bucket.
    pub hist: [u64; HIST_BUCKETS],
}

impl Default for CallStats {
    fn default() -> Self {
        CallStats {
            calls: 0,
            ns: 0,
            hist: [0; HIST_BUCKETS],
        }
    }
}

impl CallStats {
    fn add(&mut self, ns: u64) {
        self.calls += 1;
        self.ns += ns;
        let bucket = (u64::BITS - ns.leading_zeros()) as usize;
        self.hist[bucket.min(HIST_BUCKETS - 1)] += 1;
    }
}

/// One coarse span.
#[derive(Clone, Debug)]
pub struct Span {
    /// 1-based id, in start order.
    pub id: u32,
    /// Id of the enclosing span, 0 for a root.
    pub parent: u32,
    /// Boundary name (`setup`, `topology`, `sim_new`, `run`, ...).
    pub name: &'static str,
    /// Start, ns since the trace began.
    pub start_ns: u64,
    /// End, ns since the trace began.
    pub end_ns: u64,
    /// Nanoseconds of foreign-layer per-call time (transport calls and
    /// injection self time) inside this span.
    pub foreign_ns: u64,
}

impl Span {
    /// Wall duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Everything one traced run recorded.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Per-call boundaries, indexed like [`Call::ALL`].
    pub calls: [CallStats; 7],
    /// Coarse spans in start order.
    pub spans: Vec<Span>,
    /// Probe packets the transports sent (`on_sent(TrySend::Probe)`).
    pub probes: u64,
    /// Flows registered by arrival injection.
    pub flows_injected: u64,
}

impl Trace {
    /// Stats of one boundary.
    pub fn call(&self, c: Call) -> &CallStats {
        &self.calls[c as usize]
    }

    /// Summed duration of every span called `name`, seconds.
    pub fn span_secs(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold(0.0, |acc, s| acc + s.secs())
    }

    /// Number of spans called `name`.
    pub fn span_count(&self, name: &str) -> u64 {
        self.spans.iter().filter(|s| s.name == name).count() as u64
    }

    /// `netsim` self time: run-span time minus the transport and
    /// workloads time inside it. Includes the `simcore` scheduler, which
    /// `netsim` calls without a public boundary in between.
    pub fn netsim_self_secs(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == "run")
            .map(|s| (s.end_ns - s.start_ns).saturating_sub(s.foreign_ns) as f64 * 1e-9)
            .sum()
    }

    /// Seconds inside transport calls.
    pub fn transport_secs(&self) -> f64 {
        Call::ALL
            .iter()
            .filter(|c| c.is_transport())
            .map(|&c| self.call(c).ns as f64 * 1e-9)
            .sum()
    }
}

#[derive(Default)]
struct Recorder {
    on: bool,
    origin: Option<Instant>,
    trace: Trace,
    stack: Vec<u32>,
    /// Running total of foreign per-call ns; spans diff it.
    foreign_ns: u64,
    /// When the last sweep closure returned (restore gap measurement).
    last_exit: Option<Instant>,
}

impl Recorder {
    fn offset(&self, t: Instant) -> u64 {
        self.origin
            .map_or(0, |o| t.saturating_duration_since(o).as_nanos() as u64)
    }

    fn add_call(&mut self, c: Call, ns: u64) {
        self.trace.calls[c as usize].add(ns);
        if c.foreign() {
            self.foreign_ns += ns;
        }
    }
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder::default());
}

/// Start recording on this thread, discarding anything recorded before.
pub fn start() {
    REC.with(|r| {
        *r.borrow_mut() = Recorder {
            on: true,
            origin: Some(Instant::now()),
            ..Recorder::default()
        }
    });
}

/// Stop recording and return what was recorded.
pub fn finish() -> Trace {
    REC.with(|r| std::mem::take(&mut *r.borrow_mut()).trace)
}

/// Whether this thread is recording.
pub fn enabled() -> bool {
    REC.with(|r| r.borrow().on)
}

/// Run `f` inside a span called `name`, child of the innermost open span.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let (idx, foreign0) = REC.with(|r| {
        let mut r = r.borrow_mut();
        let id = r.trace.spans.len() as u32 + 1;
        let parent = r.stack.last().copied().unwrap_or(0);
        let start_ns = r.offset(Instant::now());
        r.trace.spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns: start_ns,
            foreign_ns: 0,
        });
        r.stack.push(id);
        (id as usize - 1, r.foreign_ns)
    });
    let out = f();
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let end_ns = r.offset(Instant::now());
        let foreign = r.foreign_ns - foreign0;
        let s = &mut r.trace.spans[idx];
        s.end_ns = end_ns;
        s.foreign_ns = foreign;
        r.stack.pop();
    });
    out
}

/// Time one per-call boundary (the caller checked [`enabled`]).
pub fn timed<R>(c: Call, f: impl FnOnce() -> R) -> R {
    let t0 = Instant::now();
    let out = f();
    let ns = t0.elapsed().as_nanos() as u64;
    REC.with(|r| r.borrow_mut().add_call(c, ns));
    out
}

/// [`timed`] when this thread is recording; a plain call otherwise.
pub fn maybe_timed<R>(c: Call, f: impl FnOnce() -> R) -> R {
    if enabled() {
        timed(c, f)
    } else {
        f()
    }
}

/// Mark the moment a sweep closure returns; the next [`gap_span`] measures
/// from here.
pub fn mark_exit() {
    if enabled() {
        REC.with(|r| r.borrow_mut().last_exit = Some(Instant::now()));
    }
}

/// Record a span called `name` from the last [`mark_exit`] to now, child
/// of the innermost open span. It measures a call the harness cannot wrap
/// directly — `Sim::restore` inside `run_warm`, which is the only work
/// between one sweep closure returning and the next being entered.
pub fn gap_span(name: &'static str) {
    if !enabled() {
        return;
    }
    let now = Instant::now();
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let Some(from) = r.last_exit else { return };
        let id = r.trace.spans.len() as u32 + 1;
        let parent = r.stack.last().copied().unwrap_or(0);
        let (start_ns, end_ns) = (r.offset(from), r.offset(now));
        r.trace.spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
            foreign_ns: 0,
        });
    });
}

/// `Sim::add_flow`, timed and with the transport wrapped in [`Traced`]
/// when this thread is recording; a plain call otherwise.
pub fn add_flow(
    sim: &mut Sim,
    spec: FlowSpec,
    make: impl FnOnce(&FlowParams) -> Box<dyn Transport>,
) -> FlowId {
    if !enabled() {
        return sim.add_flow(spec, make);
    }
    timed(Call::AddFlow, || {
        sim.add_flow(spec, |p| {
            Box::new(Traced::new(make(p))) as Box<dyn Transport>
        })
    })
}

/// Forwarding [`Transport`] wrapper: every method calls the wrapped
/// transport and records the call under its [`Call`] boundary.
pub struct Traced {
    inner: Box<dyn Transport>,
}

impl Traced {
    /// Wrap `inner`.
    pub fn new(inner: Box<dyn Transport>) -> Self {
        Traced { inner }
    }
}

impl Transport for Traced {
    fn clone_box(&self) -> Box<dyn Transport> {
        timed(Call::OtherTransport, || {
            Box::new(Traced::new(self.inner.clone_box())) as Box<dyn Transport>
        })
    }

    fn on_start(&mut self, ctx: &mut TransportCtx<'_>) {
        timed(Call::OtherTransport, || self.inner.on_start(ctx))
    }

    fn on_ack(&mut self, ack: &AckEvent, ctx: &mut TransportCtx<'_>) {
        timed(Call::OnAck, || self.inner.on_ack(ack, ctx))
    }

    fn on_timer(&mut self, token: u64, ctx: &mut TransportCtx<'_>) {
        timed(Call::Timer, || self.inner.on_timer(token, ctx))
    }

    fn try_send(&mut self, now: Time) -> TrySend {
        timed(Call::Send, || self.inner.try_send(now))
    }

    fn on_sent(&mut self, sent: TrySend, ctx: &mut TransportCtx<'_>) {
        if sent == TrySend::Probe {
            REC.with(|r| r.borrow_mut().trace.probes += 1);
        }
        timed(Call::Send, || self.inner.on_sent(sent, ctx))
    }

    fn is_finished(&self) -> bool {
        timed(Call::OtherTransport, || self.inner.is_finished())
    }

    fn cwnd_bytes(&self) -> f64 {
        timed(Call::OtherTransport, || self.inner.cwnd_bytes())
    }

    fn retransmits(&self) -> u64 {
        timed(Call::OtherTransport, || self.inner.retransmits())
    }

    fn check_invariants(&self) -> Result<(), String> {
        timed(Call::OtherTransport, || self.inner.check_invariants())
    }
}

/// Timed [`ArrivalSource`] wrapper. Records each `inject` under
/// [`Call::Inject`] net of the `add_flow` calls nested in it (those are
/// `netsim` time), and counts the flows it registered.
pub struct TimedArrivals {
    inner: Box<dyn ArrivalSource>,
}

impl TimedArrivals {
    /// Wrap `inner`.
    pub fn new(inner: Box<dyn ArrivalSource>) -> Self {
        TimedArrivals { inner }
    }
}

impl ArrivalSource for TimedArrivals {
    fn inject(&mut self, sim: &mut Sim, now: Time) -> Option<Time> {
        let flows0 = sim.num_flows();
        let add0 = REC.with(|r| r.borrow().trace.call(Call::AddFlow).ns);
        let t0 = Instant::now();
        let next = self.inner.inject(sim, now);
        let total = t0.elapsed().as_nanos() as u64;
        let injected = (sim.num_flows() - flows0) as u64;
        REC.with(|r| {
            let mut r = r.borrow_mut();
            let nested = r.trace.call(Call::AddFlow).ns - add0;
            r.add_call(Call::Inject, total.saturating_sub(nested));
            r.trace.flows_injected += injected;
        });
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{AckKind, Event};
    use simcore::EventQueue;
    use std::sync::{Arc, Mutex};

    /// Records every method called on it and answers with values no
    /// default implementation would give.
    struct Probe {
        log: Arc<Mutex<Vec<&'static str>>>,
    }

    impl Probe {
        fn note(&self, m: &'static str) {
            self.log.lock().expect("log lock").push(m);
        }
    }

    impl Transport for Probe {
        fn clone_box(&self) -> Box<dyn Transport> {
            self.note("clone_box");
            Box::new(Probe {
                log: Arc::clone(&self.log),
            })
        }
        fn on_start(&mut self, _ctx: &mut TransportCtx<'_>) {
            self.note("on_start");
        }
        fn on_ack(&mut self, _ack: &AckEvent, _ctx: &mut TransportCtx<'_>) {
            self.note("on_ack");
        }
        fn on_timer(&mut self, _token: u64, _ctx: &mut TransportCtx<'_>) {
            self.note("on_timer");
        }
        fn try_send(&mut self, _now: Time) -> TrySend {
            self.note("try_send");
            TrySend::Data { seq: 7, bytes: 9 }
        }
        fn on_sent(&mut self, _sent: TrySend, _ctx: &mut TransportCtx<'_>) {
            self.note("on_sent");
        }
        fn is_finished(&self) -> bool {
            self.note("is_finished");
            true
        }
        fn cwnd_bytes(&self) -> f64 {
            self.note("cwnd_bytes");
            1234.5
        }
        fn retransmits(&self) -> u64 {
            self.note("retransmits");
            42
        }
        fn check_invariants(&self) -> Result<(), String> {
            self.note("check_invariants");
            Err("broken".into())
        }
    }

    #[test]
    fn wrapper_forwards_every_transport_method() {
        let log = Arc::new(Mutex::new(Vec::new()));
        start();
        let mut t = Traced::new(Box::new(Probe {
            log: Arc::clone(&log),
        }));
        let mut q: EventQueue<Event> = EventQueue::new();
        let mut ctx = TransportCtx::for_test(&mut q, Time::ZERO, 0);
        t.on_start(&mut ctx);
        let ack = AckEvent {
            kind: AckKind::Data,
            delay: Time::from_us(1),
            cum_bytes: 0,
            acked_seq: 0,
            acked_bytes: 0,
            ecn_echo: false,
            nack: None,
            int: None,
        };
        t.on_ack(&ack, &mut ctx);
        t.on_timer(3, &mut ctx);
        assert_eq!(t.try_send(Time::ZERO), TrySend::Data { seq: 7, bytes: 9 });
        t.on_sent(TrySend::Probe, &mut ctx);
        assert!(t.is_finished());
        assert_eq!(t.cwnd_bytes(), 1234.5);
        assert_eq!(t.retransmits(), 42);
        assert_eq!(t.check_invariants(), Err("broken".to_string()));
        let mut copy = t.clone_box();
        assert_eq!(
            copy.retransmits(),
            42,
            "clone forwards to a clone of the inner transport"
        );
        copy.on_start(&mut ctx);
        let trace = finish();

        let called = log.lock().expect("log lock").clone();
        let expected = [
            "on_start",
            "on_ack",
            "on_timer",
            "try_send",
            "on_sent",
            "is_finished",
            "cwnd_bytes",
            "retransmits",
            "check_invariants",
            "clone_box",
            "retransmits",
            "on_start",
        ];
        assert_eq!(called, expected);
        assert_eq!(trace.call(Call::OnAck).calls, 1);
        assert_eq!(trace.call(Call::Send).calls, 2);
        assert_eq!(trace.call(Call::Timer).calls, 1);
        // on_start x2, is_finished, cwnd_bytes, retransmits x2,
        // check_invariants, clone_box.
        assert_eq!(trace.call(Call::OtherTransport).calls, 8);
        assert_eq!(trace.probes, 1);
        let hist_total: u64 = trace.calls.iter().flat_map(|c| c.hist).sum();
        assert_eq!(hist_total, 12);
    }

    #[test]
    fn spans_nest_and_are_free_when_off() {
        assert_eq!(span("run", || 5), 5);
        assert!(finish().spans.is_empty(), "no spans recorded while off");
        start();
        span("setup", || {
            span("topology", || ());
            span("sim_new", || ());
        });
        span("run", || ());
        let t = finish();
        let shape: Vec<(u32, u32, &str)> =
            t.spans.iter().map(|s| (s.id, s.parent, s.name)).collect();
        assert_eq!(
            shape,
            [
                (1, 0, "setup"),
                (2, 1, "topology"),
                (3, 1, "sim_new"),
                (4, 0, "run")
            ]
        );
        assert!(t.spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert!(!enabled());
    }

    #[test]
    fn histogram_buckets_are_log2() {
        let mut s = CallStats::default();
        for ns in [0, 1, 2, 3, 4, 1023, 1024, 1 << 50] {
            s.add(ns);
        }
        assert_eq!(s.calls, 8);
        assert_eq!(s.hist[0], 1); // 0
        assert_eq!(s.hist[1], 1); // 1
        assert_eq!(s.hist[2], 2); // 2, 3
        assert_eq!(s.hist[3], 1); // 4
        assert_eq!(s.hist[10], 1); // 1023
        assert_eq!(s.hist[11], 1); // 1024
        assert_eq!(s.hist[HIST_BUCKETS - 1], 1); // clamped
    }
}
