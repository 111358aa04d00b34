//! The three workloads: pinned inputs, setup, the simulate phase, and the
//! checks that need extra simulation.
//!
//! Every input except the workload seed is a constant here. The scheduler
//! backend and the sweep worker count are passed explicitly, never read
//! from the environment.

use experiments::hyperscale::{HyperScheme, HyperTopo, HyperscaleConfig};
use experiments::sweep::run_warm;
use netsim::fluid::BackgroundLoad;
use netsim::{
    ArrivalSource, FlowSpec, NodeId, NoiseModel, SchedKind, Sim, SimConfig, SimCounters, SimResult,
    SwitchConfig, Topology,
};
use simcore::{Rate, SimRng, Time};
use transport::{CcSpec, PrioPlusPolicy};
use workloads::{BackgroundSpec, FlowArrival, IncastMix, OpenLoopGen, SizeClassifier, SizeDist};

use crate::check::{model_hash, Fnv};
use crate::trace::{self, Call, TimedArrivals};

/// Scheduler backend every workload runs on.
pub const SCHED: SchedKind = SchedKind::Calendar;
/// Sweep workers (`whatif_sweep` forks run one after another).
pub const WORKERS: usize = 1;
/// The seed the pinned reference hashes belong to.
pub const DEFAULT_SEED: u64 = 1;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// k=8 fat-tree, open-loop WebSearch + incast arrivals, PrioPlus.
    Fabric,
    /// 64→1 incast over 8 PrioPlus virtual priorities.
    Incast,
    /// Warm-started what-if sweep over a hybrid packet/fluid bottleneck.
    Whatif,
}

/// Model-result counters summed over the results of one simulate phase
/// (peaks take the maximum).
#[derive(Clone, Debug, Default)]
pub struct Work {
    pub events: u64,
    pub sched_pops: u64,
    pub data_delivered: u64,
    pub pfc_pauses: u64,
    pub ecn_marks: u64,
    pub fluid_epochs: u64,
    pub fluid_bytes_injected: u64,
    pub arena_slab_slots: u64,
    pub flow_live_peak: u64,
    pub flow_live_bytes_peak: u64,
}

impl Work {
    fn add(&mut self, c: &SimCounters) {
        self.events += c.events;
        self.sched_pops += c.sched_pops;
        self.data_delivered += c.data_delivered;
        self.pfc_pauses += c.pfc_pauses;
        self.ecn_marks += c.ecn_marks;
        self.fluid_epochs += c.fluid_epochs;
        self.fluid_bytes_injected += c.fluid_bytes_injected;
        self.arena_slab_slots = self.arena_slab_slots.max(c.arena_slab_slots);
        self.flow_live_peak = self.flow_live_peak.max(c.flow_live_peak);
        self.flow_live_bytes_peak = self.flow_live_bytes_peak.max(c.flow_live_bytes_peak);
    }
}

/// What one simulate phase produced.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Per-result hashes (one per fork in `whatif_sweep`).
    pub parts: Vec<u64>,
    /// Counters summed over the results.
    pub work: Work,
    /// Operations: simulation runs or sweep forks.
    pub ops: u64,
    /// Streaming-statistics fingerprint of the last result, if streaming.
    pub streaming_fp: Option<u64>,
    /// Operations whose simulator came up with the audit layer enabled —
    /// an environment-altered run, not the pinned one.
    pub audited: u64,
}

impl Outcome {
    fn push(&mut self, res: &SimResult, audited: bool) {
        self.parts.push(model_hash(res));
        self.streaming_fp = res.streaming.as_deref().map(|st| st.fingerprint());
        self.work.add(&res.counters);
        self.ops += 1;
        self.audited += audited as u64;
    }

    /// Hash of every result's model outputs, in order.
    pub fn hash(&self) -> u64 {
        let mut h = Fnv::default();
        for &p in &self.parts {
            h.fold(p);
        }
        h.get()
    }
}

/// The generated inputs of one benchmark seed.
#[derive(Clone, Debug)]
pub struct Inputs {
    /// Seed of each generated trace: the fabric's arrival trace, the
    /// incast's start jitter, one per what-if warm-up group.
    pub traces: Vec<u64>,
}

/// Bytes of the `(start, size)` arrivals starting in `[from, end)` that a
/// flow alone on a `rate` link could deliver by `end`: the offered work a
/// trace puts into a run, with flows too late to finish cut short.
fn deliverable(
    arrivals: impl Iterator<Item = (Time, u64)>,
    rate: Rate,
    from: Time,
    end: Time,
) -> f64 {
    let bytes_per_ps = rate.as_bps() as f64 / 8.0 / 1e12;
    arrivals
        .filter(|&(start, _)| start >= from && start < end)
        .map(|(start, size)| (size as f64).min(bytes_per_ps * (end - start).as_ps() as f64))
        .fold(0.0, |acc, b| acc + b)
}

/// Whether `v` lies within `tol` (a share) of `nominal`.
fn near(v: f64, nominal: f64, tol: f64) -> bool {
    (v / nominal - 1.0).abs() <= tol
}

/// The first seed, in the candidate stream derived from `seed`, whose
/// trace `accept`s. Heavy-tailed WebSearch sizes make the offered work of
/// one trace vary by ±15% from seed to seed; accepting only traces near
/// the nominal work lets the seed vary arrival times, sizes, endpoints,
/// routing and noise while a run's amount of simulation stays steady.
fn pick_trace(seed: u64, accept: impl Fn(u64) -> bool) -> u64 {
    let root = SimRng::new(seed);
    (0..1_000_000)
        .map(|i| root.split(i).next())
        .find(|&t| accept(t))
        .expect("a trace near the nominal work within a million candidates")
}

/// A workload ready to simulate.
pub enum Ready {
    /// One configured simulator.
    Sim(Box<Sim>),
    /// The what-if sweep builds its group simulators inside `run_warm`.
    Sweep,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [Workload::Fabric, Workload::Incast, Workload::Whatif];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fabric => "fabric_openloop",
            Workload::Incast => "incast_vprio",
            Workload::Whatif => "whatif_sweep",
        }
    }

    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Pinned hash of the default seed's outputs. A change that moves it
    /// changed the model; re-pin only with a changelog entry saying why.
    pub fn reference(self) -> u64 {
        match self {
            Workload::Fabric => 0x8248_d8c6_0623_c937,
            Workload::Incast => 0x5984_17c2_52e1_f5b7,
            Workload::Whatif => 0xd4b9_5390_92b5_b8e4,
        }
    }

    /// Generate the inputs of `seed`.
    pub fn inputs(self, seed: u64) -> Inputs {
        let traces = match self {
            Workload::Fabric => vec![fabric::trace_seed(seed)],
            Workload::Incast => vec![seed],
            Workload::Whatif => (0..whatif::GROUPS)
                .map(|g| whatif::trace_seed(seed, g))
                .collect(),
        };
        Inputs { traces }
    }

    /// Config to ready simulator(s): topology, `Sim::new` (routing
    /// tables), flow and trace registration. For the sweep, which builds
    /// its simulators inside `run_warm`, this builds and drops one
    /// simulator per warm-up group.
    pub fn setup(self, inputs: &Inputs) -> Ready {
        match self {
            Workload::Fabric => {
                Ready::Sim(Box::new(fabric::setup(&fabric::config(inputs.traces[0]))))
            }
            Workload::Incast => Ready::Sim(Box::new(incast::setup(inputs.traces[0]))),
            Workload::Whatif => {
                for &t in &inputs.traces {
                    drop(std::hint::black_box(whatif::build(t)));
                }
                Ready::Sweep
            }
        }
    }

    /// The simulate phase.
    pub fn simulate(self, inputs: &Inputs, ready: Ready) -> Outcome {
        let mut out = Outcome::default();
        match ready {
            Ready::Sim(sim) => {
                let audited = sim.audit_enabled();
                let res = trace::span("run", || sim.run());
                out.push(&res, audited);
            }
            Ready::Sweep => whatif::sweep(inputs, &mut out),
        }
        out
    }
}

/// `fabric_openloop`: the `experiments::hyperscale` scenario, driven by
/// the benchmark so each layer boundary can be timed.
pub mod fabric {
    use super::*;

    /// Fat-tree arity (k³/4 = 128 hosts).
    pub const K: usize = 8;
    /// Nominal deliverable work of an arrival trace by the end time,
    /// bytes (the median over trace seeds 0..400).
    pub const NOMINAL_BYTES: f64 = 5.415e8;
    /// Accepted deviation from the nominal work.
    pub const TOLERANCE: f64 = 0.01;

    /// The arrival-trace seed for benchmark seed `seed`.
    pub fn trace_seed(seed: u64) -> u64 {
        pick_trace(seed, |t| {
            let cfg = config(t);
            let mut gen = generator(&cfg, K * K * K / 4);
            let end = end_time(&cfg);
            let mut arrivals = Vec::new();
            gen.take_until(end, &mut arrivals);
            let work = deliverable(
                arrivals.iter().map(|a| (a.start, a.size)),
                cfg.rate,
                Time::ZERO,
                end,
            );
            near(work, NOMINAL_BYTES, TOLERANCE)
        })
    }

    fn end_time(cfg: &HyperscaleConfig) -> Time {
        cfg.duration + Time::from_ps(cfg.duration.as_ps() / 2)
    }

    fn generator(cfg: &HyperscaleConfig, hosts: usize) -> OpenLoopGen {
        OpenLoopGen::new(
            SizeDist::websearch(),
            hosts,
            cfg.rate,
            cfg.load,
            Time::ZERO,
            cfg.duration,
            cfg.incast,
            cfg.seed ^ 0x09E1,
        )
    }

    /// The pinned scenario for `seed`: k=8, 100 Gb/s, WebSearch Poisson
    /// at load 0.4 plus 16→1 incasts of 20 kB every 100 µs, PrioPlus in 4
    /// virtual classes on one physical queue, 1 ms of arrivals.
    pub fn config(seed: u64) -> HyperscaleConfig {
        HyperscaleConfig {
            scheme: HyperScheme::PrioPlus,
            topo: HyperTopo::FatTree { k: K },
            rate: Rate::from_gbps(100),
            load: 0.4,
            incast: Some(IncastMix {
                period: Time::from_us(100),
                fanin: 16,
                bytes: 20_000,
            }),
            classes: 4,
            duration: Time::from_ms(1),
            chunk: Time::from_us(200),
            seed,
            sched: SCHED,
        }
    }

    /// Build the simulator with its open-loop arrival source installed.
    pub fn setup(cfg: &HyperscaleConfig) -> Sim {
        trace::span("setup", || {
            let topo = trace::span("topology", || {
                Topology::fat_tree(K, cfg.rate, Time::from_us(1))
            });
            let hosts = topo.hosts.clone();
            let sim_cfg = SimConfig {
                num_prios: 1,
                end_time: end_time(cfg),
                seed: cfg.seed,
                sched: cfg.sched,
                streaming_stats: true,
                ..Default::default()
            };
            let mut sim = trace::span("sim_new", || {
                Sim::new(&topo, sim_cfg, SwitchConfig::default())
            });
            trace::span("register", || {
                let classifier = SizeClassifier::from_dist(&SizeDist::websearch(), cfg.classes);
                let gen = trace::maybe_timed(Call::TraceGen, || generator(cfg, hosts.len()));
                let cc = CcSpec::PrioPlusSwift {
                    policy: PrioPlusPolicy {
                        probe: false,
                        ..PrioPlusPolicy::paper_default(cfg.classes)
                    },
                };
                let src = Box::new(Source {
                    gen,
                    hosts,
                    classifier,
                    cc,
                    chunk: cfg.chunk,
                    buf: Vec::new(),
                });
                if trace::enabled() {
                    sim.set_arrivals(Box::new(TimedArrivals::new(src)));
                } else {
                    sim.set_arrivals(src);
                }
            });
            sim
        })
    }

    /// Drains the lazy generator chunk by chunk into `Sim::add_flow`,
    /// exactly as `experiments::hyperscale` does.
    struct Source {
        gen: OpenLoopGen,
        hosts: Vec<NodeId>,
        classifier: SizeClassifier,
        cc: CcSpec,
        chunk: Time,
        buf: Vec<FlowArrival>,
    }

    impl ArrivalSource for Source {
        fn inject(&mut self, sim: &mut Sim, now: Time) -> Option<Time> {
            let until = now + self.chunk;
            self.buf.clear();
            let (gen, buf) = (&mut self.gen, &mut self.buf);
            trace::maybe_timed(Call::TraceGen, || gen.take_until(until, buf));
            for a in &self.buf {
                let class = self.classifier.priority(a.size);
                let spec = FlowSpec {
                    src: self.hosts[a.src],
                    dst: self.hosts[a.dst],
                    size: a.size,
                    start: a.start,
                    phys_prio: 0,
                    virt_prio: class,
                    tag: class as u64,
                };
                let (cc, start) = (&self.cc, a.start);
                trace::add_flow(sim, spec, |p| cc.make(p, start));
            }
            self.gen.peek_start()
        }
    }
}

/// `incast_vprio`: 64 senders → 1 receiver, 2 MB flows over 8 PrioPlus
/// virtual priorities, arrivals staggered by class.
pub mod incast {
    use super::*;

    /// Sender hosts (the receiver is host 0).
    pub const SENDERS: usize = 64;
    /// Bytes per flow.
    pub const FLOW_BYTES: u64 = 2_000_000;
    /// Virtual priorities; sender `s` uses class `(s - 1) % CLASSES`.
    pub const CLASSES: u8 = 8;
    /// Class `c` of a wave starts `c * STAGGER` after the wave.
    pub const STAGGER: Time = Time::from_us(250);
    /// Waves of one flow per sender.
    pub const WAVES: u64 = 2;
    /// Gap between waves.
    pub const WAVE_GAP: Time = Time::from_ms(12);
    /// Simulated horizon.
    pub const END: Time = Time::from_ms(40);
    /// Seeded start jitter, at most this many ns.
    pub const JITTER_NS: u64 = 2_000;

    /// Build the incast with every flow registered.
    pub fn setup(seed: u64) -> Sim {
        trace::span("setup", || {
            let rate = Rate::from_gbps(100);
            let topo = trace::span("topology", || {
                Topology::single_switch(SENDERS, rate, Time::from_us(3))
            });
            let cfg = SimConfig {
                num_prios: 1,
                end_time: END,
                seed,
                meas_noise: NoiseModel::testbed(),
                trace_flows: false,
                sched: SCHED,
                ..Default::default()
            };
            let mut sim = trace::span("sim_new", || Sim::new(&topo, cfg, SwitchConfig::default()));
            trace::span("register", || {
                let cc = CcSpec::PrioPlusSwift {
                    policy: PrioPlusPolicy::paper_default(CLASSES),
                };
                let mut rng = SimRng::new(seed).split(0xB3_1C);
                for wave in 0..WAVES {
                    for s in 1..=SENDERS {
                        let class = ((s - 1) % CLASSES as usize) as u8;
                        let start =
                            Time::from_ps(wave * WAVE_GAP.as_ps() + class as u64 * STAGGER.as_ps())
                                + Time::from_ns(rng.below(JITTER_NS));
                        let spec = FlowSpec {
                            src: s as NodeId,
                            dst: 0,
                            size: FLOW_BYTES,
                            start,
                            phys_prio: 0,
                            virt_prio: class,
                            tag: class as u64,
                        };
                        trace::add_flow(&mut sim, spec, |p| cc.make(p, start));
                    }
                }
            });
            sim
        })
    }
}

/// `whatif_sweep`: a bottleneck carrying fluid background and PrioPlus
/// WebSearch foreground; each warm-up group is simulated once to
/// mid-horizon, snapshotted and forked into what-if configs.
pub mod whatif {
    use super::*;

    /// Foreground sender hosts `1..=FG_SENDERS`.
    pub const FG_SENDERS: usize = 8;
    /// Background hosts (fluid injectors share their access links).
    pub const BG_HOSTS: usize = 4;
    /// The host that sends each fork's what-if flow.
    pub const WHATIF_HOST: NodeId = (FG_SENDERS + BG_HOSTS + 1) as NodeId;
    /// Simulated horizon.
    pub const END: Time = Time::from_ms(40);
    /// Where the warm-up prefix is snapshotted.
    pub const MID: Time = Time::from_ms(20);
    /// Background load on the bottleneck, as fluid.
    pub const BG_LOAD: f64 = 0.5;
    /// Foreground WebSearch load, as packets.
    pub const FG_LOAD: f64 = 0.3;
    /// PrioPlus virtual classes (foreground by size, what-if by config).
    pub const CLASSES: u8 = 4;
    /// Warm-up groups (background seeds).
    pub const GROUPS: u64 = 2;
    /// What-if flow sizes; each is tried at every class.
    pub const SIZES: [u64; 2] = [100_000, 1_000_000];
    /// Forks per group.
    pub const FORKS: usize = SIZES.len() * CLASSES as usize;
    /// Nominal deliverable foreground work of the whole horizon and of the
    /// forked half from `MID`, bytes (medians over trace seeds 0..400).
    pub const NOMINAL_BYTES: [f64; 2] = [1.503e8, 7.14e7];
    /// Accepted deviation from the nominal work.
    pub const TOLERANCE: f64 = 0.02;

    const RATE: Rate = Rate::from_gbps(100);

    fn foreground(trace_seed: u64) -> Vec<(Time, u64)> {
        BackgroundSpec::new(SizeDist::websearch(), FG_LOAD, trace_seed).sample_port(1, RATE, END)
    }

    /// The trace seed of warm-up group `group` for benchmark seed `seed`:
    /// its foreground offers nominal work both over the horizon and in the
    /// forked half.
    pub fn trace_seed(seed: u64, group: u64) -> u64 {
        pick_trace(SimRng::new(seed).split(group).next(), |t| {
            let fg = foreground(t);
            [Time::ZERO, MID]
                .into_iter()
                .zip(NOMINAL_BYTES)
                .all(|(from, nominal)| {
                    near(
                        deliverable(fg.iter().copied(), RATE, from, END),
                        nominal,
                        TOLERANCE,
                    )
                })
        })
    }

    /// One what-if config.
    #[derive(Clone, Copy, Debug)]
    pub struct Fork {
        pub group: u64,
        pub size: u64,
        pub class: u8,
    }

    /// Every config, group-major.
    pub fn forks() -> Vec<Fork> {
        (0..GROUPS)
            .flat_map(|group| {
                SIZES.into_iter().flat_map(move |size| {
                    (0..CLASSES).map(move |class| Fork { group, size, class })
                })
            })
            .collect()
    }

    fn cc() -> CcSpec {
        CcSpec::PrioPlusSwift {
            policy: PrioPlusPolicy::paper_default(CLASSES),
        }
    }

    /// Build one warm-up group's simulator: fluid background on the
    /// bottleneck, foreground flows registered.
    pub fn build(trace_seed: u64) -> Sim {
        trace::span("setup", || {
            let senders = WHATIF_HOST as usize;
            let topo = trace::span("topology", || {
                Topology::single_switch(senders, RATE, Time::from_us(3))
            });
            let switch = senders as NodeId + 1;
            let bg_dist = SizeDist::new(&[(20_000, 0.0), (100_000, 0.5), (500_000, 1.0)]);
            let bg_trace = trace::maybe_timed(Call::TraceGen, || {
                BackgroundSpec::new(bg_dist, BG_LOAD, trace_seed ^ 0xB6).sample_port(0, RATE, END)
            });
            let mut cfg = SimConfig {
                num_prios: 1,
                end_time: END,
                seed: trace_seed,
                meas_noise: NoiseModel::None,
                trace_flows: false,
                sched: SCHED,
                ..Default::default()
            };
            cfg.background = Some(BackgroundLoad::from_shared_hosts(
                (switch, 0),
                &bg_trace,
                BG_HOSTS,
                RATE.as_bps(),
                cfg.mtu,
            ));
            let mut sim = trace::span("sim_new", || Sim::new(&topo, cfg, SwitchConfig::default()));
            trace::span("register", || {
                let classifier = SizeClassifier::from_dist(&SizeDist::websearch(), CLASSES);
                let fg = trace::maybe_timed(Call::TraceGen, || foreground(trace_seed));
                let cc = cc();
                for (i, (start, size)) in fg.into_iter().enumerate() {
                    let class = classifier.priority(size);
                    let spec = FlowSpec {
                        src: (i % FG_SENDERS) as NodeId + 1,
                        dst: 0,
                        size,
                        start,
                        phys_prio: 0,
                        virt_prio: class,
                        tag: class as u64,
                    };
                    trace::add_flow(&mut sim, spec, |p| cc.make(p, start));
                }
            });
            sim
        })
    }

    /// Register a fork's what-if flow. It starts after the snapshot point
    /// and is added after it in both the warm and the cold path.
    pub fn add_whatif(sim: &mut Sim, fork: &Fork) {
        let start = MID + Time::from_us(10);
        let spec = FlowSpec {
            src: WHATIF_HOST,
            dst: 0,
            size: fork.size,
            start,
            phys_prio: 0,
            virt_prio: fork.class,
            tag: 1000 + fork.class as u64,
        };
        let cc = cc();
        trace::add_flow(sim, spec, |p| cc.make(p, start));
    }

    /// The sweep: `run_warm` on one worker, one snapshot per group.
    pub fn sweep(inputs: &Inputs, out: &mut Outcome) {
        let forks = forks();
        let report = trace::span("sweep", || {
            run_warm(
                &forks,
                WORKERS,
                |f| f.group,
                |f| {
                    let snap = trace::span("prefix", || {
                        let mut sim = build(inputs.traces[f.group as usize]);
                        trace::span("run", || sim.run_until(MID));
                        trace::span("snapshot", || sim.snapshot())
                    });
                    trace::mark_exit();
                    snap
                },
                |f, mut sim| {
                    trace::gap_span("restore");
                    let done = trace::span("fork", || {
                        let audited = sim.audit_enabled();
                        add_whatif(&mut sim, f);
                        (trace::span("run", || sim.run()), audited)
                    });
                    trace::mark_exit();
                    done
                },
            )
        });
        for (res, audited) in &report.results {
            out.push(res, *audited);
        }
    }

    /// Warm fork == cold straight-through run, for one fork per group:
    /// the 1 MB what-if flow at the top class (group 0) and the one below
    /// (group 1). Returns (operations, mismatches).
    pub fn cold_check(inputs: &Inputs, out: &Outcome) -> (u64, u64) {
        let forks = forks();
        let mut failed = 0;
        for g in 0..GROUPS as usize {
            let i = g * FORKS + FORKS - 1 - g;
            let mut sim = build(inputs.traces[forks[i].group as usize]);
            sim.run_until(MID);
            add_whatif(&mut sim, &forks[i]);
            let cold = model_hash(&sim.run());
            failed += (out.parts.get(i) != Some(&cold)) as u64;
        }
        (GROUPS, failed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_a_pure_function_of_the_seed() {
        for w in Workload::ALL {
            assert_eq!(w.inputs(7).traces, w.inputs(7).traces, "{}", w.name());
            assert_ne!(w.inputs(7).traces, w.inputs(8).traces, "{}", w.name());
        }
        let groups = Workload::Whatif.inputs(7).traces;
        assert_eq!(groups.len(), whatif::GROUPS as usize);
        assert_ne!(groups[0], groups[1], "warm-up groups differ");
    }

    #[test]
    fn sweep_forks_every_size_at_every_class_in_each_group() {
        let forks = whatif::forks();
        assert_eq!(forks.len(), whatif::GROUPS as usize * whatif::FORKS);
        for g in 0..whatif::GROUPS {
            let mut seen: Vec<(u64, u8)> = forks
                .iter()
                .filter(|f| f.group == g)
                .map(|f| (f.size, f.class))
                .collect();
            seen.sort_unstable();
            seen.dedup();
            assert_eq!(seen.len(), whatif::FORKS);
        }
    }
}
