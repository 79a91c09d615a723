//! The adapter between the benchmark and the program.
//!
//! Every symbol of `pahoehoe`, `simnet`, `erasure`, `stats` and `bytes`
//! that the benchmark touches is named in this file and nowhere else; the
//! other modules see only the plain types defined here. A later PR that
//! renames or removes one of these symbols has exactly one file to fix,
//! and the `use` block below is the public surface it must keep.
//!
//! The benchmark sets no engine, queue, codec or checksum switch. It takes
//! `ClusterConfig::paper_default()` and sets only `layout`, `policy`,
//! `network`, `max_sim_time`, a `ConvergenceOptions` preset,
//! `protocol = ProtocolMode::scale()` and the streamed workload, so a
//! change to any other default shows up in the numbers.

use std::cell::Cell;
use std::collections::BTreeSet;
use std::hint::black_box;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use erasure::{Checksum, Codec, Fragment};
use pahoehoe::client::{Client, ClientOp};
use pahoehoe::cluster::{Cluster, ClusterConfig, ClusterLayout};
use pahoehoe::fs::Fs;
use pahoehoe::kls::Kls;
use pahoehoe::proxy::{Proxy, ProxyConfig};
use pahoehoe::topology::{DataCenterId, Topology};
use pahoehoe::types::{Key, ObjectVersion, Timestamp};
use pahoehoe::workload::{KeyDistribution, StreamingWorkload};
use pahoehoe::{ConvergenceOptions, Message, Policy, ProtocolMode, RepairActor};
use simnet::{
    Actor, Context, FaultPlan, NetworkConfig, NodeId, Payload, RunOutcome, SimDuration, SimTime,
    Simulation,
};

/// The virtual-time safety net of every run. A run that reaches it did not
/// converge and fails its output check.
const MAX_SIM_SECS: u64 = 14 * 24 * 3600;

/// How often the convergence check may look at the fragment servers, in
/// simulated microseconds (the issue asks for at least 30 s).
const CONVERGENCE_CHECK_US: u64 = 30_000_000;

// ---------------------------------------------------------------------------
// Plain descriptions of a cluster, its faults and its streamed workload.
// ---------------------------------------------------------------------------

/// Cluster shape and policy. `None` keeps the program's paper default.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Shape {
    /// `(data centers, KLS per DC, FS per DC)`.
    pub layout: Option<(usize, usize, usize)>,
    /// `(k, n, data centers, max fragments per FS)`.
    pub policy: Option<(u8, u8, u8, u8)>,
    /// System-wide message drop probability.
    pub drop_rate: f64,
    /// `ConvergenceOptions::naive()` instead of `all()` (selftest only).
    pub naive: bool,
}

/// A server named by position.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Server {
    /// Fragment server `i` of data center `dc`.
    Fs(usize, usize),
    /// Key lookup server `i` of data center `dc`.
    Kls(usize, usize),
}

/// One scheduled fault, in simulated microseconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Fault {
    /// The server is unreachable during `[start, start + len)`.
    Outage {
        /// Which server.
        server: Server,
        /// Window start.
        start_us: u64,
        /// Window length.
        len_us: u64,
    },
    /// Data center 0 and data center 1 cannot talk during the window.
    Partition {
        /// Window start.
        start_us: u64,
        /// Window length.
        len_us: u64,
    },
}

/// A put stream the program's own client synthesizes from `(seed, index)`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Stream {
    /// Puts in the stream.
    pub puts: u64,
    /// Distinct keys.
    pub key_space: u64,
    /// Bytes per value.
    pub value_len: usize,
    /// Zipf exponent; `None` cycles the keys sequentially.
    pub zipf: Option<f64>,
    /// Stream seed.
    pub seed: u64,
}

fn cluster_config(shape: &Shape, stream: Option<&Stream>) -> ClusterConfig {
    let mut cfg = ClusterConfig::paper_default();
    if let Some((dcs, kls_per_dc, fs_per_dc)) = shape.layout {
        cfg.layout = ClusterLayout {
            dcs,
            kls_per_dc,
            fs_per_dc,
        };
    }
    if let Some((k, n, dcs, max_frags_per_fs)) = shape.policy {
        cfg.policy = Policy::new(k, n, dcs, max_frags_per_fs);
    }
    if shape.drop_rate > 0.0 {
        cfg.network = NetworkConfig::with_drop_rate(shape.drop_rate);
    }
    cfg.max_sim_time = SimDuration::from_secs(MAX_SIM_SECS);
    cfg.convergence = if shape.naive {
        ConvergenceOptions::naive()
    } else {
        ConvergenceOptions::all()
    };
    // Compaction on, as the repo's own long-run tier; a no-op on
    // insert-only workloads.
    cfg.protocol = ProtocolMode::scale();
    cfg.streaming_workload = stream.map(|s| streaming_workload(s, cfg.policy));
    cfg
}

fn streaming_workload(s: &Stream, policy: Policy) -> StreamingWorkload {
    StreamingWorkload {
        puts: s.puts,
        key_space: s.key_space,
        value_len: s.value_len,
        policy,
        seed: s.seed,
        dist: match s.zipf {
            Some(exponent) => KeyDistribution::Zipf { exponent },
            None => KeyDistribution::Sequential,
        },
        overwrite_delta_permille: 0,
    }
}

fn fault_plan(layout: ClusterLayout, faults: &[Fault]) -> FaultPlan {
    let at = |us: u64| SimTime::ZERO + SimDuration::from_micros(us);
    let mut plan = FaultPlan::none();
    for f in faults {
        match *f {
            Fault::Outage {
                server,
                start_us,
                len_us,
            } => {
                plan.add_node_outage(
                    node_of(layout, server),
                    at(start_us),
                    SimDuration::from_micros(len_us),
                );
            }
            Fault::Partition { start_us, len_us } => {
                plan.add_partition(
                    &layout.dc_nodes(0),
                    &layout.dc_nodes(1),
                    at(start_us),
                    SimDuration::from_micros(len_us),
                );
            }
        }
    }
    plan
}

fn node_of(layout: ClusterLayout, server: Server) -> NodeId {
    match server {
        Server::Fs(dc, i) => layout.fs(dc, i),
        Server::Kls(dc, i) => layout.kls(dc, i),
    }
}

// ---------------------------------------------------------------------------
// Timed actors: the outside-in trace.
// ---------------------------------------------------------------------------

/// Layer names, in the order [`Readings::layers`] reports them.
pub const LAYERS: [&str; 6] = ["client", "proxy", "kls", "fs.msg", "fs.timer", "repair"];
const CLIENT: usize = 0;
const PROXY: usize = 1;
const KLS: usize = 2;
const FS_MSG: usize = 3;
const FS_TIMER: usize = 4;
const REPAIR: usize = 5;

/// The clocks of a traced run, shared by every [`Timed`] actor. Two clock
/// reads per actor call give three things: the call's busy time, and the
/// gap since the previous call returned, which inside the simulator's
/// loop is the engine (event queue, virtual clock, dispatch) plus the
/// harness's per-event predicate.
#[derive(Default)]
pub struct Clocks {
    calls: [Cell<u64>; 6],
    busy_ns: [Cell<u64>; 6],
    /// When the last actor call returned, or when the loop was entered.
    last_exit: Cell<Option<Instant>>,
    gap_ns: Cell<u64>,
    loop_ns: Cell<u64>,
}

/// One reading of [`Clocks`], cumulative.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Readings {
    /// `(calls, busy ns)` per layer, in [`LAYERS`] order.
    pub layers: [(u64, u64); 6],
    /// Time between actor calls inside the simulator's loop.
    pub gap_ns: u64,
    /// Time inside the simulator's loop.
    pub loop_ns: u64,
}

fn bump(cell: &Cell<u64>, by: u64) {
    cell.set(cell.get() + by);
}

impl Clocks {
    fn record(&self, layer: usize, entered: Instant) {
        if let Some(prev) = self.last_exit.get() {
            bump(&self.gap_ns, entered.duration_since(prev).as_nanos() as u64);
        }
        let left = Instant::now();
        bump(&self.calls[layer], 1);
        bump(
            &self.busy_ns[layer],
            left.duration_since(entered).as_nanos() as u64,
        );
        self.last_exit.set(Some(left));
    }

    /// Times one entry into the simulator's loop.
    fn around_loop<T>(&self, run: impl FnOnce() -> T) -> T {
        let entered = Instant::now();
        self.last_exit.set(Some(entered));
        let out = run();
        self.last_exit.set(None);
        bump(&self.loop_ns, entered.elapsed().as_nanos() as u64);
        out
    }

    /// The clocks now.
    pub fn read(&self) -> Readings {
        let mut layers = [(0, 0); 6];
        for (i, l) in layers.iter_mut().enumerate() {
            *l = (self.calls[i].get(), self.busy_ns[i].get());
        }
        Readings {
            layers,
            gap_ns: self.gap_ns.get(),
            loop_ns: self.loop_ns.get(),
        }
    }
}

/// Wraps an actor and times every `on_message` / `on_timer` call. The
/// `as_any` pair forwards to the inner actor, so `sim.actor::<Fs>(id)`
/// still finds it and every inspection path works unchanged.
struct Timed<A> {
    inner: A,
    clocks: Rc<Clocks>,
    msg_layer: usize,
    timer_layer: usize,
}

impl<A> Timed<A> {
    fn new(inner: A, clocks: &Rc<Clocks>, msg_layer: usize, timer_layer: usize) -> Self {
        Timed {
            inner,
            clocks: Rc::clone(clocks),
            msg_layer,
            timer_layer,
        }
    }
}

impl<A: Actor<Message>> Actor<Message> for Timed<A> {
    fn on_start(&mut self, ctx: &mut Context<'_, Message>) {
        self.inner.on_start(ctx);
    }
    fn on_message(&mut self, ctx: &mut Context<'_, Message>, from: NodeId, msg: Message) {
        let entered = Instant::now();
        self.inner.on_message(ctx, from, msg);
        self.clocks.record(self.msg_layer, entered);
    }
    fn on_timer(&mut self, ctx: &mut Context<'_, Message>, tag: u64) {
        let entered = Instant::now();
        self.inner.on_timer(ctx, tag);
        self.clocks.record(self.timer_layer, entered);
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self.inner.as_any()
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self.inner.as_any_mut()
    }
}

/// The cost of the two clock reads and the bookkeeping [`Timed`] adds to
/// one actor call, in nanoseconds.
pub fn timer_pair_ns() -> f64 {
    let reps = 2_000_000u64;
    let clocks = Clocks::default();
    clocks.last_exit.set(Some(Instant::now()));
    let t0 = Instant::now();
    for _ in 0..reps {
        clocks.record(CLIENT, black_box(Instant::now()));
    }
    black_box(clocks.read());
    t0.elapsed().as_nanos() as f64 / reps as f64
}

// ---------------------------------------------------------------------------
// The test bed: a cluster the harness drives one batch at a time.
// ---------------------------------------------------------------------------

#[allow(clippy::large_enum_variant)]
enum Engine {
    /// The untraced run: the program's own `Cluster`.
    Cluster(Cluster),
    /// The traced run: the same actors, assembled here from the public
    /// constructors in `Cluster::build` order, each wrapped in [`Timed`].
    Raw(Simulation<Message>),
}

/// Latencies of successful put attempts, observed after every event.
#[derive(Default)]
pub struct PutLatencies {
    succeeded: u64,
    /// Issue → answer of each successful attempt, simulated microseconds.
    pub ok_us: Vec<u32>,
}

impl PutLatencies {
    /// Called after every event, so at most one put was answered since the
    /// last call and `last_put_latency` is that put's.
    fn observe(&mut self, c: &Client) {
        if c.puts_succeeded() > self.succeeded {
            self.succeeded = c.puts_succeeded();
            self.ok_us.push(c.last_put_latency().as_micros() as u32);
        }
    }
}

/// A wired cluster plus what the harness needs to drive and inspect it.
pub struct Bed {
    engine: Engine,
    layout: ClusterLayout,
    policy: Policy,
    client: NodeId,
    fss: Vec<NodeId>,
    klss: Vec<NodeId>,
    /// Clocks of a traced bed.
    pub clocks: Option<Rc<Clocks>>,
    /// `RetrieveFrag*` traffic sent while a get was in flight.
    get_frag: (u64, u64),
    /// Wall time spent inside the gated convergence check.
    pub check_ns: u64,
}

impl Bed {
    /// Builds the cluster. `traced` assembles it here from the public
    /// constructors with every actor wrapped in a timer; otherwise it is
    /// `Cluster::build_with_faults`. Both must behave identically, which
    /// the trace run checks.
    pub fn build(
        shape: &Shape,
        faults: &[Fault],
        stream: Option<&Stream>,
        seed: u64,
        traced: bool,
    ) -> Bed {
        let cfg = cluster_config(shape, stream);
        let layout = cfg.layout;
        let policy = cfg.policy;
        let plan = fault_plan(layout, faults);
        let (engine, topo, clocks) = if traced {
            let (sim, topo, clocks) = assemble_timed(&cfg, seed, plan);
            (Engine::Raw(sim), topo, Some(clocks))
        } else {
            let cluster = Cluster::build_with_faults(cfg, seed, plan);
            let topo = Arc::clone(cluster.topology());
            (Engine::Cluster(cluster), topo, None)
        };
        Bed {
            engine,
            layout,
            policy,
            client: layout.client(),
            fss: topo.all_fss().collect(),
            klss: topo.all_klss().collect(),
            clocks,
            get_frag: (0, 0),
            check_ns: 0,
        }
    }

    fn sim(&self) -> &Simulation<Message> {
        match &self.engine {
            Engine::Cluster(c) => c.sim(),
            Engine::Raw(sim) => sim,
        }
    }

    fn sim_mut(&mut self) -> &mut Simulation<Message> {
        match &mut self.engine {
            Engine::Cluster(c) => c.sim_mut(),
            Engine::Raw(sim) => sim,
        }
    }

    fn client(&self) -> &Client {
        self.sim().actor(self.client)
    }

    /// `Simulation::run_until`, timed as one loop entry on a traced bed.
    fn run_loop(&mut self, pred: impl FnMut(&Simulation<Message>) -> bool) -> RunOutcome {
        match self.clocks.clone() {
            Some(clocks) => clocks.around_loop(|| self.sim_mut().run_until(pred)),
            None => self.sim_mut().run_until(pred),
        }
    }

    fn enqueue(&mut self, op: ClientOp) {
        let client = self.client;
        let sim = self.sim_mut();
        sim.actor_mut::<Client>(client).enqueue(op);
        sim.schedule_timer(client, SimDuration::ZERO, 1);
    }

    /// Simulated time now, microseconds.
    pub fn now_us(&self) -> u64 {
        self.sim().now().as_micros()
    }

    /// Events dispatched so far.
    pub fn events(&self) -> u64 {
        self.sim().events_processed()
    }

    /// Timers scheduled and neither fired nor cancelled.
    pub fn pending_timers(&self) -> u64 {
        self.sim().pending_timers() as u64
    }

    /// Advances simulated time to `us` (events due earlier run).
    pub fn run_until_time(&mut self, us: u64) {
        let deadline = SimTime::ZERO + SimDuration::from_micros(us);
        self.sim_mut().run_until_time(deadline);
    }

    /// Whether `server` is inside a scheduled outage right now.
    pub fn is_down(&self, server: Server) -> bool {
        let sim = self.sim();
        sim.faults()
            .node_down(node_of(self.layout, server), sim.now())
    }

    /// Runs the streamed workload until the client has seen `target`
    /// puts succeed, recording each successful attempt's latency.
    pub fn run_stream_until(&mut self, target: u64, lat: &mut PutLatencies) -> bool {
        let client = self.client;
        let outcome = self.run_loop(|sim| {
            let c: &Client = sim.actor(client);
            lat.observe(c);
            c.puts_succeeded() >= target
        });
        outcome == RunOutcome::PredicateSatisfied
    }

    /// Times `calls` evaluations of the per-event stream predicate on the
    /// stopped simulation: the harness's own cost inside the timed phase.
    pub fn probe_stream_predicate_ns(&self, calls: u64) -> u64 {
        let mut lat = PutLatencies::default();
        let sim = self.sim();
        let t = Instant::now();
        let (mut hits, target) = (0u64, black_box(u64::MAX));
        for _ in 0..calls {
            let c: &Client = black_box(sim).actor(self.client);
            lat.observe(c);
            hits += u64::from(c.puts_succeeded() >= target);
        }
        black_box(hits);
        t.elapsed().as_nanos() as u64
    }

    /// Puts `value` under `name` through the client and runs until the
    /// put is acknowledged (the client retries failed attempts). Returns
    /// the successful attempt's issue → answer latency in simulated µs,
    /// or `None` when the simulation stopped first.
    pub fn put(&mut self, name: &[u8], value: Vec<u8>) -> Option<u64> {
        let ok_before = self.client().puts_succeeded();
        match &mut self.engine {
            Engine::Cluster(c) => c.put(name, value),
            Engine::Raw(_) => {
                let policy = self.policy;
                self.enqueue(ClientOp::Put {
                    key: Key::from_name(name),
                    value: Bytes::from(value),
                    policy,
                });
            }
        }
        let client = self.client;
        let outcome = self.run_loop(|sim| sim.actor::<Client>(client).puts_succeeded() > ok_before);
        (outcome == RunOutcome::PredicateSatisfied)
            .then(|| self.client().last_put_latency().as_micros())
    }

    /// Gets `name` through the client and runs until the answer arrives.
    /// Returns the value (or `None` when the get failed) and the
    /// issue → answer latency in simulated µs.
    pub fn get(&mut self, name: &[u8]) -> (Option<Vec<u8>>, u64) {
        let before = self.retrieve_frag_traffic();
        let t0 = self.now_us();
        let value = match &mut self.engine {
            Engine::Cluster(c) => c.get(name),
            Engine::Raw(_) => self.get_key(Key::from_name(name)),
        };
        let after = self.retrieve_frag_traffic();
        self.get_frag.0 += after.0 - before.0;
        self.get_frag.1 += after.1 - before.1;
        (value, self.now_us() - t0)
    }

    fn get_key(&mut self, key: Key) -> Option<Vec<u8>> {
        let done_before = self.client().gets_done().len();
        self.enqueue(ClientOp::Get { key });
        let client = self.client;
        self.run_loop(|sim| sim.actor::<Client>(client).gets_done().len() > done_before);
        let outcome = self.client().gets_done().get(done_before)?;
        outcome.result.as_ref().map(|(_, v)| v.to_vec())
    }

    fn retrieve_frag_traffic(&self) -> (u64, u64) {
        let m = self.sim().metrics();
        let (req, rep) = (m.kind("RetrieveFragReq"), m.kind("RetrieveFragRep"));
        (req.count + rep.count, req.bytes + rep.bytes)
    }

    /// Runs until every durable version is AMR: the client is idle and no
    /// fragment server has convergence work left for a version with at
    /// least `k` stored fragments. The check looks at the servers at most
    /// once per 30 simulated seconds. Returns whether it converged before
    /// the virtual-time safety net. A drained event queue counts when the
    /// condition holds on it: once everything is AMR no timer is left.
    pub fn run_to_convergence(&mut self) -> bool {
        let deadline = SimTime::ZERO + SimDuration::from_secs(MAX_SIM_SECS);
        let (client, fss) = (self.client, self.fss.clone());
        let converged = |sim: &Simulation<Message>| {
            sim.actor::<Client>(client).is_done()
                && fss.iter().all(|&fs| {
                    sim.actor::<Fs>(fs)
                        .pending_versions()
                        .all(|ov| !is_durable(sim, &fss, ov))
                })
        };
        let mut next_check = 0u64;
        let mut check_ns = 0u64;
        let outcome = self.run_loop(|sim| {
            if sim.now() >= deadline {
                return true;
            }
            if sim.now().as_micros() < next_check {
                return false;
            }
            let t = Instant::now();
            next_check = sim.now().as_micros() + CONVERGENCE_CHECK_US;
            let done = converged(sim);
            check_ns += t.elapsed().as_nanos() as u64;
            done
        });
        self.check_ns += check_ns;
        let sim = self.sim();
        match outcome {
            RunOutcome::PredicateSatisfied => sim.now() < deadline,
            RunOutcome::Quiescent => converged(sim),
            _ => false,
        }
    }

    /// Reads back the latest value of up to `samples` keys of a finished
    /// stream and compares it with what the stream put there. Returns
    /// `(keys checked, keys wrong)`.
    pub fn verify_stream(&mut self, stream: &Stream, samples: usize) -> (u64, u64) {
        let wl = streaming_workload(stream, self.policy);
        let mut seen = BTreeSet::new();
        let (mut checked, mut wrong) = (0, 0);
        for i in (0..wl.puts).rev() {
            if seen.len() == samples {
                break;
            }
            let ClientOp::Put { key, value, .. } = wl.op_at(i) else {
                continue;
            };
            // Walking backwards, the first sighting of a key is its last put.
            if seen.insert(key) {
                checked += 1;
                // The client does not retry gets, and a lossy network may
                // drop one; only a wrong or persistently absent value counts.
                let got = (0..4).find_map(|_| self.get_key(key));
                if got.as_deref() != Some(&value[..]) {
                    wrong += 1;
                }
            }
        }
        (checked, wrong)
    }

    /// Traffic and client counters right now.
    pub fn counters(&self) -> Counters {
        let m = self.sim().metrics();
        let kinds = Message::KINDS
            .iter()
            .map(|&kind| {
                let (sent, drops) = (m.kind(kind), m.drops_for(kind));
                KindCount {
                    kind,
                    count: sent.count,
                    bytes: sent.bytes,
                    dropped_fault: drops.fault_count,
                    dropped_random: drops.random_count,
                }
            })
            .collect();
        let c = self.client();
        Counters {
            kinds,
            protocol_events: Message::EVENTS.iter().map(|&e| (e, m.event(e))).collect(),
            total_count: m.total_count(),
            total_bytes: m.total_bytes(),
            get_frag_count: self.get_frag.0,
            get_frag_bytes: self.get_frag.1,
            puts_attempted: c.puts_attempted(),
            puts_succeeded: c.puts_succeeded(),
            puts_timed_out: c.puts_timed_out(),
            recoveries: self.fs_sum(|fs| fs.recoveries_done()),
            compacted_entries: self.fs_sum(|fs| fs.compacted_count() as u64),
        }
    }

    fn fs_sum(&self, f: impl Fn(&Fs) -> u64) -> u64 {
        let sim = self.sim();
        self.fss.iter().map(|&fs| f(sim.actor::<Fs>(fs))).sum()
    }

    /// The AMR ledger: what became of every version anybody has heard of.
    ///
    /// `Cluster::report` is not used because it reads a compacted version
    /// (no `Fs::entry`) as neither durable nor AMR, and compaction is on.
    /// This walk uses the same public accessors, plus `Fs::verified` and
    /// `Fs::compacted_residual`, which know about residual records.
    pub fn ledger(&self) -> Ledger {
        let sim = self.sim();
        let c = self.client();
        let mut all: BTreeSet<ObjectVersion> = c.success_versions().clone();
        all.extend(c.failed_versions());
        for &kls in &self.klss {
            all.extend(sim.actor::<Kls>(kls).known_versions());
        }
        for &fs in &self.fss {
            all.extend(sim.actor::<Fs>(fs).known_versions());
        }
        let mut ledger = Ledger {
            acked: c.success_versions().len() as u64,
            ..Ledger::default()
        };
        let mut digest = Fnv::default();
        for &ov in &all {
            let amr = self.is_amr(ov);
            let acked = c.success_versions().contains(&ov);
            let mut settled_us = 0;
            if amr {
                settled_us = self
                    .fss
                    .iter()
                    .filter_map(|&fs| sim.actor::<Fs>(fs).amr_settled_at(ov))
                    .max()
                    .map_or(0, SimTime::as_micros);
                ledger
                    .time_to_amr_us
                    .push(settled_us.saturating_sub(ov.ts.clock_micros()));
                if acked {
                    ledger.acked_amr += 1;
                } else {
                    ledger.excess_amr += 1;
                }
            }
            if !is_durable(sim, &self.fss, ov) {
                ledger.non_durable += 1;
            }
            for word in [
                ov.key.as_u64(),
                ov.ts.clock_micros(),
                u64::from(ov.ts.proxy()),
                u64::from(amr),
                settled_us,
            ] {
                digest.write(word);
            }
        }
        ledger.time_to_amr_us.sort_unstable();
        ledger.versions = all.len() as u64;
        ledger.digest = digest.0;
        ledger
    }

    /// Whether `ov` is at maximum redundancy: every KLS holds complete
    /// metadata and every sibling FS verifies its share.
    fn is_amr(&self, ov: ObjectVersion) -> bool {
        let sim = self.sim();
        if !self
            .klss
            .iter()
            .all(|&kls| sim.actor::<Kls>(kls).has_complete_meta(ov))
        {
            return false;
        }
        let Some(meta) = self
            .klss
            .first()
            .and_then(|&kls| sim.actor::<Kls>(kls).meta(ov))
        else {
            return false;
        };
        meta.sibling_fss()
            .iter()
            .all(|&fs| sim.actor::<Fs>(fs).verified(ov))
    }

    /// How many nodes the simulation holds: servers, proxy and client.
    pub fn nodes(&self) -> usize {
        self.fss.len() + self.klss.len() + 2
    }
}

/// Whether at least `k` distinct fragments of `ov` are stored. A
/// compacted residual counts: compaction requires a settled-AMR version.
fn is_durable(sim: &Simulation<Message>, fss: &[NodeId], ov: ObjectVersion) -> bool {
    let mut stored = [false; 256];
    let mut k = usize::MAX;
    for &fs in fss {
        let fs: &Fs = sim.actor(fs);
        if fs.compacted_residual(ov).is_some() {
            return true;
        }
        if let Some(entry) = fs.entry(ov) {
            k = usize::from(entry.meta.policy().k);
            for &idx in entry.fragments.keys() {
                stored[usize::from(idx)] = true;
            }
        }
    }
    stored.iter().filter(|&&s| s).count() >= k
}

/// Mirrors `Cluster::build_with_faults` on the legacy engine, actor for
/// actor and id for id, with every actor wrapped in [`Timed`].
fn assemble_timed(
    cfg: &ClusterConfig,
    seed: u64,
    plan: FaultPlan,
) -> (Simulation<Message>, Arc<Topology>, Rc<Clocks>) {
    let layout = cfg.layout;
    let clocks = Rc::new(Clocks::default());
    let mut sim = Simulation::with_network(seed, cfg.network.clone(), plan);
    let topo = Topology::new(
        (0..layout.dcs)
            .map(|dc| {
                (
                    (0..layout.kls_per_dc).map(|i| layout.kls(dc, i)).collect(),
                    (0..layout.fs_per_dc).map(|i| layout.fs(dc, i)).collect(),
                )
            })
            .collect(),
    );
    for dc in 0..layout.dcs {
        let dc_id = DataCenterId::new(dc as u8);
        for _ in 0..layout.kls_per_dc {
            let kls = Kls::with_mode(topo.clone(), dc_id, cfg.protocol);
            sim.add_actor(Timed::new(kls, &clocks, KLS, KLS));
        }
        for _ in 0..layout.fs_per_dc {
            let fs = Fs::with_mode(topo.clone(), dc_id, cfg.convergence.clone(), cfg.protocol);
            sim.add_actor(Timed::new(fs, &clocks, FS_MSG, FS_TIMER));
        }
    }
    let proxy_cfg = ProxyConfig {
        put_amr_indication: cfg.convergence.put_amr_indication,
        ..cfg.proxy.clone()
    };
    let proxy = Proxy::with_mode(
        topo.clone(),
        DataCenterId::new(0),
        0,
        proxy_cfg,
        cfg.protocol,
    );
    let proxy_id = sim.add_actor(Timed::new(proxy, &clocks, PROXY, PROXY));
    assert_eq!(proxy_id, layout.proxy());
    let client = match &cfg.streaming_workload {
        Some(stream) => Client::streaming(proxy_id, stream.clone()),
        None => Client::new(proxy_id, Vec::new()),
    };
    let client_id = sim.add_actor(Timed::new(client, &clocks, CLIENT, CLIENT));
    assert_eq!(client_id, layout.client());
    if let Some(opts) = cfg.convergence.repair.clone() {
        for dc in 0..layout.dcs {
            let repair = RepairActor::new(topo.clone(), DataCenterId::new(dc as u8), opts.clone());
            let id = sim.add_actor(Timed::new(repair, &clocks, REPAIR, REPAIR));
            for i in 0..layout.fs_per_dc {
                sim.actor_mut::<Fs>(layout.fs(dc, i)).set_repair_target(id);
            }
        }
    }
    (sim, topo, clocks)
}

// ---------------------------------------------------------------------------
// Counters and the ledger.
// ---------------------------------------------------------------------------

/// Sends and drops of one message kind.
#[derive(Clone, Debug, PartialEq)]
pub struct KindCount {
    /// The kind's label in `Message::KINDS`.
    pub kind: &'static str,
    /// Messages sent.
    pub count: u64,
    /// Modelled wire bytes sent.
    pub bytes: u64,
    /// Dropped by a scheduled fault.
    pub dropped_fault: u64,
    /// Dropped by the channel's random loss.
    pub dropped_random: u64,
}

/// Everything counted by the program during a run.
#[derive(Clone, Debug, PartialEq)]
pub struct Counters {
    /// Per message kind, in `Message::KINDS` order.
    pub kinds: Vec<KindCount>,
    /// The program's `EV_*` protocol event counters, by name.
    pub protocol_events: Vec<(&'static str, u64)>,
    /// `Metrics::total_count`.
    pub total_count: u64,
    /// `Metrics::total_bytes`.
    pub total_bytes: u64,
    /// `RetrieveFrag*` messages sent while a get was in flight.
    pub get_frag_count: u64,
    /// Their bytes.
    pub get_frag_bytes: u64,
    /// Put attempts the client issued.
    pub puts_attempted: u64,
    /// Puts the client saw succeed.
    pub puts_succeeded: u64,
    /// Attempts that got no answer before the client's time-out.
    pub puts_timed_out: u64,
    /// Fragment recoveries completed, over all fragment servers.
    pub recoveries: u64,
    /// Store entries collapsed to residual records, over all servers.
    pub compacted_entries: u64,
}

impl Counters {
    /// `(messages, bytes)` of one group; `RetrieveFrag*` traffic sent
    /// outside a get is fragment recovery and counts as convergence.
    pub fn group(&self, group: Group) -> (u64, u64) {
        let (mut count, mut bytes) = (0, 0);
        for k in &self.kinds {
            if kind_group(k.kind) == Some(group) {
                count += k.count;
                bytes += k.bytes;
            }
        }
        let frag: (u64, u64) = self
            .kinds
            .iter()
            .filter(|k| k.kind.starts_with("RetrieveFrag"))
            .fold((0, 0), |a, k| (a.0 + k.count, a.1 + k.bytes));
        let recovery = (
            frag.0 - self.get_frag_count.min(frag.0),
            frag.1 - self.get_frag_bytes.min(frag.1),
        );
        match group {
            Group::Get => (count - recovery.0, bytes - recovery.1),
            Group::Convergence => (count + recovery.0, bytes + recovery.1),
            _ => (count, bytes),
        }
    }

    /// What was counted since `base` was taken from the same bed.
    pub fn since(&self, base: &Counters) -> Counters {
        let mut d = self.clone();
        for (k, b) in d.kinds.iter_mut().zip(&base.kinds) {
            k.count -= b.count;
            k.bytes -= b.bytes;
            k.dropped_fault -= b.dropped_fault;
            k.dropped_random -= b.dropped_random;
        }
        for (e, b) in d.protocol_events.iter_mut().zip(&base.protocol_events) {
            e.1 -= b.1;
        }
        d.total_count -= base.total_count;
        d.total_bytes -= base.total_bytes;
        d.get_frag_count -= base.get_frag_count;
        d.get_frag_bytes -= base.get_frag_bytes;
        d.puts_attempted -= base.puts_attempted;
        d.puts_succeeded -= base.puts_succeeded;
        d.puts_timed_out -= base.puts_timed_out;
        d.recoveries -= base.recoveries;
        d.compacted_entries -= base.compacted_entries;
        d
    }

    /// Sent messages of one kind.
    pub fn count_of(&self, kind: &str) -> u64 {
        self.kinds
            .iter()
            .find(|k| k.kind == kind)
            .map_or(0, |k| k.count)
    }

    /// A protocol event counter by name.
    pub fn protocol_event(&self, name: &str) -> u64 {
        self.protocol_events
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |&(_, v)| v)
    }

    /// `(fault drops, random drops)` over all kinds.
    pub fn drops(&self) -> (u64, u64) {
        self.kinds.iter().fold((0, 0), |a, k| {
            (a.0 + k.dropped_fault, a.1 + k.dropped_random)
        })
    }

    /// A digest of every counter, for comparing two runs.
    pub fn digest(&self) -> u64 {
        let mut d = Fnv::default();
        for k in &self.kinds {
            for w in [k.count, k.bytes, k.dropped_fault, k.dropped_random] {
                d.write(w);
            }
        }
        for &(_, v) in &self.protocol_events {
            d.write(v);
        }
        for w in [
            self.puts_attempted,
            self.puts_succeeded,
            self.puts_timed_out,
            self.recoveries,
            self.compacted_entries,
        ] {
            d.write(w);
        }
        d.0
    }
}

/// What a message kind is part of.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Group {
    /// Client ↔ proxy.
    Client,
    /// The put protocol.
    Put,
    /// The get protocol.
    Get,
    /// Convergence, including AMR indications and recovery pushes.
    Convergence,
}

/// The group of a `Message::KINDS` label; `None` for a label this file
/// does not know, which the unit test below turns into a failure.
pub fn kind_group(kind: &str) -> Option<Group> {
    Some(match kind {
        "ClientPutReq" | "ClientPutRep" | "ClientGetReq" | "ClientGetRep" => Group::Client,
        "DecideLocsReq" | "DecideLocsRep" | "StoreMetadataReq" | "StoreMetadataRep"
        | "StoreFragmentReq" | "StoreFragmentRep" => Group::Put,
        "RetrieveTsReq" | "RetrieveTsRep" | "RetrieveFragReq" | "RetrieveFragRep" => Group::Get,
        "FSDecideLocsReq" | "LocsIndication" | "AMRIndication" | "KLSConvergeReq"
        | "KLSConvergeRep" | "FSConvergeReq" | "FSConvergeRep" | "SiblingStoreReq" => {
            Group::Convergence
        }
        _ => return None,
    })
}

/// What became of every object version.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Ledger {
    /// Versions anybody has heard of.
    pub versions: u64,
    /// Versions whose put the client saw succeed.
    pub acked: u64,
    /// Of those, how many are AMR.
    pub acked_amr: u64,
    /// AMR versions whose put the client did not see succeed.
    pub excess_amr: u64,
    /// Versions with fewer than `k` stored fragments.
    pub non_durable: u64,
    /// Put timestamp → last sibling FS settled, per AMR version, sorted.
    pub time_to_amr_us: Vec<u64>,
    /// Digest of `(version, AMR?, settle time)` over all versions.
    pub digest: u64,
}

#[derive(Clone, Copy)]
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn write(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Every time-out and cap the runs are configured with, in seconds: a
/// reported latency equal to one of them measures the setting, not the
/// system.
pub fn configured_limits() -> Vec<(&'static str, f64)> {
    let (p, c) = (ProxyConfig::default(), ConvergenceOptions::all());
    vec![
        // `Client::new` fixes it and offers no accessor.
        ("client op time-out", 5.0),
        ("proxy put_timeout", p.put_timeout.as_secs_f64()),
        ("proxy get_timeout", p.get_timeout.as_secs_f64()),
        (
            "proxy get_attempt_timeout",
            p.get_attempt_timeout.as_secs_f64(),
        ),
        ("convergence min_age", c.min_age.as_secs_f64()),
        ("convergence round_min", c.round_min.as_secs_f64()),
        ("convergence round_max", c.round_max.as_secs_f64()),
        ("convergence backoff_base", c.backoff_base.as_secs_f64()),
        ("convergence backoff_cap", c.backoff_cap.as_secs_f64()),
        ("convergence recovery_wait", c.recovery_wait.as_secs_f64()),
        (
            "convergence recovery_timeout",
            c.recovery_timeout.as_secs_f64(),
        ),
        ("max_sim_time", MAX_SIM_SECS as f64),
    ]
}

/// This process's peak resident set (`VmHWM`), bytes.
pub fn peak_rss_bytes() -> u64 {
    stats::peak_rss_bytes().unwrap_or(0)
}

// ---------------------------------------------------------------------------
// Replay probes: one layer's public functions, in isolation.
// ---------------------------------------------------------------------------

/// Cost of `calls` calls, measured on at most [`PROBE_CAP`] of them and
/// scaled: each probed function's cost is linear in calls at fixed size.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Probe {
    /// Calls the run made.
    pub calls: u64,
    /// Calls the probe replayed.
    pub replayed: u64,
    /// Nanoseconds, scaled to `calls`.
    pub ns: f64,
}

/// Most calls a probe replays before scaling.
pub const PROBE_CAP: u64 = 1024;

fn probe(calls: u64, mut f: impl FnMut(u64)) -> Probe {
    let replayed = calls.min(PROBE_CAP);
    // One untimed call fills scratch buffers and the inversion cache, as
    // the run's first operation did.
    if replayed > 0 {
        f(0);
    }
    let t = Instant::now();
    for i in 0..replayed {
        f(i);
    }
    let ns = t.elapsed().as_nanos() as f64;
    Probe {
        calls,
        replayed,
        ns: if replayed == 0 {
            0.0
        } else {
            ns * calls as f64 / replayed as f64
        },
    }
}

fn probe_values(len: usize, seed: u64) -> Vec<Bytes> {
    (0..4u64)
        .map(|i| Bytes::from(crate::workloads::fill_value(seed ^ i, len)))
        .collect()
}

fn probe_codec(k: u8, n: u8) -> Codec {
    Codec::new(usize::from(k), usize::from(n)).expect("workload policies are valid")
}

/// `Codec::encode_value`, as the proxy calls it once per put attempt.
pub fn probe_encode(k: u8, n: u8, value_len: usize, calls: u64) -> Probe {
    let codec = probe_codec(k, n);
    let values = probe_values(value_len, 1);
    let mut out = Vec::new();
    probe(calls, |i| {
        codec.encode_value(&values[i as usize % values.len()], &mut out);
        black_box(&out);
    })
}

/// `k`-subsets of the fragments not listed in `without`, varied by `i`.
fn subsets(frags: &[Fragment], k: u8, without: &[u8], count: u64) -> Vec<Vec<Fragment>> {
    let usable: Vec<&Fragment> = frags
        .iter()
        .filter(|f| !without.contains(&f.index()))
        .collect();
    (0..count)
        .map(|i| {
            let mut state = crate::workloads::mix64(i);
            let mut pool = usable.clone();
            (0..k)
                .map(|_| {
                    state = crate::workloads::mix64(state);
                    pool.swap_remove(state as usize % pool.len()).clone()
                })
                .collect()
        })
        .collect()
}

/// `Codec::decode_into` on the first `k` fragments to arrive: a random
/// `k`-subset of the fragments whose servers are up (`without` lists the
/// indices held by a server that is down).
pub fn probe_decode(k: u8, n: u8, value_len: usize, without: &[u8], calls: u64) -> Probe {
    let codec = probe_codec(k, n);
    let frags = codec.encode(&probe_values(value_len, 2)[0]);
    let sets = subsets(&frags, k, without, 32);
    let mut out = Vec::new();
    probe(calls, |i| {
        codec
            .decode_into(&sets[i as usize % sets.len()], value_len, &mut out)
            .expect("k distinct fragments decode");
        black_box(&out);
    })
}

/// `Codec::recover_into`: regenerate `missing` fragments from `k` others.
pub fn probe_recover(k: u8, n: u8, value_len: usize, missing: &[u8], calls: u64) -> Probe {
    let codec = probe_codec(k, n);
    let frags = codec.encode(&probe_values(value_len, 3)[0]);
    let sets = subsets(&frags, k, missing, 32);
    let mut out = Vec::new();
    probe(calls, |i| {
        codec
            .recover_into(&sets[i as usize % sets.len()], missing, value_len, &mut out)
            .expect("k distinct fragments recover");
        black_box(&out);
    })
}

/// `Checksum::of` on one fragment. Call model: a fragment server hashes a
/// fragment once when it stores it and once when it serves it.
pub fn probe_checksum(fragment_len: usize, calls: u64) -> Probe {
    let values = probe_values(fragment_len, 4);
    probe(calls, |i| {
        black_box(Checksum::of(&values[i as usize % values.len()]));
    })
}

/// `FaultPlan::blocks`, which the engine calls once per send, on the
/// workload's plan with senders, receivers and times spread over the run.
pub fn probe_fault_plan(shape: &Shape, faults: &[Fault], span_us: u64, calls: u64) -> Probe {
    let layout = cluster_config(shape, None).layout;
    let plan = fault_plan(layout, faults);
    let nodes = layout.client().index() as u64 + 1;
    probe(calls, |i| {
        let r = crate::workloads::mix64(i);
        let from = NodeId::new((r % nodes) as u32);
        let to = NodeId::new(((r >> 20) % nodes) as u32);
        let t = SimTime::ZERO + SimDuration::from_micros((r >> 8) % span_us.max(1));
        black_box(plan.blocks(from, to, t));
    })
}

/// Forwards every message to the next node until the shared budget runs
/// out.
struct Relay {
    next: NodeId,
    chains: u32,
    budget: Rc<Cell<u64>>,
}

impl Relay {
    fn token() -> Message {
        Message::StoreMetadataReply {
            ov: ObjectVersion::new(Key::from_u64(1), Timestamp::MIN),
            complete: true,
        }
    }
    fn forward(&self, ctx: &mut Context<'_, Message>) {
        let left = self.budget.get();
        if left > 0 {
            self.budget.set(left - 1);
            ctx.send(self.next, Relay::token());
        }
    }
}

impl Actor<Message> for Relay {
    fn on_start(&mut self, ctx: &mut Context<'_, Message>) {
        for _ in 0..self.chains {
            self.forward(ctx);
        }
    }
    fn on_message(&mut self, ctx: &mut Context<'_, Message>, _from: NodeId, _msg: Message) {
        self.forward(ctx);
    }
    fn on_timer(&mut self, _ctx: &mut Context<'_, Message>, _tag: u64) {}
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// The engine alone: `nodes` relay actors pass `events` small messages
/// around a ring on the paper's network. Returns the loop's wall time and
/// the relays' clocks; the gaps between relay calls are the event queue,
/// virtual clock and dispatch with nothing else competing for the cache,
/// so this is a ceiling on the engine's rate, not its cost inside a run.
pub fn probe_null_engine(nodes: usize, events: u64) -> Readings {
    let mut sim: Simulation<Message> = Simulation::new(7);
    let budget = Rc::new(Cell::new(events));
    let clocks = Rc::new(Clocks::default());
    for i in 0..nodes {
        let relay = Relay {
            next: NodeId::new(((i + 1) % nodes) as u32),
            chains: 4,
            budget: Rc::clone(&budget),
        };
        sim.add_actor(Timed::new(relay, &clocks, CLIENT, CLIENT));
    }
    clocks.around_loop(|| sim.run_until_quiescent());
    clocks.read()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_message_kind_has_a_group() {
        for kind in Message::KINDS {
            assert!(
                kind_group(kind).is_some(),
                "message kind {kind} is in no group: add it to kind_group"
            );
        }
    }

    #[test]
    fn traced_assembly_matches_cluster_build() {
        let shape = Shape {
            layout: None,
            policy: None,
            drop_rate: 0.01,
            naive: false,
        };
        let stream = Stream {
            puts: 40,
            key_space: 10,
            value_len: 512,
            zipf: Some(1.1),
            seed: 5,
        };
        let run = |traced| {
            let mut bed = Bed::build(&shape, &[], Some(&stream), 5, traced);
            let mut lat = PutLatencies::default();
            assert!(bed.run_stream_until(stream.puts, &mut lat));
            assert!(bed.run_to_convergence());
            (bed.events(), bed.counters(), bed.ledger(), lat.ok_us)
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn driven_ops_round_trip_on_both_engines() {
        let shape = Shape {
            layout: None,
            policy: None,
            drop_rate: 0.0,
            naive: false,
        };
        for traced in [false, true] {
            let mut bed = Bed::build(&shape, &[], None, 9, traced);
            let latency = bed.put(b"a", vec![7; 3000]).expect("put acked");
            assert!(latency > 0);
            let (value, latency) = bed.get(b"a");
            assert_eq!(value, Some(vec![7; 3000]));
            assert!(latency > 0);
            assert!(bed.run_to_convergence());
            let ledger = bed.ledger();
            assert_eq!((ledger.acked, ledger.acked_amr), (1, 1));
            let c = bed.counters();
            // No recovery ran, so every RetrieveFrag* message belongs to the get.
            assert!(c.get_frag_count > 0);
            assert_eq!(
                c.get_frag_count,
                c.count_of("RetrieveFragReq") + c.count_of("RetrieveFragRep")
            );
            assert!(c.group(Group::Get).0 > c.get_frag_count);
        }
    }
}
