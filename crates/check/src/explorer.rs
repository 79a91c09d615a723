//! Scenario sweep, violation shrinking and trace dumping.
//!
//! The explorer is a small explicit-state model checker over the
//! *parameter* space of the simulation. Every checked run is a
//! [`Scenario`]: a seed, a fault plan and a convergence preset, plus the
//! cluster and workload shape, the steps taken once the workload
//! converges and the invariants checked. A run of a scenario is fully
//! deterministic, so a violating scenario **is** a reproduction recipe.
//! [`sweep`] runs a list of scenarios — the seeds × fault plans × presets
//! grid, then any hand-built ones such as the [scale cell](Scenario::scale)
//! and the [repair families](Scenario::repair_families) — checking the
//! scenario's invariants after every simulation event (or every
//! `sample_every` events); on the first violation it greedily shrinks the
//! fault plan (dropping outages, zeroing loss and duplication) to the
//! minimal one that still violates, and renders the shrunk run's message
//! trace for offline diagnosis.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;

use pahoehoe::client::{Client, ClientOp};
use pahoehoe::cluster::{Cluster, ClusterConfig, ClusterLayout};
use pahoehoe::convergence::ConvergenceOptions;
use pahoehoe::fs::{Fs, WAKE_TIMER_TAG};
use pahoehoe::protocol::ProtocolMode;
use pahoehoe::repair::RepairOptions;
use pahoehoe::types::{Key, ObjectVersion};
use pahoehoe::workload::{KeyDistribution, StreamingWorkload};
use simnet::{FaultPlan, NetworkConfig, NodeId, RunOutcome, SimDuration, SimTime, TraceEvent};

use crate::invariants::{self, Checker, Invariant, Violation};

/// The six convergence configurations evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Preset {
    /// Naïve convergence (§3.4).
    Naive,
    /// FS AMR indications, synchronized rounds (*FSAMR-S*).
    FsAmrSynchronized,
    /// FS AMR indications, unsynchronized rounds (*FSAMR-U*).
    FsAmrUnsynchronized,
    /// Proxy Put-AMR indications (*PutAMR*).
    PutAmr,
    /// Sibling fragment recovery (*Sibling*).
    Sibling,
    /// Every optimization (*All*).
    All,
}

impl Preset {
    /// All six presets, in the paper's presentation order.
    pub const ALL: [Preset; 6] = [
        Preset::Naive,
        Preset::FsAmrSynchronized,
        Preset::FsAmrUnsynchronized,
        Preset::PutAmr,
        Preset::Sibling,
        Preset::All,
    ];

    /// The paper's label for this configuration.
    pub fn name(self) -> &'static str {
        match self {
            Preset::Naive => "Naive",
            Preset::FsAmrSynchronized => "FSAMR-S",
            Preset::FsAmrUnsynchronized => "FSAMR-U",
            Preset::PutAmr => "PutAMR",
            Preset::Sibling => "Sibling",
            Preset::All => "All",
        }
    }

    /// The corresponding [`ConvergenceOptions`].
    pub fn options(self) -> ConvergenceOptions {
        match self {
            Preset::Naive => ConvergenceOptions::naive(),
            Preset::FsAmrSynchronized => ConvergenceOptions::fs_amr_synchronized(),
            Preset::FsAmrUnsynchronized => ConvergenceOptions::fs_amr_unsynchronized(),
            Preset::PutAmr => ConvergenceOptions::put_amr(),
            Preset::Sibling => ConvergenceOptions::sibling(),
            Preset::All => ConvergenceOptions::all(),
        }
    }
}

/// One scheduled node outage, in layout-independent form: `node` is a raw
/// node index (see [`ClusterLayout`] for the id assignment).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outage {
    /// Raw node index of the affected server.
    pub node: u32,
    /// Outage start (seconds of virtual time).
    pub start_secs: u64,
    /// Outage duration (seconds).
    pub dur_secs: u64,
}

/// A fault plan in enumerable, shrinkable form. Rates are in hundredths
/// (integers shrink and compare cleanly; `drop_centi: 5` = 5 % loss).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpec {
    /// Random message loss, in percent.
    pub drop_centi: u8,
    /// Random message duplication, in percent.
    pub dup_centi: u8,
    /// Scheduled node outages. All must heal well before the scenario's
    /// virtual-time deadline, or the AMR-convergence invariant is not
    /// meaningful.
    pub outages: Vec<Outage>,
}

impl FaultSpec {
    /// No faults at all.
    pub fn clean() -> Self {
        FaultSpec {
            drop_centi: 0,
            dup_centi: 0,
            outages: Vec::new(),
        }
    }

    /// Whether this spec injects any fault.
    pub fn is_clean(&self) -> bool {
        self.drop_centi == 0 && self.dup_centi == 0 && self.outages.is_empty()
    }

    /// The network model this spec induces (paper-default latency).
    pub fn network(&self) -> NetworkConfig {
        NetworkConfig {
            drop_rate: f64::from(self.drop_centi) / 100.0,
            duplicate_rate: f64::from(self.dup_centi) / 100.0,
            ..NetworkConfig::paper_default()
        }
    }

    /// The outage schedule as a simnet fault plan.
    pub fn plan(&self) -> FaultPlan {
        let mut plan = FaultPlan::none();
        for o in &self.outages {
            plan.add_node_outage(
                NodeId::new(o.node),
                SimTime::ZERO + SimDuration::from_secs(o.start_secs),
                SimDuration::from_secs(o.dur_secs),
            );
        }
        plan
    }

    /// Single-step simplifications of this spec, in shrink preference
    /// order: fewer outages first, then no duplication, then no loss.
    fn simplifications(&self) -> Vec<FaultSpec> {
        let mut out = Vec::new();
        for i in 0..self.outages.len() {
            let mut s = self.clone();
            s.outages.remove(i);
            out.push(s);
        }
        if self.dup_centi > 0 {
            out.push(FaultSpec {
                dup_centi: 0,
                ..self.clone()
            });
        }
        if self.drop_centi > 0 {
            out.push(FaultSpec {
                drop_centi: 0,
                ..self.clone()
            });
        }
        out
    }
}

/// The client's workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadCfg {
    /// Puts per round of the standard workload, or in all of a stream.
    pub puts: usize,
    /// Value length per put.
    pub value_len: usize,
    /// How the puts pick their keys.
    pub keys: Keys,
}

/// How a workload's puts pick their keys.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Keys {
    /// The standard workload: keys `1..=puts`, each put once per round.
    /// `1` is the insert-only sweep; `2` (`--overwrite`) makes every put
    /// after the first round an overwrite of a key that already holds a
    /// version.
    Rounds(usize),
    /// A streamed workload seeded by the scenario: the puts draw their keys
    /// Zipf(1.1) from a space of this many keys.
    Zipf(u64),
}

impl Default for WorkloadCfg {
    fn default() -> Self {
        WorkloadCfg {
            puts: 3,
            value_len: 4096,
            keys: Keys::Rounds(1),
        }
    }
}

/// One step a scenario takes after its workload converges, applied in
/// order. Steps are data, so a scenario stays a printable repro.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Destroy disk `disk` of FS `fs` of DC 0 at the current virtual time.
    DestroyDisk {
        /// FS index within DC 0.
        fs: usize,
        /// Disk index on that FS.
        disk: u8,
    },
    /// Queue a get of each of workload keys `1..=keys` and wake the client.
    Gets {
        /// Number of keys read.
        keys: u64,
    },
    /// Run the simulation for this many more virtual seconds.
    Run {
        /// Seconds of virtual time.
        secs: u64,
    },
}

/// The invariants a scenario is checked against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InvariantSet {
    /// The full [registry](invariants::registry).
    Registry,
    /// For runs that destroy disks: the redundancy floor, metrics sanity
    /// and checksum integrity. The durability family and AMR convergence
    /// assume no stored fragment is ever lost.
    DiskLoss,
}

impl InvariantSet {
    fn build(self) -> Vec<Box<dyn Invariant>> {
        match self {
            InvariantSet::Registry => invariants::registry(),
            InvariantSet::DiskLoss => vec![
                Box::new(invariants::RedundancyFloor::new()),
                Box::new(invariants::MetricsSanity::new()),
                Box::new(invariants::ChecksumIntegrity),
            ],
        }
    }
}

/// One checked run: a fully deterministic recipe.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Name of a hand-built scenario (`scale`, `repair-churn`, …); `None`
    /// for a cell of the seeds × fault plans × presets grid.
    pub name: Option<&'static str>,
    /// Simulation seed (and the stream's, for a Zipf workload).
    pub seed: u64,
    /// Injected faults.
    pub faults: FaultSpec,
    /// Convergence configuration under test.
    pub preset: Preset,
    /// The protocol mode every actor runs (`--batch` sets
    /// [`ProtocolMode::batch_rounds`]).
    pub protocol: ProtocolMode,
    /// The client's workload.
    pub workload: WorkloadCfg,
    /// `Some(r)`: rack-aware placement over `r` racks per DC.
    pub racks_per_dc: Option<usize>,
    /// The background repair engine, if any (one repair actor per DC).
    pub repair: Option<RepairOptions>,
    /// What happens once the workload converges.
    pub steps: Vec<Step>,
    /// The invariants checked.
    pub invariants: InvariantSet,
    /// Per-event checks run once every this many events; end-of-run
    /// checks always run.
    pub sample_every: u64,
}

impl Default for Scenario {
    /// A grid cell: seed 0, no faults, every optimization, the default
    /// workload and protocol mode, the full registry after every event.
    fn default() -> Self {
        Scenario {
            name: None,
            seed: 0,
            faults: FaultSpec::clean(),
            preset: Preset::All,
            protocol: ProtocolMode::default(),
            workload: WorkloadCfg::default(),
            racks_per_dc: None,
            repair: None,
            steps: Vec::new(),
            invariants: InvariantSet::Registry,
            sample_every: 1,
        }
    }
}

impl Scenario {
    /// The scale cell (`explore --scale`): a Zipf stream of 600 puts over
    /// 200 keys under [`ProtocolMode::scale`] — update-heavy enough that
    /// converged-version compaction provably fires — with the registry
    /// sampled every 500 events.
    pub fn scale() -> Scenario {
        Scenario {
            name: Some("scale"),
            seed: 42,
            protocol: ProtocolMode::scale(),
            workload: WorkloadCfg {
                puts: 600,
                value_len: 1024,
                keys: Keys::Zipf(200),
            },
            sample_every: 500,
            ..Scenario::default()
        }
    }

    /// The four repair families (`explore --repair`): eight puts on a
    /// paper cluster with three racks per DC and a repair actor per DC,
    /// then a destruction schedule confined to DC 0 (so the remote DC
    /// always holds donors) and 420 s for the engine to re-protect what is
    /// left degraded. Checked every 25 events: repair runs idle between
    /// drain ticks, and the redundancy-floor grace clock starts at the
    /// first sampled observation.
    pub fn repair_families() -> Vec<Scenario> {
        use Step::{DestroyDisk, Gets, Run};
        let family = |name, repair, mut steps: Vec<Step>| {
            steps.push(Run { secs: 420 });
            Scenario {
                name: Some(name),
                seed: 42,
                workload: WorkloadCfg {
                    puts: 8,
                    ..WorkloadCfg::default()
                },
                racks_per_dc: Some(3),
                repair: Some(repair),
                steps,
                invariants: InvariantSet::DiskLoss,
                sample_every: 25,
                ..Scenario::default()
            }
        };
        // Both disks of FS `fs` of DC 0 die at once. Rack `fs` of DC 0 is
        // that one server, so every stripe drops to 4/6 live in that DC.
        let server_loss = |fs| [DestroyDisk { fs, disk: 0 }, DestroyDisk { fs, disk: 1 }];
        vec![
            // Sustained churn: one disk dies every other virtual minute,
            // rotating over DC 0's servers and disks, so damage accumulates
            // until an object crosses the threshold.
            family(
                "repair-churn",
                RepairOptions::paper_default(),
                (0..6)
                    .flat_map(|w| {
                        let disk = (w / 3) as u8;
                        [DestroyDisk { fs: w % 3, disk }, Run { secs: 120 }]
                    })
                    .collect(),
            ),
            family(
                "repair-rack",
                RepairOptions::paper_default(),
                server_loss(0).to_vec(),
            ),
            // A flash crowd of reads racing the rebuild: the digest's
            // degraded-read count observes the gets decoded around the hole.
            family(
                "repair-flash",
                RepairOptions::paper_default(),
                server_loss(0)
                    .into_iter()
                    .chain((0..3).flat_map(|burst| [Gets { keys: 8 }, Run { secs: 10 + burst }]))
                    .collect(),
            ),
            // A repair storm under backpressure: two of DC 0's servers
            // lose both disks and the token bucket is well under one job's
            // cost, so the queue drains over many throttle-stalled ticks.
            family(
                "repair-storm",
                RepairOptions::throttled(2048),
                [server_loss(0), server_loss(1)].concat(),
            ),
        ]
    }
}

/// A deliberately introduced bug, used to prove the checker catches
/// violations end to end (and by the intentional-bug test).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Injection {
    /// No bug: the protocols run as implemented.
    None,
    /// At the end of the run, silently flip bytes of one stored fragment
    /// without updating its recorded checksum, then let the simulation run
    /// a little longer. The checksum-integrity invariant must flag it.
    CorruptFragment,
}

/// Everything observed about one scenario run.
#[derive(Debug)]
pub struct ScenarioOutcome {
    /// First invariant violation, if any.
    pub violation: Option<Violation>,
    /// Events the simulation processed.
    pub events: u64,
    /// Virtual time at end of run.
    pub sim_time: SimTime,
    /// Why the last run phase stopped: convergence, or the last
    /// [`Step::Run`].
    pub outcome: RunOutcome,
    /// Rendered message trace (only when requested).
    pub trace: Option<String>,
    /// Debug rendering of the traffic metrics — byte-identical across
    /// replays of the same scenario.
    pub metrics_digest: String,
    /// Converged versions collapsed to residual records across all FSs.
    pub compacted: u64,
    /// Fewest distinct live fragments of any acknowledged version at the
    /// end of the run (0 when nothing was acknowledged).
    pub min_live: usize,
    /// Final values of the repair engine's event counters, in
    /// `REPAIR_EVENTS` order.
    pub repair_events: [u64; 7],
}

/// The repair engine's event counters. Dense events are left out of the
/// traffic-metrics rendering, so a repair scenario's digest line folds
/// these explicitly: without them a repair engine that never triggers
/// would be digest-invisible.
const REPAIR_EVENTS: [&str; 7] = [
    "repair_triggered",
    "repair_completed",
    "repair_abandoned",
    "repair_bytes",
    "repair_queue_depth",
    "repair_throttle_stalls",
    "degraded_reads",
];

/// Runs one scenario under its invariants. The message trace is recorded
/// only when `want_trace` is set.
pub fn run_scenario(sc: &Scenario, injection: Injection, want_trace: bool) -> ScenarioOutcome {
    let mut cluster = scenario_cluster(sc);
    let trace = want_trace.then(|| {
        let trace = Rc::new(RefCell::new(Vec::<TraceEvent>::new()));
        cluster.sim_mut().observe(Rc::clone(&trace));
        trace
    });
    let checker = Checker::install_sampled(&mut cluster, sc.invariants.build(), sc.sample_every);

    let mut outcome = cluster.run_to_convergence().outcome;
    for &step in &sc.steps {
        match step {
            Step::DestroyDisk { fs, disk } => {
                let victim = cluster.layout().fs(0, fs);
                let now = cluster.sim().now();
                cluster
                    .sim_mut()
                    .actor_mut::<Fs>(victim)
                    .destroy_disk(disk, now);
            }
            Step::Gets { keys } => {
                let client = cluster.layout().client();
                for key in 1..=keys {
                    cluster
                        .sim_mut()
                        .actor_mut::<Client>(client)
                        .enqueue(ClientOp::Get {
                            key: Key::from_u64(key),
                        });
                }
                cluster
                    .sim_mut()
                    .schedule_timer(client, SimDuration::ZERO, 1);
            }
            Step::Run { secs } => {
                let deadline = cluster.sim().now() + SimDuration::from_secs(secs);
                outcome = cluster.sim_mut().run_until_time(deadline);
            }
        }
    }
    if injection == Injection::CorruptFragment {
        inject_corruption(&mut cluster);
    }

    let violation = checker.finish(&cluster, outcome);
    let sim = cluster.sim();
    ScenarioOutcome {
        violation,
        events: sim.events_processed(),
        sim_time: sim.now(),
        outcome,
        trace: trace.map(|trace| render(&trace.borrow())),
        metrics_digest: format!("{:?}", sim.metrics()),
        compacted: cluster
            .topology()
            .all_fss()
            .map(|fs| cluster.fs(fs).compacted_count() as u64)
            .sum(),
        min_live: min_live(&cluster),
        repair_events: REPAIR_EVENTS.map(|label| sim.metrics().event(label)),
    }
}

/// One line per send: time, endpoints, kind, wire size and disposition.
fn render(trace: &[TraceEvent]) -> String {
    let mut out = String::new();
    for e in trace {
        let _ = writeln!(
            out,
            "{} {} -> {} {} {}B {:?}",
            e.at, e.from, e.to, e.kind, e.bytes, e.disposition
        );
    }
    out
}

/// The cluster a scenario runs: its workload, protocol mode, racks and
/// repair engine under its preset, network and fault plan.
fn scenario_cluster(sc: &Scenario) -> Cluster {
    let mut cfg = ClusterConfig::paper_default();
    cfg.protocol = sc.protocol;
    cfg.convergence = ConvergenceOptions {
        repair: sc.repair.clone(),
        ..sc.preset.options()
    };
    cfg.racks_per_dc = sc.racks_per_dc;
    let WorkloadCfg {
        puts,
        value_len,
        keys,
    } = sc.workload;
    match keys {
        Keys::Rounds(rounds) => {
            cfg.workload_puts = puts;
            cfg.workload_value_len = value_len;
            cfg.workload_rounds = rounds;
        }
        Keys::Zipf(key_space) => {
            cfg.streaming_workload = Some(StreamingWorkload {
                puts: puts as u64,
                key_space,
                value_len,
                policy: cfg.policy,
                seed: sc.seed,
                dist: KeyDistribution::Zipf { exponent: 1.1 },
                overwrite_delta_permille: 0,
            })
        }
    }
    cfg.network = sc.faults.network();
    Cluster::build_with_faults(cfg, sc.seed, sc.faults.plan())
}

/// The fewest distinct fragment indices any acknowledged version still
/// holds across the cluster's FSs — `n` when everything is intact.
fn min_live(cluster: &Cluster) -> usize {
    let fss: Vec<NodeId> = cluster.topology().all_fss().collect();
    let live = |ov: ObjectVersion| {
        let mut distinct = std::collections::BTreeSet::new();
        for &fs in &fss {
            if let Some(entry) = cluster.fs(fs).entry(ov) {
                distinct.extend(entry.fragments.keys().copied());
            }
        }
        distinct.len()
    };
    let acked = cluster.client().success_versions();
    acked.iter().map(|&ov| live(ov)).min().unwrap_or(0)
}

/// Flips one stored fragment's bytes behind the checksum bookkeeping's
/// back, then runs the simulation briefly so the checker observes the
/// corrupted state.
fn inject_corruption(cluster: &mut Cluster) {
    let fss: Vec<NodeId> = cluster.topology().all_fss().collect();
    let target = fss.iter().find_map(|&fs| {
        let actor: &Fs = cluster.sim().actor(fs);
        actor.known_versions().find_map(|ov| {
            let idx = *actor.entry(ov)?.fragments.keys().next()?;
            Some((fs, ov, idx))
        })
    });
    let Some((fs, ov, idx)) = target else {
        return; // nothing stored anywhere; nothing to corrupt
    };
    let flipped = cluster
        .sim_mut()
        .actor_mut::<Fs>(fs)
        .corrupt_fragment(ov, idx);
    debug_assert!(flipped);
    let deadline = cluster.sim().now() + SimDuration::from_secs(2);
    cluster
        .sim_mut()
        .schedule_timer(fs, SimDuration::from_millis(1), WAKE_TIMER_TAG);
    cluster.sim_mut().run_until_time(deadline);
}

/// Greedily shrinks a violating scenario: repeatedly applies the first
/// single-step fault simplification that still violates some invariant,
/// until none does. Everything but the fault plan is preserved.
pub fn shrink(sc: &Scenario, injection: Injection) -> Scenario {
    let violates = |candidate: &Scenario| {
        run_scenario(candidate, injection, false)
            .violation
            .is_some()
    };
    let mut current = sc.clone();
    'outer: loop {
        for spec in current.faults.simplifications() {
            let candidate = Scenario {
                faults: spec,
                ..current.clone()
            };
            if violates(&candidate) {
                current = candidate;
                continue 'outer;
            }
        }
        return current;
    }
}

/// The sweep grid: the cartesian product of seeds, fault specs and
/// presets, all run with one protocol mode and workload.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Seeds to sweep.
    pub seeds: Vec<u64>,
    /// Fault specs to sweep.
    pub fault_specs: Vec<FaultSpec>,
    /// Convergence presets to sweep.
    pub presets: Vec<Preset>,
    /// The protocol mode every cell runs.
    pub protocol: ProtocolMode,
    /// The workload every cell runs. Small values keep per-event invariant
    /// checking (which hashes and compares every stored fragment) cheap.
    pub workload: WorkloadCfg,
}

impl SweepConfig {
    /// The standard pool of fault specs: clean, loss-only, duplication-only,
    /// outage mixes. Outage node indices follow the paper-default layout
    /// (two DCs × two KLSs + three FSs); all outages heal within the first
    /// two virtual minutes.
    pub fn fault_pool() -> Vec<FaultSpec> {
        let layout = ClusterLayout {
            dcs: 2,
            kls_per_dc: 2,
            fs_per_dc: 3,
        };
        let fs = |dc, i| layout.fs(dc, i).index() as u32;
        let kls = |dc, i| layout.kls(dc, i).index() as u32;
        vec![
            FaultSpec::clean(),
            FaultSpec {
                drop_centi: 5,
                dup_centi: 0,
                outages: vec![],
            },
            FaultSpec {
                drop_centi: 0,
                dup_centi: 5,
                outages: vec![],
            },
            FaultSpec {
                drop_centi: 2,
                dup_centi: 2,
                outages: vec![Outage {
                    node: fs(1, 0),
                    start_secs: 0,
                    dur_secs: 60,
                }],
            },
            FaultSpec {
                drop_centi: 0,
                dup_centi: 0,
                outages: vec![
                    Outage {
                        node: kls(0, 0),
                        start_secs: 0,
                        dur_secs: 30,
                    },
                    Outage {
                        node: fs(0, 1),
                        start_secs: 10,
                        dur_secs: 60,
                    },
                ],
            },
            FaultSpec {
                drop_centi: 10,
                dup_centi: 5,
                outages: vec![Outage {
                    node: fs(1, 2),
                    start_secs: 0,
                    dur_secs: 120,
                }],
            },
        ]
    }

    /// The smoke sweep: 3 seeds × 3 fault specs × all 6 presets = 54
    /// scenarios.
    pub fn smoke() -> Self {
        SweepConfig {
            seeds: (0..3).collect(),
            fault_specs: SweepConfig::fault_pool().into_iter().take(3).collect(),
            ..SweepConfig::full()
        }
    }

    /// The full sweep: 4 seeds × 6 fault specs × all 6 presets = 144
    /// scenarios.
    pub fn full() -> Self {
        SweepConfig {
            seeds: (0..4).collect(),
            fault_specs: SweepConfig::fault_pool(),
            presets: Preset::ALL.to_vec(),
            protocol: ProtocolMode::default(),
            workload: WorkloadCfg::default(),
        }
    }

    /// The grid's scenarios, in deterministic order.
    pub fn scenarios(&self) -> Vec<Scenario> {
        let mut out = Vec::new();
        for &seed in &self.seeds {
            for spec in &self.fault_specs {
                for &preset in &self.presets {
                    out.push(Scenario {
                        seed,
                        faults: spec.clone(),
                        preset,
                        protocol: self.protocol,
                        workload: self.workload,
                        ..Scenario::default()
                    });
                }
            }
        }
        out
    }
}

/// A violating scenario, shrunk, with its evidence.
#[derive(Debug)]
pub struct ViolationReport {
    /// The scenario that first violated.
    pub original: Scenario,
    /// The shrunk scenario: the original with the minimal fault plan.
    pub shrunk: Scenario,
    /// The violation observed on the **shrunk** scenario.
    pub violation: Violation,
    /// Rendered message trace of the shrunk run.
    pub trace: String,
}

/// The result of a sweep.
#[derive(Debug)]
pub struct SweepResult {
    /// Scenarios completed (including the violating one, if any).
    pub scenarios_run: usize,
    /// Total simulation events processed.
    pub events_checked: u64,
    /// The first violation found, shrunk, or `None` if every invariant held
    /// everywhere.
    pub violation: Option<ViolationReport>,
}

/// Runs `scenarios`, `workers` at a time — each batch fanned out over
/// scoped threads via [`simnet::sweep::map_indexed`], inline when
/// `workers` is 1 — and stops at (and shrinks) the first invariant
/// violation. `progress` is invoked once per scenario, in scenario order,
/// with the scenario and its outcome.
///
/// The result does not depend on `workers`: outcomes are merged in scenario
/// order and the walk stops at the first violating scenario *by that
/// order* (the rest of its batch has been run, but those outcomes are
/// discarded exactly as if they had never run; no later batch starts, so a
/// bug that violates an invariant in one scenario is reported as that
/// violation rather than as whatever it does to the scenarios after it).
/// Each scenario run is a pure function of its recipe, so worker scheduling
/// cannot leak into any outcome.
pub fn sweep(
    scenarios: &[Scenario],
    injection: Injection,
    workers: usize,
    mut progress: impl FnMut(&Scenario, &ScenarioOutcome),
) -> SweepResult {
    let mut events_checked = 0u64;
    let mut scenarios_run = 0usize;
    for batch in scenarios.chunks(workers.max(1)) {
        let outcomes = simnet::sweep::map_indexed(batch.iter().collect(), workers, |_, sc| {
            run_scenario(sc, injection, false)
        });
        for (sc, outcome) in batch.iter().zip(&outcomes) {
            scenarios_run += 1;
            events_checked += outcome.events;
            progress(sc, outcome);
            if outcome.violation.is_some() {
                let shrunk = shrink(sc, injection);
                let shrunk_outcome = run_scenario(&shrunk, injection, true);
                let violation = shrunk_outcome
                    .violation
                    .expect("shrink preserves the violation");
                return SweepResult {
                    scenarios_run,
                    events_checked,
                    violation: Some(ViolationReport {
                        original: sc.clone(),
                        shrunk,
                        violation,
                        trace: shrunk_outcome.trace.unwrap_or_default(),
                    }),
                };
            }
        }
    }
    SweepResult {
        scenarios_run,
        events_checked,
        violation: None,
    }
}

/// One line of the replay digest: every deterministic observable of a
/// scenario run, including a checksum of the full traffic-metrics
/// rendering, and the compacted-version count. A named scenario's line
/// starts with its name, and one with a repair engine ends with the
/// redundancy floor and the repair event counters. Byte-identical
/// digests from one worker and from two are what the CI determinism check
/// compares.
pub fn digest_line(index: usize, sc: &Scenario, outcome: &ScenarioOutcome) -> String {
    let mut line = format!("{index:03} ");
    if let Some(name) = sc.name {
        line.push_str(name);
        line.push(' ');
    }
    let _ = write!(
        line,
        "seed={} preset={} drop={} dup={} outages={} -> {:?} events={} t={}us metrics={:016x} \
         compacted={}",
        sc.seed,
        sc.preset.name(),
        sc.faults.drop_centi,
        sc.faults.dup_centi,
        sc.faults.outages.len(),
        outcome.outcome,
        outcome.events,
        outcome.sim_time.as_micros(),
        erasure::Checksum::of(outcome.metrics_digest.as_bytes()).as_u64(),
        outcome.compacted,
    );
    if sc.repair.is_some() {
        let _ = write!(line, " min_live={}", outcome.min_live);
        for (label, value) in REPAIR_EVENTS.iter().zip(outcome.repair_events) {
            let _ = write!(line, " {label}={value}");
        }
    }
    line
}

#[cfg(test)]
mod tests {
    use super::*;
    use pahoehoe::kls::Kls;

    /// `rounds = 2` (`explore --overwrite`) must really overwrite: once a
    /// lossy scenario with an FS outage converges, every KLS holds exactly
    /// `rounds` acknowledged versions of every workload key.
    #[test]
    fn second_round_overwrites_every_workload_key() {
        let faults = SweepConfig::fault_pool()[3].clone();
        assert!(faults.drop_centi > 0 && !faults.outages.is_empty());
        for rounds in [1, 2] {
            let sc = Scenario {
                faults: faults.clone(),
                workload: WorkloadCfg {
                    keys: Keys::Rounds(rounds),
                    ..WorkloadCfg::default()
                },
                ..Scenario::default()
            };
            let mut cluster = scenario_cluster(&sc);
            let report = cluster.run_to_convergence();
            assert_eq!(report.outcome, RunOutcome::PredicateSatisfied);
            let acked = cluster.client().success_versions();
            for id in cluster.topology().all_klss() {
                let kls: &Kls = cluster.sim().actor(id);
                for i in 0..sc.workload.puts {
                    let key = Key::from_u64(i as u64 + 1);
                    let versions = kls
                        .versions_of(key)
                        .into_iter()
                        .filter(|&ts| acked.contains(&ObjectVersion::new(key, ts)))
                        .count();
                    assert_eq!(versions, rounds, "KLS {id:?}, key {key:?}");
                }
            }
        }
    }
}
