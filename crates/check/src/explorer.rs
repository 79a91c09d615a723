//! Scenario sweep, violation shrinking and trace dumping.
//!
//! The explorer is a small explicit-state model checker over the
//! *parameter* space of the simulation: every scenario is a `(seed, fault
//! plan, convergence options)` triple, and a run of a scenario is fully
//! deterministic, so a violating triple **is** a reproduction recipe. The
//! sweep runs the full [invariant registry](crate::invariants::registry)
//! after every simulation event of every scenario; on the first violation
//! it greedily shrinks the triple (dropping outages, zeroing loss and
//! duplication) to the minimal fault plan that still violates, and renders
//! the shrunk run's message trace for offline diagnosis.

use pahoehoe::client::{Client, ClientOp};
use pahoehoe::cluster::{Cluster, ClusterConfig, ClusterLayout};
use pahoehoe::convergence::ConvergenceOptions;
use pahoehoe::fs::{Fs, WAKE_TIMER_TAG};
use pahoehoe::protocol::ProtocolMode;
use pahoehoe::repair::RepairOptions;
use pahoehoe::types::{Key, ObjectVersion};
use pahoehoe::workload::{KeyDistribution, StreamingWorkload};
use simnet::{FaultPlan, NetworkConfig, NodeId, RunOutcome, SimDuration, SimTime};

use crate::invariants::{Checker, Violation};

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

/// One point of the sweep: a fully deterministic run recipe.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Simulation seed.
    pub seed: u64,
    /// Injected faults.
    pub faults: FaultSpec,
    /// Convergence configuration under test.
    pub preset: Preset,
}

/// Workload shape shared by every scenario of a sweep. Small values keep
/// per-event invariant checking (which hashes and compares every stored
/// fragment) cheap.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadCfg {
    /// Number of standard-workload puts.
    pub puts: usize,
    /// Value length per put.
    pub value_len: usize,
    /// Rounds of the standard workload. `1` is the insert-only sweep; `2`
    /// (`--overwrite`) makes every put after the first round an overwrite
    /// of a key that already holds a version.
    pub rounds: usize,
    /// The protocol mode every scenario's cluster runs (`--batch` sets
    /// [`ProtocolMode::batch_rounds`]).
    pub protocol: ProtocolMode,
}

impl Default for WorkloadCfg {
    fn default() -> Self {
        WorkloadCfg {
            puts: 3,
            value_len: 4096,
            rounds: 1,
            protocol: ProtocolMode::default(),
        }
    }
}

/// A deliberately introduced bug, used to prove the checker catches
/// violations end to end (and by the intentional-bug test).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Injection {
    /// No bug: the protocols run as implemented.
    None,
    /// After the run converges, silently flip bytes of one stored fragment
    /// without updating its recorded checksum, then let the simulation run
    /// a little longer. The checksum-integrity (and durability) invariants
    /// must flag the very next event.
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
    /// Why the run stopped.
    pub outcome: RunOutcome,
    /// Rendered message trace (only when requested).
    pub trace: Option<String>,
    /// Debug rendering of the traffic metrics — byte-identical across
    /// replays of the same scenario.
    pub metrics_digest: String,
}

/// Runs one scenario under the full invariant registry.
pub fn run_scenario(
    sc: &Scenario,
    wl: &WorkloadCfg,
    injection: Injection,
    want_trace: bool,
) -> ScenarioOutcome {
    let mut cluster = scenario_cluster(sc, wl);
    cluster.sim_mut().enable_trace();
    let checker = Checker::install_registry(&mut cluster);

    let report = cluster.run_to_convergence();
    if injection == Injection::CorruptFragment {
        inject_corruption(&mut cluster);
    }

    let violation = checker.finish(&cluster, report.outcome);
    let sim = cluster.sim();
    ScenarioOutcome {
        violation,
        events: sim.events_processed(),
        sim_time: sim.now(),
        outcome: report.outcome,
        trace: want_trace.then(|| {
            sim.trace()
                .map(|t| t.render())
                .unwrap_or_else(|| "(trace disabled)".to_string())
        }),
        metrics_digest: format!("{:?}", sim.metrics()),
    }
}

/// The cluster a scenario runs: the sweep's workload and protocol mode
/// under the scenario's preset, network and fault plan.
fn scenario_cluster(sc: &Scenario, wl: &WorkloadCfg) -> Cluster {
    let mut cfg = ClusterConfig::paper_default();
    cfg.protocol = wl.protocol;
    cfg.convergence = sc.preset.options();
    cfg.workload_puts = wl.puts;
    cfg.workload_value_len = wl.value_len;
    cfg.workload_rounds = wl.rounds;
    cfg.network = sc.faults.network();
    Cluster::build_with_faults(cfg, sc.seed, sc.faults.plan())
}

/// Flips one stored fragment's bytes behind the checksum bookkeeping's
/// back, then runs the simulation briefly so the inspector observes the
/// corrupted state.
fn inject_corruption(cluster: &mut Cluster) {
    let fss: Vec<NodeId> = cluster.topology().all_fss().collect();
    let target = fss.iter().find_map(|&fs| {
        let actor: &Fs = cluster.sim().actor(fs);
        actor.known_versions().next().and_then(|ov| {
            let entry = actor.entry(ov)?;
            let idx = *entry.fragments.keys().next()?;
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
/// until none does. The seed and preset — the other two coordinates of the
/// repro triple — are preserved.
pub fn shrink(sc: &Scenario, wl: &WorkloadCfg, injection: Injection) -> Scenario {
    let violates = |candidate: &Scenario| {
        run_scenario(candidate, wl, injection, false)
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

/// The sweep definition: the cartesian product of seeds, fault specs and
/// presets, all run under one workload shape.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Seeds to sweep.
    pub seeds: Vec<u64>,
    /// Fault specs to sweep.
    pub fault_specs: Vec<FaultSpec>,
    /// Convergence presets to sweep.
    pub presets: Vec<Preset>,
    /// Workload shape.
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
            presets: Preset::ALL.to_vec(),
            workload: WorkloadCfg::default(),
        }
    }

    /// The full sweep: 4 seeds × 6 fault specs × all 6 presets = 144
    /// scenarios.
    pub fn full() -> Self {
        SweepConfig {
            seeds: (0..4).collect(),
            fault_specs: SweepConfig::fault_pool(),
            presets: Preset::ALL.to_vec(),
            workload: WorkloadCfg::default(),
        }
    }

    /// The scenarios of this sweep, in deterministic order.
    pub fn scenarios(&self) -> Vec<Scenario> {
        let mut out = Vec::new();
        for &seed in &self.seeds {
            for spec in &self.fault_specs {
                for &preset in &self.presets {
                    out.push(Scenario {
                        seed,
                        faults: spec.clone(),
                        preset,
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
    /// The shrunk minimal `(seed, faults, options)` triple.
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
    /// Total simulation events processed — every one of them checked
    /// against every invariant.
    pub events_checked: u64,
    /// The first violation found, shrunk, or `None` if every invariant held
    /// everywhere.
    pub violation: Option<ViolationReport>,
}

/// Runs the scenarios of `cfg`, `workers` at a time — each batch fanned out
/// over scoped threads via [`simnet::sweep::map_indexed`], inline when
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
    cfg: &SweepConfig,
    injection: Injection,
    workers: usize,
    mut progress: impl FnMut(&Scenario, &ScenarioOutcome),
) -> SweepResult {
    let mut events_checked = 0u64;
    let mut scenarios_run = 0usize;
    let mut scenarios = cfg.scenarios().into_iter();
    loop {
        let batch: Vec<Scenario> = scenarios.by_ref().take(workers.max(1)).collect();
        if batch.is_empty() {
            break;
        }
        let outcomes = simnet::sweep::map_indexed(batch, workers, |_, sc| {
            let outcome = run_scenario(&sc, &cfg.workload, injection, false);
            (sc, outcome)
        });
        for (sc, outcome) in &outcomes {
            scenarios_run += 1;
            events_checked += outcome.events;
            progress(sc, outcome);
            if outcome.violation.is_some() {
                let shrunk = shrink(sc, &cfg.workload, injection);
                let shrunk_outcome = run_scenario(&shrunk, &cfg.workload, injection, true);
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

/// One line of the sweep's replay digest: every deterministic observable
/// of a scenario run, including a checksum of the full traffic-metrics
/// rendering. Byte-identical digests from one worker and from two are what
/// the CI determinism check compares.
pub fn digest_line(index: usize, sc: &Scenario, outcome: &ScenarioOutcome) -> String {
    format!(
        "{index:03} seed={} preset={} drop={} dup={} outages={} -> {:?} events={} t={}us metrics={:016x}",
        sc.seed,
        sc.preset.name(),
        sc.faults.drop_centi,
        sc.faults.dup_centi,
        sc.faults.outages.len(),
        outcome.outcome,
        outcome.events,
        outcome.sim_time.as_micros(),
        erasure::Checksum::of(outcome.metrics_digest.as_bytes()).as_u64(),
    )
}

// ---------------------------------------------------------------------------
// Sampled-invariant scale check (`explore --scale`)
// ---------------------------------------------------------------------------

/// Configuration for the scale-tier spot check: one Zipf streaming-workload
/// scenario run under [`ProtocolMode::scale`] (converged-version
/// compaction) with the full invariant registry installed at a sampled
/// rate.
#[derive(Debug, Clone)]
pub struct ScaleCheckCfg {
    /// RNG seed for both the cluster and the workload stream.
    pub seed: u64,
    /// Number of distinct keys the Zipf stream draws from.
    pub key_space: u64,
    /// Total puts issued by the streaming client.
    pub puts: u64,
    /// Blob size per put.
    pub value_len: usize,
    /// Per-event invariant checks run once every this many events
    /// (end-of-run checks always run).
    pub sample_every: u64,
}

impl ScaleCheckCfg {
    /// The CI smoke cell: small enough for the test gate, update-heavy
    /// enough (a Zipf stream over a small key space) that converged-
    /// version compaction provably fires.
    pub fn smoke() -> Self {
        ScaleCheckCfg {
            seed: 42,
            key_space: 200,
            puts: 600,
            value_len: 1024,
            sample_every: 500,
        }
    }
}

/// Outcome of [`run_scale_check`].
#[derive(Debug, Clone)]
pub struct ScaleOutcome {
    /// First invariant violation, if any.
    pub violation: Option<Violation>,
    /// How the run ended.
    pub outcome: RunOutcome,
    /// Events processed.
    pub events: u64,
    /// Virtual time at the end of the run.
    pub sim_time: SimTime,
    /// Total converged versions collapsed to residual records across all
    /// FSs — pinned in the digest line so a disabled compactor is a
    /// digest-visible mutation.
    pub compacted: u64,
    /// Full traffic-metrics rendering.
    pub metrics_digest: String,
}

/// Runs the scale-tier spot check: a cluster under
/// [`ProtocolMode::scale`], whatever mode the surrounding sweep runs.
pub fn run_scale_check(cfg: &ScaleCheckCfg) -> ScaleOutcome {
    let mut cc = ClusterConfig::paper_default();
    cc.protocol = ProtocolMode::scale();
    cc.workload_value_len = cfg.value_len;
    cc.streaming_workload = Some(StreamingWorkload {
        puts: cfg.puts,
        key_space: cfg.key_space,
        value_len: cfg.value_len,
        policy: cc.policy,
        seed: cfg.seed,
        dist: KeyDistribution::Zipf { exponent: 1.1 },
        overwrite_delta_permille: 0,
    });
    let mut cluster = Cluster::build(cc, cfg.seed);
    let checker = Checker::install_sampled(
        &mut cluster,
        crate::invariants::registry(),
        cfg.sample_every,
    );
    let report = cluster.run_to_convergence();
    let violation = checker.finish(&cluster, report.outcome);
    let compacted = cluster
        .topology()
        .all_fss()
        .map(|fs| cluster.sim().actor::<Fs>(fs).compacted_count() as u64)
        .sum();
    let sim = cluster.sim();
    ScaleOutcome {
        violation,
        outcome: report.outcome,
        events: sim.events_processed(),
        sim_time: sim.now(),
        compacted,
        metrics_digest: format!("{:?}", sim.metrics()),
    }
}

/// The scale check's replay-digest line, appended after the sweep's
/// per-scenario lines when both `--scale` and `--digest-out` are given.
pub fn scale_digest_line(cfg: &ScaleCheckCfg, out: &ScaleOutcome) -> String {
    format!(
        "scale seed={} keys={} puts={} dist=zipf -> {:?} events={} t={}us compacted={} metrics={:016x}",
        cfg.seed,
        cfg.key_space,
        cfg.puts,
        out.outcome,
        out.events,
        out.sim_time.as_micros(),
        out.compacted,
        erasure::Checksum::of(out.metrics_digest.as_bytes()).as_u64(),
    )
}

// ---------------------------------------------------------------------------
// Repair-engine churn check (`explore --repair`)
// ---------------------------------------------------------------------------

/// Configuration for the repair-engine spot check: four scenario families
/// (sustained disk churn, whole-rack outage, a flash crowd of reads during
/// rebuild, and a throttled repair storm), each on a rack-aware
/// paper-default cluster with one [`RepairActor`](pahoehoe::repair)
/// per DC.
#[derive(Debug, Clone)]
pub struct RepairCheckCfg {
    /// Simulation seed shared by every family.
    pub seed: u64,
    /// Standard-workload puts per family.
    pub puts: usize,
    /// Blob size per put.
    pub value_len: usize,
    /// Per-event invariant sampling rate (small: repair runs are idle
    /// between drain ticks, and the redundancy-floor grace clock starts
    /// at the first *sampled* observation).
    pub sample_every: u64,
}

impl RepairCheckCfg {
    /// The CI smoke cell.
    pub fn smoke() -> Self {
        RepairCheckCfg {
            seed: 42,
            puts: 8,
            value_len: 4096,
            sample_every: 25,
        }
    }
}

/// What one repair scenario family observed.
#[derive(Debug, Clone)]
pub struct RepairFamilyOutcome {
    /// Family name (`churn`, `rack`, `flash`, `storm`).
    pub name: &'static str,
    /// First invariant violation, if any.
    pub violation: Option<Violation>,
    /// Events processed.
    pub events: u64,
    /// Virtual time at the end of the run.
    pub sim_time: SimTime,
    /// Minimum cluster-wide live-fragment count over the workload's
    /// acknowledged versions at end of run — `n` when the repair engine
    /// restored everything, lower when it left objects degraded.
    pub min_live: usize,
    /// Final values of the `EV_REPAIR_*` dense counters, by registry
    /// label. Events are invisible to the metrics debug rendering, so the
    /// digest folds these explicitly.
    pub counters: Vec<(&'static str, u64)>,
}

/// Outcome of [`run_repair_check`]: one entry per scenario family.
#[derive(Debug, Clone)]
pub struct RepairOutcome {
    /// Per-family results, in run order.
    pub families: Vec<RepairFamilyOutcome>,
}

impl RepairOutcome {
    /// The first invariant violation across all families, if any.
    pub fn violation(&self) -> Option<&Violation> {
        self.families.iter().find_map(|f| f.violation.as_ref())
    }
}

/// The event counters folded into the repair digest.
const REPAIR_COUNTERS: [&str; 7] = [
    "repair_triggered",
    "repair_completed",
    "repair_abandoned",
    "repair_bytes",
    "repair_queue_depth",
    "repair_throttle_stalls",
    "degraded_reads",
];

/// The invariants a repair family runs under. Disk destruction is the
/// whole point of these scenarios, so the durability-monotonicity family
/// is out; the redundancy floor is the star.
fn repair_invariants() -> Vec<Box<dyn crate::invariants::Invariant>> {
    vec![
        Box::new(crate::invariants::RedundancyFloor::new()),
        Box::new(crate::invariants::MetricsSanity::new()),
        Box::new(crate::invariants::ChecksumIntegrity),
    ]
}

/// Builds one rack-aware, repair-enabled paper cluster, runs the standard
/// workload to convergence, and hands it to `faults` for the family's
/// destruction schedule. Returns the family outcome.
fn run_repair_family(
    name: &'static str,
    cfg: &RepairCheckCfg,
    opts: RepairOptions,
    faults: impl FnOnce(&mut Cluster),
) -> RepairFamilyOutcome {
    let mut cc = ClusterConfig::paper_default();
    cc.convergence.repair = Some(opts);
    cc.racks_per_dc = Some(3);
    cc.workload_puts = cfg.puts;
    cc.workload_value_len = cfg.value_len;
    let mut cluster = Cluster::build(cc, cfg.seed);
    let checker = Checker::install_sampled(&mut cluster, repair_invariants(), cfg.sample_every);
    let report = cluster.run_to_convergence();
    debug_assert_eq!(report.outcome, RunOutcome::PredicateSatisfied);

    faults(&mut cluster);

    // Settle: give the engine its full grace window (and then some) to
    // re-protect whatever the last destruction window left degraded.
    let deadline = cluster.sim().now() + SimDuration::from_secs(420);
    let outcome = cluster.sim_mut().run_until_time(deadline);
    let violation = checker.finish(&cluster, outcome);

    let acked: Vec<ObjectVersion> = cluster
        .client()
        .success_versions()
        .iter()
        .copied()
        .collect();
    let fss: Vec<NodeId> = cluster.topology().all_fss().collect();
    let min_live = acked
        .iter()
        .map(|&ov| {
            let mut distinct = std::collections::BTreeSet::new();
            for &fs in &fss {
                if let Some(entry) = cluster.fs(fs).entry(ov) {
                    distinct.extend(entry.fragments.keys().copied());
                }
            }
            distinct.len()
        })
        .min()
        .unwrap_or(0);
    let sim = cluster.sim();
    RepairFamilyOutcome {
        name,
        violation,
        events: sim.events_processed(),
        sim_time: sim.now(),
        min_live,
        counters: REPAIR_COUNTERS
            .iter()
            .map(|&label| (label, sim.metrics().event(label)))
            .collect(),
    }
}

/// Destroys the given disks of FS `(dc, i)` at the cluster's current
/// virtual time. Destruction is confined to DC 0 in every family, so the
/// remote DC always holds live donors and each object stays repairable.
fn destroy(cluster: &mut Cluster, i: usize, disks: &[u8]) {
    let victim = cluster.layout().fs(0, i);
    let now = cluster.sim().now();
    for &disk in disks {
        cluster
            .sim_mut()
            .actor_mut::<Fs>(victim)
            .destroy_disk(disk, now);
    }
}

/// Runs all four repair scenario families.
pub fn run_repair_check(cfg: &RepairCheckCfg) -> RepairOutcome {
    let mut families = Vec::new();

    // Sustained node churn: one disk dies every other virtual minute,
    // rotating over DC 0's servers and disks. Damage accumulates until an
    // object crosses the threshold, then the engine must restore it
    // before the next window ends.
    families.push(run_repair_family(
        "churn",
        cfg,
        RepairOptions::paper_default(),
        |cluster| {
            for window in 0..6usize {
                destroy(cluster, window % 3, &[(window / 3) as u8]);
                let deadline = cluster.sim().now() + SimDuration::from_secs(120);
                cluster.sim_mut().run_until_time(deadline);
            }
        },
    ));

    // Whole-rack outage: with three racks per DC, rack 0 of DC 0 is one
    // server; both its disks die at once, dropping every stripe to 4/6
    // live in that DC.
    families.push(run_repair_family(
        "rack",
        cfg,
        RepairOptions::paper_default(),
        |cluster| {
            destroy(cluster, 0, &[0, 1]);
        },
    ));

    // Flash crowd during rebuild: the same rack loss, immediately
    // followed by a burst of reads racing the reconstruction — the
    // degraded-read counter in the digest observes how many gets decoded
    // around the hole.
    let puts = cfg.puts;
    families.push(run_repair_family(
        "flash",
        cfg,
        RepairOptions::paper_default(),
        move |cluster| {
            destroy(cluster, 0, &[0, 1]);
            let client_id = cluster.layout().client();
            for burst in 0..3u64 {
                for i in 0..puts as u64 {
                    cluster
                        .sim_mut()
                        .actor_mut::<Client>(client_id)
                        .enqueue(ClientOp::Get {
                            key: Key::from_u64(i + 1),
                        });
                }
                cluster
                    .sim_mut()
                    .schedule_timer(client_id, SimDuration::ZERO, 1);
                let deadline = cluster.sim().now() + SimDuration::from_secs(10 + burst);
                cluster.sim_mut().run_until_time(deadline);
            }
        },
    ));

    // Repair storm under backpressure: two of DC 0's three servers lose
    // both disks, and the token bucket is sized well under one job's
    // cost, so the queue must drain over many throttle-stalled ticks —
    // still inside the grace window.
    families.push(run_repair_family(
        "storm",
        cfg,
        RepairOptions::throttled(2048),
        |cluster| {
            destroy(cluster, 0, &[0, 1]);
            destroy(cluster, 1, &[0, 1]);
        },
    ));

    RepairOutcome { families }
}

/// The repair check's replay digest: one line per family, folding the
/// repair event counters and the end-of-run redundancy floor. Counters
/// are folded explicitly because dense events are deliberately excluded
/// from the traffic-metrics debug rendering — without them a repair
/// engine that never triggers would be digest-invisible.
pub fn repair_digest_line(cfg: &RepairCheckCfg, family: &RepairFamilyOutcome) -> String {
    let counters: String = family
        .counters
        .iter()
        .map(|(label, v)| format!(" {label}={v}"))
        .collect();
    format!(
        "repair-{} seed={} puts={} -> {} events={} t={}us min_live={}{}",
        family.name,
        cfg.seed,
        cfg.puts,
        family.violation.as_ref().map_or("ok", |v| v.invariant),
        family.events,
        family.sim_time.as_micros(),
        family.min_live,
        counters,
    )
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
        let sc = Scenario {
            seed: 0,
            faults: SweepConfig::fault_pool()[3].clone(),
            preset: Preset::All,
        };
        assert!(sc.faults.drop_centi > 0 && !sc.faults.outages.is_empty());
        for rounds in [1, 2] {
            let wl = WorkloadCfg {
                rounds,
                ..WorkloadCfg::default()
            };
            let mut cluster = scenario_cluster(&sc, &wl);
            let report = cluster.run_to_convergence();
            assert_eq!(report.outcome, RunOutcome::PredicateSatisfied);
            let acked = cluster.client().success_versions();
            for id in cluster.topology().all_klss() {
                let kls: &Kls = cluster.sim().actor(id);
                for i in 0..wl.puts {
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
