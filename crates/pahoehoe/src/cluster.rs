//! Cluster assembly and the run-to-convergence harness.
//!
//! [`Cluster`] wires KLSs, FSs, a proxy and a scripted client into a
//! [`simnet::Simulation`] with the paper's topology defaults (two data
//! centers, two KLSs + three FSs each) and runs it until **every object
//! version that can achieve AMR has done so** — the paper's experiment
//! termination condition (§5.1) — then classifies the outcome
//! ([`ConvergenceReport`]).

use std::cell::Cell;
use std::collections::BTreeSet;
use std::sync::Arc;

use bytes::Bytes;
use simnet::{
    FaultPlan, Metrics, NetworkConfig, NodeId, RunOutcome, SimDuration, SimTime, Simulation,
};

use crate::analysis;
use crate::client::{Client, ClientOp, GetOutcome};
use crate::convergence::ConvergenceOptions;
use crate::fs::Fs;
use crate::kls::Kls;
use crate::messages::Message;
use crate::policy::Policy;
use crate::protocol::ProtocolMode;
use crate::proxy::{Proxy, ProxyConfig};
use crate::repair::RepairActor;
use crate::topology::{DataCenterId, Topology};
use crate::types::{Key, ObjectVersion};

/// Deterministic node-id layout for a cluster shape, computable *before*
/// the simulation is built — fault plans (which need node ids) can then be
/// constructed up front.
///
/// Per data center, KLSs come first, then FSs; the proxy and the client
/// take the last two ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterLayout {
    /// Number of data centers.
    pub dcs: usize,
    /// KLSs per data center.
    pub kls_per_dc: usize,
    /// FSs per data center.
    pub fs_per_dc: usize,
}

impl ClusterLayout {
    fn per_dc(&self) -> usize {
        self.kls_per_dc + self.fs_per_dc
    }

    /// Node id of KLS `i` in data center `dc`.
    pub fn kls(&self, dc: usize, i: usize) -> NodeId {
        assert!(dc < self.dcs && i < self.kls_per_dc);
        NodeId::new((dc * self.per_dc() + i) as u32)
    }

    /// Node id of FS `i` in data center `dc`.
    pub fn fs(&self, dc: usize, i: usize) -> NodeId {
        assert!(dc < self.dcs && i < self.fs_per_dc);
        NodeId::new((dc * self.per_dc() + self.kls_per_dc + i) as u32)
    }

    /// Node id of the proxy.
    pub fn proxy(&self) -> NodeId {
        NodeId::new((self.dcs * self.per_dc()) as u32)
    }

    /// Node id of the client.
    pub fn client(&self) -> NodeId {
        NodeId::new((self.dcs * self.per_dc() + 1) as u32)
    }

    /// Every node (KLS and FS) of one data center — handy for building
    /// partition fault plans.
    pub fn dc_nodes(&self, dc: usize) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = (0..self.kls_per_dc).map(|i| self.kls(dc, i)).collect();
        v.extend((0..self.fs_per_dc).map(|i| self.fs(dc, i)));
        v
    }

    /// A network model with distinct LAN and WAN latency classes: links
    /// *within* each data center (plus the primary proxy/client, which
    /// live in DC 0) use the LAN range; everything else — the cross-DC
    /// links — uses the default range of `base`. An opt-in refinement of
    /// the paper's single uniform distribution, used by ablations.
    pub fn lan_wan_network(
        &self,
        base: simnet::NetworkConfig,
        lan_min: SimDuration,
        lan_max: SimDuration,
    ) -> simnet::NetworkConfig {
        let mut overrides = Vec::new();
        for dc in 0..self.dcs {
            let mut group = self.dc_nodes(dc);
            if dc == 0 {
                group.push(self.proxy());
                group.push(self.client());
            }
            overrides.push(simnet::LatencyOverride {
                group_a: group.clone(),
                group_b: group,
                latency_min: lan_min,
                latency_max: lan_max,
            });
        }
        simnet::NetworkConfig {
            latency_overrides: overrides,
            ..base
        }
    }
}

/// An additional proxy/client pair beyond the primary one — used to
/// exercise concurrent puts from different data centers with loosely
/// synchronized clocks (§3.1). Extra pairs take the node ids following
/// [`ClusterLayout::client`], in order.
#[derive(Debug, Clone)]
pub struct ExtraProxy {
    /// Which data center hosts this proxy (its puts' home DC).
    pub dc: usize,
    /// Clock skew of this proxy's loosely synchronized clock relative to
    /// simulated time.
    pub clock_skew: SimDuration,
}

/// Cluster configuration.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Cluster shape.
    pub layout: ClusterLayout,
    /// Additional proxy/client pairs (empty by default; the paper's
    /// experiments use a single proxy).
    pub extra_proxies: Vec<ExtraProxy>,
    /// Default durability policy for puts.
    pub policy: Policy,
    /// Convergence configuration for every FS (and the proxy's Put-AMR
    /// switch).
    pub convergence: ConvergenceOptions,
    /// Protocol behaviour switches (converged-version compaction, batched
    /// rounds; see [`crate::protocol`]) for every actor in the cluster.
    /// Both off by default.
    pub protocol: ProtocolMode,
    /// Proxy timeouts and clock skew.
    pub proxy: ProxyConfig,
    /// Network latency and loss model.
    pub network: NetworkConfig,
    /// Size of the standard workload (number of puts; 0 = no scripted
    /// workload, drive the cluster via [`Cluster::put`]/[`Cluster::get`]).
    pub workload_puts: usize,
    /// Value size for the standard workload.
    pub workload_value_len: usize,
    /// Rounds of the standard workload: each round puts every key once
    /// with the same key-derived contents, so `> 1` turns the insert-only
    /// script into an overwrite stream without breaking byte-level
    /// durability checks. `1` is the paper's workload, byte-identical to
    /// the historical script.
    pub workload_rounds: usize,
    /// An explicit client script overriding the standard workload — e.g.
    /// built with [`Workload`](crate::workload::Workload) for non-uniform
    /// object sizes.
    pub custom_workload: Option<Vec<ClientOp>>,
    /// A constant-memory streamed workload (takes precedence over the
    /// standard workload, yields to `custom_workload`): the client
    /// synthesizes each put from `(seed, index)` instead of materializing
    /// a script — the scale harness's million-key mode.
    pub streaming_workload: Option<crate::workload::StreamingWorkload>,
    /// Virtual-time safety deadline for [`Cluster::run_to_convergence`].
    pub max_sim_time: SimDuration,
    /// Failure-domain modeling: `Some(r)` partitions each data center's
    /// FSs into `r` racks (by position) and switches the KLS to rack-aware
    /// fragment placement; `None` (the default — byte-identical to every
    /// recorded digest) keeps the legacy rack-blind layout.
    pub racks_per_dc: Option<usize>,
}

impl ClusterConfig {
    /// The paper's experimental setup (§5.1): two data centers with two
    /// KLSs and three FSs each, the default `(4, 12)` policy, 10–30 ms
    /// uniform latency, all optimizations on, no scripted workload.
    pub fn paper_default() -> Self {
        ClusterConfig {
            layout: ClusterLayout {
                dcs: 2,
                kls_per_dc: 2,
                fs_per_dc: 3,
            },
            extra_proxies: Vec::new(),
            policy: Policy::paper_default(),
            convergence: ConvergenceOptions::all(),
            protocol: ProtocolMode::default(),
            proxy: ProxyConfig::default(),
            network: NetworkConfig::paper_default(),
            workload_puts: 0,
            workload_value_len: 100 * 1024,
            workload_rounds: 1,
            custom_workload: None,
            streaming_workload: None,
            max_sim_time: SimDuration::from_secs(24 * 3600),
            racks_per_dc: None,
        }
    }
}

/// Outcome classification after a run (the quantities the paper's
/// evaluation reports).
#[derive(Debug, Clone)]
pub struct ConvergenceReport {
    /// Why the run stopped (`PredicateSatisfied` = converged).
    pub outcome: RunOutcome,
    /// Virtual time at stop.
    pub sim_time: SimTime,
    /// Put attempts the client issued (Fig. 9's "puts attempted").
    pub puts_attempted: u64,
    /// Puts the client saw succeed.
    pub puts_succeeded: u64,
    /// Object versions that are globally at maximum redundancy.
    pub amr_versions: usize,
    /// AMR versions whose put the client saw *fail* (Fig. 9's "excess AMR
    /// object versions").
    pub excess_amr: usize,
    /// Versions that never durably stored `k` fragments (Fig. 9's
    /// "non-durable object versions"); they can never achieve AMR.
    pub non_durable: usize,
    /// Durable versions not yet AMR (zero whenever `outcome` is
    /// `PredicateSatisfied`).
    pub durable_not_amr: usize,
    /// Per-version time from the put's timestamp until the *last* sibling
    /// FS settled the version as AMR, sorted ascending. Empty when no
    /// version is AMR. (Proxy clock skew shifts the origin; with the
    /// default zero skew this is true time-to-full-redundancy.)
    pub time_to_amr: Vec<SimDuration>,
    /// Traffic accounting for the whole run.
    pub metrics: Metrics,
}

/// A fully wired Pahoehoe cluster inside a deterministic simulation.
pub struct Cluster {
    sim: Simulation<Message>,
    layout: ClusterLayout,
    topo: Arc<Topology>,
    config: ClusterConfig,
    /// `(proxy, client)` node ids of the extra pairs, in config order.
    extra: Vec<(NodeId, NodeId)>,
    /// Node ids of the per-DC repair actors (empty when repair is off).
    repair: Vec<NodeId>,
}

impl Cluster {
    /// Builds a cluster with no injected faults.
    pub fn build(config: ClusterConfig, seed: u64) -> Self {
        Cluster::build_with_faults(config, seed, FaultPlan::none())
    }

    /// Builds a cluster with a fault plan (node outages, partitions). Use
    /// [`ClusterLayout`] to compute the node ids the plan needs.
    pub fn build_with_faults(config: ClusterConfig, seed: u64, faults: FaultPlan) -> Self {
        let layout = config.layout;
        let mut sim = Simulation::with_network(seed, config.network.clone(), faults);

        let dc_shape = (0..layout.dcs)
            .map(|dc| {
                (
                    (0..layout.kls_per_dc).map(|i| layout.kls(dc, i)).collect(),
                    (0..layout.fs_per_dc).map(|i| layout.fs(dc, i)).collect(),
                )
            })
            .collect();
        let topo = match config.racks_per_dc {
            Some(racks) => Topology::with_racks(dc_shape, racks),
            None => Topology::new(dc_shape),
        };

        for dc in 0..layout.dcs {
            let dc_id = DataCenterId::new(dc as u8);
            for _ in 0..layout.kls_per_dc {
                let id = sim.add_actor(Kls::new(topo.clone(), dc_id));
                debug_assert!(topo.klss_in(dc_id).contains(&id));
            }
            for _ in 0..layout.fs_per_dc {
                let id = sim.add_actor(Fs::with_mode(
                    topo.clone(),
                    dc_id,
                    config.convergence.clone(),
                    config.protocol,
                ));
                debug_assert!(topo.fss_in(dc_id).contains(&id));
            }
        }

        let proxy_cfg = ProxyConfig {
            put_amr_indication: config.convergence.put_amr_indication,
            ..config.proxy.clone()
        };
        let proxy_id = sim.add_actor(Proxy::new(topo.clone(), DataCenterId::new(0), 0, proxy_cfg));
        debug_assert_eq!(proxy_id, layout.proxy());

        let client = match (&config.custom_workload, &config.streaming_workload) {
            (Some(script), _) => Client::new(proxy_id, script.clone()),
            (None, Some(stream)) => Client::streaming(proxy_id, stream.clone()),
            (None, None) => Client::standard_workload_rounds(
                proxy_id,
                config.workload_puts,
                config.workload_value_len,
                config.policy,
                config.workload_rounds,
            ),
        };
        let client_id = sim.add_actor(client);
        debug_assert_eq!(client_id, layout.client());

        // Extra proxy/client pairs (concurrent-writer scenarios).
        let mut extra = Vec::new();
        for (i, spec) in config.extra_proxies.iter().enumerate() {
            assert!(spec.dc < layout.dcs, "extra proxy DC out of range");
            let proxy_cfg = ProxyConfig {
                put_amr_indication: config.convergence.put_amr_indication,
                clock_skew: spec.clock_skew,
                ..config.proxy.clone()
            };
            let p = sim.add_actor(Proxy::new(
                topo.clone(),
                DataCenterId::new(spec.dc as u8),
                1 + i as u32,
                proxy_cfg,
            ));
            let c = sim.add_actor(Client::new(p, Vec::new()));
            extra.push((p, c));
        }

        // Repair actors come last so every recorded id ahead of them —
        // servers, primary pair, extras — is unchanged when repair is off.
        let mut repair = Vec::new();
        if let Some(opts) = config.convergence.repair.clone() {
            for dc in 0..layout.dcs {
                let dc_id = DataCenterId::new(dc as u8);
                let id = sim.add_actor(RepairActor::new(topo.clone(), dc_id, opts.clone()));
                for i in 0..layout.fs_per_dc {
                    sim.actor_mut::<Fs>(layout.fs(dc, i)).set_repair_target(id);
                }
                repair.push(id);
            }
        }

        Cluster {
            sim,
            layout,
            topo,
            config,
            extra,
            repair,
        }
    }

    /// The underlying simulation (for metrics, tracing and direct actor
    /// access).
    pub fn sim(&self) -> &Simulation<Message> {
        &self.sim
    }

    /// Mutable access to the underlying simulation — e.g. to advance
    /// virtual time into a scheduled fault window with
    /// [`Simulation::run_until_time`].
    pub fn sim_mut(&mut self) -> &mut Simulation<Message> {
        &mut self.sim
    }

    /// The cluster's node-id layout.
    pub fn layout(&self) -> ClusterLayout {
        self.layout
    }

    /// The shared topology.
    pub fn topology(&self) -> &Arc<Topology> {
        &self.topo
    }

    /// The cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Borrows a KLS actor.
    pub fn kls(&self, id: NodeId) -> &Kls {
        self.sim.actor(id)
    }

    /// Borrows an FS actor.
    pub fn fs(&self, id: NodeId) -> &Fs {
        self.sim.actor(id)
    }

    /// Borrows the proxy actor.
    pub fn proxy(&self) -> &Proxy {
        self.sim.actor(self.layout.proxy())
    }

    /// Borrows the client actor.
    pub fn client(&self) -> &Client {
        self.sim.actor(self.layout.client())
    }

    /// Node ids of every client: the primary first, then the extras in
    /// [`ClusterConfig::extra_proxies`] order.
    pub fn client_ids(&self) -> Vec<NodeId> {
        let mut v = vec![self.layout.client()];
        v.extend(self.extra.iter().map(|&(_, c)| c));
        v
    }

    /// The `(proxy, client)` node ids of extra pair `i`.
    pub fn extra_pair(&self, i: usize) -> (NodeId, NodeId) {
        self.extra[i]
    }

    /// Node ids of the per-DC repair actors, in DC order (empty when the
    /// repair engine is disabled).
    pub fn repair_ids(&self) -> &[NodeId] {
        &self.repair
    }

    /// Borrows the repair actor of data center `dc`. Panics when repair is
    /// disabled.
    pub fn repair_actor(&self, dc: usize) -> &RepairActor {
        self.sim.actor(self.repair[dc])
    }

    /// Enqueues a put of `value` under the key named `name` (retried by
    /// the client until it succeeds) and wakes the client.
    pub fn put(&mut self, name: &[u8], value: Vec<u8>) {
        let client = self.layout.client();
        self.put_as(client, name, value);
    }

    /// Like [`put`](Self::put), issued through extra pair `i`'s client —
    /// a writer in another data center with its own proxy clock.
    pub fn put_from(&mut self, i: usize, name: &[u8], value: Vec<u8>) {
        let client = self.extra[i].1;
        self.put_as(client, name, value);
    }

    fn put_as(&mut self, client_id: NodeId, name: &[u8], value: Vec<u8>) {
        let key = Key::from_name(name);
        let policy = self.config.policy;
        self.sim
            .actor_mut::<Client>(client_id)
            .enqueue(ClientOp::Put {
                key,
                value: Bytes::from(value),
                policy,
            });
        self.sim.schedule_timer(client_id, SimDuration::ZERO, 1);
    }

    /// Runs a get for the key named `name` to completion and returns the
    /// value, or `None` if the get failed/aborted.
    pub fn get(&mut self, name: &[u8]) -> Option<Vec<u8>> {
        let client = self.layout.client();
        self.get_as(client, name)
    }

    /// Like [`get`](Self::get), issued through extra pair `i`'s client.
    pub fn get_from(&mut self, i: usize, name: &[u8]) -> Option<Vec<u8>> {
        let client = self.extra[i].1;
        self.get_as(client, name)
    }

    fn get_as(&mut self, client_id: NodeId, name: &[u8]) -> Option<Vec<u8>> {
        let key = Key::from_name(name);
        let done_before = self.sim.actor::<Client>(client_id).gets_done().len();
        self.sim
            .actor_mut::<Client>(client_id)
            .enqueue(ClientOp::Get { key });
        self.sim.schedule_timer(client_id, SimDuration::ZERO, 1);
        self.sim
            .run_until(|sim| sim.actor::<Client>(client_id).gets_done().len() > done_before);
        let outcome: &GetOutcome = &self.sim.actor::<Client>(client_id).gets_done()[done_before];
        debug_assert_eq!(outcome.key, key);
        outcome.result.as_ref().map(|(_, v)| v.to_vec())
    }

    /// Runs until every object version that can achieve AMR has done so
    /// and no fragment server has convergence work left for a durable
    /// version (the paper's termination condition), then classifies the
    /// outcome.
    ///
    /// Also stops at the configured
    /// [`max_sim_time`](ClusterConfig::max_sim_time) as a safety net; the
    /// report's `outcome` distinguishes the cases.
    pub fn run_to_convergence(&mut self) -> ConvergenceReport {
        let client_ids = self.client_ids();
        let fss: Vec<NodeId> = self.topo.all_fss().collect();
        let deadline = SimTime::ZERO + self.config.max_sim_time;
        // The convergence check walks every store, so gate it to at most
        // once per half simulated second.
        let next_check = Cell::new(0u64);
        let check_interval = SimDuration::from_millis(500).as_micros();

        let outcome = self.sim.run_until(|sim| {
            if sim.now() >= deadline {
                return true;
            }
            if sim.now().as_micros() < next_check.get() {
                return false;
            }
            next_check.set(sim.now().as_micros() + check_interval);
            if !client_ids.iter().all(|&c| sim.actor::<Client>(c).is_done()) {
                return false;
            }
            let durable = analysis::durable_versions(sim, &fss);
            fss.iter().all(|&fs| {
                sim.actor::<Fs>(fs)
                    .pending_versions()
                    .all(|ov| !durable.contains(&ov))
            })
        });
        self.report(outcome)
    }

    /// Builds a [`ConvergenceReport`] for the current state, aggregating
    /// over every client (primary plus extras).
    pub fn report(&self, outcome: RunOutcome) -> ConvergenceReport {
        let fss: Vec<NodeId> = self.topo.all_fss().collect();
        let klss: Vec<NodeId> = self.topo.all_klss().collect();

        let mut success_versions: BTreeSet<ObjectVersion> = BTreeSet::new();
        let mut client_versions: BTreeSet<ObjectVersion> = BTreeSet::new();
        let mut puts_attempted = 0;
        let mut puts_succeeded = 0;
        for id in self.client_ids() {
            let client: &Client = self.sim.actor(id);
            success_versions.extend(client.success_versions());
            client_versions.extend(client.success_versions());
            client_versions.extend(client.failed_versions());
            puts_attempted += client.puts_attempted();
            puts_succeeded += client.puts_succeeded();
        }

        let durable = analysis::durable_versions(&self.sim, &fss);
        let all_versions = analysis::known_versions(&self.sim, &klss, &fss)
            .union(&client_versions)
            .copied()
            .collect::<BTreeSet<ObjectVersion>>();

        let mut amr_versions = 0;
        let mut excess_amr = 0;
        let mut durable_not_amr = 0;
        let mut non_durable = 0;
        let mut time_to_amr = Vec::new();
        for &ov in &all_versions {
            let amr = analysis::is_amr(&self.sim, &self.topo, ov);
            if amr {
                amr_versions += 1;
                // Settled when the last sibling FS stopped convergence
                // work for it (verified or indicated).
                let settled = fss
                    .iter()
                    .filter_map(|&fs| self.sim.actor::<Fs>(fs).amr_settled_at(ov))
                    .max();
                if let Some(settled) = settled {
                    time_to_amr.push(SimDuration::from_micros(
                        settled.as_micros().saturating_sub(ov.ts.clock_micros()),
                    ));
                }
                // Excess AMR (Fig. 9): the version converged but its put
                // was never acknowledged successful to the client (failed
                // answer, or the answer itself was lost).
                if !success_versions.contains(&ov) {
                    excess_amr += 1;
                }
            } else if durable.contains(&ov) {
                durable_not_amr += 1;
            }
            if !durable.contains(&ov) {
                non_durable += 1;
            }
        }

        time_to_amr.sort_unstable();
        ConvergenceReport {
            outcome,
            sim_time: self.sim.now(),
            puts_attempted,
            puts_succeeded,
            amr_versions,
            excess_amr,
            non_durable,
            durable_not_amr,
            time_to_amr,
            metrics: self.sim.metrics().clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout() -> ClusterLayout {
        ClusterLayout {
            dcs: 2,
            kls_per_dc: 2,
            fs_per_dc: 3,
        }
    }

    #[test]
    fn layout_ids_are_dense_and_disjoint() {
        let l = layout();
        let mut ids = Vec::new();
        for dc in 0..2 {
            for i in 0..2 {
                ids.push(l.kls(dc, i));
            }
            for i in 0..3 {
                ids.push(l.fs(dc, i));
            }
        }
        ids.push(l.proxy());
        ids.push(l.client());
        let expected: Vec<NodeId> = (0..12).map(|i| NodeId::new(i as u32)).collect();
        ids.sort();
        assert_eq!(ids, expected, "dense, disjoint, in build order");
    }

    #[test]
    fn dc_nodes_lists_servers_only() {
        let l = layout();
        let nodes = l.dc_nodes(1);
        assert_eq!(nodes.len(), 5);
        assert!(!nodes.contains(&l.proxy()));
        assert!(!nodes.contains(&l.client()));
    }

    #[test]
    #[should_panic]
    fn layout_bounds_are_checked() {
        let _ = layout().fs(0, 3);
    }

    #[test]
    fn built_cluster_matches_layout_and_topology() {
        let cluster = Cluster::build(ClusterConfig::paper_default(), 1);
        let l = cluster.layout();
        let topo = cluster.topology();
        assert_eq!(topo.all_klss().count(), 4);
        assert_eq!(topo.all_fss().count(), 6);
        for dc in 0..2 {
            for i in 0..2 {
                assert!(topo.is_kls(l.kls(dc, i)));
            }
            for i in 0..3 {
                assert!(!topo.is_kls(l.fs(dc, i)));
            }
        }
        assert_eq!(cluster.client_ids(), vec![l.client()]);
        assert_eq!(cluster.sim().actor_count(), 12);
    }

    #[test]
    fn extra_proxies_extend_the_id_space() {
        let mut cfg = ClusterConfig::paper_default();
        cfg.extra_proxies = vec![
            ExtraProxy {
                dc: 1,
                clock_skew: SimDuration::ZERO,
            },
            ExtraProxy {
                dc: 0,
                clock_skew: SimDuration::from_secs(1),
            },
        ];
        let cluster = Cluster::build(cfg, 1);
        let l = cluster.layout();
        let base = l.client().index() as u32;
        assert_eq!(
            cluster.extra_pair(0),
            (NodeId::new(base + 1), NodeId::new(base + 2))
        );
        assert_eq!(
            cluster.extra_pair(1),
            (NodeId::new(base + 3), NodeId::new(base + 4))
        );
        assert_eq!(cluster.client_ids().len(), 3);
    }

    #[test]
    fn lan_wan_network_overrides_intra_dc_links_only() {
        let l = layout();
        let net = l.lan_wan_network(
            NetworkConfig::paper_default(),
            SimDuration::from_millis(1),
            SimDuration::from_millis(2),
        );
        assert_eq!(net.latency_overrides.len(), 2);
        // DC0's override includes the proxy and client.
        assert!(net.latency_overrides[0].group_a.contains(&l.proxy()));
        assert!(net.latency_overrides[0].group_a.contains(&l.client()));
        assert!(!net.latency_overrides[1].group_a.contains(&l.proxy()));
        // Defaults untouched.
        assert_eq!(net.latency_min, SimDuration::from_millis(10));
    }

    #[test]
    fn empty_cluster_report_is_all_zero() {
        let cluster = Cluster::build(ClusterConfig::paper_default(), 3);
        let r = cluster.report(RunOutcome::Quiescent);
        assert_eq!(r.amr_versions, 0);
        assert_eq!(r.puts_attempted, 0);
        assert_eq!(r.non_durable, 0);
        assert!(r.time_to_amr.is_empty());
    }

    #[test]
    fn repair_actors_take_the_trailing_ids() {
        let mut cfg = ClusterConfig::paper_default();
        cfg.convergence.repair = Some(crate::repair::RepairOptions::paper_default());
        cfg.racks_per_dc = Some(3);
        let cluster = Cluster::build(cfg, 1);
        let l = cluster.layout();
        assert_eq!(cluster.sim().actor_count(), 14);
        assert_eq!(
            cluster.repair_ids(),
            &[
                NodeId::new(l.client().index() as u32 + 1),
                NodeId::new(l.client().index() as u32 + 2)
            ]
        );
        assert_eq!(cluster.topology().racks_in(DataCenterId::new(0)), 3);
        // Repair off: layout and count are untouched.
        let plain = Cluster::build(ClusterConfig::paper_default(), 1);
        assert_eq!(plain.sim().actor_count(), 12);
        assert!(plain.repair_ids().is_empty());
    }

    #[test]
    #[should_panic(expected = "extra proxy DC out of range")]
    fn extra_proxy_dc_is_validated() {
        let mut cfg = ClusterConfig::paper_default();
        cfg.extra_proxies = vec![ExtraProxy {
            dc: 9,
            clock_skew: SimDuration::ZERO,
        }];
        let _ = Cluster::build(cfg, 1);
    }
}
