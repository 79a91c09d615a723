//! The FS actor in a two-DC tiny world, driven by a scripted actor. (The
//! version store's own tests are `store.rs` here, mounted under
//! `fs::store`.)

use super::*;
use crate::convergence::RoundSchedule;
use crate::kls::Kls;
use crate::metadata::Location;
use crate::policy::Policy;
use crate::types::{Key, Timestamp};
use simnet::{SimDuration, Simulation, TraceEvent};
use std::cell::RefCell;
use std::rc::Rc;

/// Records every send `sim` makes from now on, in send order.
fn traced(sim: &mut Simulation<Message>) -> Rc<RefCell<Vec<TraceEvent>>> {
    let trace = Rc::default();
    sim.observe(Rc::clone(&trace));
    trace
}

/// Tiny world: 2 DCs x (1 KLS + 1 FS), policy (k=2, n=4), 2 frags
/// per FS. Node ids: kls0=0, fs0=1, kls1=2, fs1=3, driver=4.
fn tiny_topo() -> Arc<Topology> {
    Topology::new(vec![
        (vec![NodeId::new(0)], vec![NodeId::new(1)]),
        (vec![NodeId::new(2)], vec![NodeId::new(3)]),
    ])
}

fn tiny_policy() -> Policy {
    Policy::new(2, 4, 2, 2)
}

fn ov() -> ObjectVersion {
    ObjectVersion::new(Key::from_u64(9), Timestamp::new(SimTime::from_micros(5), 0))
}

/// `ov`'s convergence work at `fs`, which must hold it pending.
fn pending_work(fs: &Fs, ov: ObjectVersion) -> &store::ConvWork {
    let s = fs.store.find(ov).expect("stored");
    fs.store.work(s).expect("pending")
}

pub(super) fn full_meta(value_len: usize) -> Arc<Metadata> {
    let mut meta = Metadata::new(tiny_policy(), DataCenterId::new(0), value_len);
    meta.add_dc_locations(
        DataCenterId::new(0),
        vec![
            Location::new(NodeId::new(1), 0),
            Location::new(NodeId::new(1), 1),
        ],
    );
    meta.add_dc_locations(
        DataCenterId::new(1),
        vec![
            Location::new(NodeId::new(3), 0),
            Location::new(NodeId::new(3), 1),
        ],
    );
    Arc::new(meta)
}

/// A driver that injects a fixed script of messages at start (and
/// whatever the test scripted since, each time it is woken by a timer)
/// and records everything it receives.
struct Driver {
    script: Vec<(NodeId, Message)>,
    inbox: Vec<(NodeId, Message)>,
}
impl Driver {
    /// Sender and kind label of everything received so far.
    fn received(&self) -> Vec<(NodeId, &'static str)> {
        let kind = |(from, msg): &(NodeId, Message)| (*from, simnet::Payload::kind(msg));
        self.inbox.iter().map(kind).collect()
    }
}
impl Actor<Message> for Driver {
    fn on_start(&mut self, ctx: &mut Context<'_, Message>) {
        self.on_timer(ctx, 0);
    }
    fn on_message(&mut self, _ctx: &mut Context<'_, Message>, from: NodeId, msg: Message) {
        self.inbox.push((from, msg));
    }
    fn on_timer(&mut self, ctx: &mut Context<'_, Message>, _tag: u64) {
        for (to, msg) in self.script.drain(..) {
            ctx.send(to, msg);
        }
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Builds the tiny world with the given convergence options and a
/// driver script; returns the simulation and the node ids.
fn tiny_world(
    opts: ConvergenceOptions,
    script: Vec<(NodeId, Message)>,
) -> (Simulation<Message>, NodeId, NodeId, NodeId) {
    tiny_world_with_faults(
        simnet::FaultPlan::none(),
        ProtocolMode::default(),
        opts,
        script,
    )
}

fn tiny_world_with_faults(
    faults: simnet::FaultPlan,
    mode: ProtocolMode,
    opts: ConvergenceOptions,
    script: Vec<(NodeId, Message)>,
) -> (Simulation<Message>, NodeId, NodeId, NodeId) {
    let topo = tiny_topo();
    let dc = DataCenterId::new;
    let network = simnet::NetworkConfig::paper_default();
    let mut sim = Simulation::with_network(7, network, faults);
    sim.add_actor(Kls::new(topo.clone(), dc(0)));
    let fs0 = sim.add_actor(Fs::with_mode(topo.clone(), dc(0), opts.clone(), mode));
    sim.add_actor(Kls::new(topo.clone(), dc(1)));
    let fs1 = sim.add_actor(Fs::with_mode(topo.clone(), dc(1), opts, mode));
    let driver = sim.add_actor(Driver {
        script,
        inbox: Vec::new(),
    });
    (sim, fs0, fs1, driver)
}

fn frags(value_len: usize) -> Vec<Fragment> {
    let codec = Codec::new(2, 4).unwrap();
    codec.encode(&vec![0xEE; value_len])
}

#[test]
fn store_fragment_is_acknowledged_and_tracked() {
    let meta = full_meta(100);
    let fs_node = NodeId::new(1);
    let (mut sim, fs0, _, driver) = tiny_world(
        ConvergenceOptions::all(),
        vec![(
            fs_node,
            Message::StoreFragment {
                ov: ov(),
                meta: meta.clone(),
                fragment: frags(100)[0].clone(),
            },
        )],
    );
    sim.run_until_time(SimTime::from_micros(200_000));
    let fs: &Fs = sim.actor(fs0);
    assert_eq!(fs.known_versions().count(), 1);
    assert_eq!(fs.pending_versions().count(), 1, "convergence pending");
    assert!(!fs.verified(ov()), "second fragment still missing");
    let d: &Driver = sim.actor(driver);
    assert_eq!(d.received(), vec![(fs_node, "StoreFragmentRep")]);
}

#[test]
fn verified_requires_complete_meta_and_all_fragments() {
    let meta = full_meta(100);
    let f = frags(100);
    let fs_node = NodeId::new(1);
    let (mut sim, fs0, _, _) = tiny_world(
        ConvergenceOptions::all(),
        vec![
            (
                fs_node,
                Message::StoreFragment {
                    ov: ov(),
                    meta: meta.clone(),
                    fragment: f[0].clone(),
                },
            ),
            (
                fs_node,
                Message::StoreFragment {
                    ov: ov(),
                    meta: meta.clone(),
                    fragment: f[1].clone(),
                },
            ),
        ],
    );
    sim.run_until_time(SimTime::from_micros(200_000));
    let fs: &Fs = sim.actor(fs0);
    assert!(fs.verified(ov()), "both assigned fragments present");
    assert_eq!(fs.dc(), DataCenterId::new(0));
}

#[test]
fn amr_indication_stops_convergence_and_completes_meta() {
    // Deliver a fragment with *partial* metadata, then an AMR
    // indication carrying the complete metadata: the FS must drop the
    // version from its convergence store and still answer converge
    // probes positively afterwards.
    let mut partial = Metadata::new(tiny_policy(), DataCenterId::new(0), 100);
    partial.add_dc_locations(
        DataCenterId::new(0),
        vec![
            Location::new(NodeId::new(1), 0),
            Location::new(NodeId::new(1), 1),
        ],
    );
    let partial = Arc::new(partial);
    let f = frags(100);
    let fs_node = NodeId::new(1);
    let (mut sim, fs0, _, _) = tiny_world(
        ConvergenceOptions::all(),
        vec![
            (
                fs_node,
                Message::StoreFragment {
                    ov: ov(),
                    meta: partial.clone(),
                    fragment: f[0].clone(),
                },
            ),
            (
                fs_node,
                Message::StoreFragment {
                    ov: ov(),
                    meta: partial,
                    fragment: f[1].clone(),
                },
            ),
            (
                fs_node,
                Message::AmrIndication {
                    ov: ov(),
                    meta: Some(full_meta(100)),
                },
            ),
        ],
    );
    sim.run_until_time(SimTime::from_micros(200_000));
    let fs: &Fs = sim.actor(fs0);
    assert_eq!(fs.pending_versions().count(), 0);
    assert_eq!(fs.amr_versions().count(), 1);
    assert!(fs.verified(ov()), "indication completed the metadata");
    assert_eq!(fs.steps_run(), 0, "no convergence work was done");
}

/// A verifying FS settles only on its siblings' "verified", which takes
/// complete metadata, so its indications carry the version alone — and the
/// sibling settles on one as on a full one, without a step of its own.
#[test]
fn indications_after_a_verification_step_carry_the_version_alone() {
    use crate::messages::{HEADER_BYTES, OV_BYTES};

    let meta = full_meta(64);
    let f = frags(64);
    let store = |to: u32, i: usize| {
        let (ov, meta, fragment) = (ov(), meta.clone(), f[i].clone());
        (
            NodeId::new(to),
            Message::StoreFragment { ov, meta, fragment },
        )
    };
    let script = vec![store(1, 0), store(1, 1), store(3, 2), store(3, 3)];
    let (mut sim, fs0, fs1, _) = tiny_world(ConvergenceOptions::fs_amr_unsynchronized(), script);
    let trace = traced(&mut sim);
    sim.run_until_time(SimTime::ZERO + SimDuration::from_secs(600));
    let (a, b): (&Fs, &Fs) = (sim.actor(fs0), sim.actor(fs1));
    assert_eq!(a.amr_versions().collect::<Vec<_>>(), [ov()]);
    assert_eq!(b.amr_versions().collect::<Vec<_>>(), [ov()]);
    // One FS verified first; the other heard its indication before its own
    // round came.
    assert_eq!(a.steps_run() + b.steps_run(), 1);
    assert!(a.verified(ov()) && b.verified(ov()));
    let indications: Vec<_> = trace
        .borrow()
        .iter()
        .filter(|e| e.kind == "AMRIndication")
        .map(|e| e.bytes)
        .collect();
    assert_eq!(indications, [HEADER_BYTES + OV_BYTES]);
}

#[test]
fn converge_probe_on_unknown_version_adopts_it() {
    // Fig. 4 lines 17-18: an FS receiving converge for an unknown
    // version adopts the metadata with a ⊥ fragment and schedules
    // convergence work of its own (which will recover the fragment).
    let fs1_node = NodeId::new(3);
    let (mut sim, _, fs1, driver) = tiny_world(
        ConvergenceOptions::all(),
        vec![(
            fs1_node,
            Message::ConvergeFs {
                ov: ov(),
                meta: full_meta(100),
                recovery_intent: false,
            },
        )],
    );
    sim.run_until_time(SimTime::from_micros(100_000));
    let fs: &Fs = sim.actor(fs1);
    assert_eq!(fs.known_versions().count(), 1);
    assert_eq!(fs.pending_versions().count(), 1);
    assert!(!fs.verified(ov()), "no fragments yet");
    let d: &Driver = sim.actor(driver);
    assert_eq!(d.received(), vec![(fs1_node, "FSConvergeRep")]);
}

#[test]
fn late_adopter_waits_min_age_once() {
    let opts = ConvergenceOptions::all();
    let min_age = opts.min_age;
    assert_eq!(min_age, SimDuration::from_secs(300));
    let stamp = SimTime::from_micros(ov().ts.clock_micros());
    let (fs0_node, fs1_node) = (NodeId::new(1), NodeId::new(3));

    // fs1 first hears of a 400-s-old version from a sibling's probe
    // (it was down, say, while the put ran and while the prober waited
    // out `min_age`). The version has paid its wait: fs1 steps it at
    // its next round instead of holding it until 400 s + 300 s.
    let heard = SimTime::ZERO + SimDuration::from_secs(400);
    let (mut sim, _, fs1, driver) = tiny_world(opts.clone(), Vec::new());
    let trace = traced(&mut sim);
    // Start the actors (the driver's empty script runs at time zero),
    // then script the probe for 400 s.
    sim.run_until_time(SimTime::from_micros(1));
    sim.actor_mut::<Driver>(driver).script = vec![(
        fs1_node,
        Message::ConvergeFs {
            ov: ov(),
            meta: full_meta(100),
            recovery_intent: false,
        },
    )];
    sim.schedule_timer(driver, heard.duration_since(sim.now()), 0);
    let give_up = heard + SimDuration::from_secs(1_000);
    sim.run_until(|sim| sim.actor::<Fs>(fs1).steps_run() > 0 || sim.now() >= give_up);
    let one_way = SimDuration::from_millis(30);
    assert!(
        sim.now() <= heard + one_way + opts.round_max,
        "stepped at {:?}, a second min_age after hearing of it at {heard:?}",
        sim.now()
    );
    assert_eq!(sim.actor::<Fs>(fs1).steps_run(), 1);
    // The step found both fragments missing and opened a sibling
    // recovery: intent probes are out to fs0.
    let stepped_at = sim.now();
    let probe = (fs1, fs0_node, "FSConvergeReq", stepped_at);
    let probed = trace
        .borrow()
        .iter()
        .any(|e| (e.from, e.to, e.kind, e.at) == probe);
    assert!(
        probed,
        "no recovery-intent probe left fs1 at {stepped_at:?}"
    );
    let work = pending_work(sim.actor(fs1), ov());
    assert!(work.recovery.is_some());

    // The other side of the gate: an FS that hears of the version
    // while it is young — the put's own `StoreFragment`, tens of
    // milliseconds after the stamp — runs no step before stamp + 300 s.
    let put = vec![(
        fs0_node,
        Message::StoreFragment {
            ov: ov(),
            meta: full_meta(100),
            fragment: frags(100)[0].clone(),
        },
    )];
    let (mut sim, fs0, _, _) = tiny_world(opts.clone(), put);
    sim.run_until_time(stamp + min_age);
    let fs: &Fs = sim.actor(fs0);
    assert_eq!(fs.pending_versions().count(), 1);
    assert_eq!(
        fs.steps_run(),
        0,
        "a round stepped a version younger than min_age"
    );
    sim.run_until_time(stamp + min_age + opts.round_max + SimDuration::from_secs(1));
    assert!(sim.actor::<Fs>(fs0).steps_run() >= 1, "old enough now");
}

#[test]
fn full_convergence_from_one_fs_to_amr() {
    // Only FS0 receives fragments + complete metadata; convergence
    // alone must propagate fragments to FS1 and metadata to both
    // KLSs, ending with the version AMR everywhere and no further
    // pending work. This is naïve convergence doing a real repair.
    let meta = full_meta(64);
    let f = frags(64);
    let fs0_node = NodeId::new(1);
    let mut opts = ConvergenceOptions::naive();
    opts.sibling_recovery = true; // exercise the recovery push path
    opts.schedule = RoundSchedule::Unsynchronized;
    let (mut sim, fs0, fs1, _) = tiny_world(
        opts,
        vec![
            (
                fs0_node,
                Message::StoreFragment {
                    ov: ov(),
                    meta: meta.clone(),
                    fragment: f[0].clone(),
                },
            ),
            (
                fs0_node,
                Message::StoreFragment {
                    ov: ov(),
                    meta,
                    fragment: f[1].clone(),
                },
            ),
        ],
    );
    // Give convergence a few rounds.
    sim.run_until_time(SimTime::ZERO + SimDuration::from_secs(1200));
    let a: &Fs = sim.actor(fs0);
    let b: &Fs = sim.actor(fs1);
    assert!(a.verified(ov()));
    assert!(b.verified(ov()), "FS1's fragments were regenerated");
    assert_eq!(a.pending_versions().count(), 0);
    assert_eq!(b.pending_versions().count(), 0);
    assert!(b.recoveries_done() + a.recoveries_done() >= 1);
    let kls0: &Kls = sim.actor(NodeId::new(0));
    let kls1: &Kls = sim.actor(NodeId::new(2));
    assert!(kls0.has_complete_meta(ov()));
    assert!(kls1.has_complete_meta(ov()));
}

#[test]
fn simultaneous_recoveries_resolve_by_server_id() {
    // Both FSs hold complete metadata but each misses one of its two
    // assigned fragments; with synchronized rounds both attempt
    // sibling fragment recovery at the same instant. §4.2's rule —
    // "an FS only backs off if its unique server id is lower than the
    // other sibling FS's unique id" — must leave exactly one of them
    // doing the work, and both end up whole.
    let meta = full_meta(64);
    let f = frags(64);
    let fs0_node = NodeId::new(1); // assigned fragments 0, 1
    let fs1_node = NodeId::new(3); // assigned fragments 2, 3
    let mut opts = ConvergenceOptions::all();
    opts.schedule = RoundSchedule::Synchronized;
    opts.put_amr_indication = false;
    opts.min_age = SimDuration::ZERO;
    let (mut sim, fs0, fs1, _) = tiny_world(
        opts,
        vec![
            (
                fs0_node,
                Message::StoreFragment {
                    ov: ov(),
                    meta: meta.clone(),
                    fragment: f[0].clone(),
                },
            ),
            (
                fs1_node,
                Message::StoreFragment {
                    ov: ov(),
                    meta: meta.clone(),
                    fragment: f[2].clone(),
                },
            ),
        ],
    );
    sim.run_until_time(SimTime::ZERO + SimDuration::from_secs(600));
    let a: &Fs = sim.actor(fs0);
    let b: &Fs = sim.actor(fs1);
    assert!(a.verified(ov()), "fs0 has fragments 0 and 1");
    assert!(b.verified(ov()), "fs1 has fragments 2 and 3");
    // Exactly one FS performed the recovery; the contention rule
    // favors the higher id (fs1).
    assert_eq!(a.recoveries_done(), 0, "lower id backed off");
    assert_eq!(b.recoveries_done(), 1, "higher id recovered for both");
    // And the amortization shows on the wire: the recovered sibling
    // fragment traveled via SiblingStoreReq.
    assert!(sim.metrics().kind("SiblingStoreReq").count >= 1);
}

#[test]
fn compacted_version_keeps_answering_after_its_slot_is_reused() {
    // Three versions of one key on fs0. v1 and v2 settle AMR, which
    // compacts v1; v3 then takes v1's vacated slot. Everything the FS
    // says about v1 afterwards must come from the residual table.
    let fs_node = NodeId::new(1);
    let at = |us| {
        ObjectVersion::new(
            Key::from_u64(9),
            Timestamp::new(SimTime::from_micros(us), 0),
        )
    };
    let (v1, v2, v3) = (at(5), at(10), at(15));
    let meta = full_meta(100);
    let f = frags(100);
    let store = |ov, i: usize| {
        let (meta, fragment) = (meta.clone(), f[i].clone());
        (fs_node, Message::StoreFragment { ov, meta, fragment })
    };
    let indicate = |ov| {
        let meta = Some(meta.clone());
        (fs_node, Message::AmrIndication { ov, meta })
    };
    // Unbatched, so fs0 answers the scripted singles with singles.
    let (mut sim, fs0, _, driver) = tiny_world(ConvergenceOptions::all(), Vec::new());
    // Delivers one batch of messages to fs0 and returns the replies.
    // Well inside the first convergence round (>= 30 s away), so only
    // the scripted messages act on the store.
    let deliver = |sim: &mut Simulation<Message>, script| {
        sim.actor_mut::<Driver>(driver).script = script;
        sim.schedule_timer(driver, SimDuration::ZERO, 0);
        let deadline = sim.now() + SimDuration::from_millis(200);
        sim.run_until_time(deadline);
        std::mem::take(&mut sim.actor_mut::<Driver>(driver).inbox)
    };
    let slab = |sim: &Simulation<Message>| sim.actor::<Fs>(fs0).store.slab_shape();

    deliver(&mut sim, vec![store(v1, 0), store(v1, 1)]);
    deliver(&mut sim, vec![indicate(v1)]);
    let first_settled = sim.actor::<Fs>(fs0).amr_settled_at(v1).expect("v1 is AMR");
    deliver(&mut sim, vec![store(v2, 0), store(v2, 1)]);
    assert_eq!(slab(&sim), (2, 0));
    deliver(&mut sim, vec![indicate(v2)]);
    let mut held = FragMask::new();
    held.insert(0);
    held.insert(1);
    {
        let fs: &Fs = sim.actor(fs0);
        assert_eq!(fs.compacted_residual(v1), Some(held), "v2 superseded v1");
        assert!(fs.entry(v1).is_none());
        assert_eq!((fs.resident_slots(), fs.compacted_count()), (1, 1));
        assert_eq!(slab(&sim), (2, 1), "v1's slot is on the free list");
    }
    deliver(&mut sim, vec![store(v3, 0)]);
    assert_eq!(
        slab(&sim),
        (2, 0),
        "v3 reused v1's slot; the slab did not grow"
    );
    assert_eq!(sim.actor::<Fs>(fs0).resident_slots(), 2);

    // A re-delivered fragment of v1 is acknowledged like a duplicate
    // and resurrects nothing.
    let replies = deliver(&mut sim, vec![store(v1, 0)]);
    assert!(
        matches!(replies[..], [(_, Message::StoreFragmentReply { ov, fragment: 0 })] if ov == v1),
        "{replies:?}"
    );
    {
        let fs: &Fs = sim.actor(fs0);
        assert!(fs.entry(v1).is_none(), "no full entry resurrected");
        assert_eq!(fs.known_versions().collect::<Vec<_>>(), [v1, v2, v3]);
        assert_eq!(fs.pending_versions().collect::<Vec<_>>(), [v3]);
        assert_eq!((fs.resident_slots(), fs.compacted_count()), (2, 1));
        assert_eq!(slab(&sim), (2, 0));
    }

    // A sibling's probe hears what the full store would have said.
    let probe = Message::ConvergeFs {
        ov: v1,
        meta: meta.clone(),
        recovery_intent: false,
    };
    let replies = deliver(&mut sim, vec![(fs_node, probe)]);
    match &replies[..] {
        [(
            _,
            Message::ConvergeFsReply {
                ov,
                verified: true,
                have,
                missing,
                recovering: false,
            },
        )] => {
            assert_eq!(*ov, v1);
            assert_eq!(have[..], [0, 1]);
            assert!(missing.is_empty());
        }
        other => panic!("unexpected replies {other:?}"),
    }

    // A repeated indication re-stamps the settle time, as it does for
    // a full entry, and leaves the residual alone — with the metadata or,
    // as a sibling that saw this FS verify sends it, without.
    let mut settled = first_settled;
    let lean = (fs_node, Message::AmrIndication { ov: v1, meta: None });
    for again in [indicate(v1), lean] {
        deliver(&mut sim, vec![again]);
        let fs: &Fs = sim.actor(fs0);
        let restamped = fs.amr_settled_at(v1).expect("still AMR");
        assert!(restamped > settled, "{restamped:?} vs {settled:?}");
        settled = restamped;
        assert_eq!(fs.compacted_residual(v1), Some(held));
        assert!(fs.verified(v1));
        assert_eq!(fs.compacted_versions().collect::<Vec<_>>(), [v1]);
        assert_eq!(fs.amr_versions().collect::<Vec<_>>(), [v1, v2]);
    }
}

/// Batched rounds are a network, not an identity: a round that steps
/// `M` versions puts one message per destination on the wire, and the
/// network loses it as one.
#[test]
fn a_batched_round_is_one_message_per_destination_lost_as_one() {
    use crate::messages::{HEADER_BYTES, OV_BYTES};
    use simnet::trace::Disposition::{Delivered, DroppedFault};
    use simnet::Payload;

    const M: usize = 4;
    let (kls0, fs0_node, kls1, fs1_node) = (
        NodeId::new(0),
        NodeId::new(1),
        NodeId::new(2),
        NodeId::new(3),
    );
    let meta = full_meta(64);
    let f = frags(64);
    let versions: Vec<ObjectVersion> = (0..M as u64)
        .map(|i| {
            ObjectVersion::new(
                Key::from_u64(9 + i),
                Timestamp::new(SimTime::from_micros(5 + i), 0),
            )
        })
        .collect();
    // Every version fully stored on both servers, so the first round
    // (naive convergence: synchronized, at 60 s) verifies all of them.
    let script = || -> Vec<(NodeId, Message)> {
        let store = |to, ov, i: usize| {
            let (meta, fragment) = (meta.clone(), f[i].clone());
            (to, Message::StoreFragment { ov, meta, fragment })
        };
        let both = |&ov| {
            [
                store(fs0_node, ov, 0),
                store(fs0_node, ov, 1),
                store(fs1_node, ov, 2),
                store(fs1_node, ov, 3),
            ]
        };
        versions.iter().flat_map(both).collect()
    };
    let round = |n: u64| SimTime::ZERO + SimDuration::from_secs(60 * n);
    // fs0 cannot reach kls1 for the instant its first round sends.
    let cut = || {
        let mut faults = simnet::FaultPlan::none();
        faults.add_link_outage(fs0_node, kls1, round(1), SimDuration::from_millis(1));
        faults
    };
    let opts = ConvergenceOptions::naive;
    let sends = |sim: &Simulation<Message>, kind| sim.metrics().kind(kind).count;

    // One message per version: the cut costs M probes.
    let (mut sim, ..) = tiny_world_with_faults(cut(), ProtocolMode::default(), opts(), script());
    sim.run_until_time(round(2) + SimDuration::from_secs(1));
    assert_eq!(sim.metrics().dropped(), M as u64);
    assert_eq!(sends(&sim, "KLSConvergeReq"), 6 * M as u64);

    let batching = ProtocolMode { batch_rounds: true };
    let (mut sim, fs0, fs1, _) = tiny_world_with_faults(cut(), batching, opts(), script());
    let trace = traced(&mut sim);
    sim.run_until_time(round(1) + SimDuration::from_secs(1));

    // What fs0's round put on the wire: one probe per KLS and one for
    // its sibling, each M entries under one header.
    let bodies = |single: &dyn Fn(ObjectVersion) -> Message| -> usize {
        let body = |&ov| single(ov).wire_size() - HEADER_BYTES;
        versions.iter().map(body).sum()
    };
    let kls_probe = HEADER_BYTES
        + bodies(&|ov| {
            let meta = meta.clone();
            Message::ConvergeKls { ov, meta }
        });
    let fs_probe = HEADER_BYTES
        + bodies(&|ov| Message::ConvergeFs {
            ov,
            meta: meta.clone(),
            recovery_intent: false,
        });
    let sent_by_fs0_at = |trace: &[TraceEvent], at| -> Vec<_> {
        let probes = trace.iter().filter(|e| e.from == fs0 && e.at == at);
        probes
            .map(|e| (e.to, e.kind, e.bytes, e.disposition))
            .collect()
    };
    assert_eq!(
        sent_by_fs0_at(&trace.borrow(), round(1)),
        [
            (kls0, "KLSConvergeReq", kls_probe, Delivered),
            (kls1, "KLSConvergeReq", kls_probe, DroppedFault),
            (fs1_node, "FSConvergeReq", fs_probe, Delivered),
        ]
    );
    assert_eq!(sim.metrics().dropped(), 1, "one message lost, not {M}");
    // The answers come back the same way: one reply per probe message.
    {
        let trace = trace.borrow();
        let replies: Vec<_> = trace.iter().filter(|e| e.to == fs0).collect();
        let kls_replies: Vec<_> = replies.iter().filter(|e| e.from == kls0).collect();
        assert_eq!(kls_replies.len(), 1);
        assert_eq!(kls_replies[0].kind, "KLSConvergeRep");
        assert_eq!(kls_replies[0].bytes, HEADER_BYTES + M * (OV_BYTES + 1));
        let fs_reply_kinds: Vec<_> = replies
            .iter()
            .filter(|e| e.from == fs1_node)
            .map(|e| e.kind)
            .collect();
        assert_eq!(fs_reply_kinds, ["FSConvergeReq", "FSConvergeRep"]);
    }

    // Exactly the M versions of the lost message lack kls1's answer,
    // each with its own step open and its own back-off charged; fs1,
    // which lost nothing, is done.
    {
        let fs: &Fs = sim.actor(fs0);
        assert_eq!(fs.pending_versions().collect::<Vec<_>>(), versions);
        for &ov in &versions {
            let work = pending_work(fs, ov);
            assert_eq!(work.step, store::Step::Verifying);
            assert_eq!(work.kls_ok.iter().collect::<Vec<_>>(), [&kls0]);
            assert_eq!(work.fs_ok.iter().collect::<Vec<_>>(), [&fs1_node]);
            assert_eq!(work.attempts, 1);
            assert_eq!(work.next_eligible, round(1) + fs.opts.backoff_delay(1));
        }
        assert_eq!(sim.actor::<Fs>(fs1).amr_versions().count(), M);
    }

    // The next round they are due in retries them, again as one
    // message per destination, and this time everything verifies.
    sim.run_until_time(round(2) + SimDuration::from_secs(1));
    assert_eq!(
        sent_by_fs0_at(&trace.borrow(), round(2)),
        [
            (kls0, "KLSConvergeReq", kls_probe, Delivered),
            (kls1, "KLSConvergeReq", kls_probe, Delivered),
            (fs1_node, "FSConvergeReq", fs_probe, Delivered),
        ]
    );
    assert_eq!(
        sim.actor::<Fs>(fs0).amr_versions().collect::<Vec<_>>(),
        versions
    );
    assert_eq!(
        sends(&sim, "KLSConvergeReq"),
        6,
        "against {} unbatched",
        6 * M
    );
    assert_eq!(sends(&sim, "KLSConvergeRep"), 5);
}

/// A sibling that answers every probe at once — each entry of a batch
/// singly — and verifies one version.
struct Answering {
    verifies: ObjectVersion,
}
impl Actor<Message> for Answering {
    fn on_message(&mut self, ctx: &mut Context<'_, Message>, from: NodeId, msg: Message) {
        match msg {
            Message::ConvergeFs { ov, .. } => {
                let reply = Message::ConvergeFsReply {
                    ov,
                    verified: ov == self.verifies,
                    have: Vec::new(),
                    missing: Vec::new(),
                    recovering: false,
                };
                ctx.send(from, reply);
            }
            Message::Batch(entries) => {
                for entry in entries {
                    self.on_message(ctx, from, entry);
                }
            }
            _ => {}
        }
    }
    fn on_timer(&mut self, _ctx: &mut Context<'_, Message>, _tag: u64) {}
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Node ids of [`sibling_world`].
const REPROBE_FS: NodeId = NodeId::new(2);
const SILENT: NodeId = NodeId::new(5);

/// Complete metadata for [`sibling_world`], with DC0's two fragments on
/// the FSs `dc0` and DC1's on `dc1`.
fn placed(dc0: [u32; 2], dc1: [u32; 2]) -> Arc<Metadata> {
    let mut meta = Metadata::new(tiny_policy(), DataCenterId::new(0), 100);
    for (dc, fss) in [(0, dc0), (1, dc1)] {
        let locs = (0..2).map(|disk| Location::new(NodeId::new(fss[disk]), disk as u8));
        meta.add_dc_locations(DataCenterId::new(dc), locs.collect());
    }
    Arc::new(meta)
}

/// Four FSs over two DCs — 1 and 2 in DC0 (KLS 0), 4 and 5 in DC1 (KLS 3)
/// — of which only node 2 is a real FS, running `mode`. Siblings 1 and 4
/// answer every probe at once, but 1 verifies only the second version and
/// 4 only the first; 5 never answers until a test scripts it. The KLSs are
/// real when `klss_answer`, else they never answer. At time zero node 6,
/// the proxy, stores node 2's fragments of one version per placement, with
/// synchronized 60 s rounds and no `min_age`, so node 2 first steps them
/// all at 60 s.
fn sibling_world(
    mode: ProtocolMode,
    klss_answer: bool,
    placements: &[Arc<Metadata>],
) -> (Simulation<Message>, Vec<ObjectVersion>) {
    let id = NodeId::new;
    let topo = Topology::new(vec![
        (vec![id(0)], vec![id(1), id(2)]),
        (vec![id(3)], vec![id(4), id(5)]),
    ]);
    let versions: Vec<ObjectVersion> = (1..=placements.len() as u64)
        .map(|k| ObjectVersion::new(Key::from_u64(k), Timestamp::new(SimTime::from_micros(5), 0)))
        .collect();
    let f = frags(100);
    let mut puts = Vec::new();
    for (&ov, meta) in versions.iter().zip(placements) {
        for fragment in meta
            .assigned_to(REPROBE_FS)
            .map(|i| f[usize::from(i)].clone())
        {
            let meta = Arc::clone(meta);
            puts.push((REPROBE_FS, Message::StoreFragment { ov, meta, fragment }));
        }
    }
    let mut opts = ConvergenceOptions::all();
    opts.schedule = RoundSchedule::Synchronized;
    opts.min_age = SimDuration::ZERO;
    let stub = || Driver {
        script: Vec::new(),
        inbox: Vec::new(),
    };
    let network = simnet::NetworkConfig::paper_default();
    let mut sim = Simulation::with_network(7, network, simnet::FaultPlan::none());
    let add_kls = |sim: &mut Simulation<Message>, dc| {
        if klss_answer {
            sim.add_actor(Kls::new(topo.clone(), DataCenterId::new(dc)));
        } else {
            sim.add_actor(stub());
        }
    };
    add_kls(&mut sim, 0);
    sim.add_actor(Answering {
        verifies: versions[1],
    });
    sim.add_actor(Fs::with_mode(
        topo.clone(),
        DataCenterId::new(0),
        opts,
        mode,
    ));
    add_kls(&mut sim, 1);
    sim.add_actor(Answering {
        verifies: versions[0],
    });
    sim.add_actor(stub());
    sim.add_actor(Driver {
        script: puts,
        inbox: Vec::new(),
    });
    (sim, versions)
}

/// [`sibling_world`] in the default mode with silent KLSs and four
/// versions, placed on {2, 4, 5}, {1, 2, 5}, {2, 4} and {2, 4, 5}: node 2
/// steps all four at 60, 120, 240 and 480 s, probing the siblings every
/// time.
fn reprobe_world() -> (Simulation<Message>, Vec<ObjectVersion>) {
    let placements = [
        placed([2, 2], [4, 5]),
        placed([1, 2], [5, 5]),
        placed([2, 2], [4, 4]),
        placed([2, 2], [5, 4]),
    ];
    sibling_world(ProtocolMode::default(), false, &placements)
}

/// `(attempts, next_eligible)` of each version's pending work at node 2.
fn backoffs(sim: &Simulation<Message>, versions: &[ObjectVersion]) -> Vec<(u32, SimTime)> {
    let fs: &Fs = sim.actor(REPROBE_FS);
    let work = |&ov| pending_work(fs, ov);
    versions
        .iter()
        .map(|ov| (work(ov).attempts, work(ov).next_eligible))
        .collect()
}

#[test]
fn a_silent_sibling_speaking_again_revives_what_this_fs_reprobes() {
    let secs = |s| SimTime::ZERO + SimDuration::from_secs(s);
    let (mut sim, versions) = reprobe_world();
    let trace = traced(&mut sim);
    sim.run_until_time(secs(500));
    // Four failed steps each. Sibling 4 answered every probe within
    // milliseconds, so `versions[2]`, which node 2 re-probes for it and
    // which waits on it alone, backed off like the rest: an answer within
    // `round_min` changes nothing.
    let backed_off = (4, secs(960));
    assert_eq!(backoffs(&sim, &versions), [backed_off; 4]);

    // Sibling 5, silent since the probe at 60 s, speaks at 500 s.
    sim.actor_mut::<Driver>(SILENT).script = vec![(
        REPROBE_FS,
        Message::ConvergeFsReply {
            ov: versions[0],
            verified: false,
            have: Vec::new(),
            missing: Vec::new(),
            recovering: false,
        },
    )];
    sim.schedule_timer(SILENT, SimDuration::ZERO, 0);
    sim.run_until_time(secs(501));
    // The first two versions waited on 5 alone, but node 2 is the
    // lowest-id other sibling of the first only (the second's re-prober
    // is node 1); the third does not name 5, and the fourth's last step
    // also lacked sibling 4's verification, so a re-probe would fail
    // again. The first is eligible from the moment 5
    // was heard.
    let [revived, ref rest @ ..] = backoffs(&sim, &versions)[..] else {
        unreachable!("four versions")
    };
    assert_eq!(revived.0, 0);
    assert!(
        secs(500) < revived.1 && revived.1 < secs(501),
        "{revived:?}"
    );
    assert_eq!(rest, [backed_off; 3]);
    let sent_from = |at| {
        let trace = trace.borrow();
        let sends = trace.iter().filter(|e| e.from == REPROBE_FS);
        sends.filter(|e| e.at >= at).count()
    };
    assert_eq!(sent_from(secs(500)), 0, "the revival sent nothing");

    // The first steps at the next round, from a fresh back-off; the
    // others wait out theirs.
    sim.run_until_time(secs(541));
    let backoff = sim.actor::<Fs>(REPROBE_FS).opts.backoff_delay(1);
    let stepped = (1, secs(540) + backoff);
    let expected = [stepped, backed_off, backed_off, backed_off];
    assert_eq!(backoffs(&sim, &versions), expected);
    assert!(sent_from(secs(540)) > 0);
}

/// The silent-sibling map is bounded by the sibling count: one entry per
/// sibling FS that owes an answer — none for siblings that answered, a
/// KLS or the proxy.
#[test]
fn silent_sibling_map_holds_only_unanswered_sibling_fss() {
    let (mut sim, _) = reprobe_world();
    for s in [30, 61, 121, 241, 481] {
        sim.run_until_time(SimTime::ZERO + SimDuration::from_secs(s));
        let fs: &Fs = sim.actor(REPROBE_FS);
        let silent: Vec<NodeId> = fs.silent_siblings().collect();
        let expected = if s < 60 { vec![] } else { vec![SILENT] };
        assert_eq!(silent, expected, "at {s} s");
    }
}

/// Destination and kind label of each message node 2 sent in `[from, to)`.
fn sent_by_reprober(
    trace: &RefCell<Vec<TraceEvent>>,
    from: SimTime,
    to: SimTime,
) -> Vec<(NodeId, &'static str)> {
    let trace = trace.borrow();
    let sends = trace.iter().filter(|e| e.from == REPROBE_FS);
    let window = sends.filter(|e| from <= e.at && e.at < to);
    window.map(|e| (e.to, e.kind)).collect()
}

/// The versions of the `ConvergeFs` probes node 5 received since the last
/// call, batch entries one by one; it receives nothing else.
fn probed_silent(sim: &mut Simulation<Message>) -> Vec<ObjectVersion> {
    let inbox = std::mem::take(&mut sim.actor_mut::<Driver>(SILENT).inbox);
    let entries = inbox.into_iter().flat_map(|(_, msg)| match msg {
        Message::Batch(entries) => entries,
        single => vec![single],
    });
    let probe = |msg| match msg {
        Message::ConvergeFs { ov, .. } => ov,
        other => panic!("node 5 was sent {other:?}"),
    };
    entries.map(probe).collect()
}

/// Node 5 sends node 2 its answer about `ov` at `at`.
fn silent_answers(sim: &mut Simulation<Message>, at: SimTime, ov: ObjectVersion, verified: bool) {
    let reply = Message::ConvergeFsReply {
        ov,
        verified,
        have: Vec::new(),
        missing: Vec::new(),
        recovering: false,
    };
    sim.actor_mut::<Driver>(SILENT).script = vec![(REPROBE_FS, reply)];
    sim.schedule_timer(SILENT, at.duration_since(sim.now()), 0);
}

#[test]
fn batched_rounds_reask_only_the_silent_sibling() {
    let secs = |s| SimTime::ZERO + SimDuration::from_secs(s);
    let batching = ProtocolMode { batch_rounds: true };
    // Node 2 re-probes `a` for node 5, node 1 re-probes `b`; every KLS and
    // the other sibling verify both, and 5 stays silent.
    let placements = [placed([2, 2], [4, 5]), placed([1, 2], [5, 5])];
    let (kls0, kls3) = (NodeId::new(0), NodeId::new(3));
    let full_step_of_a = [
        (kls0, "KLSConvergeReq"),
        (kls3, "KLSConvergeReq"),
        (NodeId::new(4), "FSConvergeReq"),
        (SILENT, "FSConvergeReq"),
    ];

    // Unbatched, the second steps are full steps, like the first.
    let (mut sim, _) = sibling_world(ProtocolMode::default(), true, &placements);
    let trace = traced(&mut sim);
    sim.run_until_time(secs(121));
    let full_step_of_b = [
        (kls0, "KLSConvergeReq"),
        (kls3, "KLSConvergeReq"),
        (NodeId::new(1), "FSConvergeReq"),
        (SILENT, "FSConvergeReq"),
    ];
    assert_eq!(
        sent_by_reprober(&trace, secs(120), secs(121)),
        [full_step_of_a, full_step_of_b].concat()
    );

    let (mut sim, versions) = sibling_world(batching, true, &placements);
    let [a, b] = versions[..] else {
        unreachable!("two versions")
    };
    let trace = traced(&mut sim);
    let step = |sim: &Simulation<Message>, ov| {
        let work = pending_work(sim.actor(REPROBE_FS), ov);
        (
            work.step,
            work.attempts,
            work.kls_ok.len(),
            work.fs_ok.len(),
        )
    };
    sim.run_until_time(secs(61));
    assert_eq!(probed_silent(&mut sim), [a, b]);
    assert_eq!(step(&sim, a), (store::Step::Verifying, 1, 2, 1));

    // 5 has owed an answer since 60 s. The next two steps re-ask it alone:
    // one batch, one entry per version, no KLS probe, and the answers of
    // the verification step are kept through an unanswered re-ask.
    for (round, attempts) in [(120, 2), (240, 3)] {
        sim.run_until_time(secs(round + 1));
        assert_eq!(
            sent_by_reprober(&trace, secs(round), secs(round + 1)),
            [(SILENT, "FSConvergeReq")],
            "at {round} s"
        );
        assert_eq!(probed_silent(&mut sim), [a, b], "at {round} s");
        for ov in [a, b] {
            assert_eq!(step(&sim, ov), (store::Step::Reasking, attempts, 2, 1));
        }
    }

    // 5 answers `b` "not verified" at 250 s: `b` stays on its back-off,
    // and 5 speaking again revives `a`, which node 2 re-probes for it.
    silent_answers(&mut sim, secs(250), b, false);
    sim.run_until_time(secs(251));
    let [revived, held] = backoffs(&sim, &versions)[..] else {
        unreachable!("two versions")
    };
    assert_eq!(held, (3, secs(480)));
    assert_eq!(revived.0, 0);
    assert!(
        secs(250) < revived.1 && revived.1 < secs(251),
        "{revived:?}"
    );
    assert!(sent_by_reprober(&trace, secs(250), secs(251)).is_empty());

    // 5 has spoken, so `a`'s next step is a full one — which 5 leaves
    // unanswered — and the one after that a re-ask again.
    sim.run_until_time(secs(301));
    assert_eq!(
        sent_by_reprober(&trace, secs(300), secs(301)),
        full_step_of_a
    );
    assert_eq!(probed_silent(&mut sim), [a]);
    sim.run_until_time(secs(361));
    assert_eq!(
        sent_by_reprober(&trace, secs(360), secs(361)),
        [(SILENT, "FSConvergeReq")]
    );
    assert_eq!(probed_silent(&mut sim), [a]);
    assert_eq!(step(&sim, a), (store::Step::Reasking, 2, 2, 1));

    // 5 answers the re-ask verified at 370 s: the full step runs at once,
    // from a reset back-off, and settles nothing until its own answers
    // are in — the KLSs' and 4's arrive, 5's does not.
    silent_answers(&mut sim, secs(370), a, true);
    sim.run_until_time(secs(371));
    assert_eq!(
        sent_by_reprober(&trace, secs(370), secs(371)),
        full_step_of_a
    );
    assert_eq!(probed_silent(&mut sim), [a]);
    assert_eq!(step(&sim, a), (store::Step::Verifying, 1, 2, 1));
    assert_eq!(sim.actor::<Fs>(REPROBE_FS).amr_settled_at(a), None);

    // 5 answers the fresh probe: now `a` is AMR.
    silent_answers(&mut sim, secs(380), a, true);
    sim.run_until_time(secs(381));
    let settled = sim.actor::<Fs>(REPROBE_FS).amr_settled_at(a);
    assert!(settled.is_some_and(|at| at > secs(380)), "{settled:?}");
}

#[test]
fn retrieve_unknown_fragment_answers_bottom() {
    let fs_node = NodeId::new(1);
    let (mut sim, _, _, driver) = tiny_world(
        ConvergenceOptions::all(),
        vec![(
            fs_node,
            Message::RetrieveFrag {
                op: 1,
                ov: ov(),
                fragment: 0,
            },
        )],
    );
    sim.run_until_time(SimTime::from_micros(100_000));
    let d: &Driver = sim.actor(driver);
    assert_eq!(d.received(), vec![(fs_node, "RetrieveFragRep")]);
}
