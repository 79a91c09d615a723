//! The background repair engine.
//!
//! The paper's recovery story is purely reactive: §4.2 sibling recovery
//! fires only when a convergence round happens to probe a version, and
//! the optional scrub merely re-hashes. Under sustained churn or a
//! rack-correlated outage the archive silently degrades until a read
//! notices. This module adds the production-shaped counterpart: one
//! [`RepairActor`] per data center that *continuously* tracks per-object
//! live-fragment counts from periodic FS inventory reports
//! ([`Message::RepairReport`]) and restores redundancy the moment an
//! object falls below a policy threshold — not only on reads.
//!
//! # Threshold policy
//!
//! Each actor watches the fragments assigned to its own data center
//! (`frags_per_dc` of them per object). An object becomes *below
//! threshold* when `live * 100 < threshold_pct * target` — integer
//! arithmetic, no floats, so every run computes the identical decision.
//! With the paper policy (6 per DC) and the default `threshold_pct = 80`,
//! repair triggers once a DC drops to 4 of its 6 fragments. Objects with
//! fewer than `k` live fragments *cluster-wide* are not repairable and
//! are left for read-path convergence to flag.
//!
//! # Donor selection
//!
//! Donors are the live fragments' holders. When racks are modeled
//! ([`Topology::with_racks`]) the actor prefers donors outside the
//! *failing racks* — the racks hosting the missing fragments — so a
//! rack-correlated outage does not also concentrate repair reads on the
//! sick rack. Within a preference class donors are ordered by `NodeId`,
//! keeping the schedule deterministic. When the local DC cannot supply
//! `k` live fragments the actor falls back to the sibling DC's assigned
//! holders (verified by the fetch itself: absent fragments answer ⊥).
//!
//! # Throttle and backpressure
//!
//! Repairs drain from a queue on a fixed-period tick. At most
//! [`RepairOptions::max_in_flight`] jobs run concurrently, and a token
//! bucket refilled with [`RepairOptions::bandwidth_per_tick`] bytes per
//! tick (0 = unthrottled) gates job admission; a tick whose budget cannot
//! cover the next job records a throttle stall and leaves the job queued.
//! Donor timeouts retry the whole job up to [`RepairOptions::retry_limit`]
//! times before abandoning it (a later report re-triggers from scratch).
//!
//! # Why repair-off digests are pinned
//!
//! The engine is entirely gated on `ConvergenceOptions::repair`: with
//! `None` (the default) no repair actors are built, no report timers are
//! scheduled and no messages or counters change, so the full 144-scenario
//! sweep digests stay byte-identical to the pre-repair tree. The
//! equivalence ladder (sequential vs `simnet::sweep`-fanned sweep, default
//! vs reference protocol) therefore keeps guarding the paper protocol while
//! the repair scenarios guard the engine.

use std::any::Any;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

use erasure::{Codec, Fragment, FragmentIndex};
use simnet::{Actor, Context, NodeId, SimDuration, SimTime, TimerId};

use crate::messages::{
    Message, OpId, EV_REPAIR_ABANDONED, EV_REPAIR_BYTES, EV_REPAIR_COMPLETED,
    EV_REPAIR_QUEUE_DEPTH, EV_REPAIR_THROTTLE_STALLS, EV_REPAIR_TRIGGERED,
};
use crate::metadata::Metadata;
use crate::topology::{DataCenterId, Topology};
use crate::types::ObjectVersion;

/// Timer tag: periodic queue-drain tick.
const TAG_DRAIN: u64 = 1 << 56;
/// Timer tag: per-job donor timeout (low bits carry the job's op id).
const TAG_JOB: u64 = 2 << 56;
/// Mask selecting the tag class from a timer tag.
const TAG_MASK: u64 = 0xff << 56;

/// Policy knobs for the background repair engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepairOptions {
    /// Redundancy floor as a percentage of the per-DC fragment target:
    /// an object triggers repair when
    /// `live * 100 < threshold_pct * target`. Integer percent keeps the
    /// decision float-free and deterministic. Default 80 (the tentpole's
    /// "0.8×target").
    pub threshold_pct: u32,
    /// How long an object may stay repairable-but-below-threshold before
    /// the `redundancy-floor` invariant calls it a violation. Must cover
    /// at least one report interval plus a repair round-trip.
    pub grace: SimDuration,
    /// Period of each FS's inventory report to its DC's repair actor.
    pub report_interval: SimDuration,
    /// Period of the repair actor's queue-drain tick.
    pub drain_interval: SimDuration,
    /// Maximum concurrently in-flight repair jobs (backpressure bound).
    pub max_in_flight: usize,
    /// Token-bucket refill per drain tick, in fragment payload bytes;
    /// `0` disables throttling entirely.
    pub bandwidth_per_tick: u64,
    /// How many times a job is retried after donor timeouts before it is
    /// abandoned (a later report re-triggers it from scratch).
    pub retry_limit: u32,
    /// Donor fetch timeout per job attempt.
    pub donor_timeout: SimDuration,
}

impl RepairOptions {
    /// Production-shaped defaults: 80 % floor, 30 s reports, 1 s drain
    /// ticks, 4 jobs in flight, unthrottled.
    pub fn paper_default() -> Self {
        RepairOptions {
            threshold_pct: 80,
            grace: SimDuration::from_secs(120),
            report_interval: SimDuration::from_secs(30),
            drain_interval: SimDuration::from_secs(1),
            max_in_flight: 4,
            bandwidth_per_tick: 0,
            retry_limit: 3,
            donor_timeout: SimDuration::from_secs(5),
        }
    }

    /// The default policy with a bandwidth budget of `bytes` per drain
    /// tick (the throttled benchmark cell).
    pub fn throttled(bytes: u64) -> Self {
        RepairOptions {
            bandwidth_per_tick: bytes,
            ..RepairOptions::paper_default()
        }
    }
}

impl Default for RepairOptions {
    fn default() -> Self {
        RepairOptions::paper_default()
    }
}

/// What the actor knows about one object version.
#[derive(Debug)]
struct Tracked {
    meta: Arc<Metadata>,
    /// Fragment indices each reporting FS currently holds.
    have: BTreeMap<NodeId, BTreeSet<FragmentIndex>>,
    /// When this actor first learned of the version; threshold checks
    /// wait one report interval so every holder has had a chance to
    /// report before a fresh put looks degraded.
    first_seen: SimTime,
    state: JobState,
    retries: u32,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JobState {
    Idle,
    Queued,
    InFlight(OpId),
}

/// One in-flight reconstruction.
#[derive(Debug)]
struct Job {
    ov: ObjectVersion,
    /// Missing `(fragment index, assigned FS)` pairs to regenerate.
    targets: Vec<(FragmentIndex, NodeId)>,
    /// Donor fragments collected so far.
    collected: Vec<Fragment>,
    /// Donor replies still outstanding.
    awaiting: usize,
    /// Store acks still outstanding after reconstruction.
    pending_acks: BTreeSet<FragmentIndex>,
    timer: TimerId,
}

/// Per-data-center background repair actor.
///
/// Fed by [`Message::RepairReport`] inventories from the DC's fragment
/// servers; fetches donors with [`Message::RetrieveFrag`], reconstructs
/// missing fragments and pushes them with [`Message::StoreFragment`] —
/// all existing protocol paths, so fragment servers need no repair-
/// specific handling.
pub struct RepairActor {
    topo: Arc<Topology>,
    my_dc: DataCenterId,
    opts: RepairOptions,
    tracked: BTreeMap<ObjectVersion, Tracked>,
    queue: VecDeque<ObjectVersion>,
    jobs: BTreeMap<OpId, Job>,
    next_op: OpId,
    /// Token bucket for the bandwidth throttle (bytes).
    tokens: u64,
    /// FSs of my DC that have sent at least one report; threshold checks
    /// start once every FS has reported.
    reported: BTreeSet<NodeId>,
    /// Codecs by `(k, n)`, built once per policy shape.
    codecs: BTreeMap<(u8, u8), Codec>,
    triggered: u64,
    completed: u64,
    abandoned: u64,
}

impl RepairActor {
    /// Creates the repair actor for data center `my_dc`.
    pub fn new(topo: Arc<Topology>, my_dc: DataCenterId, opts: RepairOptions) -> Self {
        RepairActor {
            topo,
            my_dc,
            opts,
            tracked: BTreeMap::new(),
            queue: VecDeque::new(),
            jobs: BTreeMap::new(),
            next_op: 1,
            tokens: 0,
            reported: BTreeSet::new(),
            codecs: BTreeMap::new(),
            triggered: 0,
            completed: 0,
            abandoned: 0,
        }
    }

    /// Repair jobs triggered so far.
    pub fn jobs_triggered(&self) -> u64 {
        self.triggered
    }

    /// Repair jobs completed so far.
    pub fn jobs_completed(&self) -> u64 {
        self.completed
    }

    /// Repair jobs abandoned after exhausting retries.
    pub fn jobs_abandoned(&self) -> u64 {
        self.abandoned
    }

    /// Object versions currently queued or in flight.
    pub fn backlog(&self) -> usize {
        self.queue.len() + self.jobs.len()
    }

    /// Live fragment indices this actor believes `ov` has in its DC.
    pub fn live_fragments(&self, ov: ObjectVersion) -> usize {
        self.tracked.get(&ov).map_or(0, |t| Self::live_set(t).len())
    }

    fn live_set(t: &Tracked) -> BTreeSet<FragmentIndex> {
        t.have.values().flatten().copied().collect()
    }

    /// The fragment indices assigned to this actor's DC under `meta`.
    fn local_assigned(&self, meta: &Metadata) -> Vec<(FragmentIndex, NodeId)> {
        meta.assignments()
            .filter(|(_, loc)| self.topo.dc_of(loc.fs) == Some(self.my_dc))
            .map(|(idx, loc)| (idx, loc.fs))
            .collect()
    }

    /// Whether `ov` is below the repair threshold and repairable; queues
    /// it if so.
    fn maybe_trigger(&mut self, ctx: &mut Context<'_, Message>, ov: ObjectVersion) {
        let Some(t) = self.tracked.get(&ov) else {
            return;
        };
        if t.state != JobState::Idle {
            return;
        }
        // Wait for full visibility: every FS reported once, and the
        // version has been known for a full report interval.
        if self.reported.len() < self.topo.fss_in(self.my_dc).len() {
            return;
        }
        if ctx.now() < t.first_seen + self.opts.report_interval {
            return;
        }
        let local = self.local_assigned(&t.meta);
        let target = local.len() as u64;
        if target == 0 {
            return;
        }
        let live_set = Self::live_set(t);
        let live = local
            .iter()
            .filter(|(idx, _)| live_set.contains(idx))
            .count() as u64;
        let k = u64::from(t.meta.policy().k);
        let below_threshold = live * 100 < u64::from(self.opts.threshold_pct) * target;
        // Repairable: the cluster still has >= k fragments. Locally we
        // only *know* our DC's live set; assigned remote fragments count
        // as potential donors (the fetch verifies).
        let remote = t.meta.location_count() as u64 - target;
        let repairable = live + remote >= k && live < target;
        if below_threshold && repairable {
            // lint:allow(panic-path): tracked.get succeeded above
            let t = self.tracked.get_mut(&ov).expect("tracked above");
            t.state = JobState::Queued;
            self.queue.push_back(ov);
            self.triggered += 1;
            ctx.record_event(EV_REPAIR_TRIGGERED, 1);
        }
    }

    /// Estimated payload bytes one repair of `ov` moves: `k` donor
    /// fetches plus one push per missing fragment.
    fn job_cost(&self, t: &Tracked) -> u64 {
        let p = t.meta.policy();
        let flen = t.meta.value_len().div_ceil(usize::from(p.k.max(1))) as u64;
        let local = self.local_assigned(&t.meta);
        let live_set = Self::live_set(t);
        let missing = local
            .iter()
            .filter(|(idx, _)| !live_set.contains(idx))
            .count() as u64;
        (u64::from(p.k) + missing) * flen
    }

    /// Starts the repair of `ov`: pick donors, fire the fetches, arm the
    /// job timeout.
    fn start_job(&mut self, ctx: &mut Context<'_, Message>, ov: ObjectVersion) {
        let Some(t) = self.tracked.get(&ov) else {
            return;
        };
        let meta = Arc::clone(&t.meta);
        let live_set = Self::live_set(t);
        let local = self.local_assigned(&meta);
        let targets: Vec<(FragmentIndex, NodeId)> = local
            .iter()
            .filter(|(idx, _)| !live_set.contains(idx))
            .copied()
            .collect();
        if targets.is_empty() {
            // A newer report healed it while queued.
            if let Some(t) = self.tracked.get_mut(&ov) {
                t.state = JobState::Idle;
                t.retries = 0;
            }
            return;
        }
        // Failing racks: the racks hosting the missing fragments.
        let failing: BTreeSet<usize> = targets
            .iter()
            .filter_map(|(_, fs)| self.topo.rack_of(self.my_dc, *fs))
            .collect();
        // Donor candidates: live local fragments first (ordered to avoid
        // the failing racks), then the sibling DCs' assigned holders.
        let mut donors: Vec<(bool, bool, NodeId, FragmentIndex)> = Vec::new();
        for (idx, fs) in &local {
            if live_set.contains(idx) {
                let sick = self
                    .topo
                    .rack_of(self.my_dc, *fs)
                    .is_some_and(|r| failing.contains(&r));
                donors.push((false, sick, *fs, *idx));
            }
        }
        for (idx, loc) in meta.assignments() {
            if self.topo.dc_of(loc.fs) != Some(self.my_dc) {
                donors.push((true, false, loc.fs, idx));
            }
        }
        donors.sort_unstable();
        let k = usize::from(meta.policy().k);
        let picked: Vec<(NodeId, FragmentIndex)> = {
            let mut seen = BTreeSet::new();
            donors
                .into_iter()
                .filter(|(_, _, _, idx)| seen.insert(*idx))
                .take(k)
                .map(|(_, _, fs, idx)| (fs, idx))
                .collect()
        };
        let op = self.next_op;
        self.next_op += 1;
        let awaiting = picked.len();
        for (fs, idx) in picked {
            ctx.send(
                fs,
                Message::RetrieveFrag {
                    op,
                    ov,
                    fragment: idx,
                },
            );
        }
        let timer = ctx.schedule_timer(self.opts.donor_timeout, TAG_JOB | op);
        self.jobs.insert(
            op,
            Job {
                ov,
                targets,
                collected: Vec::new(),
                awaiting,
                pending_acks: BTreeSet::new(),
                timer,
            },
        );
        if let Some(t) = self.tracked.get_mut(&ov) {
            t.state = JobState::InFlight(op);
        }
    }

    /// Reconstructs and pushes the missing fragments once `k` donors have
    /// answered.
    fn try_reconstruct(&mut self, ctx: &mut Context<'_, Message>, op: OpId) {
        let Some(job) = self.jobs.get(&op) else {
            return;
        };
        let ov = job.ov;
        let Some(t) = self.tracked.get(&ov) else {
            return;
        };
        let meta = Arc::clone(&t.meta);
        let p = *meta.policy();
        let k = usize::from(p.k);
        if job.collected.len() < k {
            if job.awaiting == 0 {
                // Every donor answered and we still lack k fragments.
                self.retry_or_abandon(ctx, op);
            }
            return;
        }
        let codec = self.codecs.entry((p.k, p.n)).or_insert_with(|| {
            // lint:allow(panic-path): the policy was validated at put time
            Codec::new(usize::from(p.k), usize::from(p.n)).expect("policy validated at put time")
        });
        let missing: Vec<FragmentIndex> = job.targets.iter().map(|(idx, _)| *idx).collect();
        let Ok(rebuilt) = codec.recover(&job.collected, &missing, meta.value_len()) else {
            self.retry_or_abandon(ctx, op);
            return;
        };
        let mut pushed_bytes = 0u64;
        let mut pending_acks = BTreeSet::new();
        for frag in rebuilt {
            let idx = frag.index();
            if let Some((_, fs)) = job.targets.iter().find(|(i, _)| *i == idx) {
                pushed_bytes += frag.len() as u64;
                pending_acks.insert(idx);
                ctx.send(
                    *fs,
                    Message::StoreFragment {
                        ov,
                        meta: Arc::clone(&meta),
                        fragment: frag,
                    },
                );
            }
        }
        ctx.record_event(EV_REPAIR_BYTES, pushed_bytes);
        if let Some(job) = self.jobs.get_mut(&op) {
            job.collected.clear();
            job.pending_acks = pending_acks;
        }
    }

    /// A job attempt failed (donor timeout or unrecoverable donor set):
    /// requeue with the retry budget, or abandon.
    fn retry_or_abandon(&mut self, ctx: &mut Context<'_, Message>, op: OpId) {
        let Some(job) = self.jobs.remove(&op) else {
            return;
        };
        ctx.cancel_timer(job.timer);
        let ov = job.ov;
        let Some(t) = self.tracked.get_mut(&ov) else {
            return;
        };
        t.retries += 1;
        if t.retries > self.opts.retry_limit {
            t.state = JobState::Idle;
            t.retries = 0;
            self.abandoned += 1;
            ctx.record_event(EV_REPAIR_ABANDONED, 1);
        } else {
            // Back off by re-queuing: the next drain tick (or a later
            // one, under throttle) restarts the job with fresh donors.
            t.state = JobState::Queued;
            self.queue.push_back(ov);
        }
    }

    /// One drain tick: refill the token bucket, record queue depth,
    /// admit jobs within the in-flight and bandwidth budgets.
    fn drain(&mut self, ctx: &mut Context<'_, Message>) {
        ctx.record_event(EV_REPAIR_QUEUE_DEPTH, self.queue.len() as u64);
        if self.opts.bandwidth_per_tick > 0 {
            self.tokens = (self.tokens + self.opts.bandwidth_per_tick)
                .min(self.opts.bandwidth_per_tick.saturating_mul(8));
        }
        while self.jobs.len() < self.opts.max_in_flight {
            let Some(&ov) = self.queue.front() else {
                break;
            };
            if self.opts.bandwidth_per_tick > 0 {
                let cost = self.tracked.get(&ov).map_or(0, |t| self.job_cost(t));
                if cost > self.tokens {
                    ctx.record_event(EV_REPAIR_THROTTLE_STALLS, 1);
                    break;
                }
                self.tokens -= cost;
            }
            self.queue.pop_front();
            self.start_job(ctx, ov);
        }
        ctx.schedule_timer(self.opts.drain_interval, TAG_DRAIN);
    }
}

impl Actor<Message> for RepairActor {
    fn on_start(&mut self, ctx: &mut Context<'_, Message>) {
        ctx.schedule_timer(self.opts.drain_interval, TAG_DRAIN);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, Message>, from: NodeId, msg: Message) {
        match msg {
            Message::RepairReport { entries } => {
                self.reported.insert(from);
                let now = ctx.now();
                // Replace the reporter's inventory wholesale: a fragment
                // it no longer lists is gone (disk loss, corruption).
                let mut fresh: BTreeMap<ObjectVersion, BTreeSet<FragmentIndex>> = BTreeMap::new();
                for (ov, meta, have) in entries {
                    fresh.insert(ov, have.iter().copied().collect());
                    let t = self.tracked.entry(ov).or_insert_with(|| Tracked {
                        meta: Arc::clone(&meta),
                        have: BTreeMap::new(),
                        first_seen: now,
                        state: JobState::Idle,
                        retries: 0,
                    });
                    Metadata::merge_shared(&mut t.meta, &meta);
                }
                let touched: Vec<ObjectVersion> = self
                    .tracked
                    .iter_mut()
                    .map(|(&ov, t)| {
                        match fresh.remove(&ov) {
                            Some(set) => {
                                t.have.insert(from, set);
                            }
                            None => {
                                // Not in this report: the FS holds nothing.
                                t.have.remove(&from);
                            }
                        }
                        ov
                    })
                    .collect();
                for ov in touched {
                    self.maybe_trigger(ctx, ov);
                }
            }

            Message::RetrieveFragReply { op, data, .. } => {
                if let Some(job) = self.jobs.get_mut(&op) {
                    job.awaiting = job.awaiting.saturating_sub(1);
                    if let Some(frag) = data {
                        ctx.record_event(EV_REPAIR_BYTES, frag.len() as u64);
                        job.collected.push(frag);
                    }
                    self.try_reconstruct(ctx, op);
                }
            }

            Message::StoreFragmentReply { ov, fragment } => {
                let done = self.jobs.iter_mut().find_map(|(&op, job)| {
                    if job.ov == ov && job.pending_acks.remove(&fragment) {
                        Some((op, job.pending_acks.is_empty()))
                    } else {
                        None
                    }
                });
                if let Some(t) = self.tracked.get_mut(&ov) {
                    t.have.entry(from).or_default().insert(fragment);
                }
                if let Some((op, true)) = done {
                    if let Some(job) = self.jobs.remove(&op) {
                        ctx.cancel_timer(job.timer);
                    }
                    if let Some(t) = self.tracked.get_mut(&ov) {
                        t.state = JobState::Idle;
                        t.retries = 0;
                    }
                    self.completed += 1;
                    ctx.record_event(EV_REPAIR_COMPLETED, 1);
                }
            }

            // Anything else (stray replies after an abandon, protocol
            // traffic misdirected by a fault scenario) is ignored.
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Message>, tag: u64) {
        match tag & TAG_MASK {
            TAG_DRAIN => self.drain(ctx),
            TAG_JOB => {
                let op = tag & !TAG_MASK;
                if self.jobs.contains_key(&op) {
                    self.retry_or_abandon(ctx, op);
                }
            }
            _ => {}
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kls::Kls;
    use crate::policy::Policy;
    use crate::types::{Key, Timestamp};

    fn topo() -> Arc<Topology> {
        // One DC: 1 KLS, 6 FSs in 3 racks.
        Topology::with_racks(
            vec![(
                vec![NodeId::new(0)],
                (1..=6).map(NodeId::new).collect::<Vec<_>>(),
            )],
            3,
        )
    }

    fn ov(n: u64) -> ObjectVersion {
        ObjectVersion::new(
            Key::from_u64(n),
            Timestamp::new(simnet::SimTime::from_micros(n), 0),
        )
    }

    fn meta_for(t: &Topology, v: ObjectVersion) -> Arc<Metadata> {
        // Single-DC policy: k=4, n=6, all six fragments in DC0.
        let p = Policy::new(4, 6, 1, 2);
        let mut m = Metadata::new(p, DataCenterId::new(0), 1024);
        m.add_dc_locations(
            DataCenterId::new(0),
            Kls::which_locs(t, DataCenterId::new(0), v, &p),
        );
        Arc::new(m)
    }

    #[test]
    fn threshold_is_integer_percent_of_local_target() {
        let t = topo();
        let v = ov(1);
        let meta = meta_for(&t, v);
        let mut actor = RepairActor::new(t, DataCenterId::new(0), RepairOptions::paper_default());
        let mut have = BTreeMap::new();
        for (idx, loc) in meta.assignments() {
            have.entry(loc.fs).or_insert_with(BTreeSet::new).insert(idx);
        }
        actor.tracked.insert(
            v,
            Tracked {
                meta,
                have,
                first_seen: SimTime::ZERO,
                state: JobState::Idle,
                retries: 0,
            },
        );
        assert_eq!(actor.live_fragments(v), 6);
        // 6 live of target 6: 600 >= 80*6=480, healthy.
        let tr = actor.tracked.get(&v).unwrap();
        let live = RepairActor::live_set(tr).len() as u64;
        assert!(live * 100 >= 80 * 6);
    }

    #[test]
    fn job_cost_counts_fetches_and_pushes() {
        let t = topo();
        let v = ov(2);
        let meta = meta_for(&t, v);
        let actor = RepairActor::new(
            t.clone(),
            DataCenterId::new(0),
            RepairOptions::paper_default(),
        );
        // 4 of 6 fragments live -> 2 missing; flen = 1024/4 = 256.
        let mut have: BTreeMap<NodeId, BTreeSet<FragmentIndex>> = BTreeMap::new();
        for (idx, loc) in meta.assignments().take(4) {
            have.entry(loc.fs).or_default().insert(idx);
        }
        let tracked = Tracked {
            meta,
            have,
            first_seen: SimTime::ZERO,
            state: JobState::Idle,
            retries: 0,
        };
        assert_eq!(actor.job_cost(&tracked), (4 + 2) * 256);
    }
}
