//! The protocol invariant registry and the per-event checker.
//!
//! Each [`Invariant`] encodes one property the paper claims for Pahoehoe,
//! phrased over the *observer's* view of a running cluster (the same
//! accessors [`pahoehoe::analysis`] uses). A [`Checker`] installs the whole
//! registry as one [`simnet::Observer`] of the simulation, so every
//! property is re-examined after **every** processed event — a violation is
//! caught at the earliest event that exhibits it, not at quiescence, and
//! the recorded event index pins it in the message trace. The same observer
//! shows every invariant every message send.
//!
//! The registry assumes every put writes a key-derived blob: workload key
//! `i + 1` holds [`Client::synthetic_value`]`(i, value_len)`, which lets the
//! durability invariant reconstruct the expected blob for any acknowledged
//! version without help from the actors under test. The **standard
//! workload** ([`Client::standard_workload`]) does, and so does a
//! [streamed workload](pahoehoe::workload::StreamingWorkload) with
//! `overwrite_delta_permille: 0`; the checker takes the value length and
//! policy from the stream when the cluster runs one.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;
use std::sync::Arc;

use erasure::{Checksum, Codec, Fragment};
use pahoehoe::analysis;
use pahoehoe::client::Client;
use pahoehoe::cluster::Cluster;
use pahoehoe::fs::Fs;
use pahoehoe::messages::Message;
use pahoehoe::proxy::Proxy;
use pahoehoe::repair::{self, RepairOptions};
use pahoehoe::topology::{DataCenterId, Topology};
use pahoehoe::types::ObjectVersion;
use pahoehoe::{Metadata, Policy};
use simnet::{
    Disposition, NodeId, Observer, RunOutcome, SimDuration, SimTime, Simulation, TraceEvent,
};

/// One observed breach of a protocol invariant.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Name of the violated invariant.
    pub invariant: &'static str,
    /// Events processed when the violation was first observed (an index
    /// into the run; `u64::MAX` for end-of-run checks).
    pub events_processed: u64,
    /// Virtual time of the observation.
    pub sim_time: SimTime,
    /// Human-readable description of the breach.
    pub detail: String,
}

/// The cluster state handed to invariants: the simulation plus the static
/// facts (topology, node ids, workload shape) captured when the checker
/// was installed.
pub struct ClusterView<'a> {
    /// The simulation, mid-run or after the run.
    pub sim: &'a Simulation<Message>,
    /// Cluster topology (which nodes are KLSs/FSs, per data center).
    pub topo: &'a Topology,
    /// All fragment-server node ids.
    pub fss: &'a [NodeId],
    /// All key-lookup-server node ids.
    pub klss: &'a [NodeId],
    /// All client node ids.
    pub clients: &'a [NodeId],
    /// All proxy node ids.
    pub proxies: &'a [NodeId],
    /// Standard-workload value length (drives blob reconstruction).
    pub value_len: usize,
    /// The durability policy of the workload's puts.
    pub policy: Policy,
    /// The cluster's repair-engine configuration, if any. Invariants that
    /// police the repair policy (e.g. [`RedundancyFloor`]) are vacuous
    /// when this is `None`.
    pub repair: Option<&'a RepairOptions>,
}

/// One checkable protocol property. Implementations may keep state across
/// events (e.g. to detect regressions), which is why both hooks take
/// `&mut self`.
pub trait Invariant {
    /// Stable rule name, used in reports and violation records.
    fn name(&self) -> &'static str;

    /// Shown every message send of the run, dropped ones included, before
    /// the event that sent it is checked.
    fn on_send(&mut self, event: &TraceEvent) {
        let _ = event;
    }

    /// Checked after every processed simulation event. Return `Err` with a
    /// description to report a violation.
    fn check_event(&mut self, view: &ClusterView<'_>) -> Result<(), String> {
        let _ = view;
        Ok(())
    }

    /// Checked once when the run ends, with the run's outcome.
    fn check_final(&mut self, view: &ClusterView<'_>, outcome: RunOutcome) -> Result<(), String> {
        let _ = (view, outcome);
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Invariant 1: acknowledged puts are durable and decodable.
// ---------------------------------------------------------------------------

/// Once a put is ACKed to a client, at least `k` distinct sibling
/// fragments of that version are stored across the fragment servers, every
/// stored fragment is byte-identical to the systematic encoding of the
/// original blob, and `k` of them decode back to the blob.
///
/// Holds under message-level faults (loss, duplication, outages), which
/// never destroy stored fragments. Runs that destroy disks or corrupt
/// fragments deliberately must not register this invariant.
pub struct AckedDurability {
    codec: Option<Codec>,
    /// Expected encodings, cached per version (encoding is the hot cost).
    expected: BTreeMap<ObjectVersion, Vec<Fragment>>,
    /// Versions whose decode path has already been exercised.
    decoded: BTreeSet<ObjectVersion>,
    /// Reusable scratch for the once-per-version decode check (the
    /// invariant runs after every simulation event, so its allocations are
    /// on the sweep's hot path).
    decode_scratch: Vec<u8>,
}

impl AckedDurability {
    /// Creates the invariant with empty caches.
    pub fn new() -> Self {
        AckedDurability {
            codec: None,
            expected: BTreeMap::new(),
            decoded: BTreeSet::new(),
            decode_scratch: Vec::new(),
        }
    }

    fn expected_fragments(&mut self, ov: ObjectVersion, view: &ClusterView<'_>) -> &[Fragment] {
        let codec = self.codec.get_or_insert_with(|| {
            Codec::new(usize::from(view.policy.k), usize::from(view.policy.n))
                .expect("workload policy is a valid code")
        });
        self.expected.entry(ov).or_insert_with(|| {
            let value = Client::synthetic_value(ov.key.as_u64().wrapping_sub(1), view.value_len);
            codec.encode(&value)
        })
    }
}

impl Default for AckedDurability {
    fn default() -> Self {
        AckedDurability::new()
    }
}

impl Invariant for AckedDurability {
    fn name(&self) -> &'static str {
        "acked-durability"
    }

    fn check_event(&mut self, view: &ClusterView<'_>) -> Result<(), String> {
        let mut acked: BTreeSet<ObjectVersion> = BTreeSet::new();
        for &c in view.clients {
            acked.extend(view.sim.actor::<Client>(c).success_versions().iter());
        }
        for ov in acked {
            let k = usize::from(view.policy.k);
            let mut distinct: BTreeMap<u8, Fragment> = BTreeMap::new();
            // Fragment indices recorded in compaction residuals: the bytes
            // are gone (the version reached AMR — every sibling verified
            // every assigned fragment — before its entry was released), so
            // they count toward redundancy but cannot be byte-checked.
            let mut residual_distinct: BTreeSet<u8> = BTreeSet::new();
            for &fs in view.fss {
                let actor = view.sim.actor::<Fs>(fs);
                let Some(entry) = actor.entry(ov) else {
                    if let Some(held) = actor.compacted_residual(ov) {
                        residual_distinct.extend(held.iter());
                    }
                    continue;
                };
                for (&idx, stored) in &entry.fragments {
                    let frag = &stored.fragment;
                    let expected = &self.expected_fragments(ov, view)[usize::from(idx)];
                    if frag.data().as_ref() != expected.data().as_ref() {
                        return Err(format!(
                            "ACKed {ov:?}: fragment {idx} on {fs:?} differs from the \
                             encoding of the original blob"
                        ));
                    }
                    distinct.entry(idx).or_insert_with(|| frag.clone());
                }
            }
            residual_distinct.extend(distinct.keys().copied());
            if residual_distinct.len() < k {
                return Err(format!(
                    "ACKed {ov:?}: only {} distinct fragments stored or in residuals, \
                     need k = {k}",
                    residual_distinct.len()
                ));
            }
            // The decode check needs actual bytes; run it only while k full
            // fragments still exist (always, unless compaction released
            // them first — in which case AMR verification already ran).
            if distinct.len() >= k && self.decoded.insert(ov) {
                let subset: Vec<Fragment> = distinct.into_values().take(k).collect();
                let mut decoded = std::mem::take(&mut self.decode_scratch);
                let codec = self.codec.as_ref().expect("codec built above");
                codec
                    .decode_into(&subset, view.value_len, &mut decoded)
                    .map_err(|e| format!("ACKed {ov:?}: k fragments failed to decode: {e:?}"))?;
                let expected =
                    Client::synthetic_value(ov.key.as_u64().wrapping_sub(1), view.value_len);
                let matches = decoded == expected.as_ref();
                self.decode_scratch = decoded;
                if !matches {
                    return Err(format!(
                        "ACKed {ov:?}: k fragments decoded to the wrong blob"
                    ));
                }
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Invariant 2: quiescent runs converge to AMR.
// ---------------------------------------------------------------------------

/// A run that ends (converged, or quiescent after its faults healed)
/// leaves **every durable version at maximum redundancy** — the paper's
/// eventual-consistency claim. A run that instead hits its virtual-time
/// deadline or event limit failed to converge, which is itself a
/// violation.
///
/// Only meaningful for fault plans whose faults heal before the run's
/// deadline; the explorer generates exactly such plans.
pub struct QuiescentAmr;

impl Invariant for QuiescentAmr {
    fn name(&self) -> &'static str {
        "amr-convergence"
    }

    fn check_final(&mut self, view: &ClusterView<'_>, outcome: RunOutcome) -> Result<(), String> {
        if !matches!(
            outcome,
            RunOutcome::PredicateSatisfied | RunOutcome::Quiescent
        ) {
            return Err(format!(
                "run failed to converge before its safety limit: {outcome:?}"
            ));
        }
        let durable = analysis::durable_versions(view.sim, view.fss);
        for &ov in &durable {
            if !analysis::is_amr(view.sim, view.topo, ov) {
                return Err(format!(
                    "durable version {ov:?} is not at maximum redundancy at end of run"
                ));
            }
        }
        for &c in view.clients {
            for &ov in view.sim.actor::<Client>(c).success_versions() {
                if !durable.contains(&ov) {
                    return Err(format!("ACKed version {ov:?} is not durable at end of run"));
                }
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Invariant 3: no resurrection of abandoned versions.
// ---------------------------------------------------------------------------

/// Once a fragment server gives up on a version (its `give_up_age`
/// garbage collection), that version never re-enters the server's pending
/// or AMR sets — convergence must not resurrect state the server already
/// discarded.
pub struct NoResurrection {
    gone: BTreeSet<(NodeId, ObjectVersion)>,
}

impl NoResurrection {
    /// Creates the invariant with no abandoned versions recorded.
    pub fn new() -> Self {
        NoResurrection {
            gone: BTreeSet::new(),
        }
    }
}

impl Default for NoResurrection {
    fn default() -> Self {
        NoResurrection::new()
    }
}

impl Invariant for NoResurrection {
    fn name(&self) -> &'static str {
        "no-resurrection"
    }

    fn check_event(&mut self, view: &ClusterView<'_>) -> Result<(), String> {
        for &fs in view.fss {
            let actor = view.sim.actor::<Fs>(fs);
            for ov in actor.pending_versions() {
                if self.gone.contains(&(fs, ov)) {
                    return Err(format!(
                        "{fs:?} resurrected abandoned version {ov:?} into its pending set"
                    ));
                }
            }
            for ov in actor.amr_versions() {
                if self.gone.contains(&(fs, ov)) {
                    return Err(format!(
                        "{fs:?} resurrected abandoned version {ov:?} into its AMR set"
                    ));
                }
            }
            for ov in actor.gave_up_versions() {
                self.gone.insert((fs, ov));
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Invariant 4: stored fragments match their recorded checksums.
// ---------------------------------------------------------------------------

/// Every fragment a server stores verifies against the content hash
/// recorded when it was durably stored — the §3.1 corruption-detection
/// bookkeeping is never stale. (A stored fragment and its hash are one
/// record, so a fragment without a hash cannot be stored.) Catches any
/// write path that stores or mutates fragment bytes without updating the
/// checksum.
pub struct ChecksumIntegrity;

impl Invariant for ChecksumIntegrity {
    fn name(&self) -> &'static str {
        "checksum-integrity"
    }

    fn check_event(&mut self, view: &ClusterView<'_>) -> Result<(), String> {
        for &fs in view.fss {
            let actor = view.sim.actor::<Fs>(fs);
            for ov in actor.known_versions() {
                let Some(entry) = actor.entry(ov) else {
                    // A known version with no full entry must be a
                    // compaction residual — anything else lost its
                    // checksum bookkeeping.
                    if actor.compacted_residual(ov).is_none() {
                        return Err(format!(
                            "{fs:?} knows {ov:?} but stores neither an entry nor a \
                             compaction residual for it"
                        ));
                    }
                    continue;
                };
                for (&idx, stored) in &entry.fragments {
                    if stored.checksum != Checksum::of(stored.fragment.data()) {
                        return Err(format!(
                            "{fs:?} stores fragment {idx} of {ov:?} whose bytes \
                             mismatch its recorded checksum"
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Invariant 5: traffic accounting is sane.
// ---------------------------------------------------------------------------

/// The metrics agree with each other, with causality and with the sends
/// the engine showed its observers: counters only grow, drops never exceed
/// sends, per-kind totals sum to the grand totals, the metrics count
/// exactly one send per [`on_send`](Invariant::on_send), and the drop
/// counter matches the sends whose disposition was not `Delivered`.
pub struct MetricsSanity {
    prev_total: u64,
    prev_bytes: u64,
    prev_dropped: u64,
    prev_duplicated: u64,
    /// Sends shown to [`on_send`](Invariant::on_send), and how many of
    /// those were not delivered.
    sent: u64,
    not_delivered: u64,
}

impl MetricsSanity {
    /// Creates the invariant with zeroed counters.
    pub fn new() -> Self {
        MetricsSanity {
            prev_total: 0,
            prev_bytes: 0,
            prev_dropped: 0,
            prev_duplicated: 0,
            sent: 0,
            not_delivered: 0,
        }
    }
}

impl Default for MetricsSanity {
    fn default() -> Self {
        MetricsSanity::new()
    }
}

impl Invariant for MetricsSanity {
    fn name(&self) -> &'static str {
        "metrics-sanity"
    }

    fn on_send(&mut self, event: &TraceEvent) {
        self.sent += 1;
        if event.disposition != Disposition::Delivered {
            self.not_delivered += 1;
        }
    }

    fn check_event(&mut self, view: &ClusterView<'_>) -> Result<(), String> {
        let m = view.sim.metrics();
        let total = m.total_count();
        let bytes = m.total_bytes();
        if total < self.prev_total || bytes < self.prev_bytes {
            return Err(format!(
                "send counters regressed: {} -> {} messages, {} -> {} bytes",
                self.prev_total, total, self.prev_bytes, bytes
            ));
        }
        if m.dropped() < self.prev_dropped || m.duplicated() < self.prev_duplicated {
            return Err("drop/duplicate counters regressed".to_string());
        }
        if m.dropped() > total {
            return Err(format!(
                "{} messages dropped but only {total} ever sent",
                m.dropped()
            ));
        }
        let (kind_count, kind_bytes) = m
            .iter()
            .fold((0u64, 0u64), |(c, b), (_, s)| (c + s.count, b + s.bytes));
        if kind_count != total || kind_bytes != bytes {
            return Err(format!(
                "per-kind totals ({kind_count} msgs, {kind_bytes} B) disagree with grand \
                 totals ({total} msgs, {bytes} B)"
            ));
        }
        if self.sent != total {
            return Err(format!(
                "observers saw {} sends but the metrics count {total}",
                self.sent
            ));
        }
        if self.not_delivered != m.dropped() {
            return Err(format!(
                "observers saw {} sends not delivered, metrics count {} dropped",
                self.not_delivered,
                m.dropped()
            ));
        }
        self.prev_total = total;
        self.prev_bytes = bytes;
        self.prev_dropped = m.dropped();
        self.prev_duplicated = m.duplicated();
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Invariant 6: durability never regresses.
// ---------------------------------------------------------------------------

/// Once a version is durable (≥ `k` distinct fragments stored), it stays
/// durable: message-level faults cannot destroy stored fragments, and a
/// compacted version counts through its residual's held mask. So any
/// shrink of the durable set means an actor deleted fragments it should
/// have kept. Not applicable to runs that destroy disks.
pub struct DurableMonotone {
    durable: BTreeSet<ObjectVersion>,
}

impl DurableMonotone {
    /// Creates the invariant with an empty durable set.
    pub fn new() -> Self {
        DurableMonotone {
            durable: BTreeSet::new(),
        }
    }
}

impl Default for DurableMonotone {
    fn default() -> Self {
        DurableMonotone::new()
    }
}

impl Invariant for DurableMonotone {
    fn name(&self) -> &'static str {
        "durable-monotone"
    }

    fn check_event(&mut self, view: &ClusterView<'_>) -> Result<(), String> {
        // Compacted versions stay in the durable set through their
        // residuals' held masks, so any shrink means an actor deleted
        // fragments it should have kept.
        let now = analysis::durable_versions(view.sim, view.fss);
        if let Some(&lost) = self.durable.difference(&now).next() {
            return Err(format!(
                "version {lost:?} was durable earlier in the run but is not anymore"
            ));
        }
        self.durable = now;
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Invariant 7: compaction only ever collapses superseded AMR versions.
// ---------------------------------------------------------------------------

/// Every compaction residual is legitimate: the compacted version settled
/// as AMR on that FS, a strictly newer version of the same key is also
/// settled AMR there (the superseding write), and the version never
/// re-enters the pending set. Together with [`NoResurrection`] this pins
/// the no-resurrection half of the compaction contract; the durability
/// half is [`AckedDurability`]'s residual accounting.
///
/// Compaction also hands the version's store slot back, so the bookkeeping
/// is checked too: a version is a residual or a full entry, never both,
/// slots in use plus residuals account for every known version — a slot
/// is neither leaked nor counted twice — and the newest version of a key
/// is never a residual.
pub struct CompactionSafety;

impl Invariant for CompactionSafety {
    fn name(&self) -> &'static str {
        "compaction-safety"
    }

    fn check_event(&mut self, view: &ClusterView<'_>) -> Result<(), String> {
        for &fs in view.fss {
            let actor = view.sim.actor::<Fs>(fs);
            let (slots, residuals) = (actor.resident_slots(), actor.compacted_count());
            let known: Vec<ObjectVersion> = actor.known_versions().collect();
            if slots + residuals != known.len() {
                return Err(format!(
                    "{fs:?} has {slots} slots in use and {residuals} residuals for {} known \
                     versions",
                    known.len()
                ));
            }
            if residuals == 0 {
                continue;
            }
            // The store skips its residual table for a key's newest
            // version, which is sound only while that version is never a
            // residual (`known` is sorted by key, then timestamp).
            for (i, &ov) in known.iter().enumerate() {
                let newest_of_key = known.get(i + 1).is_none_or(|next| next.key != ov.key);
                if newest_of_key && actor.compacted_residual(ov).is_some() {
                    return Err(format!(
                        "{fs:?} compacted {ov:?}, the newest version of its key"
                    ));
                }
            }
            let amr: BTreeSet<ObjectVersion> = actor.amr_versions().collect();
            let pending: BTreeSet<ObjectVersion> = actor.pending_versions().collect();
            for ov in actor.compacted_versions() {
                if actor.entry(ov).is_some() {
                    return Err(format!(
                        "{fs:?} holds {ov:?} both as a residual and as a full entry"
                    ));
                }
                if !amr.contains(&ov) {
                    return Err(format!("{fs:?} compacted {ov:?} which is not settled AMR"));
                }
                if pending.contains(&ov) {
                    return Err(format!(
                        "{fs:?} compacted {ov:?} yet it re-entered the pending set"
                    ));
                }
                let superseded = amr
                    .iter()
                    .any(|&newer| newer.key == ov.key && newer.ts > ov.ts);
                if !superseded {
                    return Err(format!(
                        "{fs:?} compacted {ov:?} with no newer settled-AMR version of \
                         the same key"
                    ));
                }
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Invariant 8: the repair engine keeps redundancy above its floor.
// ---------------------------------------------------------------------------

/// When a repair engine is configured, no object may *stay*
/// repairable-but-under-protected: a version whose live fragments in some
/// data center fall below `threshold_pct` of that DC's assignment count,
/// while at least `k` fragments survive cluster-wide (so reconstruction is
/// possible), must be restored above the threshold within
/// [`repair::GRACE`]. Vacuous for clusters without a repair engine, so it is
/// safe in the always-on registry.
pub struct RedundancyFloor {
    /// When each `(dc, version)` pair was first observed below threshold.
    below_since: BTreeMap<(DataCenterId, ObjectVersion), SimTime>,
}

impl RedundancyFloor {
    /// Creates the invariant with no under-protected versions recorded.
    pub fn new() -> Self {
        RedundancyFloor {
            below_since: BTreeMap::new(),
        }
    }

    fn scan(&mut self, view: &ClusterView<'_>) -> Result<(), String> {
        let Some(opts) = view.repair else {
            return Ok(());
        };
        let k = usize::from(view.policy.k);
        let now = view.sim.now();
        struct LiveState {
            per_dc: BTreeMap<DataCenterId, BTreeSet<u8>>,
            global: BTreeSet<u8>,
            meta: Arc<Metadata>,
        }
        let mut live: BTreeMap<ObjectVersion, LiveState> = BTreeMap::new();
        for &fs in view.fss {
            let Some(dc) = view.topo.dc_of(fs) else {
                continue;
            };
            let actor = view.sim.actor::<Fs>(fs);
            for ov in actor.known_versions() {
                let Some(entry) = actor.entry(ov) else {
                    continue;
                };
                let st = live.entry(ov).or_insert_with(|| LiveState {
                    per_dc: BTreeMap::new(),
                    global: BTreeSet::new(),
                    meta: Arc::clone(&entry.meta),
                });
                for &idx in entry.fragments.keys() {
                    st.per_dc.entry(dc).or_default().insert(idx);
                    st.global.insert(idx);
                }
                // Per-DC location decisions are first-writer-wins, so any
                // more complete metadata strictly extends the others.
                if entry.meta.location_count() > st.meta.location_count() {
                    st.meta = Arc::clone(&entry.meta);
                }
            }
        }
        let mut next: BTreeMap<(DataCenterId, ObjectVersion), SimTime> = BTreeMap::new();
        for (&ov, st) in &live {
            // Reconstruction needs k fragments somewhere in the cluster;
            // with fewer the object is lost, not repair-engine-negligent.
            if st.global.len() < k {
                continue;
            }
            for dc in view.topo.dc_ids() {
                let Some(locs) = st.meta.dc_locations(dc) else {
                    continue;
                };
                let target = locs.len();
                let dc_live = st.per_dc.get(&dc).map_or(0, BTreeSet::len);
                let below = dc_live * 100 < opts.threshold_pct as usize * target;
                if !below {
                    continue;
                }
                let since = self.below_since.get(&(dc, ov)).copied().unwrap_or(now);
                let elapsed =
                    SimDuration::from_micros(now.as_micros().saturating_sub(since.as_micros()));
                if elapsed > repair::GRACE {
                    return Err(format!(
                        "{ov:?} has been repairable but below the redundancy floor in \
                         {dc} for {elapsed:?} (live {dc_live}/{target}, threshold \
                         {}%, grace {:?})",
                        opts.threshold_pct,
                        repair::GRACE
                    ));
                }
                next.insert((dc, ov), since);
            }
        }
        self.below_since = next;
        Ok(())
    }
}

impl Default for RedundancyFloor {
    fn default() -> Self {
        RedundancyFloor::new()
    }
}

impl Invariant for RedundancyFloor {
    fn name(&self) -> &'static str {
        "redundancy-floor"
    }

    fn check_event(&mut self, view: &ClusterView<'_>) -> Result<(), String> {
        self.scan(view)
    }

    fn check_final(&mut self, view: &ClusterView<'_>, _outcome: RunOutcome) -> Result<(), String> {
        self.scan(view)
    }
}

// ---------------------------------------------------------------------------
// Invariant 9: per-actor bookkeeping stays within its bound.
// ---------------------------------------------------------------------------

/// State an actor keeps per peer stays bounded by the peers that exist. An
/// FS's silent-sibling map ([`Fs::silent_siblings`]) decides what a batched
/// round re-asks. Each of its keys must be an FS other than its owner —
/// never a KLS, a proxy or the FS itself — and the keys are distinct, so it
/// holds at most the cluster's FS count less one entries. A proxy's
/// idempotence marks ([`Proxy::marked_clients`]) are one per client: each
/// key must be a client, so however many operations a run issues, a proxy
/// holds at most the cluster's client count of them.
pub struct ResourceBounds;

impl Invariant for ResourceBounds {
    fn name(&self) -> &'static str {
        "resource-bounds"
    }

    fn check_event(&mut self, view: &ClusterView<'_>) -> Result<(), String> {
        for &fs in view.fss {
            for sibling in view.sim.actor::<Fs>(fs).silent_siblings() {
                if sibling == fs || !view.fss.contains(&sibling) {
                    return Err(format!(
                        "{fs:?} counts {sibling:?} as a silent sibling, which is not another FS"
                    ));
                }
            }
        }
        for &proxy in view.proxies {
            for client in view.sim.actor::<Proxy>(proxy).marked_clients() {
                if !view.clients.contains(&client) {
                    return Err(format!(
                        "{proxy:?} keeps an idempotence mark for {client:?}, which is not a client"
                    ));
                }
            }
        }
        Ok(())
    }
}

/// The full registry: every invariant the explorer checks, in reporting
/// order.
pub fn registry() -> Vec<Box<dyn Invariant>> {
    vec![
        Box::new(AckedDurability::new()),
        Box::new(QuiescentAmr),
        Box::new(NoResurrection::new()),
        Box::new(ChecksumIntegrity),
        Box::new(MetricsSanity::new()),
        Box::new(DurableMonotone::new()),
        Box::new(CompactionSafety),
        Box::new(RedundancyFloor::new()),
        Box::new(ResourceBounds),
    ]
}

// ---------------------------------------------------------------------------
// The checker: registry + observer plumbing.
// ---------------------------------------------------------------------------

struct StaticCtx {
    topo: Arc<Topology>,
    fss: Vec<NodeId>,
    klss: Vec<NodeId>,
    clients: Vec<NodeId>,
    proxies: Vec<NodeId>,
    value_len: usize,
    policy: Policy,
    repair: Option<RepairOptions>,
}

impl StaticCtx {
    fn view<'a>(&'a self, sim: &'a Simulation<Message>) -> ClusterView<'a> {
        ClusterView {
            sim,
            topo: &self.topo,
            fss: &self.fss,
            klss: &self.klss,
            clients: &self.clients,
            proxies: &self.proxies,
            value_len: self.value_len,
            policy: self.policy,
            repair: self.repair.as_ref(),
        }
    }
}

struct CheckerState {
    invariants: Vec<Box<dyn Invariant>>,
    ctx: StaticCtx,
    violation: Option<Violation>,
    /// Run the per-event checks every `sample_every` events (1 = every
    /// event), and once more on the final state. Final checks always run.
    /// Sampling trades detection
    /// latency (not soundness of what *is* checked) for throughput on
    /// scale runs, where per-event whole-cluster walks would dominate.
    sample_every: u64,
    events_since_check: u64,
}

impl Observer<Message> for CheckerState {
    fn on_send(&mut self, event: &TraceEvent) {
        for inv in &mut self.invariants {
            inv.on_send(event);
        }
    }

    fn after_event(&mut self, sim: &Simulation<Message>) {
        self.events_since_check += 1;
        if self.events_since_check >= self.sample_every {
            self.check_now(sim);
        }
    }
}

impl CheckerState {
    fn check_now(&mut self, sim: &Simulation<Message>) {
        if self.violation.is_some() {
            return; // first violation wins; keep the run cheap afterwards
        }
        self.events_since_check = 0;
        let view = self.ctx.view(sim);
        for inv in &mut self.invariants {
            if let Err(detail) = inv.check_event(&view) {
                self.violation = Some(Violation {
                    invariant: inv.name(),
                    events_processed: sim.events_processed(),
                    sim_time: sim.now(),
                    detail,
                });
                return;
            }
        }
    }

    fn check_final(&mut self, sim: &Simulation<Message>, outcome: RunOutcome) {
        // A sampled run's last events may fall between samples: the state
        // it ends in is checked like a sampled one.
        if self.events_since_check > 0 {
            self.check_now(sim);
        }
        if self.violation.is_some() {
            return;
        }
        let view = self.ctx.view(sim);
        for inv in &mut self.invariants {
            if let Err(detail) = inv.check_final(&view, outcome) {
                self.violation = Some(Violation {
                    invariant: inv.name(),
                    events_processed: u64::MAX,
                    sim_time: sim.now(),
                    detail,
                });
                return;
            }
        }
    }
}

/// Owns a registry of invariants installed as a simulation observer, and
/// collects the first violation any of them reports.
pub struct Checker {
    state: Rc<RefCell<CheckerState>>,
}

impl Checker {
    /// Installs `invariants` as an observer of `cluster`'s simulation.
    /// Every invariant's [`check_event`](Invariant::check_event) runs once
    /// every `sample_every` events (1 = after each event) and on the state
    /// the run ends in; call [`finish`](Checker::finish) when the run ends
    /// to run the final checks and retrieve the verdict. Scale runs sample
    /// to keep whole-cluster invariant walks off the per-event hot path
    /// while still checking the same properties.
    pub fn install_sampled(
        cluster: &mut Cluster,
        invariants: Vec<Box<dyn Invariant>>,
        sample_every: u64,
    ) -> Checker {
        let config = cluster.config();
        // A streamed workload puts its own blobs, whatever the standard
        // workload's fields say.
        let (value_len, policy) = match &config.streaming_workload {
            Some(stream) => (stream.value_len, stream.policy),
            None => (config.workload_value_len, config.policy),
        };
        let ctx = StaticCtx {
            topo: Arc::clone(cluster.topology()),
            fss: cluster.topology().all_fss().collect(),
            klss: cluster.topology().all_klss().collect(),
            clients: cluster.client_ids(),
            proxies: cluster.proxy_ids(),
            value_len,
            policy,
            repair: config.convergence.repair.clone(),
        };
        let state = Rc::new(RefCell::new(CheckerState {
            invariants,
            ctx,
            violation: None,
            sample_every: sample_every.max(1),
            events_since_check: 0,
        }));
        cluster.sim_mut().observe(Rc::clone(&state));
        Checker { state }
    }

    /// Runs every invariant's end-of-run check and returns the first
    /// violation observed anywhere in the run, if any.
    pub fn finish(self, cluster: &Cluster, outcome: RunOutcome) -> Option<Violation> {
        self.state.borrow_mut().check_final(cluster.sim(), outcome);
        let state = self.state.borrow();
        state.violation.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pahoehoe::cluster::ClusterConfig;
    use pahoehoe::workload::{KeyDistribution, StreamingWorkload};
    use simnet::NetworkConfig;

    /// The durability invariant rebuilds blobs at the stream's length, not
    /// at the standard workload's (100 KiB by default, unused here).
    #[test]
    fn streamed_workload_is_checked_at_the_streams_value_len() {
        let mut cfg = ClusterConfig::paper_default();
        assert_eq!(cfg.workload_value_len, 100 * 1024);
        cfg.streaming_workload = Some(StreamingWorkload {
            puts: 30,
            key_space: 10,
            value_len: 1024,
            policy: cfg.policy,
            seed: 3,
            dist: KeyDistribution::Zipf { exponent: 1.1 },
            overwrite_delta_permille: 0,
        });
        let mut cluster = Cluster::build(cfg, 3);
        let checker = Checker::install_sampled(&mut cluster, registry(), 1);
        let report = cluster.run_to_convergence();
        assert_eq!(report.outcome, RunOutcome::PredicateSatisfied);
        assert!(!cluster.client().success_versions().is_empty());
        let violation = checker.finish(&cluster, report.outcome);
        assert!(violation.is_none(), "{violation:?}");
    }

    /// A converged run under 5 % loss, and every send it made.
    fn lossy_run() -> (Cluster, Vec<TraceEvent>) {
        let mut cfg = ClusterConfig::paper_default();
        cfg.workload_puts = 3;
        cfg.workload_value_len = 1024;
        cfg.network = NetworkConfig::with_drop_rate(0.05);
        let mut cluster = Cluster::build(cfg, 1);
        let trace = Rc::new(RefCell::new(Vec::new()));
        cluster.sim_mut().observe(Rc::clone(&trace));
        cluster.run_to_convergence();
        assert!(cluster.sim().metrics().dropped() > 0, "nothing was lost");
        (cluster, trace.take())
    }

    /// `metrics-sanity`'s verdict on `cluster`'s metrics once shown `sends`.
    fn metrics_sanity(cluster: &Cluster, sends: &[TraceEvent]) -> Result<(), String> {
        let mut inv = MetricsSanity::new();
        for event in sends {
            inv.on_send(event);
        }
        inv.check_event(&ClusterView {
            sim: cluster.sim(),
            topo: cluster.topology(),
            fss: &[],
            klss: &[],
            clients: &[],
            proxies: &[],
            value_len: 0,
            policy: cluster.config().policy,
            repair: None,
        })
    }

    #[test]
    fn metrics_sanity_flags_a_send_the_metrics_did_not_count() {
        let (cluster, mut sends) = lossy_run();
        assert_eq!(metrics_sanity(&cluster, &sends), Ok(()));
        sends.push(sends[0].clone());
        assert!(metrics_sanity(&cluster, &sends).is_err());
    }

    #[test]
    fn metrics_sanity_flags_a_lost_send_the_drop_counter_missed() {
        let (cluster, mut sends) = lossy_run();
        let delivered = sends
            .iter_mut()
            .find(|e| e.disposition == Disposition::Delivered)
            .expect("a delivered send");
        delivered.disposition = Disposition::DroppedRandom;
        assert!(metrics_sanity(&cluster, &sends).is_err());
    }
}
