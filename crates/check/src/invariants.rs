//! The protocol invariant registry and the per-event checker.
//!
//! Each [`Invariant`] encodes one property the paper claims for Pahoehoe,
//! phrased over the *observer's* view of a running cluster (the same
//! accessors [`pahoehoe::analysis`] uses). A [`Checker`] installs the whole
//! registry as one [`simnet::Observer`] of the simulation, so every
//! property is re-examined after **every** processed event — a violation is
//! caught at the earliest event that exhibits it, not at quiescence, and
//! the recorded event index pins it in the message trace. The same observer
//! shows every invariant each dispatched event before it runs, with its
//! message or timer, and every message send with its message: the
//! wire-level checks ([`PutAckAtThreshold`], [`RequestsAnswered`],
//! [`TimerDiscipline`]) judge what a dispatch delivered against what it
//! sent, never an actor's own bookkeeping.
//!
//! An event changes the state of one node, the one it ran on, so each
//! check covers that node ([`ClusterView::nodes`]). A per-node property is
//! checked there alone. A property across nodes is checked for the object
//! versions whose state changed there ([`ClusterView::changed`]): the
//! checker keeps each FS's [`FragmentRecord`] from its last check and
//! diffs it with a fresh one, and keeps each client's acked set. A check
//! sees the same violations as one of the whole cluster, at the same
//! event: the end-of-run pass is that whole-cluster check, the same code
//! over every node with every version marked changed.
//!
//! The registry assumes every put writes a key-derived blob: workload key
//! `i + 1` holds [`Client::synthetic_value`]`(i, value_len)`, which lets the
//! durability invariant reconstruct the expected blob for any acknowledged
//! version without help from the actors under test. The cluster's
//! [workload](pahoehoe::workload::StreamingWorkload) does whenever its
//! `overwrite_delta_permille` is 0, and the checker takes the value length
//! and policy from it.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Bound;
use std::rc::Rc;
use std::sync::Arc;

use bytes::Bytes;
use erasure::{Checksum, Codec, Fragment, FragmentIndex};
use pahoehoe::analysis;
use pahoehoe::client::Client;
use pahoehoe::cluster::Cluster;
use pahoehoe::fs::Fs;
use pahoehoe::messages::Message;
use pahoehoe::proxy::Proxy;
use pahoehoe::repair::{self, RepairOptions};
use pahoehoe::topology::{DataCenterId, Topology};
use pahoehoe::types::{Key, ObjectVersion};
use pahoehoe::{Metadata, Policy};
use simnet::{
    Disposition, Event, NodeId, Observer, RunOutcome, SimDuration, SimTime, Simulation, TimerId,
    TraceEvent,
};

/// One observed breach of a protocol invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
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

/// The cluster state handed to invariants: the simulation, the static
/// facts (topology, node ids, workload shape) captured when the checker
/// was installed, and what the check covers.
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
    /// The workload's value length (drives blob reconstruction).
    pub value_len: usize,
    /// The durability policy of the workload's puts.
    pub policy: Policy,
    /// The cluster's repair-engine configuration, if any. Invariants that
    /// police the repair policy (e.g. [`RedundancyFloor`]) are vacuous
    /// when this is `None`.
    pub repair: Option<&'a RepairOptions>,
    /// The nodes this check covers, in id order: the one the event ran on
    /// and any a harness step changed since the last check
    /// ([`Checker::touch`]); every node at the first check and in the
    /// end-of-run pass. No other node's state changed since it was last
    /// checked.
    pub nodes: &'a [NodeId],
    /// The object versions whose state changed at a covered node since
    /// the last check, in version order: each version whose fragment
    /// record changed at a covered FS, with every version of its key that
    /// any FS knows (a compacted version is durable through a newer one),
    /// and each version a covered client newly acked. Every version in the
    /// end-of-run pass.
    pub changed: &'a BTreeSet<ObjectVersion>,
    /// Each FS's fragment record, in `fss` order, as its last check took
    /// it: this check's for a covered FS.
    records: &'a [FragmentRecord],
}

impl<'a> ClusterView<'a> {
    /// Whether this check covers `node`.
    pub fn covers(&self, node: NodeId) -> bool {
        self.nodes.binary_search(&node).is_ok()
    }

    /// The covered fragment servers, in `fss` order, each with the fragment
    /// record this check took.
    pub fn covered_fss(&self) -> impl Iterator<Item = (NodeId, &'a FragmentRecord)> + '_ {
        self.fss
            .iter()
            .zip(self.records)
            .filter(|&(&fs, _)| self.covers(fs))
            .map(|(&fs, record)| (fs, record))
    }
}

// ---------------------------------------------------------------------------
// What an FS stores, as a check saw it.
// ---------------------------------------------------------------------------

/// What an FS holds of a version it knows, one row of a [`FragmentRecord`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Held {
    /// One stored fragment: its index, the checksum the FS recorded with
    /// it, and the checksum of its bytes when the record was taken.
    Fragment {
        /// The fragment's index.
        idx: FragmentIndex,
        /// The checksum recorded when the fragment was stored.
        recorded: Checksum,
        /// The checksum of the fragment's bytes now.
        fresh: Checksum,
    },
    /// A full entry that stores no fragment.
    NoFragment,
    /// A compaction residual.
    Residual,
    /// Neither an entry nor a residual: the store lists the version but
    /// lost its bookkeeping.
    Neither,
}

/// One FS's stored state as a check took it: for every version the FS
/// knows, in version order, one row per stored fragment (by index), or one
/// row saying it holds none. Each fragment's fresh checksum is of the bytes
/// it holds now, so two records of one FS differ wherever its stored state changed in between —
/// a fragment stored, freed or lost, or its bytes rewritten behind an
/// unchanged recorded checksum.
#[derive(Debug, Default)]
pub struct FragmentRecord {
    rows: Vec<(ObjectVersion, Held)>,
    /// Beside each row, a handle on the fragment bytes it hashed (`None`
    /// for a row without a fragment). The handle keeps that allocation
    /// alive, and a [`Bytes`] is immutable, so a fragment viewing the same
    /// window of memory a later retake still holds the same bytes.
    bytes: Vec<Option<Bytes>>,
}

impl FragmentRecord {
    /// Replaces this record with one of what `fs` stores now, reusing its
    /// buffers. A fragment whose bytes are the same window as its row of
    /// `prev`, the FS's previous record, keeps that row's checksum; every
    /// other fragment is hashed.
    fn retake(&mut self, fs: &Fs, prev: &FragmentRecord) {
        self.rows.clear();
        self.bytes.clear();
        let mut at = 0;
        for ov in fs.known_versions() {
            let Some(entry) = fs.entry(ov) else {
                let held = match fs.compacted_residual(ov) {
                    Some(_) => Held::Residual,
                    None => Held::Neither,
                };
                self.rows.push((ov, held));
                self.bytes.push(None);
                continue;
            };
            if entry.fragments.is_empty() {
                self.rows.push((ov, Held::NoFragment));
                self.bytes.push(None);
            }
            for (&idx, stored) in &entry.fragments {
                let data = stored.fragment.data();
                // Rows are in (version, fragment index) order, so `prev`'s
                // row for this fragment, if any, is at or after the last one's.
                let before = |&(v, held): &(ObjectVersion, Held)| match held {
                    Held::Fragment { idx: i, .. } => (v, i) < (ov, idx),
                    _ => v <= ov,
                };
                while prev.rows.get(at).is_some_and(before) {
                    at += 1;
                }
                let fresh = match (prev.rows.get(at), prev.bytes.get(at)) {
                    (Some(&(v, Held::Fragment { idx: i, fresh, .. })), Some(Some(old)))
                        if (v, i) == (ov, idx)
                            && (old.as_ptr(), old.len()) == (data.as_ptr(), data.len()) =>
                    {
                        fresh
                    }
                    _ => Checksum::of(data),
                };
                let recorded = stored.checksum;
                self.rows.push((
                    ov,
                    Held::Fragment {
                        idx,
                        recorded,
                        fresh,
                    },
                ));
                self.bytes.push(Some(data.clone()));
            }
        }
    }

    /// The record's rows: each version the FS knows, in version order, with
    /// what it holds.
    pub fn rows(&self) -> &[(ObjectVersion, Held)] {
        &self.rows
    }

    /// The versions of `key` the FS knows, oldest first (a version with
    /// two fragments twice).
    fn versions_of(&self, key: Key) -> impl Iterator<Item = ObjectVersion> + '_ {
        let start = self.rows.partition_point(|&(ov, _)| ov.key < key);
        self.rows[start..]
            .iter()
            .map(|&(ov, _)| ov)
            .take_while(move |ov| ov.key == key)
    }

    /// Calls `changed` with each version, in version order, that one of
    /// the two records knows and they do not hold alike (possibly more
    /// than once).
    fn changed_since(&self, old: &FragmentRecord, mut changed: impl FnMut(ObjectVersion)) {
        let (mut new, mut old) = (self.rows.iter().peekable(), old.rows.iter().peekable());
        loop {
            let ov = match (new.peek(), old.peek()) {
                (None, None) => return,
                (Some(x), Some(y)) if x == y => {
                    new.next();
                    old.next();
                    continue;
                }
                // One version held differently, or one that a record lacks.
                (Some(&&(a, _)), Some(&&(b, _))) => {
                    if a <= b {
                        new.next();
                    }
                    if b <= a {
                        old.next();
                    }
                    a.min(b)
                }
                (Some(&&(a, _)), None) => {
                    new.next();
                    a
                }
                (None, Some(&&(b, _))) => {
                    old.next();
                    b
                }
            };
            changed(ov);
        }
    }
}

/// One checkable protocol property. Implementations may keep state across
/// events (e.g. to detect regressions), which is why every hook takes
/// `&mut self`.
pub trait Invariant {
    /// Stable rule name, used in reports and violation records.
    fn name(&self) -> &'static str;

    /// Shown every dispatched event, with the node it is addressed to,
    /// before that node handles it: the event's sends and its check follow.
    fn before_event(&mut self, node: NodeId, event: &Event<'_, Message>) {
        let _ = (node, event);
    }

    /// Shown every message send of the run with its message, dropped ones
    /// included, before the event that sent it is checked.
    fn on_send(&mut self, event: &TraceEvent, msg: &Message) {
        let _ = (event, msg);
    }

    /// Checked after every processed simulation event, on the nodes and
    /// versions `view` covers, and once over every node and version when
    /// the run ends. Return `Err` with a description to report a
    /// violation.
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

/// Once a put is ACKed to a client, every stored fragment of that version
/// is byte-identical to the systematic encoding of the original blob, and
/// at least `k` distinct sibling fragments are stored across the fragment
/// servers, `k` of which decode back to the blob — or the version was
/// compacted: some FS holds its residual, and a strictly newer version of
/// its key has at least `k` distinct fragments stored
/// ([`analysis::is_durable`]). Compaction frees a version's fragments only
/// once a newer one settled AMR, and the newest version of a key that
/// settled AMR anywhere is compacted nowhere, so all `n` of its fragments
/// are stored.
///
/// Holds under message-level faults (loss, duplication, outages), which
/// never destroy stored fragments. Runs that destroy disks or corrupt
/// fragments deliberately must not register this invariant.
///
/// Checked for the acked versions among [`ClusterView::changed`]: a
/// version's verdict reads only its key's stored state and whether it was
/// acked.
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
        let clients: Vec<&Client> = view.clients.iter().map(|&c| view.sim.actor(c)).collect();
        let acked = view
            .changed
            .iter()
            .copied()
            .filter(|ov| clients.iter().any(|c| c.success_versions().contains(ov)));
        let k = usize::from(view.policy.k);
        // Acked versions with fewer than k live fragments, and how many
        // they have: each must have been compacted (checked below).
        let mut freed: Vec<(ObjectVersion, usize)> = Vec::new();
        for ov in acked {
            let mut distinct: BTreeMap<u8, Fragment> = BTreeMap::new();
            for &fs in view.fss {
                let Some(entry) = view.sim.actor::<Fs>(fs).entry(ov) else {
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
            if distinct.len() < k {
                freed.push((ov, distinct.len()));
                continue;
            }
            if self.decoded.insert(ov) {
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
        for (ov, n) in freed {
            let compacted = view
                .fss
                .iter()
                .any(|&fs| view.sim.actor::<Fs>(fs).compacted_residual(ov).is_some());
            if !compacted {
                return Err(format!(
                    "ACKed {ov:?}: only {n} distinct fragments stored, need k = {k}"
                ));
            }
            if !analysis::is_durable(view.sim, view.fss, ov) {
                return Err(format!(
                    "ACKed {ov:?}: compacted to {n} distinct fragments, and no newer \
                     version of its key has k = {k}"
                ));
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
                if !analysis::is_durable(view.sim, view.fss, ov) {
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
/// discarded. Checked on each covered FS.
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
        for (fs, _) in view.covered_fss() {
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
/// checksum. Checked on each covered FS, from the hashes its
/// [`FragmentRecord`] took.
pub struct ChecksumIntegrity;

impl Invariant for ChecksumIntegrity {
    fn name(&self) -> &'static str {
        "checksum-integrity"
    }

    fn check_event(&mut self, view: &ClusterView<'_>) -> Result<(), String> {
        for (fs, record) in view.covered_fss() {
            for &(ov, held) in record.rows() {
                match held {
                    Held::Fragment {
                        idx,
                        recorded,
                        fresh,
                    } if recorded != fresh => {
                        return Err(format!(
                            "{fs:?} stores fragment {idx} of {ov:?} whose bytes \
                             mismatch its recorded checksum"
                        ));
                    }
                    // A known version with no full entry must be a
                    // compaction residual — anything else lost its
                    // checksum bookkeeping.
                    Held::Neither => {
                        return Err(format!(
                            "{fs:?} knows {ov:?} but stores neither an entry nor a \
                             compaction residual for it"
                        ));
                    }
                    _ => {}
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
/// counter matches the sends whose disposition was not `Delivered`. The
/// metrics are the engine's, which every event moves, so they are checked
/// after each one.
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

    fn on_send(&mut self, event: &TraceEvent, _msg: &Message) {
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
/// compacted version counts as durable while a newer version of its key
/// holds `k` fragments ([`analysis::is_durable`]), which compaction only
/// allows once that version settled AMR. So any shrink of the durable set
/// means an actor deleted fragments it should have kept. Not applicable to
/// runs that destroy disks.
///
/// Checked for the versions in [`ClusterView::changed`]: whether a version
/// is durable ([`analysis::is_durable`]) reads only its key's stored
/// state.
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
        // Compacted versions stay in the durable set through the newer
        // versions that superseded them, so any shrink means an actor
        // deleted fragments it should have kept.
        for &ov in view.changed {
            if analysis::is_durable(view.sim, view.fss, ov) {
                self.durable.insert(ov);
            } else if self.durable.contains(&ov) {
                return Err(format!(
                    "version {ov:?} was durable earlier in the run but is not anymore"
                ));
            }
        }
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
/// half is [`AckedDurability`]'s: a compacted version's fragments are
/// gone, so an acked one passes only while a newer version of its key
/// holds `k` distinct fragments.
///
/// Compaction also hands the version's store slot back, so the bookkeeping
/// is checked too: a version is a residual or a full entry, never both,
/// slots in use plus residuals account for every known version — a slot
/// is neither leaked nor counted twice — and the newest version of a key
/// is never a residual. Checked on each covered FS.
pub struct CompactionSafety;

impl Invariant for CompactionSafety {
    fn name(&self) -> &'static str {
        "compaction-safety"
    }

    fn check_event(&mut self, view: &ClusterView<'_>) -> Result<(), String> {
        for (fs, _) in view.covered_fss() {
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
                // The versions after `ov` in version order start with the
                // newer ones of its key.
                let superseded = amr
                    .range((Bound::Excluded(ov), Bound::Unbounded))
                    .next()
                    .is_some_and(|newer| newer.key == ov.key);
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
/// data center fall below [`repair::THRESHOLD_PCT`] of that DC's assignment count,
/// while at least `k` fragments survive cluster-wide (so reconstruction is
/// possible), must be restored above the threshold within
/// [`repair::GRACE`]. Vacuous for clusters without a repair engine, so it is
/// safe in the always-on registry. Its clock is virtual time, which every
/// event moves, so it scans the whole cluster after each one.
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
        if view.repair.is_none() {
            return Ok(());
        }
        let k = usize::from(view.policy.k);
        let now = view.sim.now();
        // Every version some FS holds in full, with its most complete
        // metadata: per-DC location decisions are first-writer-wins, so
        // any more complete metadata strictly extends the others.
        let mut held: BTreeMap<ObjectVersion, Arc<Metadata>> = BTreeMap::new();
        for &fs in view.fss {
            let actor = view.sim.actor::<Fs>(fs);
            for ov in actor.known_versions() {
                let Some(entry) = actor.entry(ov) else {
                    continue;
                };
                let meta = held.entry(ov).or_insert_with(|| Arc::clone(&entry.meta));
                if entry.meta.location_count() > meta.location_count() {
                    *meta = Arc::clone(&entry.meta);
                }
            }
        }
        let mut next: BTreeMap<(DataCenterId, ObjectVersion), SimTime> = BTreeMap::new();
        for (&ov, meta) in &held {
            // Reconstruction needs k fragments somewhere in the cluster;
            // with fewer the object is lost, not repair-engine-negligent.
            if analysis::live_fragments(view.sim, view.fss, ov).count() < k {
                continue;
            }
            for dc in view.topo.dc_ids() {
                let Some(locs) = meta.dc_locations(dc) else {
                    continue;
                };
                let target = locs.len();
                let dc_live = analysis::live_fragments(view.sim, view.topo.fss_in(dc), ov).count();
                let below = dc_live * 100 < repair::THRESHOLD_PCT as usize * target;
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
                        repair::THRESHOLD_PCT,
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
/// holds at most the cluster's client count of them. Checked on each
/// covered FS and proxy.
pub struct ResourceBounds;

impl Invariant for ResourceBounds {
    fn name(&self) -> &'static str {
        "resource-bounds"
    }

    fn check_event(&mut self, view: &ClusterView<'_>) -> Result<(), String> {
        for (fs, _) in view.covered_fss() {
            for sibling in view.sim.actor::<Fs>(fs).silent_siblings() {
                if sibling == fs || !view.fss.contains(&sibling) {
                    return Err(format!(
                        "{fs:?} counts {sibling:?} as a silent sibling, which is not another FS"
                    ));
                }
            }
        }
        for &proxy in view.proxies.iter().filter(|&&p| view.covers(p)) {
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

// ---------------------------------------------------------------------------
// Checks read from the wire: what a dispatch delivered and what it sent.
// ---------------------------------------------------------------------------

/// The messages `msg` carries: a batch's entries, or `msg` itself.
fn entries(msg: &Message) -> &[Message] {
    match msg {
        Message::Batch(entries) => entries,
        one => std::slice::from_ref(one),
    }
}

// ---------------------------------------------------------------------------
// Invariant 10: a put is acked at its success threshold, not before or after.
// ---------------------------------------------------------------------------

/// The paper's put rule (§3.2), both ways, from the wire. A put is the
/// `DecideLocs` a proxy sends for a new version, carrying the policy and
/// so the success threshold. The proxy sends a successful
/// `ClientPutReply` for the version only once `StoreFragmentReply`s for
/// at least the threshold's number of distinct fragment indices have been
/// delivered to it (a duplicated ack counts once); and the dispatch that
/// delivers the threshold-th distinct ack to a put it has not yet answered
/// sends that reply. Read from the messages alone, never from the proxy's
/// own count.
#[derive(Default)]
pub struct PutAckAtThreshold {
    /// Each put seen, by proxy and version.
    puts: BTreeMap<(NodeId, ObjectVersion), PutSeen>,
    /// The put whose threshold-th distinct ack this dispatch delivered
    /// while it was unanswered, until its reply is sent.
    owed: Option<(NodeId, ObjectVersion)>,
    /// A success reply sent short of the threshold.
    early: Option<String>,
}

/// One put as the wire showed it.
struct PutSeen {
    threshold: usize,
    /// The distinct fragment indices acknowledged to the proxy.
    acked: BTreeSet<FragmentIndex>,
    /// Whether the proxy has sent the client its reply.
    answered: bool,
}

impl PutAckAtThreshold {
    /// Creates the invariant with no puts seen.
    pub fn new() -> Self {
        PutAckAtThreshold::default()
    }
}

impl Invariant for PutAckAtThreshold {
    fn name(&self) -> &'static str {
        "put-ack-at-threshold"
    }

    fn before_event(&mut self, node: NodeId, event: &Event<'_, Message>) {
        let Event::Deliver { msg, .. } = event else {
            return;
        };
        for entry in entries(msg) {
            let &Message::StoreFragmentReply { ov, fragment } = entry else {
                continue;
            };
            let Some(put) = self.puts.get_mut(&(node, ov)) else {
                continue;
            };
            if put.acked.insert(fragment) && !put.answered && put.acked.len() == put.threshold {
                self.owed = Some((node, ov));
            }
        }
    }

    fn on_send(&mut self, event: &TraceEvent, msg: &Message) {
        for entry in entries(msg) {
            match *entry {
                Message::DecideLocs { ov, policy, .. } => {
                    self.puts
                        .entry((event.from, ov))
                        .or_insert_with(|| PutSeen {
                            threshold: usize::from(policy.put_success_threshold),
                            acked: BTreeSet::new(),
                            answered: false,
                        });
                }
                Message::ClientPutReply { ov, success, .. } => {
                    let Some(put) = self.puts.get_mut(&(event.from, ov)) else {
                        continue;
                    };
                    put.answered = true;
                    if success && self.owed == Some((event.from, ov)) {
                        self.owed = None;
                    }
                    if success && put.acked.len() < put.threshold && self.early.is_none() {
                        self.early = Some(format!(
                            "{:?} acked the put of {ov:?} as a success after {} distinct \
                             fragment acks, short of its threshold {}",
                            event.from,
                            put.acked.len(),
                            put.threshold
                        ));
                    }
                }
                _ => {}
            }
        }
    }

    fn check_event(&mut self, _view: &ClusterView<'_>) -> Result<(), String> {
        if let Some(early) = self.early.take() {
            return Err(early);
        }
        match self.owed.take() {
            Some((proxy, ov)) => Err(format!(
                "{proxy:?} was delivered the threshold-th distinct fragment ack of its \
                 unanswered put of {ov:?} and sent the client no success reply"
            )),
            None => Ok(()),
        }
    }
}

// ---------------------------------------------------------------------------
// Invariant 11: every request the handlers always answer is answered.
// ---------------------------------------------------------------------------

/// The request/reply exchanges whose requests the handlers always answer
/// in the dispatch that delivers them.
#[derive(Debug, Clone, Copy)]
enum Exchange {
    /// `DecideLocs` (proxy) or `FsDecideLocs` (FS) → `DecideLocsReply`.
    DecideLocs,
    StoreMetadata,
    StoreFragment,
    RetrieveTs,
    RetrieveFrag,
    ConvergeKls,
    ConvergeFs,
}

impl Exchange {
    const ALL: [Exchange; 7] = [
        Exchange::DecideLocs,
        Exchange::StoreMetadata,
        Exchange::StoreFragment,
        Exchange::RetrieveTs,
        Exchange::RetrieveFrag,
        Exchange::ConvergeKls,
        Exchange::ConvergeFs,
    ];
}

/// What a message is to [`RequestsAnswered`].
enum Role {
    /// A request of the exchange, owed one reply.
    Asks(Exchange),
    /// The reply of the exchange.
    Answers(Exchange),
    /// Neither: no reply is owed for it in its dispatch.
    Exempt,
}

/// The table of [`RequestsAnswered`]: every message kind, the exchange it
/// asks or answers, or, beside the arm, why it is owed no answer.
fn role(msg: &Message) -> Role {
    use Exchange as X;
    use Role::{Answers, Asks, Exempt};
    match msg {
        Message::DecideLocs { .. } | Message::FsDecideLocs { .. } => Asks(X::DecideLocs),
        Message::DecideLocsReply { .. } => Answers(X::DecideLocs),
        Message::StoreMetadata { .. } => Asks(X::StoreMetadata),
        Message::StoreMetadataReply { .. } => Answers(X::StoreMetadata),
        Message::StoreFragment { .. } => Asks(X::StoreFragment),
        Message::StoreFragmentReply { .. } => Answers(X::StoreFragment),
        Message::RetrieveTs { .. } => Asks(X::RetrieveTs),
        Message::RetrieveTsReply { .. } => Answers(X::RetrieveTs),
        Message::RetrieveFrag { .. } => Asks(X::RetrieveFrag),
        Message::RetrieveFragReply { .. } => Answers(X::RetrieveFrag),
        Message::ConvergeKls { .. } => Asks(X::ConvergeKls),
        Message::ConvergeKlsReply { .. } => Answers(X::ConvergeKls),
        Message::ConvergeFs { .. } => Asks(X::ConvergeFs),
        Message::ConvergeFsReply { .. } => Answers(X::ConvergeFs),
        // A client op is answered when it completes or times out, in a
        // later dispatch.
        Message::ClientPut { .. } | Message::ClientGet { .. } => Exempt,
        // The answers to client ops.
        Message::ClientPutReply { .. } | Message::ClientGetReply { .. } => Exempt,
        // Indications are pushed and get no answer.
        Message::AmrIndication { .. } | Message::LocsIndication { .. } => Exempt,
        // A recovered fragment is pushed unacknowledged; the next round
        // verifies it arrived.
        Message::SiblingStore { .. } => Exempt,
        // An inventory report is pushed on a timer and gets no answer.
        Message::RepairReport { .. } => Exempt,
        // A batch is judged entry by entry.
        Message::Batch(_) => Exempt,
    }
}

/// Each request of a kind the handlers always answer (the table is
/// `role` in this module, with each exempt kind's reason) gets exactly
/// one reply, sent by the node it was delivered to, to its sender, in the
/// dispatch that delivered it, whatever the reply's disposition. A batch of requests is answered entry by entry (one batch
/// of replies is as many replies), and a dispatch sends no reply it was
/// not asked for. Read from the messages alone.
#[derive(Default)]
pub struct RequestsAnswered {
    /// This dispatch: its node and, for a delivery, the sender.
    at: Option<(NodeId, Option<NodeId>)>,
    /// Requests it delivered and replies it sent back, per exchange.
    asked: [u32; Exchange::ALL.len()],
    answered: [u32; Exchange::ALL.len()],
    /// A reply it sent elsewhere than to the asker.
    stray: Option<(Exchange, NodeId)>,
}

impl RequestsAnswered {
    /// Creates the invariant with no dispatch under way.
    pub fn new() -> Self {
        RequestsAnswered::default()
    }
}

impl Invariant for RequestsAnswered {
    fn name(&self) -> &'static str {
        "requests-answered"
    }

    fn before_event(&mut self, node: NodeId, event: &Event<'_, Message>) {
        self.asked = [0; Exchange::ALL.len()];
        self.answered = [0; Exchange::ALL.len()];
        self.stray = None;
        let asker = match event {
            Event::Deliver { from, msg } => {
                for entry in entries(msg) {
                    if let Role::Asks(x) = role(entry) {
                        self.asked[x as usize] += 1;
                    }
                }
                Some(*from)
            }
            Event::Timer { .. } => None,
        };
        self.at = Some((node, asker));
    }

    fn on_send(&mut self, event: &TraceEvent, msg: &Message) {
        let Some((_, asker)) = self.at else {
            return;
        };
        for entry in entries(msg) {
            if let Role::Answers(x) = role(entry) {
                if asker == Some(event.to) {
                    self.answered[x as usize] += 1;
                } else {
                    self.stray.get_or_insert((x, event.to));
                }
            }
        }
    }

    fn check_event(&mut self, _view: &ClusterView<'_>) -> Result<(), String> {
        let Some((node, _)) = self.at.take() else {
            return Ok(());
        };
        if let Some((x, to)) = self.stray {
            return Err(format!(
                "{node:?} sent a {x:?} reply to {to:?}, which asked it nothing in this dispatch"
            ));
        }
        let Some(x) = Exchange::ALL
            .into_iter()
            .find(|&x| self.asked[x as usize] != self.answered[x as usize])
        else {
            return Ok(());
        };
        let (asked, answered) = (self.asked[x as usize], self.answered[x as usize]);
        Err(format!(
            "{node:?} sent {answered} {x:?} reply(ies) for the {asked} {x:?} request(s) \
             one dispatch delivered to it"
        ))
    }
}

// ---------------------------------------------------------------------------
// Invariant 12: compaction leaves no superseded version in a live slot.
// ---------------------------------------------------------------------------

/// When the run ends, no FS holds a full entry (a live store slot) for a
/// version its compaction rule says is superseded: one settled AMR there
/// while a newer version of its key is also settled AMR there (DESIGN
/// §8.7). The compactor runs on every first settle, so each such version
/// is a residual by then. Read from the stores.
pub struct CompactionProgress;

impl Invariant for CompactionProgress {
    fn name(&self) -> &'static str {
        "compaction-progress"
    }

    fn check_final(&mut self, view: &ClusterView<'_>, _outcome: RunOutcome) -> Result<(), String> {
        for &fs in view.fss {
            let actor = view.sim.actor::<Fs>(fs);
            // In version order, so a key's settled versions are adjacent,
            // oldest first.
            let amr: Vec<ObjectVersion> = actor.amr_versions().collect();
            for pair in amr.windows(2) {
                let (old, newer) = (pair[0], pair[1]);
                if old.key == newer.key && actor.entry(old).is_some() {
                    return Err(format!(
                        "{fs:?} holds {old:?} in a live slot though {newer:?} of its key \
                         settled AMR there too"
                    ));
                }
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Invariant 13: each timer fires at most once.
// ---------------------------------------------------------------------------

/// A timer id the engine handed out fires at most once: every
/// [`Event::Timer`] the engine dispatches carries an id no earlier firing
/// carried. Read from the dispatched events.
#[derive(Default)]
pub struct TimerDiscipline {
    fired: BTreeSet<TimerId>,
    /// A timer that fired again, where and with what tag.
    again: Option<(NodeId, TimerId, u64)>,
}

impl TimerDiscipline {
    /// Creates the invariant with no timer fired.
    pub fn new() -> Self {
        TimerDiscipline::default()
    }
}

impl Invariant for TimerDiscipline {
    fn name(&self) -> &'static str {
        "timer-discipline"
    }

    fn before_event(&mut self, node: NodeId, event: &Event<'_, Message>) {
        if let &Event::Timer { id, tag } = event {
            if !self.fired.insert(id) {
                self.again.get_or_insert((node, id, tag));
            }
        }
    }

    fn check_event(&mut self, _view: &ClusterView<'_>) -> Result<(), String> {
        match self.again.take() {
            Some((node, id, tag)) => Err(format!(
                "timer {id:?} fired again, at {node:?} with tag {tag:#x}"
            )),
            None => Ok(()),
        }
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
        Box::new(PutAckAtThreshold::new()),
        Box::new(RequestsAnswered::new()),
        Box::new(CompactionProgress),
        Box::new(TimerDiscipline::new()),
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
    /// Every node above, in id order: what the end-of-run pass covers.
    all: Vec<NodeId>,
    value_len: usize,
    policy: Policy,
    repair: Option<RepairOptions>,
}

impl StaticCtx {
    fn view<'a>(
        &'a self,
        sim: &'a Simulation<Message>,
        nodes: &'a [NodeId],
        changed: &'a BTreeSet<ObjectVersion>,
        records: &'a [FragmentRecord],
    ) -> ClusterView<'a> {
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
            nodes,
            changed,
            records,
        }
    }
}

struct CheckerState {
    invariants: Vec<Box<dyn Invariant>>,
    ctx: StaticCtx,
    violation: Option<Violation>,
    /// Each FS's fragment record as its last check took it, in `ctx.fss`
    /// order.
    records: Vec<FragmentRecord>,
    /// The buffers of the record a check replaced, reused for the next.
    spare: FragmentRecord,
    /// Each client's acked versions as its last check saw them, in
    /// `ctx.clients` order.
    acked: Vec<BTreeSet<ObjectVersion>>,
    /// Nodes a harness step changed since the last check
    /// ([`Checker::touch`]); every node until the first check, which so
    /// learns the state the checker was installed on.
    touched: Vec<NodeId>,
}

impl Observer<Message> for CheckerState {
    fn before_event(&mut self, node: NodeId, event: &Event<'_, Message>) {
        for inv in &mut self.invariants {
            inv.before_event(node, event);
        }
    }

    fn on_send(&mut self, event: &TraceEvent, msg: &Message) {
        for inv in &mut self.invariants {
            inv.on_send(event, msg);
        }
    }

    fn after_event(&mut self, sim: &Simulation<Message>, node: NodeId) {
        let mut nodes = std::mem::take(&mut self.touched);
        nodes.push(node);
        self.check(sim, nodes, false);
    }
}

impl CheckerState {
    fn new(cluster: &Cluster, invariants: Vec<Box<dyn Invariant>>) -> CheckerState {
        let config = cluster.config();
        // The blobs are the workload's; a cluster without one acks nothing
        // the registry could rebuild.
        let (value_len, policy) = config
            .streaming_workload
            .as_ref()
            .map_or((0, config.policy), |wl| (wl.value_len, wl.policy));
        let (fss, klss): (Vec<_>, Vec<_>) = (
            cluster.topology().all_fss().collect(),
            cluster.topology().all_klss().collect(),
        );
        let (clients, proxies) = (cluster.client_ids(), cluster.proxy_ids());
        let mut all: Vec<NodeId> = [&fss, &klss, &clients, &proxies]
            .into_iter()
            .flatten()
            .copied()
            .collect();
        all.sort_unstable();
        CheckerState {
            invariants,
            records: fss.iter().map(|_| FragmentRecord::default()).collect(),
            spare: FragmentRecord::default(),
            acked: clients.iter().map(|_| BTreeSet::new()).collect(),
            touched: all.clone(),
            ctx: StaticCtx {
                topo: Arc::clone(cluster.topology()),
                fss,
                klss,
                clients,
                proxies,
                all,
                value_len,
                policy,
                repair: config.convergence.repair.clone(),
            },
            violation: None,
        }
    }

    /// Checks every invariant on `nodes`: retakes the fragment record of
    /// each FS among them and the acked set of each client among them, and
    /// marks changed what differs from the last check — or, with `all`,
    /// every version either one holds.
    fn check(&mut self, sim: &Simulation<Message>, mut nodes: Vec<NodeId>, all: bool) {
        if self.violation.is_some() {
            return; // first violation wins; keep the run cheap afterwards
        }
        nodes.sort_unstable();
        nodes.dedup();
        let covers = |node: &NodeId| nodes.binary_search(node).is_ok();
        let mut changed: BTreeSet<ObjectVersion> = BTreeSet::new();
        let mut keys: BTreeSet<Key> = BTreeSet::new();
        for (i, fs) in self.ctx.fss.iter().enumerate() {
            if !covers(fs) {
                continue;
            }
            self.spare.retake(sim.actor::<Fs>(*fs), &self.records[i]);
            std::mem::swap(&mut self.records[i], &mut self.spare);
            let (new, old) = (&self.records[i], &self.spare);
            if all {
                changed.extend(new.rows.iter().chain(&old.rows).map(|&(ov, _)| ov));
            } else {
                new.changed_since(old, |ov| {
                    changed.insert(ov);
                    keys.insert(ov.key);
                });
            }
        }
        // Every version of a changed key, wherever it is stored: whether
        // one is durable can turn on another's fragments.
        for &key in &keys {
            for record in &self.records {
                changed.extend(record.versions_of(key));
            }
        }
        for (c, seen) in self.ctx.clients.iter().zip(&mut self.acked) {
            if !covers(c) {
                continue;
            }
            let acked = sim.actor::<Client>(*c).success_versions();
            if all {
                changed.extend(acked);
            } else if acked != seen {
                changed.extend(acked.difference(seen));
            }
            seen.clone_from(acked);
        }
        let view = self.ctx.view(sim, &nodes, &changed, &self.records);
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

    /// The whole-cluster check: every node, every version marked changed.
    fn check_all(&mut self, sim: &Simulation<Message>) {
        self.touched.clear();
        self.check(sim, self.ctx.all.clone(), true);
    }

    fn check_final(&mut self, sim: &Simulation<Message>, outcome: RunOutcome) {
        // A harness step may have changed a node after the last event.
        self.check_all(sim);
        if self.violation.is_some() {
            return;
        }
        let none = BTreeSet::new();
        let view = self.ctx.view(sim, &self.ctx.all, &none, &self.records);
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
    /// Every invariant's [`check_event`](Invariant::check_event) runs after
    /// each event, on the node it ran on; call [`finish`](Checker::finish)
    /// when the run ends to check the state it ends in and retrieve the
    /// verdict.
    pub fn install(cluster: &mut Cluster, invariants: Vec<Box<dyn Invariant>>) -> Checker {
        let state = Rc::new(RefCell::new(CheckerState::new(cluster, invariants)));
        cluster.sim_mut().observe(Rc::clone(&state));
        Checker { state }
    }

    /// Tells the checker that a harness changed `node`'s state between
    /// events (a destroyed disk, a corrupted fragment): the next check
    /// covers `node` as well as the node its event ran on.
    pub fn touch(&self, node: NodeId) {
        self.state.borrow_mut().touched.push(node);
    }

    /// Checks every node and version once more, runs every invariant's
    /// end-of-run check and returns the first violation observed anywhere
    /// in the run, if any.
    pub fn finish(self, cluster: &Cluster, outcome: RunOutcome) -> Option<Violation> {
        self.state.borrow_mut().check_final(cluster.sim(), outcome);
        let state = self.state.borrow();
        state.violation.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explorer::{self, FaultSpec, InvariantSet, Outage, Preset, Scenario, Step};
    use pahoehoe::cluster::ClusterConfig;
    use pahoehoe::fs::WAKE_TIMER_TAG;
    use pahoehoe::protocol::ProtocolMode;
    use pahoehoe::workload::{KeyDistribution, StreamingWorkload};
    use proptest::prelude::*;
    use simnet::NetworkConfig;
    use std::cell::Cell;

    /// The durability invariant rebuilds blobs at the stream's length.
    #[test]
    fn streamed_workload_is_checked_at_the_streams_value_len() {
        let mut cfg = ClusterConfig::paper_default();
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
        let checker = Checker::install(&mut cluster, registry());
        let report = cluster.run_to_convergence();
        assert_eq!(report.outcome, RunOutcome::PredicateSatisfied);
        assert!(!cluster.client().success_versions().is_empty());
        let violation = checker.finish(&cluster, report.outcome);
        assert!(violation.is_none(), "{violation:?}");
    }

    /// Every send, with its message.
    #[derive(Default)]
    struct Sends(Vec<(TraceEvent, Message)>);

    impl Observer<Message> for Sends {
        fn on_send(&mut self, event: &TraceEvent, msg: &Message) {
            self.0.push((event.clone(), msg.clone()));
        }
    }

    /// A converged run under 5 % loss, and every send it made.
    fn lossy_run() -> (Cluster, Vec<(TraceEvent, Message)>) {
        let mut cfg = ClusterConfig::paper_default();
        cfg.streaming_workload = Some(StreamingWorkload::numbered(3, 1, 1024, cfg.policy));
        cfg.network = NetworkConfig::with_drop_rate(0.05);
        let mut cluster = Cluster::build(cfg, 1);
        let sends = Rc::new(RefCell::new(Sends::default()));
        cluster.sim_mut().observe(Rc::clone(&sends));
        cluster.run_to_convergence();
        assert!(cluster.sim().metrics().dropped() > 0, "nothing was lost");
        (cluster, sends.take().0)
    }

    /// `invariant`'s verdict, once shown `sends`, on `cluster` as it stands:
    /// the end-of-run pass's check of every node and version.
    fn verdict(
        cluster: &Cluster,
        invariant: impl Invariant + 'static,
        sends: &[(TraceEvent, Message)],
    ) -> Result<(), String> {
        let mut state = CheckerState::new(cluster, vec![Box::new(invariant)]);
        for (event, msg) in sends {
            state.on_send(event, msg);
        }
        state.check_all(cluster.sim());
        state.violation.map_or(Ok(()), |v| Err(v.detail))
    }

    /// `metrics-sanity`'s verdict on `cluster`'s metrics once shown `sends`.
    fn metrics_sanity(cluster: &Cluster, sends: &[(TraceEvent, Message)]) -> Result<(), String> {
        verdict(cluster, MetricsSanity::new(), sends)
    }

    #[test]
    fn metrics_sanity_flags_a_send_the_metrics_did_not_count() {
        let (cluster, mut sends) = lossy_run();
        assert_eq!(metrics_sanity(&cluster, &sends), Ok(()));
        sends.push(sends[0].clone());
        assert!(metrics_sanity(&cluster, &sends).is_err());
    }

    /// `acked-durability`'s verdict on `cluster` as it stands.
    fn acked_durability(cluster: &Cluster) -> Result<(), String> {
        verdict(cluster, AckedDurability::new(), &[])
    }

    /// A converged run that put one key twice, so every FS compacted the
    /// first version; and both versions.
    fn overwritten_key() -> (Cluster, ObjectVersion, ObjectVersion) {
        let mut cluster = paper_cluster(1, 2);
        let report = cluster.run_to_convergence();
        assert_eq!(report.outcome, RunOutcome::PredicateSatisfied);
        let acked: Vec<_> = cluster
            .client()
            .success_versions()
            .iter()
            .copied()
            .collect();
        let [v1, v2] = acked[..] else {
            panic!("two acked versions, not {acked:?}")
        };
        for id in cluster.topology().all_fss() {
            let fs = cluster.fs(id);
            assert!(fs.entry(v1).is_none(), "{id:?} still holds {v1:?}");
        }
        (cluster, v1, v2)
    }

    /// Destroys disks that hold `ov`'s fragments until `k - 1` distinct
    /// ones are left, calling `destroyed` with each FS hit.
    fn destroy_down_to_k_minus_1(
        cluster: &mut Cluster,
        ov: ObjectVersion,
        mut destroyed: impl FnMut(&mut Cluster, NodeId),
    ) {
        let k = usize::from(cluster.config().policy.k);
        let meta = cluster
            .topology()
            .all_fss()
            .find_map(|id| Some(Arc::clone(&cluster.fs(id).entry(ov)?.meta)))
            .expect("ov is stored");
        let now = cluster.sim().now();
        for (_, loc) in meta.assignments() {
            if live_fragments(cluster, ov) < k {
                break;
            }
            let fs = cluster.sim_mut().actor_mut::<Fs>(loc.fs());
            fs.destroy_disk(loc.disk(), now);
            destroyed(cluster, loc.fs());
        }
        assert_eq!(live_fragments(cluster, ov), k - 1);
    }

    /// The distinct fragments of `ov` stored across the FSs.
    fn live_fragments(cluster: &Cluster, ov: ObjectVersion) -> usize {
        let fss: Vec<NodeId> = cluster.topology().all_fss().collect();
        analysis::live_fragments(cluster.sim(), &fss, ov).count()
    }

    #[test]
    fn acked_durability_accepts_a_version_compacted_everywhere() {
        let (cluster, v1, _) = overwritten_key();
        assert_eq!(live_fragments(&cluster, v1), 0);
        assert_eq!(acked_durability(&cluster), Ok(()));
    }

    #[test]
    fn acked_durability_flags_a_compacted_version_once_its_successor_is_short() {
        let (mut cluster, v1, v2) = overwritten_key();
        destroy_down_to_k_minus_1(&mut cluster, v2, |_, _| {});
        let err = acked_durability(&cluster).expect_err("v1 is freed and v2 is short of k");
        assert!(err.contains(&format!("{v1:?}")), "{err}");
    }

    #[test]
    fn metrics_sanity_flags_a_lost_send_the_drop_counter_missed() {
        let (cluster, mut sends) = lossy_run();
        let (delivered, _) = sends
            .iter_mut()
            .find(|(e, _)| e.disposition == Disposition::Delivered)
            .expect("a delivered send");
        delivered.disposition = Disposition::DroppedRandom;
        assert!(metrics_sanity(&cluster, &sends).is_err());
    }

    /// A paper cluster whose client puts workload keys `1..=keys` of 1 KiB,
    /// `rounds` times over.
    fn paper_cluster(keys: u64, rounds: u64) -> Cluster {
        let mut cfg = ClusterConfig::paper_default();
        cfg.streaming_workload = Some(StreamingWorkload::numbered(keys, rounds, 1024, cfg.policy));
        Cluster::build(cfg, 1)
    }

    /// The record of what `fs` stores now.
    fn record_of(fs: &Fs) -> FragmentRecord {
        let mut record = FragmentRecord::default();
        record.retake(fs, &FragmentRecord::default());
        record
    }

    /// What `record` holds of `ov`, a row per stored fragment.
    fn held(record: &FragmentRecord, ov: ObjectVersion) -> Vec<Held> {
        let rows = record.rows().iter().filter(|&&(v, _)| v == ov);
        rows.map(|&(_, held)| held).collect()
    }

    /// The versions `new` reports changed since `old`.
    fn changes(new: &FragmentRecord, old: &FragmentRecord) -> Vec<ObjectVersion> {
        let mut out = BTreeSet::new();
        new.changed_since(old, |ov| {
            out.insert(ov);
        });
        out.into_iter().collect()
    }

    #[test]
    fn a_stored_fragment_is_a_change_and_a_second_look_is_not() {
        let mut cluster = paper_cluster(3, 1);
        let fs = cluster.topology().all_fss().next().unwrap();
        let before = record_of(cluster.fs(fs));
        assert_eq!(before.rows(), []);
        cluster.run_to_convergence();
        let after = record_of(cluster.fs(fs));
        let stored: Vec<ObjectVersion> = cluster.fs(fs).known_versions().collect();
        assert_eq!(stored.len(), 3);
        assert_eq!(changes(&after, &before), stored);
        assert_eq!(changes(&before, &after), stored, "and forgetting them");
        assert_eq!(changes(&record_of(cluster.fs(fs)), &after), []);
    }

    #[test]
    fn a_version_freed_by_compaction_is_a_change() {
        let mut cluster = paper_cluster(1, 2);
        let fs = cluster.topology().all_fss().next().unwrap();
        let client = cluster.layout().client();
        // Stop once the first version settled AMR at `fs`, before the
        // second one lets the FS compact it.
        cluster.sim_mut().run_until(|sim| {
            let fs = sim.actor::<Fs>(fs);
            let acked = sim.actor::<Client>(client).success_versions();
            acked
                .first()
                .is_some_and(|&v1| fs.entry(v1).is_some() && fs.amr_settled_at(v1).is_some())
        });
        let v1 = *cluster.client().success_versions().first().unwrap();
        let before = record_of(cluster.fs(fs));
        assert!(matches!(held(&before, v1)[..], [Held::Fragment { .. }, ..]));
        cluster.run_to_convergence();
        let after = record_of(cluster.fs(fs));
        assert_eq!(held(&after, v1), [Held::Residual]);
        assert!(changes(&after, &before).contains(&v1));
    }

    #[test]
    fn a_fragment_lost_with_its_disk_is_a_change() {
        let mut cluster = paper_cluster(3, 1);
        cluster.run_to_convergence();
        let fs = cluster.topology().all_fss().next().unwrap();
        let actor = cluster.fs(fs);
        let on_disk_0: Vec<ObjectVersion> = actor
            .known_versions()
            .filter(|&ov| {
                actor.entry(ov).is_some_and(|e| {
                    e.meta.assignments().any(|(idx, loc)| {
                        loc.fs() == fs && loc.disk() == 0 && e.fragments.contains_key(&idx)
                    })
                })
            })
            .collect();
        assert!(!on_disk_0.is_empty());
        let before = record_of(actor);
        let now = cluster.sim().now();
        assert!(cluster.sim_mut().actor_mut::<Fs>(fs).destroy_disk(0, now) > 0);
        assert_eq!(changes(&record_of(cluster.fs(fs)), &before), on_disk_0);
    }

    #[test]
    fn a_rewritten_fragment_is_a_change_behind_its_recorded_checksum() {
        let mut cluster = paper_cluster(3, 1);
        cluster.run_to_convergence();
        let fs = cluster.topology().all_fss().next().unwrap();
        let before = record_of(cluster.fs(fs));
        let (ov, Held::Fragment { idx, recorded, .. }) = before.rows()[0] else {
            panic!("the first version holds fragments");
        };
        assert!(cluster
            .sim_mut()
            .actor_mut::<Fs>(fs)
            .corrupt_fragment(ov, idx));
        let after = record_of(cluster.fs(fs));
        assert_eq!(changes(&after, &before), [ov]);
        let Held::Fragment {
            recorded: now_recorded,
            fresh,
            ..
        } = held(&after, ov)[0]
        else {
            panic!("{ov:?} still holds fragments");
        };
        assert_eq!(now_recorded, recorded);
        assert_ne!(fresh, recorded);
    }

    #[test]
    fn a_fragment_restored_from_a_new_buffer_is_rehashed_and_not_a_change() {
        let mut cluster = paper_cluster(3, 1);
        cluster.run_to_convergence();
        let fs = cluster.topology().all_fss().next().unwrap();
        let before = record_of(cluster.fs(fs));
        let (ov, Held::Fragment { idx, .. }) = before.rows()[0] else {
            panic!("the first version holds fragments");
        };
        // Flipping the byte twice stores the same bytes from a new buffer.
        for _ in 0..2 {
            assert!(cluster
                .sim_mut()
                .actor_mut::<Fs>(fs)
                .corrupt_fragment(ov, idx));
        }
        // A previous record with every checksum wrong: a retake keeps it
        // for each fragment that is the same window, and hashes the rest.
        let stale_sum = Checksum::of(b"stale");
        let mut stale = FragmentRecord {
            rows: before.rows.clone(),
            bytes: before.bytes.clone(),
        };
        for (_, held) in &mut stale.rows {
            if let Held::Fragment { fresh, .. } = held {
                *fresh = stale_sum;
            }
        }
        let mut after = FragmentRecord::default();
        after.retake(cluster.fs(fs), &stale);
        assert_eq!(after.rows()[0], before.rows()[0], "rehashed");
        let kept = after.rows()[1..].iter().filter(
            |(_, held)| matches!(held, Held::Fragment { fresh, .. } if *fresh == stale_sum),
        );
        assert_eq!(kept.count(), before.rows().len() - 1, "the rest kept");
        after.retake(cluster.fs(fs), &before);
        assert_eq!(changes(&after, &before), []);
    }

    /// Checks everything after every event: the whole-cluster pass that
    /// ends a run, run as the oracle of the node-scoped checks.
    struct Oracle(Rc<RefCell<CheckerState>>);

    impl Observer<Message> for Oracle {
        fn before_event(&mut self, node: NodeId, event: &Event<'_, Message>) {
            self.0.borrow_mut().before_event(node, event);
        }

        fn on_send(&mut self, event: &TraceEvent, msg: &Message) {
            self.0.borrow_mut().on_send(event, msg);
        }

        fn after_event(&mut self, sim: &Simulation<Message>, _node: NodeId) {
            self.0.borrow_mut().check_all(sim);
        }
    }

    /// The verdict on a run of the cluster `make` builds under
    /// `invariants`, checked at each event's node, and the oracle's. `run`
    /// drives the run and tells the checker which nodes it changes between
    /// events.
    fn scoped_and_oracle(
        make: impl Fn() -> Cluster,
        invariants: impl Fn() -> Vec<Box<dyn Invariant>>,
        run: impl Fn(&mut Cluster, &Checker) -> RunOutcome,
    ) -> (Option<Violation>, Option<Violation>) {
        let mut cluster = make();
        let checker = Checker::install(&mut cluster, invariants());
        let outcome = run(&mut cluster, &checker);
        let scoped = checker.finish(&cluster, outcome);
        let mut cluster = make();
        let state = Rc::new(RefCell::new(CheckerState::new(&cluster, invariants())));
        cluster.sim_mut().observe(Oracle(Rc::clone(&state)));
        let checker = Checker { state };
        let outcome = run(&mut cluster, &checker);
        (scoped, checker.finish(&cluster, outcome))
    }

    /// A compacted version is durable through its key's newer version, so
    /// when that one changes the compacted one is checked again: destroying
    /// the newer version's fragments down to `k - 1` makes the older one
    /// the first violation, as the whole-cluster oracle reports.
    #[test]
    fn a_compacted_version_is_checked_when_its_successor_changes() {
        // Converge, then destroy the newer version's fragments, telling
        // the checker of each FS and waking it.
        let short_of_k = |cluster: &mut Cluster, checker: &Checker| {
            let outcome = cluster.run_to_convergence().outcome;
            let v2 = *cluster.client().success_versions().last().unwrap();
            destroy_down_to_k_minus_1(cluster, v2, |cluster, fs| {
                checker.touch(fs);
                let sim = cluster.sim_mut();
                sim.schedule_timer(fs, SimDuration::ZERO, WAKE_TIMER_TAG);
            });
            let deadline = cluster.sim().now() + SimDuration::from_secs(1);
            cluster.sim_mut().run_until_time(deadline);
            outcome
        };
        let (_, v1, _) = overwritten_key();
        let durable_monotone =
            || -> Vec<Box<dyn Invariant>> { vec![Box::new(DurableMonotone::new())] };
        for invariants in [registry, durable_monotone] {
            let (scoped, oracle) =
                scoped_and_oracle(|| paper_cluster(1, 2), invariants, short_of_k);
            let violation = scoped.clone().expect("v2 is short of k");
            assert_ne!(violation.events_processed, u64::MAX);
            assert!(
                violation.detail.contains(&format!("{v1:?}")),
                "{violation:?}"
            );
            assert_eq!(scoped, oracle);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

        /// Checking each event at its node finds what checking the whole
        /// cluster finds, at the same event, in the same words: under
        /// loss, duplication and an outage, with overwrites compacting,
        /// and with a corrupted fragment or a destroyed disk.
        #[test]
        fn node_scoped_checks_match_the_whole_cluster_oracle(
            seed in 0u64..10_000,
            drop_centi in 0u8..=8,
            dup_centi in 0u8..=5,
            outage in (0u32..12, 0u64..=30, 1u64..=90),
            preset in 0usize..6,
            rounds in 1u64..=2,
            batch in 0u8..2,
            steps in 0u8..4,
            disk in (0usize..3, 0u8..2),
        ) {
            let (node, start_secs, dur_secs) = outage;
            let destroy = Step::DestroyDisk { fs: disk.0, disk: disk.1 };
            let (invariants, steps, repair) = match steps {
                0 => (InvariantSet::Registry, vec![], false),
                1 => (InvariantSet::Registry, vec![Step::CorruptFragment], false),
                2 => (InvariantSet::DiskLoss, vec![destroy, Step::Run { secs: 60 }], true),
                _ => (InvariantSet::DiskLoss, vec![destroy, Step::CorruptFragment], false),
            };
            let sc = Scenario {
                seed,
                faults: FaultSpec {
                    drop_centi,
                    dup_centi,
                    // Node 11 is past the servers: no outage.
                    outages: (node < 10)
                        .then_some(Outage { node, start_secs, dur_secs })
                        .into_iter()
                        .collect(),
                },
                preset: Preset::ALL[preset],
                protocol: ProtocolMode { batch_rounds: batch == 1 },
                workload: StreamingWorkload::numbered(2, rounds, 1024, Policy::paper_default()),
                racks_per_dc: repair.then_some(3),
                repair: repair.then(RepairOptions::paper_default),
                steps,
                invariants,
                ..Scenario::default()
            };
            let (scoped, oracle) = scoped_and_oracle(
                || explorer::scenario_cluster(&sc),
                || sc.invariants.build(),
                |cluster, checker| explorer::run_steps(&sc, cluster, checker),
            );
            if sc.steps.contains(&Step::CorruptFragment) {
                prop_assert!(scoped.is_some(), "the corruption went unseen: {sc:?}");
            }
            prop_assert_eq!(scoped, oracle);
        }
    }

    /// One dispatch: an event at a node, and what that node then sent, as
    /// `(to, message)`.
    type Dispatch<'a> = (NodeId, Event<'a, Message>, Vec<(NodeId, Message)>);

    /// `invariant`'s first violation over `dispatches` on `cluster`.
    fn dispatched(
        cluster: &Cluster,
        invariant: impl Invariant + 'static,
        dispatches: &[Dispatch<'_>],
    ) -> Result<(), String> {
        let mut state = CheckerState::new(cluster, vec![Box::new(invariant)]);
        for (node, event, sends) in dispatches {
            state.before_event(*node, event);
            for (to, msg) in sends {
                let event = TraceEvent {
                    at: cluster.sim().now(),
                    from: *node,
                    to: *to,
                    kind: simnet::Payload::kind(msg),
                    bytes: simnet::Payload::wire_size(msg),
                    disposition: Disposition::Delivered,
                };
                state.on_send(&event, msg);
            }
            state.after_event(cluster.sim(), *node);
        }
        state.violation.map_or(Ok(()), |v| Err(v.detail))
    }

    /// A converged one-put cluster, its put's version, its proxy and a KLS.
    fn one_put() -> (Cluster, ObjectVersion, NodeId, NodeId) {
        let mut cluster = paper_cluster(1, 1);
        cluster.run_to_convergence();
        let ov = *cluster.client().success_versions().first().unwrap();
        let proxy = cluster.proxy_ids()[0];
        let kls = cluster.topology().all_klss().next().unwrap();
        (cluster, ov, proxy, kls)
    }

    #[test]
    fn requests_answered_wants_one_reply_per_request_to_its_sender() {
        let (cluster, ov, proxy, kls) = one_put();
        let meta = Arc::new(Metadata::new(
            Policy::paper_default(),
            DataCenterId::new(0),
            1024,
        ));
        let ask = Message::StoreMetadata {
            ov,
            meta: Arc::clone(&meta),
        };
        let reply = Message::StoreMetadataReply {
            ov,
            complete: false,
        };
        let deliver = |msg| Event::Deliver { from: proxy, msg };
        let verdict = |msg, sends: Vec<(NodeId, Message)>| {
            dispatched(
                &cluster,
                RequestsAnswered::new(),
                &[(kls, deliver(msg), sends)],
            )
        };
        assert_eq!(verdict(&ask, vec![(proxy, reply.clone())]), Ok(()));
        assert!(verdict(&ask, vec![]).is_err(), "unanswered");
        assert!(
            verdict(&ask, vec![(proxy, reply.clone()); 2]).is_err(),
            "twice"
        );
        assert!(
            verdict(&ask, vec![(kls, reply.clone())]).is_err(),
            "elsewhere"
        );
        let push = Message::AmrIndication { ov, meta: None };
        assert_eq!(
            verdict(&push, vec![]),
            Ok(()),
            "an indication is owed nothing"
        );
        assert!(
            verdict(&push, vec![(proxy, reply)]).is_err(),
            "nor answered"
        );
        // A batch of two probes is owed two replies, in one batch or not.
        let probe = Message::ConvergeKls { ov, meta };
        let answer = Message::ConvergeKlsReply { ov, verified: true };
        let two = Message::Batch(vec![probe.clone(), probe]);
        let one = Message::Batch(vec![answer.clone()]);
        assert_eq!(
            verdict(&two, vec![(proxy, one.clone()), (proxy, answer)]),
            Ok(())
        );
        assert!(verdict(&two, vec![(proxy, one)]).is_err());
    }

    #[test]
    fn put_ack_at_threshold_wants_the_reply_with_the_thresholdth_distinct_ack() {
        let (cluster, ov, proxy, kls) = one_put();
        let client = cluster.layout().client();
        let policy = Policy::paper_default();
        let put = Message::ClientPut {
            op: 1,
            key: ov.key,
            value: Bytes::new(),
            policy,
        };
        let decide = Message::DecideLocs {
            ov,
            policy,
            home_dc: DataCenterId::new(0),
        };
        let reply = |success| (client, Message::ClientPutReply { op: 1, ov, success });
        let acks = [
            Message::StoreFragmentReply { ov, fragment: 0 },
            Message::StoreFragmentReply { ov, fragment: 1 },
            Message::StoreFragmentReply { ov, fragment: 1 },
            Message::StoreFragmentReply { ov, fragment: 2 },
            Message::StoreFragmentReply { ov, fragment: 3 },
        ];
        // The put starts, and acks 0, 1, 1 (a duplicate), 2 and 3 arrive,
        // ack `at` with `sends`.
        let verdict = |at: usize, sends: Vec<(NodeId, Message)>| {
            let start = Event::Deliver {
                from: client,
                msg: &put,
            };
            let mut steps = vec![(proxy, start, vec![(kls, decide.clone())])];
            for (i, ack) in acks.iter().enumerate() {
                let sent = if i == at { sends.clone() } else { vec![] };
                steps.push((
                    proxy,
                    Event::Deliver {
                        from: kls,
                        msg: ack,
                    },
                    sent,
                ));
            }
            dispatched(&cluster, PutAckAtThreshold::new(), &steps)
        };
        assert_eq!(policy.put_success_threshold, 4);
        assert_eq!(verdict(4, vec![reply(true)]), Ok(()));
        let late = verdict(usize::MAX, vec![]).expect_err("the fourth distinct ack");
        assert!(late.contains("no success reply"), "{late}");
        let early = verdict(3, vec![reply(true)]).expect_err("three distinct acks");
        assert!(early.contains("short of its threshold 4"), "{early}");
        assert_eq!(
            verdict(3, vec![reply(false)]),
            Ok(()),
            "a failure answers it"
        );
        assert!(
            verdict(4, vec![reply(false)]).is_err(),
            "at the threshold, a success"
        );
    }

    #[test]
    fn timer_discipline_flags_a_timer_that_fires_twice() {
        let (mut cluster, _, proxy, _) = one_put();
        let id = cluster
            .sim_mut()
            .schedule_timer(proxy, SimDuration::ZERO, 7);
        let fire = || (proxy, Event::Timer { id, tag: 7 }, vec![]);
        assert_eq!(
            dispatched(&cluster, TimerDiscipline::new(), &[fire()]),
            Ok(())
        );
        assert!(dispatched(&cluster, TimerDiscipline::new(), &[fire(), fire()]).is_err());
    }

    /// Counts the checks it is asked for.
    struct CountChecks(Rc<Cell<u64>>);

    impl Invariant for CountChecks {
        fn name(&self) -> &'static str {
            "count-checks"
        }

        fn check_event(&mut self, _view: &ClusterView<'_>) -> Result<(), String> {
            self.0.set(self.0.get() + 1);
            Ok(())
        }
    }

    #[test]
    fn the_scale_cell_is_checked_after_every_event() {
        let sc = Scenario::scale();
        let mut cluster = explorer::scenario_cluster(&sc);
        let calls = Rc::new(Cell::new(0));
        let checker =
            Checker::install(&mut cluster, vec![Box::new(CountChecks(Rc::clone(&calls)))]);
        let outcome = explorer::run_steps(&sc, &mut cluster, &checker);
        let events = cluster.sim().events_processed();
        assert_eq!(calls.get(), events);
        assert_eq!(checker.finish(&cluster, outcome), None);
        assert_eq!(calls.get(), events + 1, "and once more as the run ends");
    }
}
