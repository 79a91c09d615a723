//! The Fragment Server (FS) and the convergence protocol.
//!
//! An FS stores erasure-coded fragments together with the metadata needed
//! to verify redundancy, and runs **convergence** (§3.4): in periodic
//! rounds, it performs a *convergence step* for every object version it
//! has not yet verified to be at maximum redundancy (AMR). A step does the
//! first applicable of:
//!
//! 1. **metadata repair** — if its metadata is incomplete, probe a KLS per
//!    missing data center (in a fixed order, §3.5) with
//!    [`Message::FsDecideLocs`];
//! 2. **fragment recovery** — if an assigned sibling fragment is missing,
//!    retrieve `k` fragments and regenerate it (optionally regenerating
//!    *all* missing sibling fragments on behalf of the siblings — the
//!    sibling-fragment-recovery optimization, §4.2);
//! 3. **verification** — otherwise probe every KLS and sibling FS with
//!    converge messages; if all verify, the version is AMR and is removed
//!    from the convergence store (optionally broadcasting an AMR
//!    indication to the siblings, §4.1).
//!
//! Steps for a version back off exponentially while they keep failing
//! (§3.5) and reset when new information arrives — including a sibling
//! that had stopped answering speaking again, which resets the versions
//! that waited on it alone and that this FS re-probes for it (DESIGN.md
//! §8.9). Round scheduling,
//! indications and sibling recovery are all governed by
//! [`ConvergenceOptions`].
//!
//! Round traffic — a step's probes, the replies owed to a sibling's probes
//! and FS AMR indications — leaves through the `Outbox`: one message per
//! object version, the paper's accounting, or with
//! [`ProtocolMode::batch_rounds`] one [`Message::Batch`] per destination
//! and kind per dispatch (DESIGN.md §8.6). Batched rounds also stop
//! re-sending what is known: a verification step whose last answers lack
//! only silent siblings re-asks those siblings alone.
//!
//! What an FS keeps resident follows the versions that still hold
//! fragments, not the puts it has served. AMR is the paper's terminal
//! state, so a version that is settled AMR and superseded by a newer
//! settled-AMR version of its key always gives up its fragments, its
//! metadata handle, its store slot and its index entry, and leaves one
//! 16-byte residual in its key's chain — which
//! fragment indices it held and when it settled — from which every later
//! question about it (a re-delivered fragment, a sibling's probe, a
//! repeated AMR indication) is answered as the full entry would have
//! answered it (DESIGN.md §8.7).
//!
//! This file is the actor: the [`Fs`] struct, its constructor and
//! inspection API, the put path's `store_fragment`, and the [`Actor`] impl
//! every message and timer enters through. `store.rs` is the version store,
//! `rounds.rs` the round/step loop, `recovery.rs` fragment recovery,
//! `scrub.rs` scrub and disk loss (DESIGN.md §2 has the map).

mod recovery;
mod rounds;
mod scrub;
mod store;
#[cfg(test)]
mod tests;

use std::any::Any;
use std::collections::BTreeMap;
use std::sync::Arc;

use erasure::{Checksum, Codec, Fragment};
use simnet::{Actor, Context, NodeId, SimTime};

use crate::convergence::ConvergenceOptions;
use crate::messages::{Message, OpId};
use crate::metadata::Metadata;
use crate::protocol::{FragMap, FragMask, ProtocolMode};
use crate::repair::REPORT_INTERVAL;
use crate::topology::{DataCenterId, Topology};
use crate::types::ObjectVersion;

use rounds::Outbox;
use store::{Slot, VersionStore};

/// Timer tags (upper byte selects the kind, low bits carry an op id).
const TAG_ROUND: u64 = 1 << 56;
const TAG_RECOVERY_WAIT: u64 = 2 << 56;
const TAG_RECOVERY_TIMEOUT: u64 = 3 << 56;
const TAG_SCRUB: u64 = 4 << 56;
const TAG_REPAIR_REPORT: u64 = 5 << 56;
const TAG_MASK: u64 = 0xff << 56;

/// Timer tag a harness may schedule on an FS (via
/// [`Simulation::schedule_timer`](simnet::Simulation::schedule_timer)) to
/// wake its convergence loop after mutating state externally — e.g. after
/// [`Fs::destroy_disk`] or [`Fs::corrupt_fragment`].
pub const WAKE_TIMER_TAG: u64 = TAG_ROUND;

/// Stored fragments plus the metadata snapshot for one object version.
#[derive(Debug, Clone)]
pub struct FragEntry {
    /// Best-known metadata, shared by refcount with the messages that
    /// carried it and the other stores that adopted it.
    pub meta: Arc<Metadata>,
    /// The sibling fragments this server holds, by fragment index, each
    /// with its checksum.
    pub fragments: FragMap<StoredFragment>,
}

/// A fragment as an FS stores it: the bytes and the content hash recorded
/// when they were durably stored, which the scrubber and the read path
/// verify against to "detect disk corruption using hashes" (§3.1). The two
/// are one record, so a stored fragment always has its hash.
#[derive(Debug, Clone)]
pub struct StoredFragment {
    /// The fragment, as it is on disk now.
    pub fragment: Fragment,
    /// The hash of the bytes as they were stored.
    pub checksum: Checksum,
}

impl StoredFragment {
    /// Stores `fragment`, recording the hash of its bytes.
    pub fn new(fragment: Fragment) -> Self {
        let checksum = Checksum::of(fragment.data());
        StoredFragment { fragment, checksum }
    }

    /// Whether the bytes still match the recorded hash.
    pub fn is_sound(&self) -> bool {
        self.checksum.verify(self.fragment.data())
    }
}

/// A fragment server actor.
pub struct Fs {
    topo: Arc<Topology>,
    my_dc: DataCenterId,
    opts: ConvergenceOptions,
    /// Own node id, captured at `on_start` (actors learn their id from the
    /// context).
    self_id: Option<NodeId>,
    /// Protocol behaviour switches, fixed at construction.
    mode: ProtocolMode,
    /// Round traffic leaves through here (batched or not, per `mode`).
    outbox: Outbox,
    /// Cached `topo.all_klss().count()` for the verification check.
    total_klss: usize,
    /// Every version this FS knows, with its fragments, metadata and
    /// convergence state.
    store: VersionStore,
    round_scheduled: bool,
    next_op: OpId,
    /// Convergence steps executed (for tests and ablations).
    steps_run: u64,
    /// Recoveries completed locally (for tests and ablations).
    recoveries_done: u64,
    /// Corrupted fragments detected (by the scrubber or the read path).
    corruption_detected: u64,
    /// Codecs by `(k, n)`, built once per policy shape: constructing a
    /// codec runs a Gaussian elimination, far too costly per recovery.
    codecs: BTreeMap<(u8, u8), Codec>,
    /// Reusable fragment-list scratch for the recovery path.
    recover_scratch: Vec<Fragment>,
    /// Reusable slot list for `run_round` and `scrub`, so steady-state
    /// rounds do not allocate a version list each tick.
    version_scratch: Vec<Slot>,
    /// This DC's repair actor, set by the cluster builder when the
    /// repair engine is enabled; inventory reports go here.
    repair_target: Option<NodeId>,
    /// First version the next scrub tick scans (`None`: start a fresh
    /// pass). Scrub walks the store in version order, a
    /// [`ConvergenceOptions::scrub_chunk_bytes`] budget at a time.
    scrub_cursor: Option<ObjectVersion>,
    /// Per sibling FS, when this FS first sent it a `ConvergeFs` that it
    /// has not answered since: any message from the sibling removes its
    /// entry, so there is at most one per sibling and never one for a KLS
    /// or a proxy ([`Fs::silent_siblings`]). An entry older than a round
    /// when the sibling speaks means it was unreachable and is back
    /// (`Fs::heard_from`); while it stands, batched rounds re-ask that
    /// sibling alone (`Fs::step`).
    silent_since: BTreeMap<NodeId, SimTime>,
}

impl Fs {
    /// Creates the FS for data center `my_dc` with the given convergence
    /// configuration and [`ProtocolMode`].
    pub fn with_mode(
        topo: Arc<Topology>,
        my_dc: DataCenterId,
        opts: ConvergenceOptions,
        mode: ProtocolMode,
    ) -> Self {
        let total_klss = topo.all_klss().count();
        Fs {
            topo,
            my_dc,
            opts,
            self_id: None,
            mode,
            outbox: Outbox::new(mode.batch_rounds),
            total_klss,
            store: VersionStore::new(),
            round_scheduled: false,
            next_op: 1,
            steps_run: 0,
            recoveries_done: 0,
            corruption_detected: 0,
            codecs: BTreeMap::new(),
            recover_scratch: Vec::new(),
            version_scratch: Vec::new(),
            repair_target: None,
            scrub_cursor: None,
            silent_since: BTreeMap::new(),
        }
    }

    /// Points this FS's periodic inventory reports at its DC's repair
    /// actor (cluster builder API; reports only flow when
    /// [`ConvergenceOptions`] enables the repair engine).
    pub fn set_repair_target(&mut self, target: NodeId) {
        self.repair_target = Some(target);
    }

    fn codec(&mut self, k: u8, n: u8) -> &Codec {
        self.codecs.entry((k, n)).or_insert_with(|| {
            // lint:allow(panic-path): (k, n) validated when the policy was accepted
            Codec::new(usize::from(k), usize::from(n)).expect("policy validated at put time")
        })
    }

    // ---- state inspection ----

    /// The data center this FS lives in.
    pub fn dc(&self) -> DataCenterId {
        self.my_dc
    }

    /// The stored entry for `ov`, if any.
    pub fn entry(&self, ov: ObjectVersion) -> Option<&FragEntry> {
        self.store.entry(self.store.find(ov)?)
    }

    /// Whether this FS holds every fragment assigned to it by `ov`'s
    /// metadata and that metadata is complete (the per-FS half of the AMR
    /// condition; the paper's `verify(storefrag[ov])`). A compacted
    /// residual reports `true`: compaction requires the version to have
    /// been settled AMR, which implies it verified (so replies about it
    /// stay byte-identical to the full store's).
    pub fn verified(&self, ov: ObjectVersion) -> bool {
        // A version is live or a residual, never both, and the probes that
        // matter are about live ones: ask the index first.
        match self.entry(ov) {
            Some(entry) => Self::entry_verified(entry, self.self_node()),
            None => self.store.residual(ov).is_some(),
        }
    }

    /// [`Fs::verified`] for a version that holds its full entry.
    fn entry_verified(entry: &FragEntry, me: NodeId) -> bool {
        entry.meta.is_complete() && Self::missing_mask(entry, me).is_empty()
    }

    /// Versions still being converged.
    pub fn pending_versions(&self) -> impl Iterator<Item = ObjectVersion> + '_ {
        self.store.pending_versions()
    }

    /// Versions this FS considers AMR.
    pub fn amr_versions(&self) -> impl Iterator<Item = ObjectVersion> + '_ {
        self.store.amr_versions()
    }

    /// When this FS settled `ov` as AMR (verified it, or received an AMR
    /// indication), if it has.
    pub fn amr_settled_at(&self, ov: ObjectVersion) -> Option<SimTime> {
        match self.store.find(ov) {
            Some(s) => self.store.amr_at(s),
            None => self.store.residual(ov).map(|(_, at)| at),
        }
    }

    /// Every version present in the fragment store.
    pub fn known_versions(&self) -> impl Iterator<Item = ObjectVersion> + '_ {
        self.store.known_versions()
    }

    /// Versions abandoned after exceeding the give-up age.
    pub fn gave_up_versions(&self) -> impl Iterator<Item = ObjectVersion> + '_ {
        self.store.gave_up_versions()
    }

    /// Total convergence steps this FS has executed.
    pub fn steps_run(&self) -> u64 {
        self.steps_run
    }

    /// Fragment recoveries this FS completed.
    pub fn recoveries_done(&self) -> u64 {
        self.recoveries_done
    }

    /// Corrupted fragments detected so far (scrubber + read path).
    pub fn corruption_detected(&self) -> u64 {
        self.corruption_detected
    }

    /// The compaction residual for `ov` — the fragment indices this FS
    /// held when the superseded, settled-AMR version was collapsed to an
    /// O(1) record — if `ov` has been compacted.
    pub fn compacted_residual(&self, ov: ObjectVersion) -> Option<FragMask> {
        self.store.residual(ov).map(|(held, _)| held)
    }

    /// Number of versions this FS has compacted to residual records.
    pub fn compacted_count(&self) -> usize {
        self.store.compacted_count()
    }

    /// Version-store slots in use: one per version that still holds a
    /// full entry. Together with [`compacted_count`](Fs::compacted_count)
    /// this accounts for every known version exactly once.
    pub fn resident_slots(&self) -> usize {
        self.store.resident_slots()
    }

    /// Versions this FS has compacted, in object-version order.
    pub fn compacted_versions(&self) -> impl Iterator<Item = ObjectVersion> + '_ {
        self.store.compacted_versions()
    }

    /// The siblings this FS has sent a `ConvergeFs` that they have not
    /// answered since, in id order. Only other FSs belong here, so there
    /// are never more than the cluster has FSs less one — the explorer's
    /// `resource-bounds` invariant checks both.
    pub fn silent_siblings(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.silent_since.keys().copied()
    }

    // ---- internals ----

    /// This FS's own node id. An actor learns its id from the context of
    /// the first event it processes; the copy kept then is what the
    /// inspection methods, which have no context, read.
    fn self_node(&self) -> NodeId {
        // lint:allow(panic-path): self_id is recorded the first time an event runs
        self.self_id.expect("FS has processed at least one event")
    }

    /// Store a fragment (from a proxy put, or a sibling push).
    fn store_fragment(
        &mut self,
        ctx: &mut Context<'_, Message>,
        ov: ObjectVersion,
        meta: &Arc<Metadata>,
        fragment: Fragment,
    ) {
        // Compacted versions accept no bytes; a full store would treat
        // this as a duplicate of a fragment it already holds — in both
        // cases the store is unchanged and a round is still made sure of.
        let Some(s) = self.adopt(ctx, ov, meta) else {
            self.ensure_round(ctx);
            return;
        };
        if let Some(entry) = self.store.entry_mut(s) {
            let idx = fragment.index();
            if !entry.fragments.contains_key(&idx) {
                entry.fragments.insert(idx, StoredFragment::new(fragment));
            }
        }
        self.note_progress(ctx, s);
    }

    /// Self id captured from the first processed event (actors do not know
    /// their id before that).
    fn remember_self(&mut self, ctx: &Context<'_, Message>) {
        if self.self_id.is_none() {
            self.self_id = Some(ctx.self_id());
        }
    }
}

impl Actor<Message> for Fs {
    fn on_start(&mut self, ctx: &mut Context<'_, Message>) {
        self.self_id = Some(ctx.self_id());
        if let Some(interval) = self.opts.scrub_interval {
            ctx.schedule_timer(interval, TAG_SCRUB);
        }
        if self.opts.repair.is_some() {
            ctx.schedule_timer(REPORT_INTERVAL, TAG_REPAIR_REPORT);
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_, Message>, from: NodeId, msg: Message) {
        self.remember_self(ctx);
        self.heard_from(ctx, from);
        match msg {
            Message::StoreFragment { ov, meta, fragment } => {
                let idx = fragment.index();
                self.store_fragment(ctx, ov, &meta, fragment);
                ctx.send(from, Message::StoreFragmentReply { ov, fragment: idx });
            }

            Message::StoreMetadata { ov, meta } => {
                // Proxy location update for a fragment we already hold
                // (second wave of the put, §5.2).
                // Compacted versions settled with complete metadata.
                let complete = self
                    .adopt(ctx, ov, &meta)
                    .and_then(|s| self.store.entry(s))
                    .is_none_or(|e| e.meta.is_complete());
                ctx.send(from, Message::StoreMetadataReply { ov, complete });
            }

            Message::SiblingStore { ov, meta, fragment } => {
                // Recovered fragment pushed by a sibling; unacknowledged.
                self.store_fragment(ctx, ov, &meta, fragment);
            }

            Message::LocsIndication { ov, meta } => {
                self.adopt(ctx, ov, &meta);
            }

            // Round traffic, which a batching peer sends as one message
            // per dispatch and kind: the same handler, entry by entry.
            round @ (Message::AmrIndication { .. }
            | Message::ConvergeFs { .. }
            | Message::ConvergeFsReply { .. }
            | Message::ConvergeKlsReply { .. }) => self.on_round_message(ctx, from, round),
            Message::Batch(entries) => {
                for entry in entries {
                    self.on_round_message(ctx, from, entry);
                }
            }

            Message::DecideLocsReply { ov, dc, locations } => {
                // Reply to our FsDecideLocs probe.
                if let Some(s) = self.store.find(ov) {
                    if let Some(entry) = self.store.entry_mut(s).filter(|e| !e.meta.has_dc(dc)) {
                        Arc::make_mut(&mut entry.meta).add_dc_locations(dc, locations);
                        self.note_progress(ctx, s);
                    }
                }
            }

            Message::RetrieveFrag { op, ov, fragment } => {
                // Verify before serving: a fragment that fails its hash
                // is corrupt — drop it, answer ⊥, and let convergence
                // regenerate it (§3.1).
                let mut data = None;
                let mut corrupt = false;
                let s = self.store.find(ov);
                if let Some(entry) = s.and_then(|s| self.store.entry_mut(s)) {
                    if let Some(stored) = entry.fragments.get(&fragment) {
                        if stored.is_sound() {
                            data = Some(stored.fragment.clone());
                        } else {
                            // Present but corrupt.
                            entry.fragments.remove(&fragment);
                            corrupt = true;
                        }
                    }
                }
                if let Some(s) = s.filter(|_| corrupt) {
                    self.corruption_detected += 1;
                    self.re_pend(s, ctx.now());
                    self.ensure_round(ctx);
                }
                ctx.send(
                    from,
                    Message::RetrieveFragReply {
                        op,
                        ov,
                        fragment,
                        data,
                    },
                );
            }

            Message::RetrieveFragReply { op, ov, data, .. } => {
                self.on_retrieve_frag_reply(ctx, op, ov, data);
            }

            other => {
                debug_assert!(false, "FS received unexpected {:?}", other);
            }
        }
        self.outbox.flush(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Message>, tag: u64) {
        self.remember_self(ctx);
        let op = tag & !TAG_MASK;
        match tag & TAG_MASK {
            TAG_ROUND => {
                self.round_scheduled = false;
                self.run_round(ctx);
            }
            TAG_RECOVERY_WAIT => self.recovery_wait_elapsed(ctx, op),
            TAG_RECOVERY_TIMEOUT => {
                if let Some(s) = self.store.find_recovery(op) {
                    self.abort_recovery(ctx, s);
                    self.ensure_round(ctx);
                }
            }
            TAG_SCRUB => {
                self.scrub(ctx);
                if let Some(interval) = self.opts.scrub_interval {
                    ctx.schedule_timer(interval, TAG_SCRUB);
                }
            }
            TAG_REPAIR_REPORT => {
                self.send_repair_report(ctx);
                if self.opts.repair.is_some() {
                    ctx.schedule_timer(REPORT_INTERVAL, TAG_REPAIR_REPORT);
                }
            }
            _ => debug_assert!(false, "unknown FS timer tag {tag:#x}"),
        }
        self.outbox.flush(ctx);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}
