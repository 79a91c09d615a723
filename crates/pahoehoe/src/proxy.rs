//! The proxy: executes put and get operations on behalf of a client.
//!
//! Implements the optimized two-round protocols of Figures 2 and 3 of the
//! paper:
//!
//! * **Put** — ask every KLS for locations; *as soon as* any data center's
//!   locations are decided (first KLS answer per DC wins), send the DC's
//!   sibling fragments to its FSs. The metadata is announced twice: on the
//!   first answer to every KLS (the version is then findable, and one DC
//!   holds ≥ `k` fragments), and on the completing answer to every KLS and
//!   to the FSs of the earlier DCs. An answer in between is announced only
//!   by its fragments; if the put times out with such a snapshot withheld,
//!   it goes out then. Report success to the client once
//!   the policy's threshold of distinct fragments is durably stored; if
//!   *everything* is acknowledged,
//!   optionally broadcast Put-AMR indications (§4.1). An indication
//!   carries the metadata only to an FS the proxy does not know to hold it
//!   complete — one that acknowledged a fragment sent with the completing
//!   wave's snapshot, or answered a metadata update "complete", gets the
//!   version alone (DESIGN.md §8.10).
//! * **Get** — ask every KLS for all versions-with-metadata; start
//!   retrieving the newest version as soon as the first KLS answers;
//!   decode once any `k` sibling fragments arrive; fall back to an earlier
//!   version only when safe (`can_try_earlier`: some KLS lacked complete
//!   metadata for the current version, or some FS answered ⊥ — either
//!   proves the version is not AMR); abort on timeout.

use std::any::Any;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use bytes::Bytes;
use erasure::{Fragment, FragmentIndex};
use simnet::{Actor, Context, NodeId, SimDuration, TimerId};

use crate::messages::{Message, OpId, EV_DEGRADED_READS};
use crate::metadata::Metadata;
use crate::protocol::{CodecCache, Donors, FragMask, ProtocolMode};
use crate::topology::{DataCenterId, Topology};
use crate::types::{Key, ObjectVersion, Timestamp};

const TAG_PUT: u64 = 1 << 56;
const TAG_GET: u64 = 2 << 56;
const TAG_GET_ATTEMPT: u64 = 3 << 56;
const TAG_MASK: u64 = 0xff << 56;

/// Proxy tunables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProxyConfig {
    /// Give up collecting put acknowledgments after this long; if the
    /// success threshold was not reached by then, the client gets the
    /// paper's "unknown" (failure) answer.
    pub put_timeout: SimDuration,
    /// Abort a get after this long.
    pub get_timeout: SimDuration,
    /// Per-version patience during a get: after this long without
    /// decoding, the proxy stops waiting for stragglers and — only if it
    /// holds proof the version is not AMR — falls back to an earlier
    /// version (otherwise the get aborts at `get_timeout`).
    pub get_attempt_timeout: SimDuration,
    /// Versions per timestamp-retrieval page (§3.5: the proxy
    /// "iteratively retrieves timestamps … instead of retrieving
    /// information about all object versions at once").
    pub ts_page_size: u16,
    /// Offset added to the simulation clock when minting timestamps,
    /// modeling the "loosely synchronized" NTP clock of §3.1.
    pub clock_skew: SimDuration,
    /// Whether to broadcast AMR indications after fully acknowledged puts
    /// (the Put-AMR optimization; mirrors
    /// [`ConvergenceOptions::put_amr_indication`](crate::ConvergenceOptions)).
    pub put_amr_indication: bool,
}

impl Default for ProxyConfig {
    fn default() -> Self {
        ProxyConfig {
            put_timeout: SimDuration::from_secs(3),
            get_timeout: SimDuration::from_secs(5),
            get_attempt_timeout: SimDuration::from_secs(1),
            ts_page_size: 8,
            clock_skew: SimDuration::ZERO,
            put_amr_indication: true,
        }
    }
}

/// State of one in-flight put.
struct PutOp {
    client: NodeId,
    client_op: OpId,
    meta: Arc<Metadata>,
    fragments: Vec<Fragment>,
    /// KLSs that acknowledged *complete* metadata.
    kls_complete: BTreeSet<NodeId>,
    /// Distinct fragment indices durably stored, as a 256-bit mask
    /// (fragments are only ever stored by — and acknowledged from — the
    /// FS they are assigned to, so the index alone identifies the ack).
    acked: FragMask,
    /// Fragment indices whose FS holds complete metadata once the index is
    /// in `acked`: those sent with the completing wave's snapshot, and
    /// those of an FS that answered a `StoreMetadata` with
    /// `complete: true`. Read only at full acknowledgment, when every
    /// index is acknowledged, to leave the metadata out of that FS's AMR
    /// indication.
    holds_complete: FragMask,
    /// The data center whose answer was last announced only by its
    /// fragments, while the metadata is still incomplete: the put's time-out
    /// sends that snapshot to the servers the answer would have reached.
    withheld: Option<DataCenterId>,
    replied: bool,
    /// Key of this put in `put_seq` and the low bits of its timer tag.
    seq: u64,
    timer: TimerId,
}

/// What one KLS has told us during a get (timestamps arrive in
/// newest-first pages, §3.5).
#[derive(Default)]
struct KlsView {
    /// Timestamps this KLS has reported so far.
    reported: BTreeSet<Timestamp>,
    /// Oldest timestamp reported (pagination cursor).
    oldest: Option<Timestamp>,
    /// The KLS said no older versions remain.
    exhausted: bool,
    /// A page request is in flight.
    awaiting: bool,
}

impl KlsView {
    /// Pages are newest-first and contiguous, so a version newer than the
    /// oldest reported timestamp that this KLS did *not* report is
    /// provably absent from it — evidence the version is not AMR.
    fn provably_missing(&self, ts: Timestamp) -> bool {
        if self.reported.contains(&ts) {
            return false;
        }
        self.exhausted || self.oldest.is_some_and(|o| ts > o)
    }
}

/// State of one in-flight get.
struct GetOp {
    client: NodeId,
    key: Key,
    /// Versions not yet attempted.
    untried: BTreeSet<Timestamp>,
    /// Versions already attempted (pages may re-deliver them).
    tried: BTreeSet<Timestamp>,
    /// Merged per-version metadata from KLS answers.
    kls_meta: BTreeMap<Timestamp, Arc<Metadata>>,
    /// Versions some KLS reported with *incomplete* metadata (non-AMR
    /// evidence).
    kls_incomplete: BTreeSet<Timestamp>,
    /// Per-KLS pagination state.
    views: BTreeMap<NodeId, KlsView>,
    current: Option<GetAttempt>,
    timer: TimerId,
}

struct GetAttempt {
    ts: Timestamp,
    meta: Arc<Metadata>,
    /// The fragments asked of the version's FSs and their answers.
    donors: Donors,
    /// Whether any FS answered ⊥ for this version, or it has no locations.
    saw_bottom: bool,
    /// Straggler patience; after it fires the attempt no longer waits.
    timer: TimerId,
    timed_out: bool,
}

/// A proxy server actor.
pub struct Proxy {
    topo: Arc<Topology>,
    my_dc: DataCenterId,
    /// Unique proxy identifier, the timestamp tie-breaker.
    uid: u32,
    cfg: ProxyConfig,
    /// Every KLS, in topology order: each put wave and each get fans out
    /// to all of them.
    klss: Box<[NodeId]>,
    puts: BTreeMap<ObjectVersion, PutOp>,
    /// Timer-tag → object version for put timeouts.
    put_seq: BTreeMap<u64, ObjectVersion>,
    next_seq: u64,
    gets: BTreeMap<OpId, GetOp>,
    codecs: CodecCache,
    /// Per client, the newest operation id accepted, for idempotence under
    /// the duplicating channel of §3.1 (a duplicated `ClientPut` must not
    /// spawn a second put). One id per client is enough: a client has one
    /// operation in flight and numbers them in increasing order, and it
    /// issues op `n + 1` only after op `n`'s answer or its time-out
    /// (seconds), while a message takes at most tens of milliseconds — so
    /// every copy of op `n` arrives before op `n + 1`, and a copy is a
    /// duplicate exactly when its id is not above the client's mark.
    client_high_water: BTreeMap<NodeId, OpId>,
    /// Completed puts for which the proxy verified full redundancy (used
    /// by tests; equals the number of Put-AMR indications broadcast when
    /// the optimization is on).
    puts_fully_acked: u64,
    /// Reusable value buffer for the get decode path, so steady-state gets
    /// do not allocate one per decode.
    decode_scratch: Vec<u8>,
}

impl Proxy {
    /// Creates a proxy in `my_dc` with unique id `uid`.
    pub fn new(topo: Arc<Topology>, my_dc: DataCenterId, uid: u32, cfg: ProxyConfig) -> Self {
        let klss = topo.all_klss().collect();
        Proxy {
            topo,
            my_dc,
            uid,
            cfg,
            klss,
            puts: BTreeMap::new(),
            put_seq: BTreeMap::new(),
            next_seq: 0,
            gets: BTreeMap::new(),
            codecs: CodecCache::default(),
            client_high_water: BTreeMap::new(),
            puts_fully_acked: 0,
            decode_scratch: Vec::new(),
        }
    }

    /// [`Proxy::new`]: no [`ProtocolMode`] switch changes what a proxy
    /// does. Kept only as the compile surface of `benchmark/src/api.rs`.
    pub fn with_mode(
        topo: Arc<Topology>,
        my_dc: DataCenterId,
        uid: u32,
        cfg: ProxyConfig,
        _mode: ProtocolMode,
    ) -> Self {
        Proxy::new(topo, my_dc, uid, cfg)
    }

    /// Puts this proxy verified as fully redundant.
    pub fn puts_fully_acked(&self) -> u64 {
        self.puts_fully_acked
    }

    /// The clients this proxy keeps an idempotence mark for, in id order:
    /// one entry per client that has sent it an operation, however many
    /// operations that was (the explorer's `resource-bounds` invariant
    /// checks it).
    pub fn marked_clients(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.client_high_water.keys().copied()
    }

    /// Whether `op` from `client` is new, raising the client's mark if so
    /// (see `client_high_water`).
    fn accept_client_op(&mut self, client: NodeId, op: OpId) -> bool {
        let mark = self.client_high_water.entry(client).or_insert(0);
        let fresh = op > *mark;
        *mark = (*mark).max(op);
        fresh
    }

    // ---- put ----

    fn start_put(
        &mut self,
        ctx: &mut Context<'_, Message>,
        client: NodeId,
        client_op: OpId,
        key: Key,
        value: Bytes,
        policy: crate::policy::Policy,
    ) {
        policy.validate();
        let ts = Timestamp::new(ctx.now().saturating_add(self.cfg.clock_skew), self.uid);
        let ov = ObjectVersion::new(key, ts);
        // Zero-copy encode: data fragments are windows of the client's
        // value; only parity is freshly written.
        let mut fragments = Vec::new();
        self.codecs
            .get(policy.k, policy.n)
            .encode_value(&value, &mut fragments);
        let meta = Arc::new(Metadata::new(policy, self.my_dc, value.len()));

        let seq = self.next_seq;
        self.next_seq += 1;
        let timer = ctx.schedule_timer(self.cfg.put_timeout, TAG_PUT | seq);
        self.put_seq.insert(seq, ov);
        self.puts.insert(
            ov,
            PutOp {
                client,
                client_op,
                meta,
                fragments,
                kls_complete: BTreeSet::new(),
                acked: FragMask::new(),
                holds_complete: FragMask::new(),
                withheld: None,
                replied: false,
                seq,
                timer,
            },
        );

        for &kls in self.klss.iter() {
            ctx.send(
                kls,
                Message::DecideLocs {
                    ov,
                    policy,
                    home_dc: self.my_dc,
                },
            );
        }
    }

    // lint:hot
    fn on_locations_decided(
        &mut self,
        ctx: &mut Context<'_, Message>,
        ov: ObjectVersion,
        dc: DataCenterId,
        locations: Vec<crate::metadata::Location>,
    ) {
        let Some(op) = self.puts.get_mut(&ov) else {
            return;
        };
        // `useful_locs`: only the first decision per data center counts.
        // The snapshot of the previous wave is still in flight, so this
        // copies the record once per wave; every send below is then
        // reference-counted.
        if !Arc::make_mut(&mut op.meta).add_dc_locations(dc, locations) {
            return;
        }
        let meta = &op.meta;
        let completing = meta.is_complete();
        // The metadata is announced on two answers, whatever the number of
        // data centers: the paper's "two location updates instead of one"
        // that keep the optimized put above the idealized minimum (§5.2).
        // The first answer makes the version findable at every KLS, and
        // readable, since one data center holds ≥ k fragments — the
        // paper's first latency optimization. The completing answer makes
        // it verifiable, and also reaches the FSs of the earlier data
        // centers, whose stored snapshot it completes. An answer in
        // between is announced by its fragments alone; `finish_put` sends
        // its snapshot if nothing completes the metadata in time.
        // Fragments themselves are sent exactly once per location.
        if completing || meta.decided_dcs().count() == 1 {
            op.withheld = None;
            Self::announce(ctx, &self.klss, ov, meta, dc);
        } else {
            op.withheld = Some(dc);
        }
        // Send this data center's sibling fragments to its FSs.
        for (idx, loc) in meta
            .assignments()
            .filter(|(idx, _)| meta.dc_of_fragment(*idx) == dc)
        {
            if completing {
                op.holds_complete.insert(idx);
            }
            ctx.send(
                loc.fs(),
                Message::StoreFragment {
                    ov,
                    meta: Arc::clone(meta),
                    // lint:allow(panic-path): assignment indexes are < n == fragments.len()
                    fragment: op.fragments[idx as usize].clone(),
                },
            );
        }
    }

    /// Sends `meta` to every KLS and to the sibling FSs outside `dc`: the
    /// servers data center `dc`'s answer announces the metadata to.
    fn announce(
        ctx: &mut Context<'_, Message>,
        klss: &[NodeId],
        ov: ObjectVersion,
        meta: &Arc<Metadata>,
        dc: DataCenterId,
    ) {
        for &kls in klss {
            ctx.send(
                kls,
                Message::StoreMetadata {
                    ov,
                    meta: Arc::clone(meta),
                },
            );
        }
        for fs in meta.siblings_outside(dc) {
            ctx.send(
                fs,
                Message::StoreMetadata {
                    ov,
                    meta: Arc::clone(meta),
                },
            );
        }
    }

    fn on_put_progress(&mut self, ctx: &mut Context<'_, Message>, ov: ObjectVersion) {
        let Some(op) = self.puts.get_mut(&ov) else {
            return;
        };
        // Early success: enough distinct fragments durably stored.
        if !op.replied && op.acked.count() >= usize::from(op.meta.policy().put_success_threshold) {
            op.replied = true;
            let (client, client_op) = (op.client, op.client_op);
            ctx.send(
                client,
                Message::ClientPutReply {
                    op: client_op,
                    ov,
                    success: true,
                },
            );
        }
        // Full acknowledgment: every KLS holds complete metadata and every
        // assigned fragment is durably stored -> the proxy knows the
        // version is AMR.
        // Field-level borrow so puts_fully_acked stays assignable.
        // lint:allow(panic-path): ov taken from a live self.puts entry on this dispatch path
        let op = &self.puts[&ov];
        if !op.meta.is_complete() {
            return;
        }
        // `kls_complete` only holds KLSs, and each assigned fragment index
        // is stored by — and acknowledged from — exactly one FS, so the two
        // counts reaching the cluster's KLS count and the assignment count
        // is the subset test "every KLS and every `(fs, index)` assignment
        // has acknowledged" without building either set.
        let fully_acked = op.kls_complete.len() == self.klss.len()
            && op.acked.count() == op.meta.location_count();
        if fully_acked {
            self.puts_fully_acked += 1;
            if self.cfg.put_amr_indication {
                // Metadata only to an FS not known to hold it complete: an
                // update sent earlier is not knowledge, because links
                // reorder.
                let meta = &op.meta;
                for fs in meta.siblings() {
                    let knows = meta
                        .assigned_to(fs)
                        .any(|idx| op.holds_complete.contains(idx));
                    let meta = (!knows).then(|| Arc::clone(meta));
                    ctx.send(fs, Message::AmrIndication { ov, meta });
                }
            }
            self.finish_put(ctx, ov, true);
        }
    }

    fn finish_put(
        &mut self,
        ctx: &mut Context<'_, Message>,
        ov: ObjectVersion,
        success_if_unreplied: bool,
    ) {
        let Some(op) = self.puts.remove(&ov) else {
            return;
        };
        ctx.cancel_timer(op.timer);
        self.put_seq.remove(&op.seq);
        // A snapshot withheld from an answer between the first and the
        // completing one goes out now, to the servers that answer would
        // have reached: when a put ends, every KLS and every FS holding a
        // fragment has been sent the proxy's last snapshot.
        if let Some(dc) = op.withheld {
            Self::announce(ctx, &self.klss, ov, &op.meta, dc);
        }
        if !op.replied {
            ctx.send(
                op.client,
                Message::ClientPutReply {
                    op: op.client_op,
                    ov,
                    success: success_if_unreplied,
                },
            );
        }
    }

    // ---- get ----

    fn start_get(&mut self, ctx: &mut Context<'_, Message>, client: NodeId, op: OpId, key: Key) {
        let timer = ctx.schedule_timer(self.cfg.get_timeout, TAG_GET | op);
        let mut views = BTreeMap::new();
        for &kls in self.klss.iter() {
            views.insert(
                kls,
                KlsView {
                    awaiting: true,
                    ..KlsView::default()
                },
            );
        }
        self.gets.insert(
            op,
            GetOp {
                client,
                key,
                untried: BTreeSet::new(),
                tried: BTreeSet::new(),
                kls_meta: BTreeMap::new(),
                kls_incomplete: BTreeSet::new(),
                views,
                current: None,
                timer,
            },
        );
        let limit = self.cfg.ts_page_size;
        for &kls in self.klss.iter() {
            ctx.send(
                kls,
                Message::RetrieveTs {
                    op,
                    key,
                    limit,
                    older_than: None,
                },
            );
        }
    }

    fn on_retrieve_ts_reply(
        &mut self,
        ctx: &mut Context<'_, Message>,
        op: OpId,
        from: NodeId,
        versions: Vec<(Timestamp, Arc<Metadata>)>,
        more: bool,
    ) {
        let Some(get) = self.gets.get_mut(&op) else {
            return;
        };
        {
            let view = get.views.entry(from).or_default();
            view.awaiting = false;
            view.exhausted |= !more;
            for (ts, _) in &versions {
                view.reported.insert(*ts);
                view.oldest = Some(match view.oldest {
                    Some(o) if o < *ts => o,
                    _ => *ts,
                });
            }
        }
        for (ts, meta) in versions {
            if !meta.is_complete() {
                get.kls_incomplete.insert(ts);
            }
            match get.kls_meta.get_mut(&ts) {
                Some(m) => {
                    Metadata::merge_shared(m, &meta);
                }
                None => {
                    get.kls_meta.insert(ts, meta);
                    let in_current = get.current.as_ref().is_some_and(|c| c.ts == ts);
                    if !in_current && !get.tried.contains(&ts) {
                        get.untried.insert(ts);
                    }
                }
            }
        }
        if get.current.is_none() {
            self.next_ts(ctx, op);
        } else {
            // New evidence may unblock the current attempt.
            self.maybe_advance(ctx, op);
        }
    }

    /// Non-AMR evidence for `ts` from the KLS side: some KLS reported it
    /// with incomplete metadata, or some KLS provably does not store it.
    fn kls_evidence(get: &GetOp, ts: Timestamp) -> bool {
        get.kls_incomplete.contains(&ts) || get.views.values().any(|v| v.provably_missing(ts))
    }

    /// The paper's `next_ts`: move to the newest untried version, or
    /// finish with failure once every KLS has answered and nothing is
    /// left to try.
    fn next_ts(&mut self, ctx: &mut Context<'_, Message>, op: OpId) {
        let attempt_timeout = self.cfg.get_attempt_timeout;
        let Some(get) = self.gets.get_mut(&op) else {
            return;
        };
        if let Some(old) = get.current.take() {
            ctx.cancel_timer(old.timer);
        }
        match get.untried.iter().next_back().copied() {
            Some(ts) => {
                get.untried.remove(&ts);
                get.tried.insert(ts);
                // lint:allow(panic-path): untried is populated from kls_meta keys
                let meta = Arc::clone(&get.kls_meta[&ts]);
                let ov = ObjectVersion::new(get.key, ts);
                let requests: Vec<(NodeId, FragmentIndex)> = meta
                    .assignments()
                    .map(|(idx, loc)| (loc.fs(), idx))
                    .collect();
                let timer = ctx.schedule_timer(attempt_timeout, TAG_GET_ATTEMPT | op);
                let no_locations = requests.is_empty();
                let mut donors = Donors::default();
                for &(_, idx) in &requests {
                    donors.ask(idx);
                }
                get.current = Some(GetAttempt {
                    ts,
                    meta,
                    donors,
                    // A version with no locations at all is provably not
                    // AMR and immediately hopeless.
                    saw_bottom: no_locations,
                    timer,
                    timed_out: false,
                });
                if no_locations {
                    self.maybe_advance(ctx, op);
                    return;
                }
                for (fs, idx) in requests {
                    ctx.send(
                        fs,
                        Message::RetrieveFrag {
                            op,
                            ov,
                            fragment: idx,
                        },
                    );
                }
            }
            None => {
                // Nothing left from the pages so far: fetch the next page
                // from every KLS that may hold older versions, or fail
                // once every KLS is exhausted.
                let key = get.key;
                let limit = self.cfg.ts_page_size;
                let mut requests = Vec::new();
                let mut all_exhausted = true;
                for (&kls, view) in get.views.iter_mut() {
                    if view.exhausted {
                        continue;
                    }
                    all_exhausted = false;
                    if !view.awaiting {
                        view.awaiting = true;
                        requests.push((kls, view.oldest));
                    }
                }
                if all_exhausted {
                    self.finish_get(ctx, op, None);
                    return;
                }
                for (kls, older_than) in requests {
                    ctx.send(
                        kls,
                        Message::RetrieveTs {
                            op,
                            key,
                            limit,
                            older_than,
                        },
                    );
                }
                // else: wait for pages or the get timeout.
            }
        }
    }

    fn on_retrieve_frag_reply(
        &mut self,
        ctx: &mut Context<'_, Message>,
        op: OpId,
        ov: ObjectVersion,
        fragment: FragmentIndex,
        data: Option<Fragment>,
    ) {
        let Some(get) = self.gets.get_mut(&op) else {
            return;
        };
        let Some(current) = get.current.as_mut() else {
            return;
        };
        if current.ts != ov.ts {
            return; // stale reply from an abandoned attempt
        }
        let bottom = data.is_none();
        if !current.donors.answer(fragment, data) {
            return; // a duplicate: the first copy was handled
        }
        current.saw_bottom |= bottom;
        // can_decode?
        let k = usize::from(current.meta.policy().k);
        if current.donors.received().len() >= k {
            let value_len = current.meta.value_len();
            let policy = *current.meta.policy();
            let mut value = std::mem::take(&mut self.decode_scratch);
            self.codecs
                .get(policy.k, policy.n)
                .decode_into(current.donors.received(), value_len, &mut value)
                // lint:allow(panic-path): k distinct fragments checked above, all checksum-verified
                .expect("k verified fragments decode");
            let blob = Bytes::copy_from_slice(&value);
            self.decode_scratch = value;
            // A successful decode that stepped over a ⊥ reply is a
            // degraded read: the value was recoverable but redundancy is
            // impaired (the repair benchmark's quality-of-service signal).
            if current.saw_bottom {
                ctx.record_event(EV_DEGRADED_READS, 1);
            }
            self.finish_get(ctx, op, Some((ov, blob)));
            return;
        }
        self.maybe_advance(ctx, op);
    }

    /// `can_try_earlier` with patience. The *safety* half is the paper's:
    /// the current version may be abandoned only with proof it is not AMR
    /// (incomplete KLS metadata or a ⊥ fragment — the latest AMR version
    /// never produces either, so it is never skipped). The *liveness*
    /// half keeps the proxy from abandoning a decodable version while
    /// replies are still in flight: it moves on only once the attempt is
    /// hopeless — even if every outstanding request answered with a
    /// fragment it could not reach `k` — or the per-attempt patience
    /// expired.
    fn maybe_advance(&mut self, ctx: &mut Context<'_, Message>, op: OpId) {
        let Some(get) = self.gets.get(&op) else {
            return;
        };
        let Some(current) = get.current.as_ref() else {
            return;
        };
        let not_amr = current.saw_bottom
            || Self::kls_evidence(get, current.ts)
            || !current.meta.is_complete();
        let k = usize::from(current.meta.policy().k);
        let hopeless =
            current.donors.received().len() + current.donors.outstanding() < k || current.timed_out;
        if not_amr && hopeless {
            self.next_ts(ctx, op);
        } else if !not_amr && current.timed_out {
            // Cannot safely try an earlier version and the current one is
            // not answering: the get aborts (§3.5).
            self.finish_get(ctx, op, None);
        }
    }

    fn finish_get(
        &mut self,
        ctx: &mut Context<'_, Message>,
        op: OpId,
        result: Option<(ObjectVersion, Bytes)>,
    ) {
        let Some(get) = self.gets.remove(&op) else {
            return;
        };
        ctx.cancel_timer(get.timer);
        if let Some(current) = get.current {
            ctx.cancel_timer(current.timer);
        }
        ctx.send(get.client, Message::ClientGetReply { op, result });
    }
}

impl Actor<Message> for Proxy {
    fn on_message(&mut self, ctx: &mut Context<'_, Message>, from: NodeId, msg: Message) {
        match msg {
            Message::ClientPut {
                op,
                key,
                value,
                policy,
            } => {
                if self.accept_client_op(from, op) {
                    self.start_put(ctx, from, op, key, value, policy);
                }
            }
            Message::ClientGet { op, key } => {
                if self.accept_client_op(from, op) {
                    self.start_get(ctx, from, op, key);
                }
            }
            Message::DecideLocsReply { ov, dc, locations } => {
                self.on_locations_decided(ctx, ov, dc, locations);
            }
            Message::StoreMetadataReply { ov, complete } => {
                // FSs also acknowledge metadata updates; only KLS
                // acknowledgments feed the AMR condition, and an FS's tells
                // whether its AMR indication needs the metadata.
                if let Some(op) = self.puts.get_mut(&ov) {
                    if complete && self.topo.is_kls(from) {
                        op.kls_complete.insert(from);
                    } else if complete {
                        for idx in op.meta.assigned_to(from) {
                            op.holds_complete.insert(idx);
                        }
                    }
                    self.on_put_progress(ctx, ov);
                }
            }
            Message::StoreFragmentReply { ov, fragment } => {
                if let Some(op) = self.puts.get_mut(&ov) {
                    // The reply necessarily comes from the FS the
                    // fragment is assigned to (stores are only ever sent
                    // there), so the index alone is the ack.
                    op.acked.insert(fragment);
                    self.on_put_progress(ctx, ov);
                }
            }
            Message::RetrieveTsReply {
                op, versions, more, ..
            } => {
                self.on_retrieve_ts_reply(ctx, op, from, versions, more);
            }
            Message::RetrieveFragReply {
                op,
                ov,
                fragment,
                data,
            } => {
                self.on_retrieve_frag_reply(ctx, op, ov, fragment, data);
            }
            other => {
                debug_assert!(false, "proxy received unexpected {:?}", other);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Message>, tag: u64) {
        let low = tag & !TAG_MASK;
        match tag & TAG_MASK {
            TAG_PUT => {
                if let Some(ov) = self.put_seq.get(&low).copied() {
                    // Unreached threshold by the deadline: the client gets
                    // "unknown" (failure); convergence may still finish
                    // the version later.
                    self.finish_put(ctx, ov, false);
                }
            }
            TAG_GET => {
                let op = low;
                if self.gets.contains_key(&op) {
                    self.finish_get(ctx, op, None);
                }
            }
            TAG_GET_ATTEMPT => {
                let op = low;
                if let Some(get) = self.gets.get_mut(&op) {
                    if let Some(current) = get.current.as_mut() {
                        current.timed_out = true;
                        self.maybe_advance(ctx, op);
                    }
                }
            }
            _ => debug_assert!(false, "unknown proxy timer tag {tag:#x}"),
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
    use crate::cluster::{Cluster, ClusterConfig, ClusterLayout};
    use crate::convergence::ConvergenceOptions;
    use crate::policy::Policy;
    use erasure::Codec;
    use simnet::{FaultPlan, SimTime, TraceEvent};
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Tiny cluster: 2 DCs x (1 KLS + 1 FS), policy (2, 4).
    fn tiny_config() -> ClusterConfig {
        let mut cfg = ClusterConfig::paper_default();
        cfg.layout = ClusterLayout {
            dcs: 2,
            kls_per_dc: 1,
            fs_per_dc: 1,
        };
        cfg.policy = Policy::new(2, 4, 2, 2);
        cfg
    }

    #[test]
    fn timestamps_are_unique_and_monotonic_per_proxy() {
        let mut cluster = Cluster::build(tiny_config(), 1);
        cluster.put(b"a", vec![1; 100]);
        cluster.put(b"a", vec![2; 100]);
        cluster.run_to_convergence();
        let client = cluster.client();
        let versions: Vec<_> = client.success_versions().iter().collect();
        assert_eq!(versions.len(), 2);
        assert!(versions[0].ts < versions[1].ts);
        assert_eq!(versions[0].ts.proxy(), versions[1].ts.proxy());
    }

    #[test]
    fn clock_skew_shifts_timestamps() {
        let mut cfg = tiny_config();
        cfg.proxy.clock_skew = SimDuration::from_secs(100);
        let mut cluster = Cluster::build(cfg, 1);
        cluster.put(b"a", vec![1; 10]);
        cluster.run_to_convergence();
        let ov = *cluster.client().success_versions().iter().next().unwrap();
        assert!(
            ov.ts.clock_micros() >= 100_000_000,
            "skew applied: {:?}",
            ov.ts
        );
    }

    #[test]
    fn fully_acked_put_broadcasts_amr_indications() {
        let mut cluster = Cluster::build(tiny_config(), 3);
        cluster.put(b"x", vec![9; 500]);
        let report = cluster.run_to_convergence();
        assert_eq!(cluster.proxy().puts_fully_acked(), 1);
        // One indication per sibling FS (2 FSs in the tiny world).
        assert_eq!(report.metrics.kind("AMRIndication").count, 2);
    }

    #[test]
    fn duplicated_client_ops_start_one_operation_each() {
        let mut cfg = tiny_config();
        cfg.network = simnet::NetworkConfig {
            duplicate_rate: 1.0,
            ..simnet::NetworkConfig::paper_default()
        };
        let mut cluster = Cluster::build(cfg, 4);
        for i in 0..5u8 {
            cluster.put(&[i], vec![i; 100]);
        }
        cluster.run_to_convergence();
        assert!(cluster.sim().metrics().duplicated() > 0);
        // Every put reached the proxy twice and ran once.
        assert_eq!(cluster.proxy().puts_fully_acked(), 5);
        // Five operations, one idempotence mark.
        let marks: Vec<NodeId> = cluster.proxy().marked_clients().collect();
        assert_eq!(marks, [cluster.layout().client()]);
    }

    /// A scripted server for the put tests in stub worlds:
    /// as a KLS (`decides` set) it answers a location request with its
    /// data center's decision after `delay`; as any server it acknowledges
    /// fragments and — if `answers_metadata` — metadata updates at once,
    /// and keeps every message it receives.
    struct Stub {
        decides: Option<(DataCenterId, Vec<crate::metadata::Location>)>,
        delay: SimDuration,
        answers_metadata: bool,
        owed: Vec<(NodeId, Message)>,
        inbox: Vec<Message>,
    }

    impl Stub {
        fn server(answers_metadata: bool) -> Self {
            Stub {
                decides: None,
                delay: SimDuration::ZERO,
                answers_metadata,
                owed: Vec::new(),
                inbox: Vec::new(),
            }
        }
    }

    impl Actor<Message> for Stub {
        fn on_message(&mut self, ctx: &mut Context<'_, Message>, from: NodeId, msg: Message) {
            match &msg {
                Message::DecideLocs { ov, .. } => {
                    let (dc, locations) = self.decides.clone().expect("only KLSs decide");
                    let ov = *ov;
                    let reply = Message::DecideLocsReply { ov, dc, locations };
                    self.owed.push((from, reply));
                    ctx.schedule_timer(self.delay, 0);
                }
                Message::StoreMetadata { ov, meta } if self.answers_metadata => {
                    let (ov, complete) = (*ov, meta.is_complete());
                    ctx.send(from, Message::StoreMetadataReply { ov, complete });
                }
                Message::StoreFragment { ov, fragment, .. } => {
                    let (ov, fragment) = (*ov, fragment.index());
                    ctx.send(from, Message::StoreFragmentReply { ov, fragment });
                }
                _ => {}
            }
            self.inbox.push(msg);
        }
        fn on_timer(&mut self, ctx: &mut Context<'_, Message>, _tag: u64) {
            for (to, msg) in self.owed.drain(..) {
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

    /// Sends its proxy one client request at start and keeps the answers.
    struct Requester {
        proxy: NodeId,
        request: Option<Message>,
        answers: Vec<Message>,
    }

    impl Requester {
        fn new(proxy: NodeId, request: Message) -> Self {
            Requester {
                proxy,
                request: Some(request),
                answers: Vec::new(),
            }
        }
    }

    /// A put of 400 bytes under key 7 with `policy`.
    fn put_request(policy: Policy) -> Message {
        Message::ClientPut {
            op: 1,
            key: Key::from_u64(7),
            value: Bytes::from(vec![5u8; 400]),
            policy,
        }
    }

    impl Actor<Message> for Requester {
        fn on_start(&mut self, ctx: &mut Context<'_, Message>) {
            if let Some(request) = self.request.take() {
                ctx.send(self.proxy, request);
            }
        }
        fn on_message(&mut self, _: &mut Context<'_, Message>, _: NodeId, msg: Message) {
            self.answers.push(msg);
        }
        fn on_timer(&mut self, _: &mut Context<'_, Message>, _: u64) {}
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// Every link takes exactly 10 ms.
    fn fixed_latency() -> simnet::NetworkConfig {
        simnet::NetworkConfig {
            latency_min: SimDuration::from_millis(10),
            latency_max: SimDuration::from_millis(10),
            ..simnet::NetworkConfig::paper_default()
        }
    }

    /// The `StoreMetadata` updates stub `node` received, each as the data
    /// centers it knew.
    fn updates(sim: &simnet::Simulation<Message>, node: NodeId) -> Vec<Vec<DataCenterId>> {
        let stub: &Stub = sim.actor(node);
        stub.inbox
            .iter()
            .filter_map(|msg| match msg {
                Message::StoreMetadata { meta, .. } => Some(meta.decided_dcs().collect()),
                _ => None,
            })
            .collect()
    }

    /// One put of policy (2, 8) over four data centers of one KLS and two
    /// FSs each (DC `d` is n`3d`, n`3d + 1` and n`3d + 2`), whose KLSs
    /// decide 100 ms apart; DC 3's KLS answers only if `dc3_answers`. Runs
    /// past the put's 3 s time-out.
    fn four_dc_put(dc3_answers: bool) -> simnet::Simulation<Message> {
        use crate::metadata::Location;

        let id = NodeId::new;
        let topo = Topology::new(
            (0..4)
                .map(|d| (vec![id(3 * d)], vec![id(3 * d + 1), id(3 * d + 2)]))
                .collect(),
        );
        let mut sim = simnet::Simulation::with_network(3, fixed_latency(), FaultPlan::none());
        for d in 0..4u8 {
            let first = 3 * u32::from(d);
            let delay = if d < 3 || dc3_answers {
                SimDuration::from_millis(100 * u64::from(d))
            } else {
                SimDuration::from_secs(3600)
            };
            let locations = [first + 1, first + 2]
                .map(|fs| Location::new(id(fs), 0))
                .to_vec();
            sim.add_actor(Stub {
                decides: Some((DataCenterId::new(d), locations)),
                delay,
                ..Stub::server(true)
            });
            sim.add_actor(Stub::server(true));
            sim.add_actor(Stub::server(true));
        }
        let proxy = sim.add_actor(Proxy::new(
            topo,
            DataCenterId::new(0),
            0,
            ProxyConfig::default(),
        ));
        sim.add_actor(Requester::new(proxy, put_request(Policy::new(2, 8, 4, 1))));
        sim.run_until_time(SimTime::ZERO + SimDuration::from_secs(4));
        sim
    }

    /// The first `n` data centers.
    fn first_dcs(n: u8) -> Vec<DataCenterId> {
        (0..n).map(DataCenterId::new).collect()
    }

    /// On four data centers a put announces its metadata on the first
    /// answer, to every KLS, and on the completing one, to every KLS and
    /// the FSs of DCs 0–2. DC 3's FSs learn it from their fragments.
    #[test]
    fn a_put_announces_its_metadata_on_the_first_and_the_completing_answer() {
        let sim = four_dc_put(true);
        for d in 0..4u32 {
            let kls = updates(&sim, NodeId::new(3 * d));
            assert_eq!(kls, [first_dcs(1), first_dcs(4)], "KLS of DC {d}");
            let expected = if d < 3 { vec![first_dcs(4)] } else { vec![] };
            for fs in [3 * d + 1, 3 * d + 2] {
                assert_eq!(updates(&sim, NodeId::new(fs)), expected, "FS n{fs}");
            }
        }
    }

    /// DC 3 never answers, so the put times out with DC 2's snapshot
    /// withheld. It goes out then, to every KLS and to the FSs of DCs 0
    /// and 1; DC 2's FSs hold it with their fragments.
    #[test]
    fn a_withheld_snapshot_goes_out_at_the_put_time_out() {
        let sim = four_dc_put(false);
        for d in 0..4u32 {
            let kls = updates(&sim, NodeId::new(3 * d));
            assert_eq!(kls, [first_dcs(1), first_dcs(3)], "KLS of DC {d}");
            let expected = if d < 2 { vec![first_dcs(3)] } else { vec![] };
            for fs in [3 * d + 1, 3 * d + 2] {
                assert_eq!(updates(&sim, NodeId::new(fs)), expected, "FS n{fs}");
            }
        }
    }

    /// A scripted KLS for the get test: answers every timestamp request
    /// with all of `versions`, newest first.
    struct TsStub {
        versions: Vec<(Timestamp, Arc<Metadata>)>,
    }

    impl Actor<Message> for TsStub {
        fn on_message(&mut self, ctx: &mut Context<'_, Message>, from: NodeId, msg: Message) {
            if let Message::RetrieveTs { op, key, .. } = msg {
                let (versions, more) = (self.versions.clone(), false);
                ctx.send(
                    from,
                    Message::RetrieveTsReply {
                        op,
                        key,
                        versions,
                        more,
                    },
                );
            }
        }
        fn on_timer(&mut self, _: &mut Context<'_, Message>, _: u64) {}
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// A scripted FS for the get test: answers each `RetrieveFrag` with
    /// the fragment it holds for that version, or ⊥, `copies` times (as a
    /// duplicating channel would deliver it) after `delay`.
    struct FragStub {
        held: Vec<(Timestamp, Fragment)>,
        delay: SimDuration,
        copies: usize,
        owed: Vec<(NodeId, Message)>,
    }

    impl Actor<Message> for FragStub {
        fn on_message(&mut self, ctx: &mut Context<'_, Message>, from: NodeId, msg: Message) {
            if let Message::RetrieveFrag { op, ov, fragment } = msg {
                let data = self
                    .held
                    .iter()
                    .find(|(ts, _)| *ts == ov.ts)
                    .map(|(_, frag)| frag.clone());
                for _ in 0..self.copies {
                    let data = data.clone();
                    let reply = Message::RetrieveFragReply {
                        op,
                        ov,
                        fragment,
                        data,
                    };
                    self.owed.push((from, reply));
                }
                ctx.schedule_timer(self.delay, 0);
            }
        }
        fn on_timer(&mut self, ctx: &mut Context<'_, Message>, _tag: u64) {
            for (to, msg) in self.owed.drain(..) {
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

    /// A get of a version whose twelve FSs answer six ⊥ twice and at once
    /// (the channel duplicated them), four with their fragment 200 ms
    /// later, and two never. Those four decode, so the get must wait for
    /// them: counting the duplicates as answers would call the version
    /// hopeless and fall back to the older one the ⊥ FSs hold.
    #[test]
    fn a_duplicated_fragment_reply_counts_once_in_a_get() {
        use crate::metadata::Location;

        let id = NodeId::new;
        // One data center: KLS n0, and FSs n1–n12 holding fragments 0–11.
        let topo = Topology::new(vec![(vec![id(0)], (1..=12).map(id).collect())]);
        let codec = Codec::new(4, 12).expect("a valid code");
        let older = Timestamp::new(SimTime::ZERO, 0);
        let newer = Timestamp::new(SimTime::ZERO + SimDuration::from_secs(1), 0);
        let values = [vec![1u8; 400], vec![2u8; 400]];
        let [old_frags, new_frags] = values.clone().map(|value| codec.encode(&value));
        let mut meta = Metadata::new(Policy::new(4, 12, 1, 1), DataCenterId::new(0), 400);
        let locations = (1..=12).map(|fs| Location::new(id(fs), 0));
        meta.add_dc_locations(DataCenterId::new(0), locations.collect());
        let meta = Arc::new(meta);

        let mut sim = simnet::Simulation::with_network(3, fixed_latency(), FaultPlan::none());
        sim.add_actor(TsStub {
            versions: vec![(newer, Arc::clone(&meta)), (older, meta)],
        });
        for (old, new) in old_frags.into_iter().zip(new_frags) {
            let fs = match old.index() {
                0..=5 => FragStub {
                    held: vec![(older, old)],
                    delay: SimDuration::ZERO,
                    copies: 2,
                    owed: Vec::new(),
                },
                6..=9 => FragStub {
                    held: vec![(older, old), (newer, new)],
                    delay: SimDuration::from_millis(200),
                    copies: 1,
                    owed: Vec::new(),
                },
                _ => FragStub {
                    held: Vec::new(),
                    delay: SimDuration::ZERO,
                    copies: 0,
                    owed: Vec::new(),
                },
            };
            sim.add_actor(fs);
        }
        let proxy = sim.add_actor(Proxy::new(
            topo,
            DataCenterId::new(0),
            0,
            ProxyConfig::default(),
        ));
        let get = Message::ClientGet {
            op: 1,
            key: Key::from_u64(7),
        };
        let client = sim.add_actor(Requester::new(proxy, get));
        sim.run_until_time(SimTime::ZERO + SimDuration::from_secs(2));

        let client: &Requester = sim.actor(client);
        match client.answers.as_slice() {
            [Message::ClientGetReply {
                result: Some((ov, value)),
                ..
            }] => {
                assert_eq!(ov.ts, newer, "fell back to the older version");
                assert_eq!(value.to_vec(), values[1]);
            }
            other => panic!("expected one answer with a value: {other:?}"),
        }
    }

    /// DC0 (KLS n0, FSs n1 and n2) decides first and DC1 (KLS n3, FSs n4
    /// and n5) 100 ms later, so DC1's fragments carry complete metadata and
    /// DC0's FSs learn it from the second wave's update, which n1 answers
    /// and n2 never does. Every link takes exactly 10 ms, so n1's answer is
    /// in before the last fragment acknowledgment.
    #[test]
    fn put_amr_indications_carry_metadata_only_as_news() {
        use crate::messages::{HEADER_BYTES, OV_BYTES};
        use crate::metadata::Location;

        let id = NodeId::new;
        let topo = Topology::new(vec![
            (vec![id(0)], vec![id(1), id(2)]),
            (vec![id(3)], vec![id(4), id(5)]),
        ]);
        let placed = |fss: [u32; 2]| fss.map(|fs| Location::new(id(fs), 0)).to_vec();
        let kls = |dc, fss, delay| Stub {
            decides: Some((DataCenterId::new(dc), placed(fss))),
            delay,
            ..Stub::server(true)
        };
        let network = simnet::NetworkConfig {
            latency_min: SimDuration::from_millis(10),
            latency_max: SimDuration::from_millis(10),
            ..simnet::NetworkConfig::paper_default()
        };
        let mut sim = simnet::Simulation::with_network(3, network, FaultPlan::none());
        let trace = Rc::new(RefCell::new(Vec::<TraceEvent>::new()));
        sim.observe(Rc::clone(&trace));
        sim.add_actor(kls(0, [1, 2], SimDuration::ZERO));
        sim.add_actor(Stub::server(true));
        sim.add_actor(Stub::server(false));
        sim.add_actor(kls(1, [4, 5], SimDuration::from_millis(100)));
        sim.add_actor(Stub::server(true));
        sim.add_actor(Stub::server(true));
        let proxy = sim.add_actor(Proxy::new(
            topo,
            DataCenterId::new(0),
            0,
            ProxyConfig::default(),
        ));
        sim.add_actor(Requester::new(proxy, put_request(Policy::new(2, 4, 2, 1))));
        sim.run_until_time(SimTime::ZERO + SimDuration::from_secs(1));
        assert_eq!(sim.actor::<Proxy>(proxy).puts_fully_acked(), 1);

        // The indication each FS received: with metadata only for n2.
        let indication = |fs: u32| {
            let stub: &Stub = sim.actor(id(fs));
            let mut got = stub.inbox.iter().filter_map(|msg| match msg {
                Message::AmrIndication { meta, .. } => Some(meta.clone()),
                _ => None,
            });
            let meta = got.next().expect("one indication");
            assert!(got.next().is_none());
            meta
        };
        let full = indication(2).expect("n2 never confirmed the update");
        assert!(full.is_complete());
        for fs in [1, 4, 5] {
            assert!(indication(fs).is_none(), "n{fs} holds complete metadata");
        }
        // Priced as the fields carried.
        let mut sent: Vec<(NodeId, usize)> = trace
            .borrow()
            .iter()
            .filter(|e| e.kind == "AMRIndication")
            .map(|e| (e.to, e.bytes))
            .collect();
        sent.sort();
        let lean = HEADER_BYTES + OV_BYTES;
        assert_eq!(
            sent,
            [
                (id(1), lean),
                (id(2), lean + full.wire_size()),
                (id(4), lean),
                (id(5), lean),
            ]
        );
    }

    #[test]
    fn put_amr_disabled_still_fully_acks_without_indications() {
        let mut cfg = tiny_config();
        cfg.convergence = ConvergenceOptions::naive();
        let mut cluster = Cluster::build(cfg, 3);
        cluster.put(b"x", vec![9; 500]);
        let report = cluster.run_to_convergence();
        assert_eq!(cluster.proxy().puts_fully_acked(), 1);
        assert_eq!(report.metrics.kind("AMRIndication").count, 0);
    }

    #[test]
    fn put_fails_cleanly_when_no_fragments_can_be_stored() {
        // Both FSs unreachable forever: the put can never meet its
        // threshold; the proxy must answer failure at its timeout, and
        // the client will retry until the harness deadline.
        let layout = ClusterLayout {
            dcs: 2,
            kls_per_dc: 1,
            fs_per_dc: 1,
        };
        let mut faults = FaultPlan::none();
        let forever = SimDuration::from_secs(100_000);
        faults.add_node_outage(layout.fs(0, 0), SimTime::ZERO, forever);
        faults.add_node_outage(layout.fs(1, 0), SimTime::ZERO, forever);
        let mut cfg = tiny_config();
        cfg.max_sim_time = SimDuration::from_secs(30);
        let mut cluster = Cluster::build_with_faults(cfg, 5, faults);
        cluster.put(b"doomed", vec![1; 100]);
        let report = cluster.run_to_convergence();
        assert_eq!(report.puts_succeeded, 0);
        assert!(report.puts_attempted >= 2, "client kept retrying");
        assert_eq!(report.amr_versions, 0);
    }

    #[test]
    fn get_of_missing_key_fails_after_all_kls_answer() {
        let mut cluster = Cluster::build(tiny_config(), 6);
        cluster.put(b"exists", vec![3; 64]);
        cluster.run_to_convergence();
        assert_eq!(cluster.get(b"never-written"), None);
        // The failure came from exhaustive KLS answers, not a timeout:
        // well under the 5 s get timeout.
        assert!(cluster.sim().now().as_secs_f64() < 60.0);
    }

    #[test]
    fn get_decodes_from_partial_replies_during_outage() {
        // One FS down: its two fragments are unreachable, but the other
        // FS's two fragments are exactly k and must decode.
        let layout = ClusterLayout {
            dcs: 2,
            kls_per_dc: 1,
            fs_per_dc: 1,
        };
        let outage_start = SimTime::ZERO + SimDuration::from_secs(60);
        let mut faults = FaultPlan::none();
        faults.add_node_outage(layout.fs(1, 0), outage_start, SimDuration::from_secs(600));
        let mut cluster = Cluster::build_with_faults(tiny_config(), 8, faults);
        cluster.put(b"k", vec![0xAB; 4000]);
        cluster.run_to_convergence();
        cluster
            .sim_mut()
            .run_until_time(outage_start + SimDuration::from_secs(5));
        assert_eq!(cluster.get(b"k"), Some(vec![0xAB; 4000]));
    }

    #[test]
    fn proxy_codec_cache_reuses_instances() {
        let topo = crate::topology::Topology::new(vec![(
            vec![simnet::NodeId::new(0)],
            vec![simnet::NodeId::new(1)],
        )]);
        let mut proxy = Proxy::new(topo, DataCenterId::new(0), 0, ProxyConfig::default());
        let a = proxy.codecs.get(2, 4) as *const Codec;
        let b = proxy.codecs.get(2, 4) as *const Codec;
        assert_eq!(a, b, "same parameters reuse the cached codec");
        let c = proxy.codecs.get(4, 12) as *const Codec;
        assert_ne!(a, c);
    }
}
