//! The round/step loop (§3.4, Fig. 4): when a round fires, which pending
//! versions it steps, what a step does — metadata repair, fragment recovery
//! (`recovery.rs`), verification, or under batched rounds a re-ask of the
//! silent siblings alone — and the handlers for round traffic, which leaves
//! through the [`Outbox`].

use std::sync::Arc;

use erasure::FragmentIndex;
use simnet::{Context, NodeId, SimTime};

use super::store::{ConvWork, RecoveryPhase, Slot, Step};
use super::{FragEntry, Fs, TAG_ROUND};
use crate::convergence::{RoundSchedule, SYNC_PERIOD};
use crate::messages::Message;
use crate::metadata::Metadata;
use crate::protocol::{FragMap, FragMask};
use crate::types::ObjectVersion;

/// Where an FS's round traffic leaves from: convergence probes, the
/// replies to a sibling's probes, and FS AMR indications.
///
/// Batching ([`ProtocolMode::batch_rounds`]) holds each message until the
/// dispatch that produced it ends and then sends, per destination and kind
/// label, one [`Message::Batch`] — through the ordinary `ctx.send`, so the
/// network blocks, drops, duplicates, delays and traces it as the single
/// message it is. What a step decides and when its version next steps were
/// settled before the message was posted, so a lost batch costs each of
/// its versions exactly what a lost probe costs today: the step stays
/// unanswered and the version retries on its own back-off.
///
/// [`ProtocolMode::batch_rounds`]: crate::protocol::ProtocolMode::batch_rounds
#[derive(Debug)]
pub(super) struct Outbox {
    batching: bool,
    /// This dispatch's batches so far, in first-emission order: destination,
    /// kind id, and the messages of that kind posted for it. Empty between
    /// dispatches, and always when not batching.
    batches: Vec<(NodeId, usize, Vec<Message>)>,
}

impl Outbox {
    pub(super) fn new(batching: bool) -> Self {
        Outbox {
            batching,
            batches: Vec::new(),
        }
    }

    /// Whether round traffic goes out batched.
    pub(super) fn batching(&self) -> bool {
        self.batching
    }

    /// Sends `msg` to `to`: at once, or — batching — with the rest of what
    /// this dispatch posts of its kind for `to`.
    // lint:hot
    pub(super) fn post(&mut self, ctx: &mut Context<'_, Message>, to: NodeId, msg: Message) {
        use simnet::Payload;
        if !self.batching {
            ctx.send(to, msg);
            return;
        }
        let kind = msg.kind_id();
        let open = self
            .batches
            .iter_mut()
            .find(|(dest, of_kind, _)| *dest == to && *of_kind == kind);
        match open {
            Some((.., entries)) => entries.push(msg),
            None => self.batches.push((to, kind, vec![msg])),
        }
    }

    /// Ends the dispatch: every batch goes out as one message.
    pub(super) fn flush(&mut self, ctx: &mut Context<'_, Message>) {
        for (to, _, entries) in self.batches.drain(..) {
            ctx.send(to, Message::Batch(entries));
        }
    }
}

impl Fs {
    pub(super) fn ensure_round(&mut self, ctx: &mut Context<'_, Message>) {
        if self.round_scheduled || self.store.pending_is_empty() {
            return;
        }
        let delay = match self.opts.schedule {
            RoundSchedule::Unsynchronized => {
                let lo = self.opts.round_min.as_micros();
                let hi = self.opts.round_max.as_micros();
                simnet::SimDuration::from_micros(rand::Rng::random_range(ctx.rng(), lo..=hi))
            }
            RoundSchedule::Synchronized => {
                // Fire at the next global multiple of the period.
                let period = SYNC_PERIOD.as_micros();
                let now = ctx.now().as_micros();
                let next = (now / period + 1) * period;
                simnet::SimDuration::from_micros(next - now)
            }
        };
        ctx.schedule_timer(delay, TAG_ROUND);
        self.round_scheduled = true;
    }

    /// New information arrived for `s`'s version: reset its backoff so
    /// convergence reacts promptly, and make sure a round is coming.
    pub(super) fn note_progress(&mut self, ctx: &mut Context<'_, Message>, s: Slot) {
        if let Some(work) = self.store.work_mut(s) {
            work.attempts = 0;
            work.next_eligible = ctx.now();
        }
        self.ensure_round(ctx);
    }

    /// Sends every other sibling of `s`'s version a convergence probe — or,
    /// for a re-ask, only those not in its `fs_ok` — noting for each when
    /// it was first probed without answering since.
    pub(super) fn probe_siblings(
        &mut self,
        ctx: &mut Context<'_, Message>,
        s: Slot,
        meta: &Arc<Metadata>,
        recovery_intent: bool,
        reask: bool,
    ) {
        let me = ctx.self_id();
        for fs in meta.siblings().filter(|&fs| fs != me) {
            if reask && self.store.work(s).is_some_and(|w| w.fs_ok.contains(&fs)) {
                continue;
            }
            self.silent_since.entry(fs).or_insert(ctx.now());
            let probe = Message::ConvergeFs {
                ov: s.ov(),
                meta: Arc::clone(meta),
                recovery_intent,
            };
            self.outbox.post(ctx, fs, probe);
        }
    }

    /// A message from `from` arrived. If `from` is a sibling that has owed
    /// this FS an answer for longer than `round_min`, it was unreachable and
    /// is back, and the versions whose steps kept failing on it sit out a
    /// back-off of up to `backoff_cap` before anyone tells it about them.
    /// Each version whose last verification step `from` alone left
    /// unanswered gets [`note_progress`](Fs::note_progress) treatment here
    /// instead — at its one re-prober only, so the returned FS's backlog is
    /// not probed by every sibling at once. Local bookkeeping: no message,
    /// timer or RNG draw beyond `ensure_round`.
    pub(super) fn heard_from(&mut self, ctx: &mut Context<'_, Message>, from: NodeId) {
        let Some(since) = self.silent_since.remove(&from) else {
            return;
        };
        let now = ctx.now();
        if !self.silent_long(since, now) {
            return;
        }
        let me = ctx.self_id();
        let mut versions = std::mem::take(&mut self.version_scratch);
        self.store.collect_pending(&mut versions);
        let mut revived = false;
        for &s in &versions {
            let waited_on_it = match (self.store.entry(s), self.store.work(s)) {
                (Some(entry), Some(work)) => {
                    Self::reprober(&entry.meta, from) == Some(me)
                        && Self::only_unanswered(&entry.meta, work, me, from)
                }
                _ => false,
            };
            if let Some(work) = self.store.work_mut(s).filter(|_| waited_on_it) {
                work.attempts = 0;
                work.next_eligible = now;
                revived = true;
            }
        }
        versions.clear();
        self.version_scratch = versions;
        if revived {
            self.ensure_round(ctx);
        }
    }

    /// The sibling that re-probes a version when its sibling `back` speaks
    /// again after a silence: the lowest-id sibling other than `back`, if
    /// the version names `back` at all.
    fn reprober(meta: &Metadata, back: NodeId) -> Option<NodeId> {
        if !meta.siblings().any(|fs| fs == back) {
            return None;
        }
        meta.siblings().find(|&fs| fs != back)
    }

    /// Whether `work`'s last step was a verification step (or a re-ask)
    /// that every sibling but `back` answered verified. A version also
    /// waiting on another sibling, on a recovery or on its metadata would
    /// fail its re-probe again, so `back` speaking is no news for it.
    fn only_unanswered(meta: &Metadata, work: &ConvWork, me: NodeId, back: NodeId) -> bool {
        work.step != Step::Closed
            && !work.fs_ok.contains(&back)
            && meta
                .siblings()
                .all(|fs| fs == me || fs == back || work.fs_ok.contains(&fs))
    }

    /// Whether a sibling that has owed this FS an answer since `since` has
    /// been silent for longer than `round_min`: unreachable, not slow.
    fn silent_long(&self, since: SimTime, now: SimTime) -> bool {
        now.duration_since(since) > self.opts.round_min
    }

    /// Whether the answers kept from `work`'s last verification step leave
    /// only silent siblings to ask: every KLS verified, and so did every
    /// sibling but one or more that have been silent longer than
    /// `round_min`.
    // lint:hot
    fn only_silent_unanswered(
        &self,
        meta: &Metadata,
        work: &ConvWork,
        me: NodeId,
        now: SimTime,
    ) -> bool {
        let mut unanswered = meta
            .siblings()
            .filter(|&fs| fs != me && !work.fs_ok.contains(&fs))
            .peekable();
        work.kls_ok.len() >= self.total_klss
            && unanswered.peek().is_some()
            && unanswered.all(|fs| {
                self.silent_since
                    .get(&fs)
                    .is_some_and(|&since| self.silent_long(since, now))
            })
    }

    /// Ensures the store tracks `ov` (pending unless it is already
    /// settled) and merges `meta` in: the one index probe of a message
    /// that carries metadata. Returns `ov`'s slot, or `None` if it was
    /// compacted: it is settled AMR with complete metadata, so a full
    /// store's merge would be a no-op and, settled, schedule nothing.
    // lint:hot
    pub(super) fn adopt(
        &mut self,
        ctx: &mut Context<'_, Message>,
        ov: ObjectVersion,
        meta: &Arc<Metadata>,
    ) -> Option<Slot> {
        let now = ctx.now();
        let (s, entry) = self.store.adopt(ov, now, || FragEntry {
            meta: Arc::clone(meta),
            fragments: FragMap::new(),
        })?;
        let changed = Metadata::merge_shared(&mut entry.meta, meta);
        if self.store.work(s).is_some() {
            if changed {
                self.note_progress(ctx, s);
            } else {
                self.ensure_round(ctx);
            }
        }
        Some(s)
    }

    /// Marks `s`'s version AMR: drop convergence work, optionally broadcast
    /// FS AMR indications. Compaction may vacate `s`.
    fn finalize_amr(&mut self, ctx: &mut Context<'_, Message>, s: Slot, indicate: bool) {
        let newly_settled = self.store.amr_at(s).is_none();
        if let Some(work) = self.store.settle_amr(s, ctx.now()) {
            if let Some(rec) = work.recovery {
                self.cancel_recovery_timers(ctx, &rec);
            }
        }
        if indicate && self.opts.fs_amr_indication {
            // `check_amr` settles only on every sibling answering
            // "verified", which takes complete metadata, and metadata never
            // shrinks: the indications carry the version alone.
            let me = ctx.self_id();
            let meta = Arc::clone(
                &self
                    .store
                    .entry(s)
                    // lint:allow(panic-path): settled versions stay stored
                    .expect("settled versions are stored")
                    .meta,
            );
            let ov = s.ov();
            for fs in meta.siblings() {
                if fs != me {
                    self.outbox
                        .post(ctx, fs, Message::AmrIndication { ov, meta: None });
                }
            }
        }
        // A newly settled AMR version supersedes every older settled
        // version of the same key: collapse those to residual records.
        // Pure local bookkeeping: no messages, timers or RNG draws. Run
        // on the first settle only (re-indications re-stamp the AMR time but open no new
        // compaction opportunity), which with the incremental walk in
        // [`VersionStore::compact_superseded`] keeps hot-key settles
        // amortized O(1).
        if newly_settled {
            self.store.compact_superseded(s);
        }
    }

    /// Runs one convergence round (the paper's `start_round`).
    // lint:hot
    pub(super) fn run_round(&mut self, ctx: &mut Context<'_, Message>) {
        let now = ctx.now();
        let mut versions = std::mem::take(&mut self.version_scratch);
        self.store.collect_pending(&mut versions);
        for &s in &versions {
            let Some(work) = self.store.work(s) else {
                continue;
            };
            if work.recovery.is_some() || now < work.next_eligible {
                continue;
            }
            // `min_age` is on the version's own age (its stamp is a proxy
            // clock reading), not on how long this FS has known of it.
            let age_us = now.as_micros().saturating_sub(s.ov().ts.clock_micros());
            if age_us < self.opts.min_age.as_micros() {
                continue;
            }
            if let Some(limit) = self.opts.give_up_age {
                if now.duration_since(work.created) > limit {
                    self.store.settle_gave_up(s);
                    continue;
                }
            }
            self.step(ctx, s);
        }
        versions.clear();
        self.version_scratch = versions;
        self.ensure_round(ctx);
    }

    /// One convergence step for one object version.
    // lint:hot
    fn step(&mut self, ctx: &mut Context<'_, Message>, s: Slot) {
        self.steps_run += 1;
        let me = ctx.self_id();
        let ov = s.ov();
        let entry = self
            .store
            .entry(s)
            // lint:allow(panic-path): step runs only over the pending listing
            .expect("pending implies stored");
        let meta = Arc::clone(&entry.meta);
        let missing = Self::missing_mask(entry, me);
        let verifying = meta.is_complete() && missing.is_empty();
        // Batched rounds re-ask only the silent siblings while the last
        // verification step's other answers stand.
        let reask = verifying
            && self.outbox.batching()
            && self
                .store
                .work(s)
                .is_some_and(|work| self.only_silent_unanswered(&meta, work, me, ctx.now()));

        // Charge the backoff up front; any new information resets it.
        let attempt = {
            // lint:allow(panic-path): step already verified the version is pending
            let work = self.store.work_mut(s).expect("checked by caller");
            work.attempts += 1;
            let delay = self.opts.backoff_delay(work.attempts);
            work.next_eligible = ctx.now() + delay;
            // Answers are kept only for a re-ask: any other step starts
            // afresh, so kept answers always come from a verification step.
            work.step = if reask {
                Step::Reasking
            } else {
                work.kls_ok.clear();
                work.fs_ok.clear();
                if verifying {
                    Step::Verifying
                } else {
                    Step::Closed
                }
            };
            work.attempts as usize
        };

        if reask {
            // 3'. Re-ask: what the last verification step lacked, from the
            // siblings that owe it; `check_amr` settles nothing on it.
            self.probe_siblings(ctx, s, &meta, false, true);
        } else if !meta.is_complete() {
            // 1. Metadata repair: probe one KLS per missing DC, rotating
            // through the DC's KLSs across attempts (§3.5 fixed order).
            for dc in self.topo.dc_ids() {
                if meta.has_dc(dc) {
                    continue;
                }
                let klss = self.topo.klss_in(dc);
                // lint:allow(panic-path): every DC has at least one KLS (topology invariant)
                let kls = klss[(attempt - 1) % klss.len()];
                ctx.send(
                    kls,
                    Message::FsDecideLocs {
                        ov,
                        meta: Arc::clone(&meta),
                    },
                );
            }
        } else if !missing.is_empty() {
            // 2. Fragment recovery.
            self.start_recovery(ctx, s);
        } else {
            // 3. Verification: probe all KLSs and sibling FSs.
            for kls in self.topo.all_klss() {
                let meta = Arc::clone(&meta);
                self.outbox
                    .post(ctx, kls, Message::ConvergeKls { ov, meta });
            }
            self.probe_siblings(ctx, s, &meta, false, false);
            self.check_amr(ctx, s);
        }
    }

    /// A silent sibling answered a re-ask of `s`'s version verified: it is
    /// back and whole, so the kept answers are moot. Forget them and run a
    /// full verification step now, from a reset back-off.
    fn verify_afresh(&mut self, ctx: &mut Context<'_, Message>, s: Slot) {
        let Some(work) = self.store.work_mut(s) else {
            return;
        };
        work.attempts = 0;
        work.kls_ok.clear();
        work.fs_ok.clear();
        self.step(ctx, s);
    }

    /// Fragment indices assigned to `me` that are not in the store.
    // lint:hot
    pub(super) fn missing_mask(entry: &FragEntry, me: NodeId) -> FragMask {
        let mut mask = FragMask::new();
        for idx in entry.meta.assigned_to(me) {
            if !entry.fragments.contains_key(&idx) {
                mask.insert(idx);
            }
        }
        mask
    }

    /// Records a verification-step reply and finalizes AMR when everyone
    /// verified (the paper's `is_amr`) — in answer to one verification
    /// step, never to kept answers and a re-ask.
    fn check_amr(&mut self, ctx: &mut Context<'_, Message>, s: Slot) {
        let me = ctx.self_id();
        let Some(work) = self.store.work(s) else {
            return;
        };
        if work.step != Step::Verifying {
            return;
        }
        // `kls_ok` only ever holds KLSs that replied verified, so reaching
        // the cluster's KLS count is the seed's superset-of-all-KLSs test
        // without rebuilding that set per reply.
        if work.kls_ok.len() < self.total_klss {
            return;
        }
        // lint:allow(panic-path): pending versions are always stored
        let entry = self.store.entry(s).expect("pending implies stored");
        let all_siblings_ok = entry
            .meta
            .siblings()
            .filter(|&fs| fs != me)
            .all(|fs| work.fs_ok.contains(&fs));
        if all_siblings_ok && Self::entry_verified(entry, me) {
            self.finalize_amr(ctx, s, true);
        }
    }

    /// Handles one FS convergence probe.
    fn on_converge_fs(
        &mut self,
        ctx: &mut Context<'_, Message>,
        from: NodeId,
        ov: ObjectVersion,
        meta: &Arc<Metadata>,
        recovery_intent: bool,
    ) {
        let me = ctx.self_id();
        let s = self.adopt(ctx, ov, meta);
        // Sibling-recovery contention: both of us are recovering — the FS
        // with the *lower* id backs off (§4.2).
        if let Some(s) = s.filter(|_| recovery_intent && self.opts.sibling_recovery && me < from) {
            self.abort_recovery(ctx, s);
        }
        let live = s.and_then(|s| Some((self.store.entry(s)?, self.store.work(s))));
        let (have, missing, verified, recovering): (Vec<FragmentIndex>, Vec<FragmentIndex>, _, _) =
            match live {
                Some((entry, work)) => {
                    let have: Vec<FragmentIndex> = entry.fragments.keys().copied().collect();
                    let missing = if entry.meta.is_complete() {
                        Self::missing_mask(entry, me).iter().collect()
                    } else {
                        Vec::new()
                    };
                    let recovering = work.is_some_and(|w| w.recovery.is_some());
                    let verified = Self::entry_verified(entry, me);
                    // "Verified, holding nothing" means "compacted": probes
                    // go to siblings only, and a sibling's share is never
                    // empty.
                    debug_assert!(!verified || !have.is_empty(), "{ov:?}: verified, empty");
                    (have, missing, verified, recovering)
                }
                // Compacted (`adopt` stores every other version): AMR here,
                // so verified, but its fragments are freed. It offers none,
                // and a verified AMR version misses none.
                None => (Vec::new(), Vec::new(), true, false),
            };
        self.outbox.post(
            ctx,
            from,
            Message::ConvergeFsReply {
                ov,
                verified,
                have,
                missing,
                recovering,
            },
        );
    }

    /// Handles one message of a convergence round — a sibling's probe or
    /// AMR indication, or a reply to a probe of ours — whether it arrived
    /// alone or as an entry of a [`Message::Batch`].
    pub(super) fn on_round_message(
        &mut self,
        ctx: &mut Context<'_, Message>,
        from: NodeId,
        msg: Message,
    ) {
        let me = ctx.self_id();
        match msg {
            Message::AmrIndication { ov, meta } => {
                // Complete our metadata and stop all convergence work
                // (cancelling recovery timers), without re-indicating.
                let s = match meta {
                    Some(meta) => self.adopt(ctx, ov, &meta),
                    None => {
                        // The sender knows we hold complete metadata: what
                        // `adopt` would do with nothing to merge, which is
                        // to make sure a round is coming while `ov` is
                        // pending.
                        let s = self.store.find(ov);
                        debug_assert!(
                            s.and_then(|s| self.store.entry(s)).map_or_else(
                                || self.store.residual(ov).is_some(),
                                |e| e.meta.is_complete()
                            ),
                            "{ov:?}: an indication without metadata to an FS without it complete"
                        );
                        if s.is_some_and(|s| self.store.work(s).is_some()) {
                            self.ensure_round(ctx);
                        }
                        s
                    }
                };
                match s {
                    Some(s) => self.finalize_amr(ctx, s, false),
                    None => self.store.restamp_residual(ov, ctx.now()),
                }
            }

            Message::ConvergeFs {
                ov,
                meta,
                recovery_intent,
            } => {
                self.on_converge_fs(ctx, from, ov, &meta, recovery_intent);
            }

            Message::ConvergeFsReply {
                ov,
                verified,
                have,
                missing,
                recovering,
            } => {
                let Some(s) = self.store.find(ov) else {
                    return;
                };
                let Some(work) = self.store.work_mut(s) else {
                    return;
                };
                // Verification bookkeeping.
                if verified {
                    work.fs_ok.insert(from);
                }
                let reasked = verified && work.step == Step::Reasking;
                // Recovery bookkeeping.
                let mut backed_off = false;
                if let Some(rec) = work.recovery.as_mut() {
                    if rec.phase == RecoveryPhase::AwaitingReports {
                        rec.reports.insert(from, (have, missing));
                    }
                    // Contention observed from the reply side: the sender
                    // (higher id) is also recovering — we back off if our
                    // id is lower.
                    backed_off = recovering && me < from;
                }
                if backed_off {
                    self.abort_recovery(ctx, s);
                    return;
                }
                self.check_amr(ctx, s);
                if reasked {
                    self.verify_afresh(ctx, s);
                }
            }

            Message::ConvergeKlsReply { ov, verified } => {
                let Some(s) = self.store.find(ov) else {
                    return;
                };
                if let Some(work) = self.store.work_mut(s).filter(|_| verified) {
                    work.kls_ok.insert(from);
                }
                self.check_amr(ctx, s);
            }

            other => {
                debug_assert!(false, "FS received unexpected {:?}", other);
            }
        }
    }
}
