//! Fragment recovery (§3.4 `recover_fragment`) and its sibling variant
//! (§4.2), from the step that finds a fragment missing to every way a
//! recovery ends: finished, timed out, short of `k`, or backed off.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use erasure::{Fragment, FragmentIndex};
use simnet::{Context, NodeId};

use super::store::{Recovery, RecoveryPhase, Slot, VersionStore};
use super::{Fs, StoredFragment, TAG_RECOVERY_TIMEOUT, TAG_RECOVERY_WAIT};
use crate::messages::{Message, OpId};
use crate::protocol::Donors;
use crate::types::ObjectVersion;

impl Fs {
    pub(super) fn start_recovery(&mut self, ctx: &mut Context<'_, Message>, s: Slot) {
        let me = ctx.self_id();
        let ov = s.ov();
        let op = self.next_op;
        self.next_op += 1;
        // lint:allow(panic-path): recovery starts only for pending (hence stored) versions
        let meta = Arc::clone(&self.store.entry(s).expect("pending implies stored").meta);
        let timer = VersionStore::recovery_timer(s, op);
        let timeout_timer =
            ctx.schedule_timer(self.opts.recovery_timeout, TAG_RECOVERY_TIMEOUT | timer);

        let mut donors = Donors::default();
        let (phase, wait_timer) = if self.opts.sibling_recovery {
            // Probe siblings with the recovery-intent flag; their replies
            // report what they need; we fetch after a short accumulation
            // window.
            self.probe_siblings(ctx, s, &meta, true, false);
            let wait_timer = ctx.schedule_timer(self.opts.recovery_wait, TAG_RECOVERY_WAIT | timer);
            (RecoveryPhase::AwaitingReports, Some(wait_timer))
        } else {
            // Naïve recovery: a get of this object version — request every
            // remotely assigned fragment (§3.4 `recover_fragment`).
            for (idx, loc) in meta.assignments() {
                if loc.fs() != me {
                    donors.ask(idx);
                    ctx.send(
                        loc.fs(),
                        Message::RetrieveFrag {
                            op,
                            ov,
                            fragment: idx,
                        },
                    );
                }
            }
            (RecoveryPhase::Fetching, None)
        };
        // lint:allow(panic-path): recovery starts only for pending versions
        let work = self.store.work_mut(s).expect("present");
        work.recovery = Some(Box::new(Recovery {
            op,
            phase,
            reports: BTreeMap::new(),
            donors,
            wait_timer,
            timeout_timer,
        }));
    }

    /// The recovery-wait window closed: pick fragments to fetch based on
    /// the siblings' reports. `timer` is the timer's payload
    /// ([`VersionStore::recovery_timer`]).
    pub(super) fn recovery_wait_elapsed(&mut self, ctx: &mut Context<'_, Message>, timer: u64) {
        let Some(s) = self.store.find_recovery(timer) else {
            return;
        };
        let me = ctx.self_id();
        let (local, k) = {
            // lint:allow(panic-path): find_recovery returned this slot, so it is stored
            let entry = self.store.entry(s).expect("recovering implies stored");
            let local: BTreeSet<FragmentIndex> = entry.fragments.keys().copied().collect();
            (local, usize::from(entry.meta.policy().k))
        };

        // Plan fetches: iterate reports in id order, taking fragments we
        // neither hold nor already planned, until k total are available.
        let mut plan: Vec<(NodeId, FragmentIndex)> = Vec::new();
        let mut planned: BTreeSet<FragmentIndex> = local.clone();
        let op = {
            // lint:allow(panic-path): find_recovery returned this slot, so it is pending
            let work = self.store.work_mut(s).expect("recovering");
            // lint:allow(panic-path): find_recovery guarantees an in-flight recovery
            let rec = work.recovery.as_mut().expect("recovering");
            rec.phase = RecoveryPhase::Fetching;
            rec.wait_timer = None;
            for (&fs, (have, _)) in &rec.reports {
                for &idx in have {
                    if planned.len() >= k {
                        break;
                    }
                    if !planned.contains(&idx) {
                        planned.insert(idx);
                        rec.donors.ask(idx);
                        plan.push((fs, idx));
                    }
                }
            }
            rec.op
        };
        if planned.len() < k {
            // Not enough fragments reachable right now; retry at a later
            // round (backoff was charged when the step started).
            self.abort_recovery(ctx, s);
            return;
        }
        debug_assert!(!plan.iter().any(|(fs, _)| *fs == me));
        for (fs, idx) in plan {
            ctx.send(
                fs,
                Message::RetrieveFrag {
                    op,
                    ov: s.ov(),
                    fragment: idx,
                },
            );
        }
        // If we already hold k fragments locally (possible when only our
        // *other* disk's fragment is missing), finish immediately.
        if local.len() >= k {
            self.try_finish_recovery(ctx, s);
        }
    }

    /// Completes the recovery if enough fragments are on hand: regenerate
    /// our missing fragments (and, in sibling mode, everything the
    /// siblings reported missing) and push the siblings' shares to them.
    fn try_finish_recovery(&mut self, ctx: &mut Context<'_, Message>, s: Slot) {
        let me = ctx.self_id();
        let (policy, value_len, meta, my_mask, sources, sibling_needs) = {
            // lint:allow(panic-path): recovery in flight implies stored
            let entry = self.store.entry(s).expect("recovering implies stored");
            // lint:allow(panic-path): recovery in flight implies pending
            let work = self.store.work(s).expect("recovering");
            // lint:allow(panic-path): callers reach here only with a recovery in flight
            let rec = work.recovery.as_ref().expect("recovery in flight");
            // Our own fragments and the gathered ones, by ascending index.
            let mut sources: Vec<Fragment> = entry
                .fragments
                .values()
                .map(|stored| stored.fragment.clone())
                .collect();
            let gathered = rec.donors.received().iter();
            sources.extend(
                gathered
                    .filter(|f| !entry.fragments.contains_key(&f.index()))
                    .cloned(),
            );
            sources.sort_unstable_by_key(Fragment::index);
            let mut sibling_needs: Vec<(NodeId, Vec<FragmentIndex>)> = Vec::new();
            if self.opts.sibling_recovery {
                for (&fs, (_, missing)) in &rec.reports {
                    if !missing.is_empty() {
                        sibling_needs.push((fs, missing.clone()));
                    }
                }
            }
            (
                *entry.meta.policy(),
                entry.meta.value_len(),
                Arc::clone(&entry.meta),
                Self::missing_mask(entry, me),
                sources,
                sibling_needs,
            )
        };
        let k = usize::from(policy.k);
        if sources.len() < k {
            return; // keep waiting for more RetrieveFragReply
        }

        // Regeneration targets: our own missing fragments plus everything
        // the siblings reported missing, deduplicated by the mask.
        let mut target_mask = my_mask;
        for (_, needs) in &sibling_needs {
            for &idx in needs {
                target_mask.insert(idx);
            }
        }
        let targets: Vec<FragmentIndex> = target_mask.iter().collect();

        let recovered = self
            .codecs
            .get(policy.k, policy.n)
            .recover(&sources, &targets, value_len)
            // lint:allow(panic-path): sources.len() >= k checked above
            .expect("k fragments suffice");
        // `recover` returns one fragment per target, in target order.
        let regenerated = |idx: FragmentIndex| {
            let at = targets.binary_search(&idx).ok()?;
            recovered.get(at).cloned()
        };

        // Store our own missing fragments.
        {
            // lint:allow(panic-path): recovering versions stay stored
            let entry = self.store.entry_mut(s).expect("present");
            for frag in my_mask.iter().filter_map(regenerated) {
                entry
                    .fragments
                    .insert(frag.index(), StoredFragment::new(frag));
            }
        }
        // Push the siblings' recovered fragments to them (§4.2).
        for (fs, needs) in sibling_needs {
            for fragment in needs.into_iter().filter_map(regenerated) {
                ctx.send(
                    fs,
                    Message::SiblingStore {
                        ov: s.ov(),
                        meta: Arc::clone(&meta),
                        fragment,
                    },
                );
            }
        }

        self.recoveries_done += 1;
        // lint:allow(panic-path): recovering versions stay pending until settled here
        let work = self.store.work_mut(s).expect("present");
        // lint:allow(panic-path): recovery was in flight until taken here
        let rec = work.recovery.take().expect("recovery in flight");
        self.cancel_recovery_timers(ctx, &rec);
        self.note_progress(ctx, s);
    }

    /// A fragment fetched for the recovery `op` of `ov` arrived (or its
    /// holder answered ⊥).
    pub(super) fn on_retrieve_frag_reply(
        &mut self,
        ctx: &mut Context<'_, Message>,
        op: OpId,
        ov: ObjectVersion,
        fragment: FragmentIndex,
        data: Option<Fragment>,
    ) {
        let Some(s) = self.store.find(ov) else {
            return;
        };
        let Some(work) = self.store.work_mut(s) else {
            return;
        };
        let Some(rec) = work.recovery.as_mut() else {
            return;
        };
        if rec.op != op || rec.phase != RecoveryPhase::Fetching {
            return;
        }
        if rec.donors.answer(fragment, data) {
            self.try_finish_recovery(ctx, s);
        }
    }

    pub(super) fn cancel_recovery_timers(&self, ctx: &mut Context<'_, Message>, rec: &Recovery) {
        if let Some(t) = rec.wait_timer {
            ctx.cancel_timer(t);
        }
        ctx.cancel_timer(rec.timeout_timer);
    }

    /// Abandons `s`'s in-flight recovery, if it has one — it timed out,
    /// could not reach `k` fragments, or lost the contention rule (§4.2) to
    /// a sibling with a higher id. Backoff was already set by the step that
    /// started it.
    pub(super) fn abort_recovery(&mut self, ctx: &mut Context<'_, Message>, s: Slot) {
        let work = self.store.work_mut(s);
        if let Some(rec) = work.and_then(|w| w.recovery.take()) {
            self.cancel_recovery_timers(ctx, &rec);
        }
    }
}
