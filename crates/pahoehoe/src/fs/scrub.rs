//! Lost and rotten bytes (§3.1): the harness hooks that destroy a disk or
//! corrupt a fragment, the paced scrubber that finds corruption, and the
//! inventory report for the repair engine. Every loss ends the same way:
//! the version re-enters the convergence store.

use std::sync::Arc;

use erasure::{Fragment, FragmentIndex};
use simnet::{Context, SimTime};

use super::store::Slot;
use super::Fs;
use crate::messages::Message;
use crate::protocol::FragMask;
use crate::types::ObjectVersion;

/// How many fragment payload bytes one scrub tick may re-hash before
/// yielding ([`Fs::scrub`]).
pub(super) const SCRUB_CHUNK_BYTES: usize = 64 * 1024;

impl Fs {
    // ---- fault injection (harness API) ----

    /// Silently corrupts a stored fragment by flipping one payload byte
    /// without touching its recorded checksum — simulating bit rot on
    /// disk. Returns `false` if the fragment is not stored (or empty).
    /// Nothing is scheduled: the scrubber finds the damage on a later pass
    /// if scrubbing is on, and otherwise the next read of the fragment does.
    pub fn corrupt_fragment(&mut self, ov: ObjectVersion, idx: FragmentIndex) -> bool {
        let Some(entry) = self.store.find(ov).and_then(|s| self.store.entry_mut(s)) else {
            return false;
        };
        let Some(stored) = entry.fragments.get_mut(&idx) else {
            return false;
        };
        if stored.fragment.is_empty() {
            return false;
        }
        let mut bytes = stored.fragment.data().to_vec();
        bytes[0] ^= 0xFF;
        stored.fragment = Fragment::new(idx, bytes);
        true
    }

    /// Destroys one disk: every fragment this server stores on `disk`
    /// (per each version's metadata) is dropped, and the affected
    /// versions re-enter the convergence store so their fragments get
    /// rebuilt (§3.1's "rebuild destroyed disks"). Returns the number of
    /// fragments lost. Wake the FS with [`WAKE_TIMER_TAG`] afterwards.
    ///
    /// [`WAKE_TIMER_TAG`]: super::WAKE_TIMER_TAG
    pub fn destroy_disk(&mut self, disk: u8, now: SimTime) -> usize {
        let me = match self.self_id {
            Some(id) => id,
            None => return 0, // never ran; stores nothing
        };
        let mut lost = 0;
        // Live versions only: compacted residuals hold no bytes, so a
        // dead disk cannot lose them.
        let mut versions = Vec::new();
        self.store.collect_live(&mut versions);
        for s in versions {
            let doomed: Vec<FragmentIndex> = {
                let Some(entry) = self.store.entry(s) else {
                    continue;
                };
                entry
                    .meta
                    .assignments()
                    .filter(|(idx, loc)| {
                        loc.fs() == me && loc.disk() == disk && entry.fragments.contains_key(idx)
                    })
                    .map(|(idx, _)| idx)
                    .collect()
            };
            if doomed.is_empty() {
                continue;
            }
            let entry = self.store.entry_mut(s).expect("present");
            for idx in &doomed {
                entry.fragments.remove(idx);
                lost += 1;
            }
            self.re_pend(s, now);
        }
        lost
    }

    /// Re-enters a version into the convergence store (after corruption
    /// or disk loss), clearing any AMR/give-up status.
    pub(super) fn re_pend(&mut self, s: Slot, now: SimTime) {
        let work = self.store.reopen(s, now);
        work.attempts = 0;
        work.next_eligible = now;
    }

    /// One scrub tick: verifies stored fragments against their recorded
    /// checksums, at most [`SCRUB_CHUNK_BYTES`] of payload per tick (a
    /// persistent cursor resumes the walk on the next tick, so a tick
    /// reads the bytes of the versions it scans, not the whole store; it
    /// does sort the keys from the cursor on, since the store's index is a
    /// hash table).
    /// Corrupted fragments are dropped and their versions re-entered for
    /// convergence (which regenerates them from the siblings). Returns the
    /// number of corrupted fragments found this tick.
    // lint:hot
    pub(super) fn scrub(&mut self, ctx: &mut Context<'_, Message>) -> usize {
        let now = ctx.now();
        let mut scanned = 0usize;
        // The walk reads the store; only the (usually no) versions with a
        // corrupted fragment are kept for the repair below.
        let mut damaged = std::mem::take(&mut self.version_scratch);
        damaged.clear();
        let resume = self.scrub_cursor.take();
        for s in self.store.live_from(resume) {
            if scanned >= SCRUB_CHUNK_BYTES {
                // Out of budget: resume from this version next tick.
                self.scrub_cursor = Some(s.ov());
                break;
            }
            let Some(entry) = self.store.entry(s) else {
                continue;
            };
            let mut sound = true;
            for stored in entry.fragments.values() {
                scanned += stored.fragment.len();
                sound &= stored.is_sound();
            }
            if !sound {
                damaged.push(s);
            }
        }
        let mut found = 0;
        for &s in &damaged {
            // Corrupted fragment indices as a mask: no per-version list
            // allocation.
            let mut bad = FragMask::new();
            if let Some(entry) = self.store.entry_mut(s) {
                for (&idx, stored) in &entry.fragments {
                    if !stored.is_sound() {
                        bad.insert(idx);
                    }
                }
                for idx in bad.iter() {
                    entry.fragments.remove(&idx);
                    found += 1;
                }
            }
            self.re_pend(s, now);
        }
        damaged.clear();
        self.version_scratch = damaged;
        self.corruption_detected += found as u64;
        if found > 0 {
            self.ensure_round(ctx);
        }
        found
    }

    /// Sends this FS's fragment inventory — every known version with its
    /// metadata and held fragment indices — to the DC's repair actor. An
    /// empty store still reports (the actor waits for every FS before
    /// judging redundancy).
    pub(super) fn send_repair_report(&mut self, ctx: &mut Context<'_, Message>) {
        let Some(target) = self.repair_target else {
            return;
        };
        let mut versions = std::mem::take(&mut self.version_scratch);
        self.store.collect_live(&mut versions);
        let mut entries = Vec::with_capacity(versions.len());
        for &s in &versions {
            let Some(entry) = self.store.entry(s) else {
                continue;
            };
            entries.push((
                s.ov(),
                Arc::clone(&entry.meta),
                entry.fragments.keys().copied().collect(),
            ));
        }
        versions.clear();
        self.version_scratch = versions;
        ctx.send(target, Message::RepairReport { entries });
    }
}
