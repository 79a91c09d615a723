//! The Key Lookup Server (KLS).
//!
//! A KLS maintains two persistent stores (§3.2): a **timestamp store**
//! mapping each key to its object versions, and a **metadata store**
//! mapping each object version to its `(policy, locations)` metadata. The
//! two are always written together, and object versions order by
//! `(key, timestamp)`, so here one ordered table serves as both: the
//! metadata store is the table, and the timestamp store is its
//! `(key, MIN)..=(key, MAX)` range. The KLS answers location-decision
//! requests for *its own* data center, absorbs metadata stores from
//! proxies, answers convergence probes from fragment servers, and serves
//! the version list for gets.
//!
//! # Location decisions
//!
//! `which_locs` interprets the policy "to balance load and capacity across
//! the FSs" (§3.2). We implement it as a *deterministic* rendezvous
//! placement: the FSs of the data center are ranked by a hash of
//! `(object version, fs)` and fragments are dealt round-robin across that
//! ranking, at most `max_frags_per_fs` each. Every KLS in a DC therefore
//! computes the identical decision for a given object version, which keeps
//! per-DC location merging conflict-free (the paper's "too many locations"
//! inefficiency, §3.5, cannot arise) while still spreading load uniformly
//! across fragment servers over many objects.

use std::any::Any;
use std::collections::btree_map::{BTreeMap, Entry};
use std::ops::Bound;
use std::sync::Arc;

use simnet::{Actor, Context, NodeId};

use crate::messages::Message;
use crate::metadata::{Location, Metadata};
use crate::policy::Policy;
use crate::protocol::ProtocolMode;
use crate::topology::{DataCenterId, Topology};
use crate::types::{Key, ObjectVersion, Timestamp};

/// A key lookup server actor.
pub struct Kls {
    topo: Arc<Topology>,
    my_dc: DataCenterId,
    /// Metadata per object version; a key's versions are a contiguous
    /// range of it (the paper's timestamp store).
    storemeta: BTreeMap<ObjectVersion, Arc<Metadata>>,
}

impl Kls {
    /// Creates the KLS for data center `my_dc`.
    pub fn new(topo: Arc<Topology>, my_dc: DataCenterId) -> Self {
        Kls {
            topo,
            my_dc,
            storemeta: BTreeMap::new(),
        }
    }

    /// [`Kls::new`]: no [`ProtocolMode`] switch changes what a KLS does.
    /// Kept only as the compile surface of `benchmark/src/api.rs`.
    pub fn with_mode(topo: Arc<Topology>, my_dc: DataCenterId, _mode: ProtocolMode) -> Self {
        Kls::new(topo, my_dc)
    }

    /// Deterministic, load-balanced fragment placement for one data
    /// center: `frags_per_dc` locations over the DC's fragment servers,
    /// at most `max_frags_per_fs` per server, ranked by rendezvous hash.
    ///
    /// The ranked servers are grouped by rack (racks ordered by first
    /// appearance in the ranking, so the hash still rotates which rack
    /// leads) and the deal takes one fragment per rack per sweep,
    /// round-robin inside each rack, `disk` counting a server's
    /// placements. When racks ≥ fragments the first sweep finishes the
    /// stripe on distinct racks; with fewer racks the per-rack counts stay
    /// within one of each other until a rack runs out of capacity. A DC of
    /// one rack is dealt round-robin across the whole ranking, so the
    /// first `k` (data) fragments spread over distinct servers where
    /// possible.
    ///
    /// # Panics
    ///
    /// Panics if the DC lacks capacity for the policy
    /// (`fss * max_frags_per_fs < frags_per_dc`).
    pub fn which_locs(
        topo: &Topology,
        dc: DataCenterId,
        ov: ObjectVersion,
        policy: &Policy,
    ) -> Vec<Location> {
        let fss = topo.fss_in(dc);
        let want = policy.frags_per_dc as usize;
        let per_fs = usize::from(policy.max_frags_per_fs);
        assert!(
            fss.len() * per_fs >= want,
            "data center {dc} lacks capacity for {policy:?}"
        );
        // The DC's servers ranked by rendezvous hash, then grouped by rack
        // (`Topology::rack_of`; in a DC of one rack every server is in rack
        // 0, and the position search is skipped).
        let racks = topo.racks_in(dc);
        let rack = |fs| {
            if racks == 1 {
                0
            } else {
                topo.rack_of(dc, fs).unwrap_or(0)
            }
        };
        let mut ranked: Vec<NodeId> = fss.to_vec();
        ranked.sort_by_key(|&fs| (Self::placement_hash(ov, fs), fs));
        // Stable grouping: each server moves up to just behind the last
        // earlier-ranked server of its rack.
        for i in 1..ranked.len() {
            let Some((&fs, ahead)) = ranked.get(..=i).and_then(<[_]>::split_last) else {
                break;
            };
            let mine = rack(fs);
            match ahead.iter().rposition(|&other| rack(other) == mine) {
                Some(last) if last + 1 < i => {
                    if let Some(run) = ranked.get_mut(last + 1..=i) {
                        run.rotate_right(1);
                    }
                }
                _ => {}
            }
        }
        // Racks are position classes, so a group holds `short` servers or
        // one more. Sweep `s` deals each group its `s`-th placement: the
        // server at `s % len` of the group, on its disk `s / len`, kept as
        // one `(at, disk)` cursor per group length.
        let short = fss.len() / racks;
        let mut cursors = [(0, 0); 2];
        let mut locs = Vec::with_capacity(want);
        loop {
            for group in ranked.chunk_by(|&a, &b| rack(a) == rack(b)) {
                let (at, disk) = if short == group.len() {
                    cursors[0]
                } else {
                    cursors[1]
                };
                let Some(&fs) = group.get(at).filter(|_| disk < per_fs) else {
                    continue;
                };
                locs.push(Location {
                    fs,
                    disk: disk as u8,
                });
                if locs.len() == want {
                    return locs;
                }
            }
            for (cursor, len) in cursors.iter_mut().zip([short, short + 1]) {
                cursor.0 += 1;
                if cursor.0 == len {
                    *cursor = (0, cursor.1 + 1);
                }
            }
        }
    }

    fn placement_hash(ov: ObjectVersion, fs: NodeId) -> u64 {
        let mut h = 0x9e37_79b9_7f4a_7c15u64;
        for v in [
            ov.key.as_u64(),
            ov.ts.clock_micros(),
            u64::from(ov.ts.proxy()),
            fs.index() as u64,
        ] {
            h ^= v;
            h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
            h ^= h >> 31;
        }
        h
    }

    /// Merges `meta` into the store. Returns whether anything new was
    /// learned, and the record as it is now stored — so a caller that
    /// answers with its completeness does not search the table again.
    /// Adopting a first sighting is a refcount bump; a fuller snapshot
    /// replaces the held handle, and only divergent ones are copied (see
    /// [`Metadata::merge_shared`]).
    // lint:hot
    fn absorb(&mut self, ov: ObjectVersion, meta: &Arc<Metadata>) -> (bool, &Arc<Metadata>) {
        match self.storemeta.entry(ov) {
            Entry::Occupied(existing) => {
                let stored = existing.into_mut();
                let learned = Metadata::merge_shared(stored, meta);
                (learned, stored)
            }
            Entry::Vacant(slot) => (true, slot.insert(Arc::clone(meta))),
        }
    }

    /// The stored versions of `key` strictly older than `older_than`
    /// (all of them for `None`), oldest first, with their metadata: the
    /// timestamp-store view of the table.
    // lint:hot
    fn versions_before(
        &self,
        key: Key,
        older_than: Option<Timestamp>,
    ) -> impl DoubleEndedIterator<Item = (&ObjectVersion, &Arc<Metadata>)> {
        let lo = Bound::Included(ObjectVersion::new(key, Timestamp::MIN));
        let hi = match older_than {
            Some(cursor) => Bound::Excluded(ObjectVersion::new(key, cursor)),
            None => Bound::Included(ObjectVersion::new(key, Timestamp::MAX)),
        };
        self.storemeta.range((lo, hi))
    }

    // ---- state inspection (used by the harness and tests) ----

    /// The stored metadata for `ov`, if any.
    pub fn meta(&self, ov: ObjectVersion) -> Option<&Metadata> {
        self.storemeta.get(&ov).map(Arc::as_ref)
    }

    /// Whether this KLS stores *complete* metadata for `ov` (the per-KLS
    /// half of the AMR condition).
    pub fn has_complete_meta(&self, ov: ObjectVersion) -> bool {
        self.storemeta.get(&ov).is_some_and(|m| m.is_complete())
    }

    /// Known timestamps for `key`, oldest first.
    pub fn versions_of(&self, key: Key) -> Vec<Timestamp> {
        self.versions_before(key, None)
            .map(|(ov, _)| ov.ts)
            .collect()
    }

    /// Every object version this KLS knows about.
    pub fn known_versions(&self) -> impl Iterator<Item = ObjectVersion> + '_ {
        self.storemeta.keys().copied()
    }
}

impl Actor<Message> for Kls {
    fn on_message(&mut self, ctx: &mut Context<'_, Message>, from: NodeId, msg: Message) {
        match msg {
            // Proxy location request: suggest locations for my DC; the
            // decision is not persisted (the proxy will store chosen
            // metadata explicitly, §3.2 pseudocode).
            Message::DecideLocs {
                ov,
                policy,
                home_dc: _,
            } => {
                let locations = Self::which_locs(&self.topo, self.my_dc, ov, &policy);
                ctx.send(
                    from,
                    Message::DecideLocsReply {
                        ov,
                        dc: self.my_dc,
                        locations,
                    },
                );
            }

            // FS location request during a convergence step. Unlike the
            // proxy path, the KLS persists the decision before replying
            // and pushes it to the sibling FSs (§3.5), so concurrent
            // repairs cannot fan out into divergent decisions.
            Message::FsDecideLocs { ov, meta } => {
                let already_known = self
                    .storemeta
                    .get(&ov)
                    .is_some_and(|m| m.has_dc(self.my_dc));
                // Learn everything the FS knows (including the true value
                // length), then decide locations for my DC if nobody has.
                self.absorb(ov, &meta);
                let locations = match self.storemeta.get(&ov) {
                    Some(m) if m.has_dc(self.my_dc) => {
                        // lint:allow(panic-path): the match guard checked has_dc
                        m.dc_locations(self.my_dc).expect("checked has_dc").to_vec()
                    }
                    _ => Self::which_locs(&self.topo, self.my_dc, ov, meta.policy()),
                };
                let mut fresh = Arc::clone(&meta);
                Arc::make_mut(&mut fresh).add_dc_locations(self.my_dc, locations.clone());
                let newly_decided = !already_known && self.absorb(ov, &fresh).0;
                ctx.send(
                    from,
                    Message::DecideLocsReply {
                        ov,
                        dc: self.my_dc,
                        locations,
                    },
                );
                // Indicate a *fresh* decision to the sibling FSs so they
                // learn the locations without probing themselves.
                if let Some(meta) = newly_decided
                    .then(|| self.storemeta.get(&ov).map(Arc::clone))
                    .flatten()
                {
                    for fs in meta.siblings() {
                        if fs != from {
                            ctx.send(
                                fs,
                                Message::LocsIndication {
                                    ov,
                                    meta: Arc::clone(&meta),
                                },
                            );
                        }
                    }
                }
            }

            Message::StoreMetadata { ov, meta } => {
                let complete = self.absorb(ov, &meta).1.is_complete();
                ctx.send(from, Message::StoreMetadataReply { ov, complete });
            }

            Message::ConvergeKls { ov, meta } => {
                let verified = self.absorb(ov, &meta).1.is_complete();
                ctx.send(from, Message::ConvergeKlsReply { ov, verified });
            }

            // A fragment server's batched round: the probes one dispatch
            // produced for this KLS, answered in order by one batch — the
            // reply takes the request's form, so a KLS needs no mode.
            Message::Batch(probes) => {
                let mut replies = Vec::with_capacity(probes.len());
                for probe in probes {
                    match probe {
                        Message::ConvergeKls { ov, meta } => {
                            let verified = self.absorb(ov, &meta).1.is_complete();
                            replies.push(Message::ConvergeKlsReply { ov, verified });
                        }
                        other => debug_assert!(false, "KLS received batched {:?}", other),
                    }
                }
                ctx.send(from, Message::Batch(replies));
            }

            Message::RetrieveTs {
                op,
                key,
                limit,
                older_than,
            } => {
                // Page newest-first, strictly older than the cursor; a
                // `(limit + 1)`-th version in range means more remain.
                let mut older = self.versions_before(key, older_than).rev();
                let versions: Vec<(Timestamp, Arc<Metadata>)> = older
                    .by_ref()
                    .take(usize::from(limit))
                    .map(|(ov, m)| (ov.ts, Arc::clone(m)))
                    .collect();
                let more = older.next().is_some();
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

            other => {
                debug_assert!(false, "KLS received unexpected message {:?}", other);
            }
        }
    }

    fn on_timer(&mut self, _ctx: &mut Context<'_, Message>, _tag: u64) {
        // KLSs are purely reactive.
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
    use simnet::SimTime;
    use std::collections::BTreeSet;

    fn topo() -> Arc<Topology> {
        Topology::new(vec![
            (
                vec![NodeId::new(0), NodeId::new(1)],
                vec![NodeId::new(2), NodeId::new(3), NodeId::new(4)],
            ),
            (
                vec![NodeId::new(5), NodeId::new(6)],
                vec![NodeId::new(7), NodeId::new(8), NodeId::new(9)],
            ),
        ])
    }

    fn ov(n: u64) -> ObjectVersion {
        ObjectVersion::new(Key::from_u64(n), Timestamp::new(SimTime::from_micros(n), 0))
    }

    #[test]
    fn which_locs_respects_policy_shape() {
        let t = topo();
        let p = Policy::paper_default();
        let locs = Kls::which_locs(&t, DataCenterId::new(0), ov(1), &p);
        assert_eq!(locs.len(), 6);
        // Every FS belongs to DC0 and hosts exactly two fragments.
        let mut per_fs: BTreeMap<NodeId, usize> = BTreeMap::new();
        for l in &locs {
            assert!(t.fss_in(DataCenterId::new(0)).contains(&l.fs));
            *per_fs.entry(l.fs).or_default() += 1;
        }
        assert!(per_fs.values().all(|&c| c == 2));
        // Disks distinguish collocated fragments.
        let mut pairs: Vec<(NodeId, u8)> = locs.iter().map(|l| (l.fs, l.disk)).collect();
        pairs.sort_unstable();
        pairs.dedup();
        assert_eq!(pairs.len(), 6, "(fs, disk) pairs are distinct");
    }

    #[test]
    fn which_locs_is_deterministic_and_balanced() {
        let t = topo();
        let p = Policy::paper_default();
        let a = Kls::which_locs(&t, DataCenterId::new(0), ov(7), &p);
        let b = Kls::which_locs(&t, DataCenterId::new(0), ov(7), &p);
        assert_eq!(a, b, "same decision everywhere");

        // Across many object versions, first-slot placement spreads.
        let mut first_counts: BTreeMap<NodeId, usize> = BTreeMap::new();
        for i in 0..300 {
            let locs = Kls::which_locs(&t, DataCenterId::new(0), ov(i), &p);
            *first_counts.entry(locs[0].fs).or_default() += 1;
        }
        assert_eq!(first_counts.len(), 3, "every FS leads sometimes");
        for (&fs, &c) in &first_counts {
            assert!((50..=150).contains(&c), "placement skew on {fs}: {c}/300");
        }
    }

    #[test]
    fn which_locs_interleaves_data_fragments() {
        // The first k=4 fragments (data) land on 3 distinct servers, not
        // two fragments each on two servers.
        let t = topo();
        let p = Policy::paper_default();
        let locs = Kls::which_locs(&t, DataCenterId::new(0), ov(3), &p);
        let first_three: BTreeSet<NodeId> = locs[..3].iter().map(|l| l.fs).collect();
        assert_eq!(first_three.len(), 3);
    }

    #[test]
    fn rack_aware_locs_spread_across_racks() {
        // 6 FSs in 3 racks (positions mod 3): the paper policy's 6
        // fragments must land one per rack in the first sweep, then one
        // more per rack, every (fs, disk) pair distinct.
        let t = Topology::with_racks(
            vec![(
                vec![NodeId::new(0)],
                (1..=6).map(NodeId::new).collect::<Vec<_>>(),
            )],
            3,
        );
        let p = Policy::paper_default();
        let dc = DataCenterId::new(0);
        for i in 0..50 {
            let locs = Kls::which_locs(&t, dc, ov(i), &p);
            assert_eq!(locs.len(), 6);
            let first_sweep: BTreeSet<usize> = locs[..3]
                .iter()
                .map(|l| t.rack_of(dc, l.fs).unwrap())
                .collect();
            assert_eq!(first_sweep.len(), 3, "first sweep covers every rack");
            let mut per_rack: BTreeMap<usize, usize> = BTreeMap::new();
            for l in &locs {
                *per_rack.entry(t.rack_of(dc, l.fs).unwrap()).or_default() += 1;
            }
            assert!(
                per_rack.values().all(|&c| c == 2),
                "balanced racks: {per_rack:?}"
            );
            let mut pairs: Vec<(NodeId, u8)> = locs.iter().map(|l| (l.fs, l.disk)).collect();
            pairs.sort_unstable();
            pairs.dedup();
            assert_eq!(pairs.len(), 6, "(fs, disk) pairs are distinct");
        }
    }

    #[test]
    fn single_rack_placement_matches_legacy_deal() {
        // One rack: fragment `s` goes to the `s % n`-th ranked server, on
        // its disk `s / n` — the round-robin deal across the ranking.
        let t = topo();
        let p = Policy::paper_default();
        let dc = DataCenterId::new(0);
        for i in 0..50 {
            let mut ranked = t.fss_in(dc).to_vec();
            ranked.sort_by_key(|&fs| (Kls::placement_hash(ov(i), fs), fs));
            let dealt: Vec<Location> = (0..usize::from(p.frags_per_dc))
                .map(|s| Location {
                    fs: ranked[s % ranked.len()],
                    disk: (s / ranked.len()) as u8,
                })
                .collect();
            assert_eq!(Kls::which_locs(&t, dc, ov(i), &p), dealt);
        }
    }

    #[test]
    #[should_panic(expected = "lacks capacity")]
    fn undersized_dc_panics() {
        let small = Topology::new(vec![(
            vec![NodeId::new(0)],
            vec![NodeId::new(1), NodeId::new(2)],
        )]);
        let p = Policy::paper_default(); // needs 6 per DC, capacity 4
        let _ = Kls::which_locs(&small, DataCenterId::new(0), ov(0), &p);
    }

    /// The paging contract `RetrieveTs` must keep however the stores are
    /// laid out: newest first, strictly older than the cursor, `more`
    /// exactly when a further version exists, nothing from other keys.
    #[test]
    fn retrieve_ts_paging_contract() {
        use crate::testutil::Driver;
        use simnet::Simulation;

        let t = topo();
        let p = Policy::paper_default();
        let dc0 = DataCenterId::new(0);
        let ts = |i: u64| Timestamp::new(SimTime::from_micros(i * 1000), 0);
        // Three versions of key 42 between keys 41 and 43, whose
        // timestamps bracket key 42's so a range that leaked across keys
        // would show; key 7 has no versions at all.
        let key = Key::from_u64(42);
        let mut kls = Kls::new(t.clone(), dc0);
        let mut store = |key: Key, ts: Timestamp| {
            let v = ObjectVersion::new(key, ts);
            let mut meta = Metadata::new(p, dc0, 10);
            meta.add_dc_locations(dc0, Kls::which_locs(&t, dc0, v, &p));
            kls.absorb(v, &Arc::new(meta));
        };
        for i in [2, 3, 1] {
            store(key, ts(i));
        }
        for neighbour in [41, 43] {
            store(Key::from_u64(neighbour), Timestamp::MIN);
            store(Key::from_u64(neighbour), ts(2));
            store(Key::from_u64(neighbour), Timestamp::MAX);
        }

        let request = |op, key, limit, older_than| {
            (
                NodeId::new(0),
                Message::RetrieveTs {
                    op,
                    key,
                    limit,
                    older_than,
                },
            )
        };
        let mut sim = Simulation::new(1);
        sim.add_actor(kls);
        let driver = sim.add_actor(Driver::new(vec![
            request(1, key, 3, None),        // exactly `limit` versions
            request(2, key, 2, None),        // `limit + 1` versions
            request(3, key, 2, Some(ts(2))), // second page from the cursor
            request(4, key, 2, Some(ts(1))), // cursor at the oldest
            request(5, key, 0, None),        // zero-length page
            request(6, Key::from_u64(7), 8, None),
            request(7, key, 8, Some(Timestamp::MAX)),
            request(8, key, 1, Some(ts(3))), // a cursor page with more behind it
        ]));
        sim.run_until_quiescent();

        let d: &Driver = sim.actor(driver);
        let page = |op_want: u64| {
            d.received
                .iter()
                .find_map(|(_, m)| match m {
                    Message::RetrieveTsReply {
                        op,
                        key: k,
                        versions,
                        more,
                    } if *op == op_want => {
                        assert!(versions.iter().all(|(_, m)| m.value_len() == 10));
                        Some((*k, versions.iter().map(|(ts, _)| *ts).collect(), *more))
                    }
                    _ => None,
                })
                .expect("reply present")
        };
        assert_eq!(page(1), (key, vec![ts(3), ts(2), ts(1)], false));
        assert_eq!(page(2), (key, vec![ts(3), ts(2)], true));
        assert_eq!(page(3), (key, vec![ts(1)], false), "strictly older");
        assert_eq!(page(4), (key, vec![], false));
        assert_eq!(page(5), (key, vec![], true));
        assert_eq!(page(6), (Key::from_u64(7), vec![], false));
        assert_eq!(page(7), (key, vec![ts(3), ts(2), ts(1)], false));
        assert_eq!(page(8), (key, vec![ts(2)], true));
    }

    #[test]
    fn absorb_accumulates_versions_and_merges() {
        let t = topo();
        let mut kls = Kls::new(t.clone(), DataCenterId::new(0));
        let p = Policy::paper_default();
        let v = ov(1);

        let mut partial = Metadata::new(p, DataCenterId::new(0), 9);
        partial.add_dc_locations(
            DataCenterId::new(0),
            Kls::which_locs(&t, DataCenterId::new(0), v, &p),
        );
        let partial = Arc::new(partial);
        let (learned, stored) = kls.absorb(v, &partial);
        assert!(learned && !stored.is_complete());
        assert!(!kls.has_complete_meta(v));
        assert_eq!(kls.versions_of(v.key), vec![v.ts]);

        let mut rest = (*partial).clone();
        rest.add_dc_locations(
            DataCenterId::new(1),
            Kls::which_locs(&t, DataCenterId::new(1), v, &p),
        );
        let rest = Arc::new(rest);
        let (learned, stored) = kls.absorb(v, &rest);
        assert!(learned && stored.is_complete());
        assert!(kls.has_complete_meta(v));
        let (learned, stored) = kls.absorb(v, &rest);
        assert!(!learned && stored.is_complete(), "idempotent");
        assert_eq!(kls.known_versions().count(), 1);
    }
}
