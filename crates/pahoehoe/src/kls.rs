//! The Key Lookup Server (KLS).
//!
//! A KLS maintains two persistent stores (§3.2): a **timestamp store**
//! mapping each key to its object versions, and a **metadata store**
//! mapping each object version to its `(policy, locations)` metadata. The
//! two are always written together, so here they are one store of per-key
//! chains ([`Chains`]): each key has one chain of `(timestamp, metadata)`
//! records sorted by timestamp. The key's chain is its timestamp store, and
//! a version's metadata is found in its key's chain. The KLS answers
//! location-decision requests for *its own* data center, absorbs metadata
//! stores from proxies, answers convergence probes from fragment servers,
//! and serves the version list for gets: a page of one chain, newest first.
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
use std::sync::Arc;

use simnet::{Actor, Context, NodeId};

use crate::chain::{Chains, Stamped};
use crate::messages::Message;
use crate::metadata::{Location, Metadata};
use crate::policy::Policy;
use crate::protocol::ProtocolMode;
use crate::topology::{DataCenterId, Topology};
use crate::types::{Key, ObjectVersion, Timestamp};

/// One version of a key in a KLS's store: its timestamp and its metadata
/// (the key is its chain's).
#[derive(Debug)]
struct StoredVersion {
    ts: Timestamp,
    meta: Arc<Metadata>,
}

impl Stamped for StoredVersion {
    fn ts(&self) -> Timestamp {
        self.ts
    }
}

/// A key lookup server actor.
pub struct Kls {
    topo: Arc<Topology>,
    my_dc: DataCenterId,
    /// Metadata per object version, one chain per key (the paper's
    /// timestamp store is a key's chain).
    storemeta: Chains<StoredVersion>,
}

impl Kls {
    /// Creates the KLS for data center `my_dc`.
    pub fn new(topo: Arc<Topology>, my_dc: DataCenterId) -> Self {
        Kls {
            topo,
            my_dc,
            storemeta: Chains::default(),
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
                locs.push(Location::new(fs, disk as u8));
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
        let (inserted, stored) = self.storemeta.get_or_insert_with(ov, || StoredVersion {
            ts: ov.ts,
            meta: Arc::clone(meta),
        });
        let learned = inserted || Metadata::merge_shared(&mut stored.meta, meta);
        (learned, &stored.meta)
    }

    /// The stored metadata handle for `ov`, if any.
    fn stored(&self, ov: ObjectVersion) -> Option<&Arc<Metadata>> {
        self.storemeta.get(ov).map(|v| &v.meta)
    }

    /// The stored versions of `key` strictly older than `older_than`
    /// (all of them for `None`), oldest first, with their metadata: the
    /// timestamp-store view, a prefix of the key's chain.
    // lint:hot
    fn versions_before(&self, key: Key, older_than: Option<Timestamp>) -> &[StoredVersion] {
        let chain = self.storemeta.chain(key);
        let end = match (older_than, chain.last()) {
            // A cursor past the newest version keeps the whole chain.
            (Some(cursor), Some(newest)) if newest.ts >= cursor => {
                chain.partition_point(|v| v.ts < cursor)
            }
            _ => chain.len(),
        };
        chain.split_at(end).0
    }

    /// One `RetrieveTs` page: `key`'s newest `limit` versions strictly
    /// older than `older_than`, newest first, with their metadata, and
    /// whether older ones remain.
    fn page(
        &self,
        key: Key,
        limit: u16,
        older_than: Option<Timestamp>,
    ) -> (Vec<(Timestamp, Arc<Metadata>)>, bool) {
        let older = self.versions_before(key, older_than);
        let (rest, page) = older.split_at(older.len().saturating_sub(usize::from(limit)));
        let versions = page
            .iter()
            .rev()
            .map(|v| (v.ts, Arc::clone(&v.meta)))
            .collect();
        (versions, !rest.is_empty())
    }

    // ---- state inspection (used by the harness and tests) ----

    /// The stored metadata for `ov`, if any.
    pub fn meta(&self, ov: ObjectVersion) -> Option<&Metadata> {
        self.stored(ov).map(Arc::as_ref)
    }

    /// Whether this KLS stores *complete* metadata for `ov` (the per-KLS
    /// half of the AMR condition).
    pub fn has_complete_meta(&self, ov: ObjectVersion) -> bool {
        self.stored(ov).is_some_and(|m| m.is_complete())
    }

    /// Known timestamps for `key`, oldest first.
    pub fn versions_of(&self, key: Key) -> Vec<Timestamp> {
        self.versions_before(key, None)
            .iter()
            .map(|v| v.ts)
            .collect()
    }

    /// Every object version this KLS knows about, in object-version order.
    pub fn known_versions(&self) -> impl Iterator<Item = ObjectVersion> + '_ {
        self.storemeta
            .iter()
            .map(|(key, v)| ObjectVersion::new(key, v.ts))
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
                let my_dc = self.my_dc;
                let already_known = self.stored(ov).is_some_and(|m| m.has_dc(my_dc));
                // Learn everything the FS knows (including the true value
                // length), then decide locations for my DC if nobody has.
                let known = self.absorb(ov, &meta).1.dc_locations(my_dc);
                let locations = match known.map(<[Location]>::to_vec) {
                    Some(locations) => locations,
                    None => Self::which_locs(&self.topo, my_dc, ov, meta.policy()),
                };
                let mut fresh = Arc::clone(&meta);
                Arc::make_mut(&mut fresh).add_dc_locations(my_dc, locations.clone());
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
                    .then(|| self.stored(ov).map(Arc::clone))
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
                let (versions, more) = self.page(key, limit, older_than);
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
    use std::collections::{BTreeMap, BTreeSet};

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
            assert!(t.fss_in(DataCenterId::new(0)).contains(&l.fs()));
            *per_fs.entry(l.fs()).or_default() += 1;
        }
        assert!(per_fs.values().all(|&c| c == 2));
        // Disks distinguish collocated fragments.
        let mut pairs: Vec<(NodeId, u8)> = locs.iter().map(|l| (l.fs(), l.disk())).collect();
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
            *first_counts.entry(locs[0].fs()).or_default() += 1;
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
        let first_three: BTreeSet<NodeId> = locs[..3].iter().map(|l| l.fs()).collect();
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
                .map(|l| t.rack_of(dc, l.fs()).unwrap())
                .collect();
            assert_eq!(first_sweep.len(), 3, "first sweep covers every rack");
            let mut per_rack: BTreeMap<usize, usize> = BTreeMap::new();
            for l in &locs {
                *per_rack.entry(t.rack_of(dc, l.fs()).unwrap()).or_default() += 1;
            }
            assert!(
                per_rack.values().all(|&c| c == 2),
                "balanced racks: {per_rack:?}"
            );
            let mut pairs: Vec<(NodeId, u8)> = locs.iter().map(|l| (l.fs(), l.disk())).collect();
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
                .map(|s| Location::new(ranked[s % ranked.len()], (s / ranked.len()) as u8))
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

    /// A version's slot in a KLS's store is three words: a lone version is
    /// a 16-byte record (its timestamp word and its metadata handle) held
    /// inline in its key's map entry, and a longer chain a vector header.
    /// A field that grows what every stored version costs fails here.
    #[test]
    fn per_version_layout_is_pinned() {
        use crate::chain::Chain;
        assert_eq!(std::mem::size_of::<StoredVersion>(), 16);
        assert!(std::mem::size_of::<Chain<StoredVersion>>() <= 24);
    }

    // ---- the chain store against the ordered table it replaced ----

    /// Keys drawn by the model test: the fourth is never stored, so pages
    /// of a key with no versions are compared too.
    const MODEL_KEYS: u64 = 4;

    /// Timestamps per key: past the exact-fit chain length, so chains
    /// grow from one inline record through exact-fit to amortised.
    const MODEL_TIMESTAMPS: u64 = 10;

    fn model_ts(i: u64) -> Timestamp {
        Timestamp::new(SimTime::from_micros(100 * (1 + i)), (i % 3) as u32)
    }

    /// What the store was before it was chains: one ordered table, each
    /// key's versions a range of it, merged the way `absorb` merges.
    #[derive(Default)]
    struct ModelKls {
        table: BTreeMap<ObjectVersion, Arc<Metadata>>,
    }

    impl ModelKls {
        fn absorb(&mut self, ov: ObjectVersion, meta: &Arc<Metadata>) -> (bool, bool) {
            match self.table.entry(ov) {
                std::collections::btree_map::Entry::Occupied(existing) => {
                    let stored = existing.into_mut();
                    let learned = Metadata::merge_shared(stored, meta);
                    (learned, stored.is_complete())
                }
                std::collections::btree_map::Entry::Vacant(slot) => {
                    (true, slot.insert(Arc::clone(meta)).is_complete())
                }
            }
        }

        fn page(
            &self,
            key: Key,
            limit: u16,
            older_than: Option<Timestamp>,
        ) -> (Vec<(Timestamp, Arc<Metadata>)>, bool) {
            let lo = ObjectVersion::new(key, Timestamp::MIN);
            let mut older = self
                .table
                .range(lo..=ObjectVersion::new(key, Timestamp::MAX))
                .filter(|(ov, _)| older_than.is_none_or(|cursor| ov.ts < cursor))
                .rev();
            let versions = older
                .by_ref()
                .take(usize::from(limit))
                .map(|(ov, m)| (ov.ts, Arc::clone(m)))
                .collect();
            (versions, older.next().is_some())
        }
    }

    /// The metadata an absorb carries: one data center's locations (`which`
    /// 0 or 1, value length not yet known), both (2), or none yet (3, value
    /// length known) — so merges learn locations, a value length, or both.
    fn model_meta(t: &Topology, ov: ObjectVersion, which: u8) -> Arc<Metadata> {
        let p = Policy::paper_default();
        let (dc0, dc1) = (DataCenterId::new(0), DataCenterId::new(1));
        let value_len = if which >= 2 { 64 } else { 0 };
        let mut meta = Metadata::new(p, dc0, value_len);
        for (dc, wanted) in [
            (dc0, which == 0 || which == 2),
            (dc1, (1..3).contains(&which)),
        ] {
            if wanted {
                meta.add_dc_locations(dc, Kls::which_locs(t, dc, ov, &p));
            }
        }
        Arc::new(meta)
    }

    /// Everything the chain store answers, against the model's answer.
    fn check_against_model(kls: &Kls, model: &ModelKls) -> proptest::test_runner::TestCaseResult {
        use proptest::prelude::*;

        let same = |a: Option<&Metadata>, b: Option<&Arc<Metadata>>| a == b.map(Arc::as_ref);
        let cursors = [0, 3, 5, 9, MODEL_TIMESTAMPS].map(|i| Some(model_ts(i)));
        for key in (0..MODEL_KEYS).map(Key::from_u64) {
            for i in 0..=MODEL_TIMESTAMPS {
                let ov = ObjectVersion::new(key, model_ts(i));
                prop_assert!(same(kls.meta(ov), model.table.get(&ov)), "meta({:?})", ov);
                prop_assert_eq!(
                    kls.has_complete_meta(ov),
                    model.table.get(&ov).is_some_and(|m| m.is_complete())
                );
            }
            let model_versions: Vec<Timestamp> = model
                .table
                .keys()
                .filter(|ov| ov.key == key)
                .map(|ov| ov.ts)
                .collect();
            prop_assert_eq!(kls.versions_of(key), model_versions);
            for limit in [0, 1, 3, 16] {
                for older_than in [None, Some(Timestamp::MIN), Some(Timestamp::MAX)]
                    .into_iter()
                    .chain(cursors)
                {
                    let (got, got_more) = kls.page(key, limit, older_than);
                    let (want, want_more) = model.page(key, limit, older_than);
                    prop_assert_eq!(got_more, want_more);
                    prop_assert_eq!(got.len(), want.len());
                    for ((ts, m), (want_ts, want_m)) in got.iter().zip(&want) {
                        prop_assert_eq!(ts, want_ts);
                        prop_assert_eq!(m, want_m);
                    }
                }
            }
        }
        prop_assert_eq!(
            kls.known_versions().collect::<Vec<_>>(),
            model.table.keys().copied().collect::<Vec<_>>()
        );
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The per-key chain store answers exactly as the ordered table it
        /// replaced: every accessor the harness reads, every `RetrieveTs`
        /// page, and what each `absorb` returns. Sequences absorb versions
        /// out of timestamp order, merge fuller and divergent snapshots
        /// into stored ones, and (by a prelude on the first key) grow a
        /// chain from one inline record through exact-fit to amortised.
        #[test]
        fn chain_store_matches_the_ordered_table(
            ops in proptest::collection::vec(
                (0..MODEL_KEYS - 1, 0..MODEL_TIMESTAMPS, 0u8..4),
                1..120,
            ),
        ) {
            let t = topo();
            let mut kls = Kls::new(t.clone(), DataCenterId::new(0));
            let mut model = ModelKls::default();
            let prelude = [4, 1, 7, 0, 9, 2, 5, 8, 3, 6].map(|i| (0, i, 3));
            for (key, i, which) in prelude.into_iter().chain(ops) {
                let ov = ObjectVersion::new(Key::from_u64(key), model_ts(i));
                let meta = model_meta(&t, ov, which);
                let (learned, stored) = kls.absorb(ov, &meta);
                let got = (learned, stored.is_complete());
                proptest::prop_assert_eq!(got, model.absorb(ov, &meta), "absorb {:?}", ov);
                check_against_model(&kls, &model)?;
            }
        }
    }
}
