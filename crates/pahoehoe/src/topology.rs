//! Cluster topology: data centers, key-lookup servers, fragment servers.

use std::fmt;
use std::sync::Arc;

use simnet::NodeId;

/// Identifies a data center.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DataCenterId(u8);

impl DataCenterId {
    /// Creates a data-center id from its index.
    pub const fn new(index: u8) -> Self {
        DataCenterId(index)
    }

    /// The data center's index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// This data center's *slot* in the fragment layout of an object whose
    /// home data center is `home`: the home DC (holding the data
    /// fragments) is slot 0 and the remaining DCs take slots 1.. in index
    /// order. Pure function of the two ids, so every server computes the
    /// same layout.
    pub const fn slot(self, home: DataCenterId) -> u8 {
        if self.0 == home.0 {
            0
        } else if self.0 < home.0 {
            self.0 + 1
        } else {
            self.0
        }
    }

    /// Inverse of [`slot`](Self::slot).
    pub const fn from_slot(slot: u8, home: DataCenterId) -> DataCenterId {
        if slot == 0 {
            home
        } else if slot <= home.0 {
            DataCenterId(slot - 1)
        } else {
            DataCenterId(slot)
        }
    }
}

impl fmt::Debug for DataCenterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dc{}", self.0)
    }
}

impl fmt::Display for DataCenterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// The static membership map every proxy, KLS and FS knows (the paper
/// assumes "the set of all KLSs is known by every proxy and FS"; fragment
/// servers likewise know their peers).
///
/// Cheap to share: actors hold an [`Arc<Topology>`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    dcs: Vec<DcMembers>,
    /// Failure domains below the DC: each DC's fragment servers fall into
    /// this many racks by position (see [`rack_of`](Self::rack_of)).
    racks_per_dc: usize,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct DcMembers {
    klss: Vec<NodeId>,
    fss: Vec<NodeId>,
}

impl Topology {
    /// Builds a topology from per-DC member lists, each DC one rack.
    ///
    /// # Panics
    ///
    /// Panics if there are no data centers or any DC lacks a KLS or FS.
    pub fn new(dcs: Vec<(Vec<NodeId>, Vec<NodeId>)>) -> Arc<Self> {
        Self::with_racks(dcs, 1)
    }

    /// Like [`new`](Self::new) but partitions each DC's fragment servers
    /// into `racks` failure domains. Placement spreads a DC's fragments
    /// across its racks (see `Kls::which_locs`) and repair donor selection
    /// avoids the failing rack.
    ///
    /// # Panics
    ///
    /// Panics if `racks` is zero, on top of [`new`](Self::new)'s checks.
    pub fn with_racks(dcs: Vec<(Vec<NodeId>, Vec<NodeId>)>, racks: usize) -> Arc<Self> {
        assert!(racks > 0, "need at least one rack per DC");
        assert!(!dcs.is_empty(), "need at least one data center");
        let dcs: Vec<DcMembers> = dcs
            .into_iter()
            .map(|(klss, fss)| {
                assert!(!klss.is_empty(), "every DC needs a KLS");
                assert!(!fss.is_empty(), "every DC needs an FS");
                DcMembers { klss, fss }
            })
            .collect();
        Arc::new(Topology {
            dcs,
            racks_per_dc: racks,
        })
    }

    /// Number of racks in `dc`: the configured count, capped at the DC's
    /// FS count (an FS is never split across racks).
    pub fn racks_in(&self, dc: DataCenterId) -> usize {
        self.racks_per_dc.min(self.dcs[dc.index()].fss.len())
    }

    /// The rack hosting fragment server `fs` inside `dc`: its position in
    /// the DC's FS list modulo the rack count. A pure function of the
    /// static membership, so every server computes the same assignment.
    /// Returns `None` when `fs` is not an FS of `dc`.
    pub fn rack_of(&self, dc: DataCenterId, fs: NodeId) -> Option<usize> {
        let pos = self.dcs[dc.index()].fss.iter().position(|&n| n == fs)?;
        Some(pos % self.racks_in(dc))
    }

    /// Number of data centers.
    pub fn data_centers(&self) -> usize {
        self.dcs.len()
    }

    /// All data-center ids in index order.
    pub fn dc_ids(&self) -> impl Iterator<Item = DataCenterId> + '_ {
        (0..self.dcs.len() as u8).map(DataCenterId::new)
    }

    /// Key lookup servers in one data center, in fixed probe order.
    pub fn klss_in(&self, dc: DataCenterId) -> &[NodeId] {
        &self.dcs[dc.index()].klss
    }

    /// Fragment servers in one data center.
    pub fn fss_in(&self, dc: DataCenterId) -> &[NodeId] {
        &self.dcs[dc.index()].fss
    }

    /// Every KLS in the system.
    pub fn all_klss(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.dcs.iter().flat_map(|d| d.klss.iter().copied())
    }

    /// Every FS in the system.
    pub fn all_fss(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.dcs.iter().flat_map(|d| d.fss.iter().copied())
    }

    /// Whether `node` is a key lookup server.
    pub fn is_kls(&self, node: NodeId) -> bool {
        self.dcs.iter().any(|d| d.klss.contains(&node))
    }

    /// The data center containing `node`, if it is a KLS or FS.
    pub fn dc_of(&self, node: NodeId) -> Option<DataCenterId> {
        self.dcs.iter().enumerate().find_map(|(i, d)| {
            (d.klss.contains(&node) || d.fss.contains(&node)).then(|| DataCenterId::new(i as u8))
        })
    }

    /// Maps a data center to its *slot* in an object version's fragment
    /// layout; see [`DataCenterId::slot`].
    pub fn dc_slot(&self, dc: DataCenterId, home: DataCenterId) -> u8 {
        dc.slot(home)
    }

    /// Inverse of [`dc_slot`](Self::dc_slot).
    pub fn slot_dc(&self, slot: u8, home: DataCenterId) -> DataCenterId {
        DataCenterId::from_slot(slot, home)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> Arc<Topology> {
        // DC0: klss n0,n1 / fss n2,n3,n4 ; DC1: klss n5,n6 / fss n7,n8,n9.
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

    #[test]
    fn membership_queries() {
        let t = topo();
        assert_eq!(t.data_centers(), 2);
        assert_eq!(t.all_klss().count(), 4);
        assert_eq!(t.all_fss().count(), 6);
        assert_eq!(
            t.klss_in(DataCenterId::new(1)),
            &[NodeId::new(5), NodeId::new(6)]
        );
        assert_eq!(t.dc_of(NodeId::new(3)), Some(DataCenterId::new(0)));
        assert_eq!(t.dc_of(NodeId::new(9)), Some(DataCenterId::new(1)));
        assert_eq!(t.dc_of(NodeId::new(42)), None);
    }

    #[test]
    fn dc_slots_roundtrip() {
        let t = topo();
        for home in t.dc_ids() {
            for dc in t.dc_ids() {
                let slot = t.dc_slot(dc, home);
                assert_eq!(t.slot_dc(slot, home), dc, "home={home} dc={dc}");
            }
            assert_eq!(t.dc_slot(home, home), 0, "home DC is slot 0");
        }
    }

    #[test]
    fn slots_are_a_permutation() {
        // Three DCs: verify slots {0,1,2} exactly once per home choice.
        let t = Topology::new(vec![
            (vec![NodeId::new(0)], vec![NodeId::new(1)]),
            (vec![NodeId::new(2)], vec![NodeId::new(3)]),
            (vec![NodeId::new(4)], vec![NodeId::new(5)]),
        ]);
        for home in t.dc_ids() {
            let mut slots: Vec<u8> = t.dc_ids().map(|dc| t.dc_slot(dc, home)).collect();
            slots.sort_unstable();
            assert_eq!(slots, vec![0, 1, 2]);
        }
    }

    #[test]
    #[should_panic(expected = "every DC needs a KLS")]
    fn empty_kls_list_panics() {
        let _ = Topology::new(vec![(vec![], vec![NodeId::new(0)])]);
    }

    #[test]
    fn racks_partition_fss_by_position() {
        let t = Topology::with_racks(
            vec![(
                vec![NodeId::new(0)],
                vec![
                    NodeId::new(1),
                    NodeId::new(2),
                    NodeId::new(3),
                    NodeId::new(4),
                    NodeId::new(5),
                ],
            )],
            3,
        );
        let dc = DataCenterId::new(0);
        assert_eq!(t.racks_in(dc), 3);
        let racks: Vec<usize> = t
            .fss_in(dc)
            .iter()
            .map(|&fs| t.rack_of(dc, fs).unwrap())
            .collect();
        assert_eq!(racks, vec![0, 1, 2, 0, 1]);
        assert_eq!(t.rack_of(dc, NodeId::new(0)), None, "KLS has no rack");
    }

    #[test]
    fn rack_count_caps_at_fs_count_and_legacy_is_one_rack() {
        let t = Topology::with_racks(
            vec![(vec![NodeId::new(0)], vec![NodeId::new(1), NodeId::new(2)])],
            8,
        );
        assert_eq!(t.racks_in(DataCenterId::new(0)), 2);
        let legacy = topo();
        assert_eq!(legacy.racks_in(DataCenterId::new(0)), 1);
        assert_eq!(
            legacy.rack_of(DataCenterId::new(0), NodeId::new(3)),
            Some(0)
        );
    }
}
