//! The Pahoehoe wire message set.
//!
//! One variant per message in the paper's protocol figures; the metric
//! labels (`kind`) match the stacked legends of Figures 5–8
//! (`DecideLocsReq`, `StoreFragmentRep`, `KLSConvergeReq`, …). Client↔proxy
//! messages are labeled `Client*` and excluded from figure accounting, as
//! in the paper, which counts "all activity from the proxy's put and all
//! convergence activity".
//!
//! # Wire-size model
//!
//! Sizes are modeled, not serialized: every message pays a fixed
//! [`HEADER_BYTES`] (framing, addressing, correlation ids) plus the sizes
//! of its fields — 20 bytes per object version, [`Metadata::wire_size`]
//! for metadata, and the full payload length for fragments. Fragment
//! payloads dominate: for the paper's 100 KiB values and `k = 4`, each
//! fragment-bearing message carries 25 KiB.
//!
//! Metadata is embedded as [`Arc<Metadata>`] so a send is a refcount bump
//! rather than a deep copy; the wire-size model is unaffected because it
//! prices the serialized bytes.
//!
//! A [`Message::Batch`] is several messages of one kind to one destination
//! under **one** header: it costs [`HEADER_BYTES`] plus each entry's fields,
//! so a one-entry batch prices exactly as the entry sent alone and `n`
//! entries save `(n − 1) × HEADER_BYTES` over `n` sends. It reports under
//! its entries' label, so the figure legends gain no kind: batching shows
//! as fewer, larger messages of the kinds that were already there.

use std::sync::Arc;

use bytes::Bytes;
use erasure::{Fragment, FragmentIndex};
use simnet::Payload;

use crate::metadata::{Location, Metadata};
use crate::policy::Policy;
use crate::topology::DataCenterId;
use crate::types::{Key, ObjectVersion, Timestamp};

/// Fixed per-message overhead: framing, addressing and correlation ids.
pub const HEADER_BYTES: usize = 40;

/// Bytes modeled for an [`ObjectVersion`] on the wire (key + timestamp).
pub const OV_BYTES: usize = 20;

/// Bytes modeled for a [`Policy`] on the wire.
pub const POLICY_BYTES: usize = 5;

/// Correlation id for client operations and embedded gets.
pub type OpId = u64;

// Dense indices into [`Message::EVENTS`], for `Context::record_event`.
// Keep these in sync with the registry below — each constant is the
// position of its label.
/// Repair jobs enqueued because an object fell below the repair
/// threshold (repair actor).
pub const EV_REPAIR_TRIGGERED: usize = 0;
/// Repair jobs that finished re-protecting their object (repair actor).
pub const EV_REPAIR_COMPLETED: usize = 1;
/// Repair jobs abandoned after exhausting donor retries (repair actor).
pub const EV_REPAIR_ABANDONED: usize = 2;
/// Fragment payload bytes moved by repair (donor fetches + pushes).
pub const EV_REPAIR_BYTES: usize = 3;
/// Sum of repair-queue depth sampled at each drain tick (repair actor).
pub const EV_REPAIR_QUEUE_DEPTH: usize = 4;
/// Drain ticks where the bandwidth budget stalled a ready job.
pub const EV_REPAIR_THROTTLE_STALLS: usize = 5;
/// Gets that decoded successfully but saw at least one ⊥ fragment
/// reply on the way (proxy).
pub const EV_DEGRADED_READS: usize = 6;

/// Every message exchanged between Pahoehoe nodes.
#[derive(Clone, Debug)]
pub enum Message {
    // ---- client <-> proxy (excluded from figure accounting) ----
    /// Client asks its proxy to store `value` under `key`.
    ClientPut {
        /// Client-chosen correlation id.
        op: OpId,
        /// Object key.
        key: Key,
        /// The value to store.
        value: Bytes,
        /// Durability policy for this put.
        policy: Policy,
    },
    /// Proxy's final answer to a [`Message::ClientPut`].
    ClientPutReply {
        /// Echoed correlation id.
        op: OpId,
        /// The object version the put created.
        ov: ObjectVersion,
        /// `true` when the policy's success threshold was met; `false` is
        /// the paper's "unknown" outcome (the put may still converge).
        success: bool,
    },
    /// Client asks its proxy to retrieve the object stored under `key`.
    ClientGet {
        /// Client-chosen correlation id.
        op: OpId,
        /// Object key.
        key: Key,
    },
    /// Proxy's final answer to a [`Message::ClientGet`].
    ClientGetReply {
        /// Echoed correlation id.
        op: OpId,
        /// The version and value retrieved, or `None` on abort/failure.
        result: Option<(ObjectVersion, Bytes)>,
    },

    // ---- put protocol ----
    /// Proxy asks a KLS to suggest fragment locations for its data center.
    DecideLocs {
        /// Object version being put.
        ov: ObjectVersion,
        /// Durability policy to interpret.
        policy: Policy,
        /// The put's home data center (holds the data fragments).
        home_dc: DataCenterId,
    },
    /// KLS's location suggestion for one whole data center.
    DecideLocsReply {
        /// Object version.
        ov: ObjectVersion,
        /// The data center these locations are for.
        dc: DataCenterId,
        /// One location per fragment hosted in `dc`.
        locations: Vec<Location>,
    },
    /// Like [`Message::DecideLocs`] but issued by a fragment server during
    /// a convergence step (metadata repair). Carries the FS's current
    /// metadata; KLSs treat it differently from the proxy path: they
    /// persist the decision and indicate it to the sibling FSs (§3.5).
    FsDecideLocs {
        /// Object version.
        ov: ObjectVersion,
        /// The FS's current (incomplete) metadata.
        meta: Arc<Metadata>,
    },
    /// KLS → sibling FS push of a location decision taken on behalf of a
    /// converging FS (§3.5). Not in the paper's figure legends; reported
    /// under its own `LocsIndication` label.
    LocsIndication {
        /// Object version.
        ov: ObjectVersion,
        /// The KLS's merged metadata after its decision.
        meta: Arc<Metadata>,
    },
    /// Proxy stores (possibly still partial) metadata at a KLS.
    StoreMetadata {
        /// Object version.
        ov: ObjectVersion,
        /// Metadata with all locations decided so far.
        meta: Arc<Metadata>,
    },
    /// KLS acknowledgment of a [`Message::StoreMetadata`].
    StoreMetadataReply {
        /// Object version.
        ov: ObjectVersion,
        /// Whether the KLS's stored metadata is now complete.
        complete: bool,
    },
    /// Proxy (or put-path code inside an FS) stores one fragment plus the
    /// metadata snapshot at a fragment server.
    StoreFragment {
        /// Object version.
        ov: ObjectVersion,
        /// Metadata snapshot at send time (may be partial).
        meta: Arc<Metadata>,
        /// The sibling fragment for this server.
        fragment: Fragment,
    },
    /// FS acknowledgment of a [`Message::StoreFragment`].
    StoreFragmentReply {
        /// Object version.
        ov: ObjectVersion,
        /// Which fragment index was durably stored.
        fragment: FragmentIndex,
    },
    /// "This object version is at maximum redundancy; do no convergence
    /// work for it." Sent by a proxy at the end of a fully successful put
    /// (PutAMR optimization) or by an FS that completed verification
    /// (FS-AMR optimization). Carries the complete metadata so the
    /// receiver's stored metadata also becomes complete.
    AmrIndication {
        /// Object version.
        ov: ObjectVersion,
        /// Complete metadata.
        meta: Arc<Metadata>,
    },

    // ---- get protocol ----
    /// Proxy asks a KLS for the object versions of `key` with metadata,
    /// one page at a time, newest first — the paper's "iteratively
    /// retrieves timestamps with associated metadata from KLSs instead of
    /// retrieving information about all object versions at once" (§3.5).
    RetrieveTs {
        /// Correlation id of the get operation.
        op: OpId,
        /// The key being read.
        key: Key,
        /// Maximum versions to return in this page.
        limit: u16,
        /// Only return versions strictly older than this (pagination
        /// cursor); `None` starts from the newest.
        older_than: Option<Timestamp>,
    },
    /// KLS's versions-with-metadata answer (one page).
    RetrieveTsReply {
        /// Echoed correlation id.
        op: OpId,
        /// Echoed key.
        key: Key,
        /// Up to `limit` `(timestamp, metadata)` pairs, newest first.
        versions: Vec<(Timestamp, Arc<Metadata>)>,
        /// Whether older versions remain beyond this page.
        more: bool,
    },
    /// Request for one fragment of one object version (used by proxy gets
    /// and by FS fragment recovery).
    RetrieveFrag {
        /// Correlation id of the enclosing get/recovery.
        op: OpId,
        /// Object version.
        ov: ObjectVersion,
        /// Which fragment index is wanted.
        fragment: FragmentIndex,
    },
    /// Answer to [`Message::RetrieveFrag`]; `data` is `None` when the
    /// server does not store that fragment (the paper's ⊥ reply).
    RetrieveFragReply {
        /// Echoed correlation id.
        op: OpId,
        /// Object version.
        ov: ObjectVersion,
        /// Echoed fragment index.
        fragment: FragmentIndex,
        /// The fragment, or `None` if absent.
        data: Option<Fragment>,
    },

    // ---- convergence ----
    /// FS → KLS convergence probe carrying the FS's metadata.
    ConvergeKls {
        /// Object version.
        ov: ObjectVersion,
        /// The FS's metadata (merged into the KLS's store).
        meta: Arc<Metadata>,
    },
    /// KLS's answer: is its stored metadata complete?
    ConvergeKlsReply {
        /// Object version.
        ov: ObjectVersion,
        /// Verification result.
        verified: bool,
    },
    /// FS → sibling FS convergence probe.
    ConvergeFs {
        /// Object version.
        ov: ObjectVersion,
        /// The sender's metadata (merged by the receiver).
        meta: Arc<Metadata>,
        /// Set when the sender intends to perform sibling fragment
        /// recovery (§4.2); the receiver then reports which fragments it
        /// needs and may trigger the id-ordered backoff rule.
        recovery_intent: bool,
    },
    /// Sibling FS's answer to a convergence probe.
    ConvergeFsReply {
        /// Object version.
        ov: ObjectVersion,
        /// `verify(storefrag[ov])`: metadata complete and all assigned
        /// fragments present.
        verified: bool,
        /// Fragment indices the replier holds (for recovery planning).
        have: Vec<FragmentIndex>,
        /// Assigned fragment indices the replier is missing (its recovery
        /// needs; only meaningful when the probe carried
        /// `recovery_intent`).
        missing: Vec<FragmentIndex>,
        /// Whether the replier is itself attempting sibling fragment
        /// recovery for this version (drives the id-ordered backoff).
        recovering: bool,
    },
    /// FS → repair actor periodic inventory report: every object version
    /// the FS knows about, with its metadata and the fragment indices it
    /// currently holds. The repair actor folds these into per-object
    /// live-fragment counts and triggers reconstruction below the repair
    /// threshold. Reports under the `FSConvergeRep` label: it is the same
    /// verification traffic an FS already emits during convergence, just
    /// pushed on a timer instead of pulled by a probe.
    RepairReport {
        /// `(object version, metadata, fragment indices held)` per object.
        entries: Vec<(ObjectVersion, Arc<Metadata>, Vec<FragmentIndex>)>,
    },
    /// A recovered sibling fragment pushed to the FS that needs it
    /// (sibling fragment recovery, §4.2). Unacknowledged; the next
    /// convergence round verifies receipt.
    SiblingStore {
        /// Object version.
        ov: ObjectVersion,
        /// Complete metadata.
        meta: Arc<Metadata>,
        /// The regenerated fragment.
        fragment: Fragment,
    },

    // ---- batched rounds ----
    /// The messages of one kind that one dispatch of a fragment server
    /// produced for one destination, travelling as a unit
    /// ([`ProtocolMode::batch_rounds`](crate::protocol::ProtocolMode)):
    /// one header, one fault check, one loss draw, one latency draw. Never
    /// empty and never nested; every entry has the same
    /// [`kind_id`](Payload::kind_id), which is also the batch's. The
    /// receiver handles the entries in order and answers a batch of probes
    /// with one batch of replies.
    Batch(Vec<Message>),
}

impl Message {
    /// Whether this is client↔proxy traffic (excluded from the paper's
    /// message accounting).
    pub fn is_client_traffic(&self) -> bool {
        matches!(
            self,
            Message::ClientPut { .. }
                | Message::ClientPutReply { .. }
                | Message::ClientGet { .. }
                | Message::ClientGetReply { .. }
        )
    }
}

impl Payload for Message {
    /// One label per *protocol* message kind, so
    /// [`kind_id`](Payload::kind_id) is a dense index and the engine's
    /// per-kind counters are plain arrays.
    const KINDS: &'static [&'static str] = &[
        "ClientPutReq",
        "ClientPutRep",
        "ClientGetReq",
        "ClientGetRep",
        "DecideLocsReq",
        "DecideLocsRep",
        "FSDecideLocsReq",
        "LocsIndication",
        "StoreMetadataReq",
        "StoreMetadataRep",
        "StoreFragmentReq",
        "StoreFragmentRep",
        "AMRIndication",
        "RetrieveTsReq",
        "RetrieveTsRep",
        "RetrieveFragReq",
        "RetrieveFragRep",
        "KLSConvergeReq",
        "KLSConvergeRep",
        "FSConvergeReq",
        "FSConvergeRep",
        "SiblingStoreReq",
    ];

    /// Protocol event counters of the repair actor and the get path,
    /// indexed by the `EV_*` constants above.
    const EVENTS: &'static [&'static str] = &[
        "repair_triggered",
        "repair_completed",
        "repair_abandoned",
        "repair_bytes",
        "repair_queue_depth",
        "repair_throttle_stalls",
        "degraded_reads",
    ];

    fn kind_id(&self) -> usize {
        match self {
            Message::ClientPut { .. } => 0,
            Message::ClientPutReply { .. } => 1,
            Message::ClientGet { .. } => 2,
            Message::ClientGetReply { .. } => 3,
            Message::DecideLocs { .. } => 4,
            Message::DecideLocsReply { .. } => 5,
            Message::FsDecideLocs { .. } => 6,
            Message::LocsIndication { .. } => 7,
            Message::StoreMetadata { .. } => 8,
            Message::StoreMetadataReply { .. } => 9,
            Message::StoreFragment { .. } => 10,
            Message::StoreFragmentReply { .. } => 11,
            Message::AmrIndication { .. } => 12,
            Message::RetrieveTs { .. } => 13,
            Message::RetrieveTsReply { .. } => 14,
            Message::RetrieveFrag { .. } => 15,
            Message::RetrieveFragReply { .. } => 16,
            Message::ConvergeKls { .. } => 17,
            Message::ConvergeKlsReply { .. } => 18,
            Message::ConvergeFs { .. } => 19,
            Message::ConvergeFsReply { .. } | Message::RepairReport { .. } => 20,
            Message::SiblingStore { .. } => 21,
            Message::Batch(entries) => entries
                .first()
                .expect("a batch carries at least one entry")
                .kind_id(),
        }
    }

    fn wire_size(&self) -> usize {
        HEADER_BYTES
            + match self {
                Message::ClientPut { value, .. } => 8 + 8 + POLICY_BYTES + value.len(),
                Message::ClientPutReply { .. } => 8 + OV_BYTES + 1,
                Message::ClientGet { .. } => 8 + 8,
                Message::ClientGetReply { result, .. } => {
                    8 + 1 + result.as_ref().map_or(0, |(_, v)| OV_BYTES + v.len())
                }
                Message::DecideLocs { .. } => OV_BYTES + POLICY_BYTES + 1,
                Message::DecideLocsReply { locations, .. } => OV_BYTES + 1 + 6 * locations.len(),
                Message::FsDecideLocs { meta, .. } => OV_BYTES + meta.wire_size(),
                Message::LocsIndication { meta, .. } => OV_BYTES + meta.wire_size(),
                Message::StoreMetadata { meta, .. } => OV_BYTES + meta.wire_size(),
                Message::StoreMetadataReply { .. } => OV_BYTES + 1,
                Message::StoreFragment { meta, fragment, .. } => {
                    OV_BYTES + meta.wire_size() + 1 + fragment.len()
                }
                Message::StoreFragmentReply { .. } => OV_BYTES + 1,
                Message::AmrIndication { meta, .. } => OV_BYTES + meta.wire_size(),
                Message::RetrieveTs { older_than, .. } => 8 + 8 + 2 + older_than.map_or(1, |_| 13),
                Message::RetrieveTsReply { versions, .. } => {
                    8 + 8
                        + 1
                        + versions
                            .iter()
                            .map(|(_, m)| 12 + m.wire_size())
                            .sum::<usize>()
                }
                Message::RetrieveFrag { .. } => 8 + OV_BYTES + 1,
                Message::RetrieveFragReply { data, .. } => {
                    8 + OV_BYTES + 1 + data.as_ref().map_or(1, |f| 1 + f.len())
                }
                Message::ConvergeKls { meta, .. } => OV_BYTES + meta.wire_size(),
                Message::ConvergeKlsReply { .. } => OV_BYTES + 1,
                Message::ConvergeFs { meta, .. } => OV_BYTES + meta.wire_size() + 1,
                Message::ConvergeFsReply { have, missing, .. } => {
                    OV_BYTES + 2 + have.len() + missing.len()
                }
                Message::RepairReport { entries } => entries
                    .iter()
                    .map(|(_, m, have)| OV_BYTES + m.wire_size() + 1 + have.len())
                    .sum::<usize>(),
                Message::SiblingStore { meta, fragment, .. } => {
                    OV_BYTES + meta.wire_size() + fragment.len()
                }
                Message::Batch(entries) => entries
                    .iter()
                    .map(|entry| entry.wire_size() - HEADER_BYTES)
                    .sum::<usize>(),
            }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{NodeId, SimTime};

    fn ov() -> ObjectVersion {
        ObjectVersion::new(Key::from_u64(1), Timestamp::new(SimTime::ZERO, 0))
    }

    fn full_meta() -> Metadata {
        let mut m = Metadata::new(Policy::paper_default(), DataCenterId::new(0), 1000);
        for dc in 0..2u8 {
            let locs = (0..6)
                .map(|i| Location {
                    fs: NodeId::new(u32::from(dc) * 10 + u32::from(i) / 2),
                    disk: i % 2,
                })
                .collect();
            m.add_dc_locations(DataCenterId::new(dc), locs);
        }
        m
    }

    #[test]
    fn kinds_match_figure_legends() {
        let m = Arc::new(full_meta());
        let cases: Vec<(Message, &str)> = vec![
            (
                Message::DecideLocs {
                    ov: ov(),
                    policy: Policy::paper_default(),
                    home_dc: DataCenterId::new(0),
                },
                "DecideLocsReq",
            ),
            (
                Message::StoreFragment {
                    ov: ov(),
                    meta: m.clone(),
                    fragment: Fragment::new(0, vec![0u8; 250]),
                },
                "StoreFragmentReq",
            ),
            (
                Message::AmrIndication {
                    ov: ov(),
                    meta: m.clone(),
                },
                "AMRIndication",
            ),
            (
                Message::ConvergeKls {
                    ov: ov(),
                    meta: m.clone(),
                },
                "KLSConvergeReq",
            ),
            (
                Message::ConvergeFsReply {
                    ov: ov(),
                    verified: true,
                    have: vec![],
                    missing: vec![],
                    recovering: false,
                },
                "FSConvergeRep",
            ),
            (
                Message::SiblingStore {
                    ov: ov(),
                    meta: m,
                    fragment: Fragment::new(1, vec![0u8; 250]),
                },
                "SiblingStoreReq",
            ),
        ];
        for (msg, kind) in cases {
            assert_eq!(msg.kind(), kind);
            // A batch is more of the same traffic: its entries' label.
            assert_eq!(Message::Batch(vec![msg.clone(), msg]).kind(), kind);
        }
        // Batching adds no kind to the legends.
        assert_eq!(Message::KINDS.len(), 22);
    }

    #[test]
    fn a_batch_pays_one_header_for_all_its_entries() {
        let mut partial = Metadata::new(Policy::paper_default(), DataCenterId::new(0), 512);
        let locs = (0..6).map(|i| Location {
            fs: NodeId::new(u32::from(i) / 2),
            disk: i % 2,
        });
        partial.add_dc_locations(DataCenterId::new(0), locs.collect());
        let metas = [Arc::new(partial), Arc::new(full_meta())];
        // The round messages an FS batches, entry `i` of each kind, with
        // bodies of different sizes.
        let kinds: [&dyn Fn(usize) -> Message; 5] = [
            &|i| Message::ConvergeKls {
                ov: ov(),
                meta: metas[i % 2].clone(),
            },
            &|i| Message::ConvergeKlsReply {
                ov: ov(),
                verified: i % 2 == 0,
            },
            &|i| Message::ConvergeFs {
                ov: ov(),
                meta: metas[i % 2].clone(),
                recovery_intent: i % 3 == 0,
            },
            &|i| Message::ConvergeFsReply {
                ov: ov(),
                verified: false,
                have: vec![0; i % 3],
                missing: vec![1; i % 2],
                recovering: false,
            },
            &|i| Message::AmrIndication {
                ov: ov(),
                meta: metas[(i + 1) % 2].clone(),
            },
        ];
        for single in kinds {
            // One entry prices exactly as the message sent alone.
            assert_eq!(
                Message::Batch(vec![single(0)]).wire_size(),
                single(0).wire_size()
            );
            for n in 2..=8 {
                let entries: Vec<Message> = (0..n).map(single).collect();
                let alone: usize = entries.iter().map(Message::wire_size).sum();
                let batch = Message::Batch(entries);
                assert_eq!(batch.wire_size(), alone - (n - 1) * HEADER_BYTES);
                assert_eq!(batch.kind(), single(0).kind());
                assert!(!batch.is_client_traffic());
            }
        }
    }

    #[test]
    fn fragment_messages_dominate_bytes() {
        let m = Arc::new(full_meta());
        let frag = Fragment::new(0, vec![0u8; 25 * 1024]);
        let store = Message::StoreFragment {
            ov: ov(),
            meta: m.clone(),
            fragment: frag,
        };
        assert!(store.wire_size() > 25 * 1024);
        assert!(store.wire_size() < 25 * 1024 + 200);
        let ack = Message::StoreFragmentReply {
            ov: ov(),
            fragment: 0,
        };
        assert_eq!(ack.wire_size(), HEADER_BYTES + OV_BYTES + 1);
    }

    #[test]
    fn empty_fragment_reply_is_small() {
        let miss = Message::RetrieveFragReply {
            op: 1,
            ov: ov(),
            fragment: 3,
            data: None,
        };
        assert_eq!(miss.wire_size(), HEADER_BYTES + 8 + OV_BYTES + 2);
        let hit = Message::RetrieveFragReply {
            op: 1,
            ov: ov(),
            fragment: 3,
            data: Some(Fragment::new(3, vec![0u8; 100])),
        };
        assert!(hit.wire_size() > miss.wire_size() + 98);
    }

    #[test]
    fn event_ids_index_the_event_registry() {
        assert_eq!(Message::EVENTS[EV_REPAIR_TRIGGERED], "repair_triggered");
        assert_eq!(Message::EVENTS[EV_REPAIR_COMPLETED], "repair_completed");
        assert_eq!(Message::EVENTS[EV_REPAIR_ABANDONED], "repair_abandoned");
        assert_eq!(Message::EVENTS[EV_REPAIR_BYTES], "repair_bytes");
        assert_eq!(Message::EVENTS[EV_REPAIR_QUEUE_DEPTH], "repair_queue_depth");
        assert_eq!(
            Message::EVENTS[EV_REPAIR_THROTTLE_STALLS],
            "repair_throttle_stalls"
        );
        assert_eq!(Message::EVENTS[EV_DEGRADED_READS], "degraded_reads");
        assert_eq!(Message::EVENTS.len(), 7);
    }

    #[test]
    fn repair_report_shares_the_converge_reply_label() {
        let report = Message::RepairReport {
            entries: vec![(ov(), Arc::new(full_meta()), vec![0, 3])],
        };
        assert_eq!(report.kind(), "FSConvergeRep");
        // One header plus per-entry bodies.
        assert_eq!(
            report.wire_size(),
            HEADER_BYTES + OV_BYTES + full_meta().wire_size() + 1 + 2
        );
    }

    #[test]
    fn client_traffic_is_flagged() {
        let put = Message::ClientPut {
            op: 1,
            key: Key::from_u64(1),
            value: Bytes::from_static(b"v"),
            policy: Policy::paper_default(),
        };
        assert!(put.is_client_traffic());
        assert_eq!(put.kind(), "ClientPutReq");
        let probe = Message::ConvergeKls {
            ov: ov(),
            meta: Arc::new(full_meta()),
        };
        assert!(!probe.is_client_traffic());
    }

    #[test]
    fn retrieve_ts_reply_grows_per_version() {
        let one = Message::RetrieveTsReply {
            op: 0,
            key: Key::from_u64(1),
            versions: vec![(Timestamp::new(SimTime::ZERO, 0), Arc::new(full_meta()))],
            more: false,
        };
        let two = Message::RetrieveTsReply {
            op: 0,
            key: Key::from_u64(1),
            versions: vec![
                (Timestamp::new(SimTime::ZERO, 0), Arc::new(full_meta())),
                (Timestamp::new(SimTime::ZERO, 1), Arc::new(full_meta())),
            ],
            more: false,
        };
        assert_eq!(
            two.wire_size() - one.wire_size(),
            12 + full_meta().wire_size()
        );
    }
}
