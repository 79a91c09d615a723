//! The message payload contract.

/// A message type that can travel through the simulated network.
///
/// The methods feed the per-kind [`Metrics`](crate::Metrics): the paper
/// reports both the **number of messages sent** and the **message bytes
/// sent**, broken down by message kind (the stacked legends of Figures
/// 5–8), so each payload declares a metric label and a modeled wire size.
///
/// Kinds form a compile-time registry: [`KINDS`](Payload::KINDS) lists
/// every label and [`kind_id`](Payload::kind_id) returns this message's
/// dense index into it. The engine's `record_send` is then a single array
/// index — no map lookup on the per-message hot path — while reports
/// still render labels (sorted) through [`kind`](Payload::kind).
pub trait Payload: Clone {
    /// Every metric label this message type can produce, indexed by
    /// [`kind_id`](Payload::kind_id). Order is arbitrary but fixed; it is
    /// the layout of the per-kind metric arrays.
    const KINDS: &'static [&'static str];

    /// Protocol event counters this payload's actors may record via
    /// [`Metrics::record_event`](crate::Metrics::record_event), indexed by
    /// event id. These count protocol-level happenings (repairs triggered,
    /// bytes repaired, degraded reads) rather than messages, and stay out
    /// of the per-kind send/drop tables. Defaults to none.
    const EVENTS: &'static [&'static str] = &[];

    /// Dense index of this message's kind into [`KINDS`](Payload::KINDS).
    fn kind_id(&self) -> usize;

    /// Stable metric label for this message, e.g. `"StoreFragmentReq"`.
    fn kind(&self) -> &'static str {
        Self::KINDS[self.kind_id()]
    }

    /// Modeled size of the message on the wire, in bytes, including any
    /// fragment payload it carries.
    fn wire_size(&self) -> usize;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone)]
    struct Blob(usize);
    impl Payload for Blob {
        const KINDS: &'static [&'static str] = &["Blob"];
        fn kind_id(&self) -> usize {
            0
        }
        fn wire_size(&self) -> usize {
            self.0
        }
    }

    #[test]
    fn payload_contract() {
        let b = Blob(128);
        assert_eq!(b.kind_id(), 0);
        assert_eq!(b.kind(), "Blob", "kind defaults through the registry");
        assert_eq!(b.wire_size(), 128);
    }
}
