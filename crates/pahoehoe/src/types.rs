//! Core identifiers: keys, timestamps, object versions.

use std::fmt;

use simnet::SimTime;

/// An application-provided object name.
///
/// Pahoehoe keys are opaque byte strings; for compact simulation we
/// fingerprint them into a 64-bit value at the API boundary and carry the
/// fingerprint on the wire (collisions are irrelevant to the protocol
/// behaviour being studied and astronomically unlikely at workload sizes).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Key(u64);

impl Key {
    /// Creates a key directly from a 64-bit value.
    pub const fn from_u64(v: u64) -> Self {
        Key(v)
    }

    /// Fingerprints an arbitrary byte-string name into a key (FNV-1a).
    pub fn from_name(name: &[u8]) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in name {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        Key(h)
    }

    /// The key's 64-bit representation.
    pub const fn as_u64(self) -> u64 {
        self.0
    }
}

impl fmt::Debug for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "k{:016x}", self.0)
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Bits of a timestamp below its clock reading: the proxy id.
const ID_BITS: u32 = 16;

/// The first microsecond reading a timestamp cannot hold: 2⁴⁸ µs, about
/// 8.9 years of simulated time.
pub const MICROS_LIMIT: u64 = 1 << (64 - ID_BITS);

/// The number of proxy ids a timestamp can name: 2¹⁶ = 65 536.
pub const ID_LIMIT: u64 = 1 << ID_BITS;

/// A globally unique, totally ordered version timestamp.
///
/// Per the paper (§3.2), "each proxy constructs a globally unique timestamp
/// by concatenating the time from the loosely synchronized local clock with
/// its own unique identifier". This is that concatenation, in one word:
/// the clock's microseconds in the high 48 bits, the proxy id in the low
/// 16. Ordering is therefore lexicographic on `(clock, proxy)`, so
/// concurrent puts at different proxies are ordered deterministically and
/// never collide: both fields are unsigned and the clock sits above the
/// id, so the word's integer order is the pair's. The bounds are 2⁴⁸ µs of
/// clock (8.9 years) and 2¹⁶ proxies; [`Timestamp::new`] panics past
/// either instead of wrapping into another timestamp's order, and
/// `Cluster::build_with_faults` rejects a configuration that could reach
/// either limit.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Timestamp(u64);

impl Timestamp {
    /// The smallest timestamp; `ObjectVersion::new(key, Timestamp::MIN)`
    /// lower-bounds every version of `key` in ordered scans.
    pub const MIN: Timestamp = Timestamp(0);

    /// The largest timestamp (clock 2⁴⁸ − 1 µs, proxy 2¹⁶ − 1); upper
    /// bound for per-key ordered scans.
    pub const MAX: Timestamp = Timestamp(u64::MAX);

    /// Builds a timestamp from a proxy clock reading and proxy id.
    ///
    /// # Panics
    ///
    /// If the reading is 2⁴⁸ µs or later, or `proxy` is 2¹⁶ or more.
    pub fn new(clock: SimTime, proxy: u32) -> Self {
        let micros = clock.as_micros();
        assert!(
            micros < MICROS_LIMIT,
            "{micros} µs does not fit a 48-bit reading (limit 2^48 µs, about 8.9 years)"
        );
        assert!(
            u64::from(proxy) < ID_LIMIT,
            "id {proxy} does not fit a 16-bit id (limit 2^16 = 65536 ids)"
        );
        Timestamp(micros << ID_BITS | u64::from(proxy))
    }

    /// The clock component in microseconds.
    pub const fn clock_micros(self) -> u64 {
        self.0 >> ID_BITS
    }

    /// The proxy-id component.
    pub const fn proxy(self) -> u32 {
        self.0 as u16 as u32
    }
}

impl fmt::Debug for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ts({}us@p{})", self.clock_micros(), self.proxy())
    }
}

/// An object version: a `(key, timestamp)` pair, the unit that put, get and
/// convergence all operate on.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjectVersion {
    /// The object's key.
    pub key: Key,
    /// The version's unique timestamp.
    pub ts: Timestamp,
}

impl ObjectVersion {
    /// Pairs a key with a timestamp.
    pub const fn new(key: Key, ts: Timestamp) -> Self {
        ObjectVersion { key, ts }
    }
}

impl fmt::Debug for ObjectVersion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}@{:?}", self.key, self.ts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::SimDuration;

    #[test]
    fn key_fingerprint_is_deterministic_and_spread() {
        assert_eq!(Key::from_name(b"photo"), Key::from_name(b"photo"));
        assert_ne!(Key::from_name(b"photo"), Key::from_name(b"photos"));
        assert_eq!(Key::from_u64(7).as_u64(), 7);
    }

    #[test]
    fn timestamp_min_max_bound_every_value() {
        let t = Timestamp::new(SimTime::from_micros(123), 9);
        assert!(Timestamp::MIN <= t && t <= Timestamp::MAX);
        let k = Key::from_u64(5);
        assert!(ObjectVersion::new(k, Timestamp::MIN) <= ObjectVersion::new(k, t));
        assert!(ObjectVersion::new(k, t) <= ObjectVersion::new(k, Timestamp::MAX));
    }

    /// The version identity is two words, and a timestamp one: a field
    /// that grows what every stored or sent version costs fails here.
    #[test]
    fn identity_layout_is_pinned() {
        assert_eq!(std::mem::size_of::<Timestamp>(), 8);
        assert_eq!(std::mem::size_of::<ObjectVersion>(), 16);
    }

    #[test]
    fn the_word_holds_both_range_ends() {
        for (micros, id) in [
            (0, 0),
            (MICROS_LIMIT - 1, 0),
            (0, 65_535),
            (MICROS_LIMIT - 1, 65_535),
        ] {
            let ts = Timestamp::new(SimTime::from_micros(micros), id);
            assert_eq!((ts.clock_micros(), ts.proxy()), (micros, id));
        }
        assert_eq!(Timestamp::new(SimTime::ZERO, 0), Timestamp::MIN);
        let last = Timestamp::new(SimTime::from_micros(MICROS_LIMIT - 1), 65_535);
        assert_eq!(last, Timestamp::MAX);
        assert_eq!(
            (last.clock_micros(), last.proxy()),
            (MICROS_LIMIT - 1, 65_535)
        );
    }

    #[test]
    #[should_panic(expected = "limit 2^48 µs")]
    fn a_clock_of_2_pow_48_micros_is_refused() {
        Timestamp::new(SimTime::from_micros(MICROS_LIMIT), 0);
    }

    #[test]
    #[should_panic(expected = "limit 2^16 = 65536 ids")]
    fn proxy_65536_is_refused() {
        Timestamp::new(SimTime::ZERO, 65_536);
    }

    #[test]
    fn timestamps_order_by_clock_then_proxy() {
        let t0 = SimTime::ZERO;
        let t1 = SimTime::ZERO + SimDuration::from_micros(1);
        assert!(Timestamp::new(t0, 9) < Timestamp::new(t1, 0));
        assert!(Timestamp::new(t0, 0) < Timestamp::new(t0, 1));
        assert_eq!(Timestamp::new(t0, 1), Timestamp::new(t0, 1));
    }

    #[test]
    fn concurrent_puts_at_distinct_proxies_never_collide() {
        let t = SimTime::ZERO + SimDuration::from_secs(5);
        assert_ne!(Timestamp::new(t, 1), Timestamp::new(t, 2));
    }

    #[test]
    fn object_version_identity() {
        let k = Key::from_name(b"a");
        let ts = Timestamp::new(SimTime::ZERO, 0);
        let ov = ObjectVersion::new(k, ts);
        assert_eq!(ov.key, k);
        assert_eq!(ov.ts, ts);
        let ov2 = ObjectVersion::new(k, Timestamp::new(SimTime::ZERO, 1));
        assert_ne!(ov, ov2);
        assert!(ov < ov2);
    }

    #[test]
    fn debug_formats() {
        let ov = ObjectVersion::new(
            Key::from_u64(0xabc),
            Timestamp::new(SimTime::from_micros(12), 3),
        );
        let s = format!("{ov:?}");
        assert!(s.contains("k0000000000000abc"), "{s}");
        assert!(s.contains("12us@p3"), "{s}");
    }
}
