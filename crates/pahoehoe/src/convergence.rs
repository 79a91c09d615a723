//! Convergence configuration: the naïve protocol plus the paper's
//! optimizations (§4), each independently switchable.

use simnet::SimDuration;

use crate::repair::RepairOptions;

/// Period of [synchronized](RoundSchedule::Synchronized) rounds: the
/// midpoint of the paper's 30–90 s range. Every FS fires at its multiples.
pub const SYNC_PERIOD: SimDuration = SimDuration::from_secs(60);

/// How fragment servers schedule their periodic convergence rounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoundSchedule {
    /// Every FS fires rounds at the same multiples of [`SYNC_PERIOD`].
    /// This is the worst case for the FS-AMR-indication optimization (the
    /// paper's *FSAMR-S* configuration): sibling steps run simultaneously,
    /// so the indications arrive too late to save work.
    Synchronized,
    /// Rounds are "scheduled uniformly randomly between every 30 and 90
    /// seconds" (§4.1), de-synchronizing siblings so one FS's indication
    /// can cancel the others' steps (*FSAMR-U*).
    Unsynchronized,
}

/// The six convergence configurations evaluated in the paper (§5), each
/// naming one [`ConvergenceOptions`] constructor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Preset {
    /// Naïve convergence (§3.4).
    Naive,
    /// FS AMR indications, synchronized rounds (*FSAMR-S*).
    FsAmrSynchronized,
    /// FS AMR indications, unsynchronized rounds (*FSAMR-U*).
    FsAmrUnsynchronized,
    /// Proxy Put-AMR indications (*PutAMR*).
    PutAmr,
    /// Sibling fragment recovery (*Sibling*).
    Sibling,
    /// Every optimization (*All*).
    All,
}

impl Preset {
    /// All six presets, in the paper's presentation order.
    pub const ALL: [Preset; 6] = [
        Preset::Naive,
        Preset::FsAmrSynchronized,
        Preset::FsAmrUnsynchronized,
        Preset::PutAmr,
        Preset::Sibling,
        Preset::All,
    ];

    /// The paper's label for this configuration.
    pub fn name(self) -> &'static str {
        match self {
            Preset::Naive => "Naive",
            Preset::FsAmrSynchronized => "FSAMR-S",
            Preset::FsAmrUnsynchronized => "FSAMR-U",
            Preset::PutAmr => "PutAMR",
            Preset::Sibling => "Sibling",
            Preset::All => "All",
        }
    }

    /// The preset whose [`name`](Preset::name) is `text`, ignoring case
    /// (`naive`, `fsamr-s`, …, `all`).
    pub fn parse(text: &str) -> Option<Preset> {
        Preset::ALL
            .into_iter()
            .find(|p| p.name().eq_ignore_ascii_case(text))
    }

    /// The corresponding [`ConvergenceOptions`].
    pub fn options(self) -> ConvergenceOptions {
        match self {
            Preset::Naive => ConvergenceOptions::naive(),
            Preset::FsAmrSynchronized => ConvergenceOptions::fs_amr_synchronized(),
            Preset::FsAmrUnsynchronized => ConvergenceOptions::fs_amr_unsynchronized(),
            Preset::PutAmr => ConvergenceOptions::put_amr(),
            Preset::Sibling => ConvergenceOptions::sibling(),
            Preset::All => ConvergenceOptions::all(),
        }
    }
}

/// Tunable parameters and optimization switches for convergence.
///
/// The presets correspond to the configurations evaluated in the paper:
/// [`naive`](ConvergenceOptions::naive), [`fs_amr_synchronized`]
/// (FSAMR-S), [`fs_amr_unsynchronized`] (FSAMR-U), [`put_amr`] (Fig. 6's
/// *PutAMR*), [`sibling`] (Fig. 6's *Sibling*) and
/// [`all`](ConvergenceOptions::all) (Fig. 5's *PutAMR* bar and Fig. 6's
/// *All*).
///
/// [`fs_amr_synchronized`]: ConvergenceOptions::fs_amr_synchronized
/// [`fs_amr_unsynchronized`]: ConvergenceOptions::fs_amr_unsynchronized
/// [`put_amr`]: ConvergenceOptions::put_amr
/// [`sibling`]: ConvergenceOptions::sibling
#[derive(Debug, Clone, PartialEq)]
pub struct ConvergenceOptions {
    /// FS-AMR indications (§4.1): an FS that completes verification
    /// broadcasts an AMR indication so its siblings skip their own steps.
    pub fs_amr_indication: bool,
    /// Put-AMR indications (§4.1): the proxy broadcasts AMR indications at
    /// the end of a fully successful put, eliminating convergence entirely
    /// in the failure-free case.
    pub put_amr_indication: bool,
    /// Sibling fragment recovery (§4.2): one FS retrieves `k` fragments
    /// and regenerates *all* missing sibling fragments, pushing them to
    /// the siblings, instead of every FS retrieving `k` fragments itself.
    pub sibling_recovery: bool,
    /// Round scheduling; see [`RoundSchedule`].
    pub schedule: RoundSchedule,
    /// An FS only initiates convergence on versions older than this, so an
    /// in-flight put can finish first ("currently 300 seconds", §4.1; the
    /// naïve protocol has no such delay).
    ///
    /// "Older" is the version's own age — the FS's clock minus the proxy
    /// clock reading in the version's timestamp — not the time since this
    /// FS first heard of it: a version waits once, and an FS that adopts
    /// it late (back from an outage through a sibling's probe, across a
    /// healed partition, re-pended by scrub) steps it at its next round.
    /// This leans on the paper's loosely synchronized clocks, as version
    /// ordering already does: a proxy running `S` ahead delays convergence
    /// of its versions by `S`; one running behind starts it `S` early,
    /// which can cost probes racing the put, never safety.
    pub min_age: SimDuration,
    /// Lower bound of the unsynchronized round interval (paper: 30 s).
    pub round_min: SimDuration,
    /// Upper bound of the unsynchronized round interval (paper: 90 s).
    pub round_max: SimDuration,
    /// Exponential-backoff base for repeatedly unsuccessful convergence
    /// steps on one object version (§3.5: "the older the non-AMR object
    /// version, the longer before a convergence step is tried again").
    pub backoff_base: SimDuration,
    /// Cap on the per-version backoff delay.
    pub backoff_cap: SimDuration,
    /// Stop attempting convergence for versions older than this
    /// ("in practice, we set this parameter to two months", §3.5).
    /// `None` retries forever — the experiments use `None` and rely on the
    /// harness's stop predicate instead. Unlike [`min_age`](Self::min_age)
    /// this counts from when the FS learned of (or re-pended) the version:
    /// an old version that scrub or a disk loss re-pends is retried for
    /// the full span, not abandoned on arrival.
    pub give_up_age: Option<SimDuration>,
    /// How long a sibling-recovering FS accumulates `ConvergeFsReply`
    /// need-reports before retrieving fragments ("waits some time", §4.2).
    pub recovery_wait: SimDuration,
    /// Abandon an in-flight fragment recovery after this long (retried
    /// with backoff at a later round).
    pub recovery_timeout: SimDuration,
    /// Periodic disk-scrub interval: each tick re-hashes the next 64 KiB
    /// of stored fragments, resuming where the last tick stopped, and
    /// drops corrupted ones back into convergence (§3.1's elided
    /// corruption detection). `None` (the default, matching the
    /// paper's experiments) disables scrubbing; corruption is then still
    /// caught on the read path.
    pub scrub_interval: Option<SimDuration>,
    /// Background repair engine configuration. `None` (the default — the
    /// paper has no repair engine, and the pinned sweep digests assume
    /// its absence) runs no repair actors; `Some` adds one
    /// [`RepairActor`](crate::repair::RepairActor) per data center fed by
    /// periodic FS inventory reports.
    pub repair: Option<RepairOptions>,
}

impl ConvergenceOptions {
    fn base() -> Self {
        ConvergenceOptions {
            fs_amr_indication: false,
            put_amr_indication: false,
            sibling_recovery: false,
            schedule: RoundSchedule::Synchronized,
            min_age: SimDuration::ZERO,
            round_min: SimDuration::from_secs(30),
            round_max: SimDuration::from_secs(90),
            backoff_base: SimDuration::from_secs(60),
            backoff_cap: SimDuration::from_secs(600),
            give_up_age: None,
            recovery_wait: SimDuration::from_millis(500),
            recovery_timeout: SimDuration::from_secs(5),
            scrub_interval: None,
            repair: None,
        }
    }

    /// Naïve convergence (§3.4): no indications, no sibling recovery,
    /// synchronized rounds.
    pub fn naive() -> Self {
        ConvergenceOptions::base()
    }

    /// *FSAMR-S*: FS AMR indications with synchronized round starts — the
    /// configuration the paper shows costs ~13 % **more** messages than
    /// naïve, because simultaneous sibling steps make the indications pure
    /// overhead.
    pub fn fs_amr_synchronized() -> Self {
        ConvergenceOptions {
            fs_amr_indication: true,
            ..ConvergenceOptions::base()
        }
    }

    /// *FSAMR-U*: FS AMR indications with unsynchronized rounds (~57 %
    /// fewer messages than naïve in the failure-free case). Also Fig. 6's
    /// *FSAMR* setting.
    pub fn fs_amr_unsynchronized() -> Self {
        ConvergenceOptions {
            fs_amr_indication: true,
            schedule: RoundSchedule::Unsynchronized,
            ..ConvergenceOptions::base()
        }
    }

    /// Fig. 6's *PutAMR* setting: proxy AMR indications only (with the
    /// 300 s minimum age that lets puts finish), unsynchronized rounds.
    pub fn put_amr() -> Self {
        ConvergenceOptions {
            put_amr_indication: true,
            min_age: SimDuration::from_secs(300),
            schedule: RoundSchedule::Unsynchronized,
            ..ConvergenceOptions::base()
        }
    }

    /// Fig. 6's *Sibling* setting: unsynchronized sibling fragment
    /// recovery only.
    pub fn sibling() -> Self {
        ConvergenceOptions {
            sibling_recovery: true,
            schedule: RoundSchedule::Unsynchronized,
            ..ConvergenceOptions::base()
        }
    }

    /// Every optimization enabled (Fig. 5's *PutAMR* bar, Fig. 6's *All*).
    pub fn all() -> Self {
        ConvergenceOptions {
            fs_amr_indication: true,
            put_amr_indication: true,
            sibling_recovery: true,
            schedule: RoundSchedule::Unsynchronized,
            min_age: SimDuration::from_secs(300),
            ..ConvergenceOptions::base()
        }
    }

    /// Returns the backoff delay after `attempts` unsuccessful convergence
    /// steps: `base * 2^(attempts-1)`, capped; zero before any attempt.
    pub fn backoff_delay(&self, attempts: u32) -> SimDuration {
        if attempts == 0 {
            return SimDuration::ZERO;
        }
        let factor = 1u64 << (attempts - 1).min(20);
        self.backoff_base
            .saturating_mul(factor)
            .min(self.backoff_cap)
    }
}

impl Default for ConvergenceOptions {
    fn default() -> Self {
        ConvergenceOptions::all()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper_configurations() {
        let naive = ConvergenceOptions::naive();
        assert!(!naive.fs_amr_indication);
        assert!(!naive.put_amr_indication);
        assert!(!naive.sibling_recovery);
        assert_eq!(naive.min_age, SimDuration::ZERO);

        let s = ConvergenceOptions::fs_amr_synchronized();
        assert!(s.fs_amr_indication);
        assert_eq!(s.schedule, RoundSchedule::Synchronized);

        let u = ConvergenceOptions::fs_amr_unsynchronized();
        assert_eq!(u.schedule, RoundSchedule::Unsynchronized);

        let p = ConvergenceOptions::put_amr();
        assert!(p.put_amr_indication && !p.fs_amr_indication);
        assert_eq!(p.min_age, SimDuration::from_secs(300));

        let sib = ConvergenceOptions::sibling();
        assert!(sib.sibling_recovery && !sib.fs_amr_indication);

        let all = ConvergenceOptions::all();
        assert!(all.fs_amr_indication && all.put_amr_indication && all.sibling_recovery);
    }

    #[test]
    fn preset_parse_accepts_every_name_in_any_case() {
        for p in Preset::ALL {
            assert_eq!(Preset::parse(p.name()), Some(p));
            assert_eq!(Preset::parse(&p.name().to_uppercase()), Some(p));
        }
        let lower = ["naive", "fsamr-s", "fsamr-u", "putamr", "sibling", "all"];
        for (text, p) in lower.into_iter().zip(Preset::ALL) {
            assert_eq!(Preset::parse(text), Some(p), "{text}");
        }
        assert_eq!(Preset::parse("bogus"), None);
        assert_eq!(Preset::parse("fsamr"), None);
    }

    #[test]
    fn round_interval_matches_paper() {
        let o = ConvergenceOptions::default();
        assert_eq!(o.round_min, SimDuration::from_secs(30));
        assert_eq!(o.round_max, SimDuration::from_secs(90));
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let o = ConvergenceOptions::naive();
        assert_eq!(o.backoff_delay(0), SimDuration::ZERO);
        assert_eq!(o.backoff_delay(1), SimDuration::from_secs(60));
        assert_eq!(o.backoff_delay(2), SimDuration::from_secs(120));
        assert_eq!(o.backoff_delay(3), SimDuration::from_secs(240));
        assert_eq!(o.backoff_delay(4), SimDuration::from_secs(480));
        assert_eq!(o.backoff_delay(5), SimDuration::from_secs(600), "capped");
        assert_eq!(o.backoff_delay(63), SimDuration::from_secs(600));
    }

    #[test]
    fn default_is_fully_optimized() {
        assert_eq!(ConvergenceOptions::default(), ConvergenceOptions::all());
    }
}
