//! Property test: every registered invariant holds across randomized
//! fault plans, for both the naïve and the fully optimized convergence
//! configurations.

use check::explorer::{run_scenario, FaultSpec, Outage, Preset, Scenario};
use pahoehoe::workload::StreamingWorkload;
use pahoehoe::Policy;
use proptest::prelude::*;

fn workload() -> StreamingWorkload {
    StreamingWorkload::numbered(2, 1, 2048, Policy::paper_default())
}

fn assert_invariants_hold(seed: u64, faults: FaultSpec, preset: Preset) {
    let sc = Scenario {
        seed,
        faults,
        preset,
        workload: workload(),
        ..Scenario::default()
    };
    let outcome = run_scenario(&sc, false);
    assert!(
        outcome.violation.is_none(),
        "invariant violated: {:?} for {sc:?}",
        outcome.violation
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    #[test]
    fn invariants_hold_under_random_faults(
        seed in 0u64..10_000,
        drop_centi in 0u8..=8,
        dup_centi in 0u8..=5,
        // Server node index (paper layout: ids 0–9 are KLSs and FSs) and
        // outage window.
        node in 0u32..10,
        start_secs in 0u64..=30,
        dur_secs in 1u64..=90,
    ) {
        let faults = FaultSpec {
            drop_centi,
            dup_centi,
            outages: vec![Outage { node, start_secs, dur_secs }],
        };
        assert_invariants_hold(seed, faults.clone(), Preset::Naive);
        assert_invariants_hold(seed, faults, Preset::All);
    }

    #[test]
    fn invariants_hold_fault_free(seed in 0u64..10_000) {
        assert_invariants_hold(seed, FaultSpec::clean(), Preset::Naive);
        assert_invariants_hold(seed, FaultSpec::clean(), Preset::All);
    }
}
