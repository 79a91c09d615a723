//! Replay determinism: two identically seeded full-cluster runs are
//! bit-for-bit identical — same event count, same metrics, same message
//! trace — even under message loss, duplication and an outage.

use check::explorer::{run_scenario, FaultSpec, Outage, Preset, Scenario};
use pahoehoe::workload::StreamingWorkload;
use pahoehoe::Policy;

fn faulty_scenario(seed: u64, puts: u64) -> Scenario {
    Scenario {
        seed,
        faults: FaultSpec {
            drop_centi: 5,
            dup_centi: 3,
            outages: vec![Outage {
                node: 4, // an FS in DC 0 under the paper layout
                start_secs: 0,
                dur_secs: 45,
            }],
        },
        preset: Preset::All,
        workload: StreamingWorkload::numbered(puts, 1, 2048, Policy::paper_default()),
        ..Scenario::default()
    }
}

#[test]
fn identical_seeds_replay_byte_identically() {
    let sc = faulty_scenario(42, 3);
    let a = run_scenario(&sc, true);
    let b = run_scenario(&sc, true);

    assert!(a.violation.is_none() && b.violation.is_none());
    assert_eq!(a.events, b.events, "event counts diverged");
    assert_eq!(a.sim_time, b.sim_time, "virtual clocks diverged");
    assert_eq!(a.outcome, b.outcome);
    assert_eq!(a.metrics_digest, b.metrics_digest, "metrics diverged");
    let (ta, tb) = (a.trace.unwrap(), b.trace.unwrap());
    assert!(!ta.is_empty());
    assert_eq!(ta, tb, "message traces diverged");
}

#[test]
fn different_seeds_diverge() {
    let a = run_scenario(&faulty_scenario(1, 2), true);
    let b = run_scenario(&faulty_scenario(2, 2), true);
    assert_ne!(
        a.trace.unwrap(),
        b.trace.unwrap(),
        "different seeds must explore different schedules"
    );
}
