//! `aa`: two sets of runs of the same build, judged by the benchmark's
//! own bounds. A benchmark that cannot pass this cannot judge a change.

use crate::metrics::{median, quartile_spread, END_TO_END};
use crate::run::end_to_end;
use crate::workloads::{NOMINAL_SECONDS, WORKLOADS};

/// Runs `sets` sets of `runs` runs per workload (run `i` of every set
/// uses seed `seed + i`, as the driver varies seeds within a set) and
/// prints one row per workload × metric: `pass` when a later set's median
/// is no worse than the first's by more than the bound, `fail` when it is,
/// `unresolved` when a set's own quartile spread is wider than the bound.
pub fn run(sets: u64, runs: u64, seed: u64, only: Option<&str>) -> Result<bool, String> {
    let mut all_pass = true;
    println!(
        "{:<17} {:<26} {:>14} {:>14} {:>8} {:>7} {:>8}  verdict",
        "workload", "metric", "median A", "median B", "worse %", "bound %", "spread %"
    );
    for w in WORKLOADS
        .iter()
        .filter(|w| only.is_none_or(|o| o == w.name))
    {
        let ops = w.ops_for(NOMINAL_SECONDS, 1);
        // values[set][metric][run]
        let mut values = vec![vec![Vec::new(); END_TO_END.len()]; sets as usize];
        for set in &mut values {
            for i in 0..runs {
                let report = end_to_end(w, seed + i, ops, &[])?;
                if !report.correct {
                    return Err(format!("{} seed {} failed its checks", w.name, seed + i));
                }
                for (m, slot) in END_TO_END.iter().zip(set.iter_mut()) {
                    slot.push(report.get(m.name));
                }
            }
        }
        for (mi, m) in END_TO_END.iter().enumerate() {
            let a = median(&values[0][mi]);
            for set in &values[1..] {
                let b = median(&set[mi]);
                let worse = if m.higher_is_better { a - b } else { b - a } / a;
                let spread = quartile_spread(&values[0][mi]).max(quartile_spread(&set[mi]));
                let verdict = if spread > m.bound {
                    "unresolved"
                } else if worse > m.bound {
                    "fail"
                } else {
                    "pass"
                };
                all_pass &= verdict == "pass";
                println!(
                    "{:<17} {:<26} {:>14.6} {:>14.6} {:>8.3} {:>7.1} {:>8.3}  {verdict}",
                    w.name,
                    m.name,
                    a,
                    b,
                    worse * 100.0,
                    m.bound * 100.0,
                    spread * 100.0
                );
            }
        }
    }
    Ok(all_pass)
}
