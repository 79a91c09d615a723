//! The paper's relative claims, checked against the committed full-scale
//! tables under `results/` — every "Reproduced claims" bullet of
//! `EXPERIMENTS.md` that a table can decide. Reads files only, so it runs
//! in milliseconds; a change that moves a figure regenerates the tables
//! (`results/README.md`), and this test says whether the paper still holds.

use std::collections::BTreeMap;

/// Bytes in the paper's MiB.
const MIB: f64 = (1 << 20) as f64;

/// One committed CSV: a header row naming the columns, then one row per
/// label (a message kind, or a drop rate).
struct Csv {
    columns: Vec<String>,
    rows: BTreeMap<String, Vec<String>>,
}

impl Csv {
    fn read(name: &str) -> Csv {
        let path = format!("{}/../../results/{name}", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        let mut lines = text.lines().map(|l| l.split(',').map(str::to_string));
        let columns = lines.next().expect("header").skip(1).collect();
        let rows = lines
            .map(|mut cells| (cells.next().expect("label"), cells.collect()))
            .collect();
        Csv { columns, rows }
    }

    fn cell(&self, row: &str, column: &str) -> &str {
        let at = self.columns.iter().position(|c| c == column);
        let at = at.unwrap_or_else(|| panic!("no column {column}"));
        &self.rows.get(row).unwrap_or_else(|| panic!("no row {row}"))[at]
    }

    /// A numeric cell. A missing row panics: the tables hold a row for
    /// every kind any of their configurations sent, with 0 in the columns
    /// of the others, so a label no row carries is renamed or misspelled.
    fn get(&self, row: &str, column: &str) -> f64 {
        let cell = self.cell(row, column);
        cell.parse()
            .unwrap_or_else(|_| panic!("{row}/{column} = {cell:?}"))
    }

    fn total(&self, column: &str) -> f64 {
        self.get("TOTAL", column)
    }
}

const CONVERGE_KINDS: [&str; 4] = [
    "KLSConvergeReq",
    "KLSConvergeRep",
    "FSConvergeReq",
    "FSConvergeRep",
];
const SINGLE_SETTINGS: [&str; 3] = ["PutAMR", "FSAMR", "Sibling"];

#[test]
fn figure_5_failure_free() {
    let counts = Csv::read("fig5_counts.csv");
    let naive = counts.total("Naive");
    let relative = |config| counts.total(config) / naive - 1.0;
    assert!(relative("FSAMR-S") > 0.0, "FSAMR-S costs more than Naive");
    // Within ten points of the paper's −57 % and −68 %.
    let fsamr_u = relative("FSAMR-U");
    assert!((-0.67..=-0.47).contains(&fsamr_u), "FSAMR-U {fsamr_u:+.3}");
    let put_amr = relative("PutAMR");
    assert!((-0.78..=-0.58).contains(&put_amr), "PutAMR {put_amr:+.3}");
    assert!(
        naive >= 4.0 * counts.total("Idealized"),
        "Naive ≥ 4× Idealized"
    );
    for kind in CONVERGE_KINDS {
        assert_eq!(counts.get(kind, "PutAMR"), 0.0, "PutAMR sends no {kind}");
    }

    // Bytes are fragment-dominated and nearly the same everywhere: three
    // times the 100 × 100 KiB of user data under the (4, 12) policy.
    let bytes = Csv::read("fig5_bytes.csv");
    let user = 100.0 * 100.0 * 1024.0;
    let totals: Vec<f64> = bytes.columns.iter().map(|c| bytes.total(c)).collect();
    let (lo, hi) = totals
        .iter()
        .fold((f64::MAX, 0.0_f64), |(lo, hi), &t| (lo.min(t), hi.max(t)));
    assert!(hi <= 1.06 * lo, "byte totals {totals:?}");
    for config in &bytes.columns {
        let fragments = bytes.get("StoreFragmentReq", config);
        assert!(fragments >= 0.9 * bytes.total(config), "{config}");
        assert!((2.9..=3.1).contains(&(fragments / user)), "{config}");
    }
}

#[test]
fn figure_6_fs_failures_message_count() {
    let counts = Csv::read("fig6_counts.csv");
    let total = |down: usize, setting: &str| counts.total(&format!("{down}-{setting}"));
    let failure_free = counts.total("0-All");
    for down in 1..=4 {
        for setting in SINGLE_SETTINGS.iter().chain(&["All"]) {
            let column = format!("{down}-{setting}");
            let all = counts.total(&column);
            assert!(all >= 3.0 * failure_free, "{column} vs failure-free");
            let converge: f64 = CONVERGE_KINDS.iter().map(|k| counts.get(k, &column)).sum();
            assert!(converge > all / 2.0, "{column}: converge pairs dominate");
            if down > 1 {
                assert!(
                    all < total(down - 1, setting),
                    "{column} falls with FSs down"
                );
            }
        }
        // The optimisations are cumulative: `All` is lowest, by 20–33 %.
        let best_single = SINGLE_SETTINGS
            .iter()
            .map(|s| total(down, s))
            .fold(f64::MAX, f64::min);
        let saving = 1.0 - total(down, "All") / best_single;
        assert!((0.195..0.335).contains(&saving), "{down} down: {saving:.3}");
        // FSAMR is the cheapest single setting from two FSs down; with
        // one down, PutAMR's `min_age` keeps it under FSAMR.
        let cheapest = if down == 1 { "PutAMR" } else { "FSAMR" };
        assert_eq!(total(down, cheapest), best_single, "{down} down");
    }
}

#[test]
fn figure_7_fs_failures_message_bytes() {
    let bytes = Csv::read("fig7_bytes.csv");
    let cell = |kind, down: usize, setting: &str| bytes.get(kind, &format!("{down}-{setting}"));
    let fragment_traffic = bytes.get("StoreFragmentReq", "0-All");
    for down in 1..=4 {
        // Without sibling recovery every rebuilding FS retrieves k
        // fragments itself; with it, one retrieval of k per version —
        // a third of the fragment-store traffic, whatever is down.
        for setting in ["PutAMR", "FSAMR"] {
            let retrieved = cell("RetrieveFragRep", down, setting);
            assert!(retrieved > cell("RetrieveFragRep", down, "Sibling"));
            if down > 1 {
                assert!(retrieved > cell("RetrieveFragRep", down - 1, setting));
            }
        }
        for setting in ["Sibling", "All"] {
            let share = cell("RetrieveFragRep", down, setting) / fragment_traffic;
            assert!(
                (share - 1.0 / 3.0).abs() < 0.01,
                "{down}-{setting}: {share:.4}"
            );
            if down > 2 {
                let pushed = cell("SiblingStoreReq", down, setting);
                assert!(pushed > cell("SiblingStoreReq", down - 1, setting));
            }
        }
    }
}

#[test]
fn figure_8_kls_failures_message_bytes() {
    let bytes = Csv::read("fig8_bytes.csv");
    let total = |pattern: &str, setting: &str| bytes.total(&format!("{pattern}-{setting}"));
    let failure_free = bytes.total("0-All");
    for setting in SINGLE_SETTINGS.iter().chain(&["All"]) {
        // Connected KLS failures add a few MiB of convergence chatter.
        for pattern in ["1", "2C"] {
            let extra = (total(pattern, setting) - failure_free) / MIB;
            assert!(
                (0.0..5.0).contains(&extra),
                "{pattern}-{setting}: +{extra:.2} MiB"
            );
        }
        // The metadata partition dominates.
        assert!(total("2P", setting) > total("1", setting).max(total("2C", setting)));
    }
    // FS-initiated location decisions happen exactly when a DC had none:
    // in the 2P and 3 patterns.
    for column in &bytes.columns {
        let partitioned = column.starts_with("2P-") || column.starts_with("3-");
        for kind in ["FSDecideLocsReq", "LocsIndication"] {
            assert_eq!(
                bytes.get(kind, column) > 0.0,
                partitioned,
                "{kind} in {column}"
            );
        }
    }
    // After the heal, sibling recovery pulls each version across the WAN
    // once instead of once per remote FS.
    for setting in ["PutAMR", "FSAMR"] {
        let extra = (total("2P", setting) - failure_free) / MIB;
        assert!(extra > 40.0, "2P-{setting}: +{extra:.1} MiB");
    }
    for setting in ["Sibling", "All"] {
        let extra = (total("2P", setting) - failure_free) / MIB;
        assert!((4.5..6.5).contains(&extra), "2P-{setting}: +{extra:.2} MiB");
    }
}

#[test]
fn figure_9_lossy_network() {
    let points = Csv::read("fig9.csv");
    let mut rates: Vec<&String> = points.rows.keys().collect();
    rates.sort_by(|a, b| a.parse::<f64>().unwrap().total_cmp(&b.parse().unwrap()));
    assert_eq!(rates.len(), 7, "0–15 % in steps of 2.5 %");
    let mut previous = 0.0;
    for rate in rates {
        let get = |column| points.get(rate, column);
        assert_eq!(
            points.cell(rate, "converged"),
            "true",
            "{rate}: every trial converged"
        );
        let attempts = get("puts_attempted");
        assert!(
            attempts >= previous,
            "{rate}: attempts grow with the drop rate"
        );
        previous = attempts;
        if attempts > 100.0 {
            // Most extra attempts end as excess-AMR versions.
            let share = get("excess_amr") / (attempts - 100.0);
            assert!((0.4..0.6).contains(&share), "{rate}: {share:.3}");
        }
        assert!(
            get("non_durable") <= 0.015 * attempts,
            "{rate}: non-durable stays rare"
        );
    }
}
