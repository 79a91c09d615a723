#![warn(missing_docs)]

//! Experiment harness regenerating every figure of the Pahoehoe DSN 2010
//! evaluation (§5).
//!
//! Each paper figure has a module building its scenario matrix and a
//! binary printing its table:
//!
//! | Paper figure | Module / binary | What it reports |
//! |---|---|---|
//! | Fig. 5 | [`figures::fig5`] / `fig5` | failure-free message counts per optimization, incl. the analytic *Idealized* bound |
//! | Fig. 6 | [`figures::fig6_7`] / `fig6_7` | message counts vs. number of unavailable FSs |
//! | Fig. 7 | same | message bytes for the same sweep |
//! | Fig. 8 | [`figures::fig8`] / `fig8` | message bytes vs. unavailable KLSs (incl. the 2C/2P split) |
//! | Fig. 9 | [`figures::fig9`] / `fig9` | lossy network: puts attempted, excess-AMR and non-durable versions vs. drop rate |
//!
//! Methodology follows §5.1: the workload is 100 puts of 100 KiB
//! objects under the default `(4, 12)` policy on a 2×(2 KLS + 3 FS)
//! cluster; every experiment runs until all object versions that can
//! achieve AMR do so; results are means over 50 seeded trials (150 for the
//! lossy sweep) with 95 % confidence intervals; client↔proxy traffic is
//! excluded from all message accounting.

pub mod figures;
pub mod idealized;
pub mod runner;
pub mod table;

pub use figures::{FigureOptions, LossyPoint};
pub use runner::{aggregate, run_many, ConfigResult};
