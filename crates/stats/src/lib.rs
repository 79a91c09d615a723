#![warn(missing_docs)]

//! Summary statistics for experiment reporting.
//!
//! The Pahoehoe paper runs most experiments 50 times (150 for the lossy-
//! network sweep) with different random seeds, reports the mean, and checks
//! the 95th-percentile confidence interval for statistical significance
//! (§5.1). This crate provides exactly those reductions: an online
//! [`Accumulator`] (Welford's algorithm), a [`Summary`] with the mean and a
//! Student-t 95 % confidence half-width, and order statistics. [`rss`]
//! reads the process's current and peak resident set, the memory figures
//! `pahoehoe-sim` and the benchmark report.
//!
//! ```
//! use stats::Accumulator;
//!
//! let acc: Accumulator = (1..=5).map(|x| x as f64).collect();
//! let s = acc.summary();
//! assert_eq!(s.mean, 3.0);
//! assert_eq!(s.min, 1.0);
//! assert_eq!(s.max, 5.0);
//! assert!(s.ci95_half_width > 0.0);
//! ```

pub mod accumulator;
pub mod percentile;
pub mod rss;
pub mod t_table;

pub use accumulator::{Accumulator, Summary};
pub use percentile::percentile;
pub use rss::{current_rss_bytes, peak_rss_bytes};
pub use t_table::t_critical_95;
