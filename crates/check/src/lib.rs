#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! Correctness tooling for the Pahoehoe reproduction.
//!
//! Four pillars, corresponding to the four binaries this crate ships:
//!
//! 1. **Invariant-checking model checker** (`cargo run -p check --bin
//!    explore`). The [`invariants`] module defines the protocol properties
//!    the paper claims (durability of acknowledged puts, convergence to
//!    AMR, no resurrection of abandoned versions, checksum integrity,
//!    metrics sanity) as an extensible registry checked after **every**
//!    simulation event via [`simnet::Simulation::set_inspector`]. The
//!    [`explorer`] module sweeps seeds × fault plans × all six
//!    [`ConvergenceOptions`](pahoehoe::ConvergenceOptions) presets, then
//!    hand-built scenarios (the scale cell, the repair families) through
//!    the same runner, shrinks any violating scenario's fault plan to a
//!    minimal one and dumps its message trace.
//!
//! 2. **Determinism lint** (`cargo run -p check --bin lint`). The [`lint`]
//!    module is a token-level Rust source scanner flagging constructs that
//!    undermine seeded-simulation reproducibility: hash-ordered
//!    collections in actor state, wall clocks, ambient RNGs, thread
//!    spawning and floating-point map keys. `// lint:allow(<rule>)`
//!    suppresses a finding where the hazard is deliberate and safe.
//!
//! 3. **Semantic analyzer** (`cargo run -p check --bin analyze`). The
//!    [`analysis`] module layers five workspace-wide rules over the
//!    shared [`rustlite`] front-end (a dependency-free lexer → fn/match
//!    model → per-module call graph): dispatch exhaustiveness across
//!    actors, mode-switch test parity, panic-path justification,
//!    unsafe confinement and kind-registry coherence.
//!
//! 4. **Mutation-testing harness** (`cargo run -p check --bin mutate`).
//!    The [`mutate`] module applies protocol-targeted source mutations
//!    (quorum off-by-one, comparison flips, ack drops, `FragMask`
//!    bit-flips, timer-generation skips) in a scratch build tree, runs
//!    the explorer smoke sweep against each mutant, and measures the
//!    invariant **kill-rate** — evidence the invariants would catch a
//!    real protocol bug, not just a claim that they exist.

pub mod analysis;
pub mod explorer;
pub mod invariants;
pub mod lint;
pub mod mutate;
pub mod rustlite;
