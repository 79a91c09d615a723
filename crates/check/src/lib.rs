#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! Correctness tooling for the Pahoehoe reproduction.
//!
//! Three pillars, corresponding to the three binaries this crate ships:
//!
//! 1. **Invariant-checking model checker** (`cargo run -p check --bin
//!    explore`). The [`invariants`] module defines the protocol properties
//!    the paper claims (durability of acknowledged puts, convergence to
//!    AMR, no resurrection of abandoned versions, checksum integrity,
//!    metrics sanity, compaction) as an extensible registry checked after
//!    **every** simulation event by one [`simnet::Observer`] installed
//!    with [`simnet::Simulation::observe`]. The same observer shows every
//!    invariant each dispatched event with its message or timer before it
//!    runs, and each send with its message, so the checks read from the
//!    wire — a put acked at its success threshold (§3.2), every request
//!    answered, every timer fired at most once — see what the actors did,
//!    not what they say they did. The
//!    [`explorer`] module names every checked run in one list of suites —
//!    seeds × fault plans × all six
//!    [`ConvergenceOptions`](pahoehoe::ConvergenceOptions) presets, and
//!    hand-built scenarios (the scale cell, the repair families) — runs
//!    them through one runner, shrinks any violating scenario's fault plan
//!    to a minimal one and dumps its message trace.
//!
//! 2. **Static checker** (`cargo run -p check --bin analyze`). The
//!    [`analysis`] module runs twelve rules over the shared [`rustlite`]
//!    front-end (a dependency-free lexer → fn/match model → per-module
//!    call graph), one walk and one `lint:allow` suppression for all of
//!    them. Seven token rules flag what undermines seeded-simulation
//!    reproducibility (hash-ordered collections, wall clocks, ambient
//!    RNGs, thread spawning, floating-point map keys, process globals)
//!    and allocations in functions marked hot; five semantic rules check
//!    dispatch exhaustiveness across actors, mode test parity, panic-path
//!    justification, unsafe confinement and kind-registry coherence.
//!
//! 3. **Mutation-testing harness** (`cargo run -p check --bin mutate`).
//!    The [`mutate`] module applies protocol-targeted source mutations
//!    (quorum off-by-one, comparison flips, ack drops, `FragMask`
//!    bit-flips, timer-generation skips) in a scratch build tree, runs
//!    three explorer suites against each mutant, and measures the
//!    invariant **kill-rate** — evidence the invariants would catch a
//!    real protocol bug, not just a claim that they exist.

pub mod analysis;
pub mod explorer;
pub mod invariants;
mod lint;
pub mod mutate;
pub mod rustlite;
