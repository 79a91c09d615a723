//! The parent side of a run: spawn fresh children, insist the simulated
//! numbers repeat exactly, take medians of the host-clock ones, report.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::Command;

use crate::metrics::{median, END_TO_END, PER_LAYER};
use crate::workloads::Workload;

/// Fresh child processes per untraced run.
pub const CHILDREN: usize = 3;

/// What one child printed.
#[derive(Debug, Default)]
pub struct ChildOut {
    /// Host-clock measurements.
    pub host: BTreeMap<String, f64>,
    /// Simulated results, as printed: compared as text, bit for bit.
    pub sim: BTreeMap<String, String>,
    /// Per-layer metrics of a traced child.
    pub layer: BTreeMap<String, f64>,
    /// Whether the child's output checks passed.
    pub correct: bool,
}

impl ChildOut {
    /// A simulated result as a number.
    pub fn sim_f64(&self, name: &str) -> f64 {
        self.sim
            .get(name)
            .and_then(|v| v.parse().ok())
            .unwrap_or(f64::NAN)
    }
}

/// Runs one child of this executable and parses its report.
pub fn spawn_child(w: &Workload, seed: u64, ops: u64, extra: &[&str]) -> Result<ChildOut, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let output = Command::new(exe)
        .args(["child", "--workload", w.name])
        .args(["--seed", &seed.to_string(), "--ops", &ops.to_string()])
        .args(extra)
        .output()
        .map_err(|e| format!("spawn child: {e}"))?;
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    let text = String::from_utf8_lossy(&output.stdout);
    let mut out = ChildOut::default();
    let mut reported = false;
    for line in text.lines() {
        let mut it = line.split_whitespace();
        match (it.next(), it.next(), it.next()) {
            (Some("host"), Some(k), Some(v)) => {
                out.host
                    .insert(k.into(), v.parse().map_err(|_| format!("bad line {line}"))?);
            }
            (Some("layer"), Some(k), Some(v)) => {
                out.layer
                    .insert(k.into(), v.parse().map_err(|_| format!("bad line {line}"))?);
            }
            (Some("sim"), Some(k), Some(v)) => {
                out.sim.insert(k.into(), v.into());
            }
            (Some("correct"), Some(v), None) => {
                out.correct = v == "1";
                reported = true;
            }
            _ => return Err(format!("unexpected child output: {line}")),
        }
    }
    if !reported {
        return Err(format!(
            "child of {} ended without a report ({})",
            w.name, output.status
        ));
    }
    Ok(out)
}

/// The result of one run of one workload.
pub struct Report {
    /// Every output check passed, in every child.
    pub correct: bool,
    /// Client operations in one child's timed phase.
    pub attempted: u64,
    /// Of those, how many failed or returned wrong bytes.
    pub failed: u64,
    /// `(name, value, unit)` in table order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Lines worth showing a person, beyond the metrics.
    pub notes: Vec<String>,
}

impl Report {
    /// A metric by name.
    pub fn get(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|m| m.0 == name)
            .map_or(f64::NAN, |m| m.1)
    }

    /// The one-line JSON object the driver reads.
    pub fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                s,
                "{}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}",
                if i > 0 { ", " } else { "" }
            );
        }
        s.push_str("}}");
        s
    }

    /// Every metric by name with its unit, one per line.
    pub fn table(&self) -> String {
        let mut s = String::new();
        for (name, value, unit) in &self.metrics {
            let _ = writeln!(s, "{name:<46} {value:>16.6} {unit}");
        }
        for note in &self.notes {
            let _ = writeln!(s, "# {note}");
        }
        s
    }
}

/// Names whose simulated values differ between two children.
fn sim_mismatches(a: &ChildOut, b: &ChildOut) -> Vec<String> {
    let mut names: Vec<&String> = a.sim.keys().chain(b.sim.keys()).collect();
    names.sort();
    names.dedup();
    names
        .into_iter()
        .filter(|&k| a.sim.get(k) != b.sim.get(k))
        .map(|k| format!("{k}: {:?} vs {:?}", a.sim.get(k), b.sim.get(k)))
        .collect()
}

/// The untraced run: [`CHILDREN`] fresh children with the same inputs.
/// Host-clock metrics are the median of the children; simulated metrics
/// must be bit-identical across them.
pub fn end_to_end(w: &Workload, seed: u64, ops: u64, extra: &[&str]) -> Result<Report, String> {
    let mut children = Vec::new();
    for _ in 0..CHILDREN {
        children.push(spawn_child(w, seed, ops, extra)?);
    }
    let first = &children[0];
    let mut correct = children.iter().all(|c| c.correct);
    let mut notes = Vec::new();
    for (i, other) in children.iter().enumerate().skip(1) {
        for m in sim_mismatches(first, other) {
            correct = false;
            notes.push(format!("NOT REPEATABLE child 0 vs child {i}: {m}"));
        }
    }
    let metrics = END_TO_END
        .iter()
        .map(|m| {
            let value = if m.host {
                median(
                    &children
                        .iter()
                        .map(|c| c.host.get(m.name).copied().unwrap_or(f64::NAN))
                        .collect::<Vec<f64>>(),
                )
            } else {
                first.sim_f64(m.name)
            };
            (m.name, value, m.unit)
        })
        .collect();
    for part in ["gen_s", "warmup_s", "build_s", "preload_s"] {
        let key = format!("part.{part}");
        let v: Vec<f64> = children
            .iter()
            .filter_map(|c| c.host.get(&key))
            .copied()
            .collect();
        notes.push(format!("setup part {part} = {:.4} s", median(&v)));
    }
    let walls: Vec<String> = children
        .iter()
        .map(|c| format!("{:.3}", c.host.get("wall_s").copied().unwrap_or(f64::NAN)))
        .collect();
    notes.push(format!("timed-phase wall per child: {} s", walls.join(" ")));
    notes.push(format!(
        "ops {} | latency samples {} ({} beyond p99) | AMR samples {} ({} beyond p99) | events {}",
        first.sim_f64("ops"),
        first.sim_f64("latency_samples"),
        first.sim_f64("latency_beyond_p99"),
        first.sim_f64("amr_samples"),
        first.sim_f64("amr_beyond_p99"),
        first.sim_f64("events"),
    ));
    if first.sim_f64("tails_trusted") != 1.0 {
        notes.push("fewer than 10 samples beyond p99: tails are indicative only".into());
    }
    Ok(Report {
        correct,
        attempted: first.sim_f64("ops") as u64,
        failed: first.sim_f64("ops_failed") as u64,
        metrics,
        notes,
    })
}

/// The traced run: one untraced child, one traced child with the same
/// inputs. Events, metrics and the AMR ledger of the two must be equal;
/// the per-layer metrics come from the traced child.
pub fn per_layer(w: &Workload, seed: u64, ops: u64) -> Result<Report, String> {
    let plain = spawn_child(w, seed, ops, &[])?;
    let traced = spawn_child(w, seed, ops, &["--traced"])?;
    let mut correct = plain.correct && traced.correct;
    let mut notes = Vec::new();
    for m in sim_mismatches(&plain, &traced) {
        correct = false;
        notes.push(format!("TRACED RUN DIFFERS from untraced: {m}"));
    }
    let wall = |c: &ChildOut| c.host.get("wall_s").copied().unwrap_or(f64::NAN);
    let overhead = (wall(&traced) - wall(&plain)) / wall(&plain);
    notes.push(format!(
        "timed-phase wall: untraced {:.3} s, traced {:.3} s",
        wall(&plain),
        wall(&traced)
    ));
    let mut metrics = Vec::new();
    for m in &PER_LAYER {
        let value = match m.name {
            "trace.overhead_share" => overhead,
            name => match traced.layer.get(name) {
                Some(&v) => v,
                None => {
                    correct = false;
                    notes.push(format!("traced child did not report {name}"));
                    f64::NAN
                }
            },
        };
        metrics.push((m.name, value, m.unit));
    }
    Ok(Report {
        correct,
        attempted: traced.sim_f64("ops") as u64,
        failed: traced.sim_f64("ops_failed") as u64,
        metrics,
        notes,
    })
}
