//! Media mix: the paper's stated object range on one cluster.
//!
//! Pahoehoe targets "binary large objects such as pictures, audio files
//! or movies of moderate size (~100 × 2¹⁰ B to 100 × 2²⁰ B)" (§2). This
//! example puts a heavy-tailed mixture from that range with
//! `Cluster::put`, then reports the storage economics the paper's
//! introduction promises: erasure coding at the overhead of triple
//! replication, with every object surviving eight simultaneous disk
//! failures.
//!
//! Run with: `cargo run --release --example media_mix`

use pahoehoe::client::Client;
use pahoehoe::cluster::{Cluster, ClusterConfig};
use pahoehoe::fs::{Fs, WAKE_TIMER_TAG};
use simnet::SimDuration;

/// splitmix64: a deterministic stream of draws for the object sizes.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Object `i`'s size: 70 % photos (100 KiB–1 MiB), 25 % audio (1–10 MiB,
/// scaled down 10× to keep the simulation snappy), 5 % movies (the top of
/// the range, scaled likewise).
fn media_size(i: u64) -> usize {
    let (lo, hi) = match mix(i) % 100 {
        0..=69 => (100 << 10, 1 << 20),
        70..=94 => ((1 << 20) / 10, (10 << 20) / 10),
        _ => ((10 << 20) / 10, (100 << 20) / 100),
    };
    lo + (mix(!i) % (hi - lo + 1) as u64) as usize
}

fn main() {
    let values: Vec<Vec<u8>> = (0..30)
        .map(|i| Client::synthetic_value(2026 + i, media_size(i)).to_vec())
        .collect();
    let user_bytes: usize = values.iter().map(Vec::len).sum();

    let mut cluster = Cluster::build(ClusterConfig::paper_default(), 2026);
    for (i, value) in values.iter().enumerate() {
        cluster.put(format!("media/{i}").as_bytes(), value.clone());
    }
    let report = cluster.run_to_convergence();

    println!("== media archive: 30 objects, heavy-tailed sizes ==");
    println!("user data:        {:>8} KiB", user_bytes / 1024);
    let stored = report.metrics.kind("StoreFragmentReq").bytes;
    println!(
        "stored fragments: {:>8} KiB  ({:.2}x overhead — triple-replication cost)",
        stored >> 10,
        stored as f64 / user_bytes as f64
    );
    println!(
        "all {} versions at maximum redundancy by {}",
        report.amr_versions, report.sim_time
    );
    assert_eq!(report.amr_versions, 30);

    // Destroy eight disks (the policy's stated tolerance: up to eight
    // simultaneous disk failures) and verify everything reads back.
    println!("\n== destroying 8 of 12 disks ==");
    let layout = cluster.layout();
    let mut destroyed = 0;
    'outer: for dc in 0..2 {
        for i in 0..3 {
            for disk in 0..2 {
                if destroyed == 8 {
                    break 'outer;
                }
                let id = layout.fs(dc, i);
                let now = cluster.sim().now();
                cluster
                    .sim_mut()
                    .actor_mut::<Fs>(id)
                    .destroy_disk(disk, now);
                cluster
                    .sim_mut()
                    .schedule_timer(id, SimDuration::ZERO, WAKE_TIMER_TAG);
                destroyed += 1;
            }
        }
    }
    // Reads succeed immediately from the surviving four fragments...
    assert_eq!(cluster.get(b"media/7").as_ref(), Some(&values[7]));
    println!("read after 8 disk losses: ok (any 4 of 12 fragments decode)");

    // ...and convergence rebuilds the destroyed disks in the background.
    let heal = cluster.run_to_convergence();
    assert_eq!(heal.durable_not_amr, 0);
    println!(
        "disks rebuilt: {} fragment retrievals, {} sibling pushes; all {} versions AMR again",
        heal.metrics.kind("RetrieveFragReq").count,
        heal.metrics.kind("SiblingStoreReq").count,
        heal.amr_versions
    );
}
