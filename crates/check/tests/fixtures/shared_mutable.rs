//! Fixture: every shared-mutable hazard class the determinism lint must
//! flag — process-global mutable state that leaks between runs and, under
//! the sweep harness, across worker threads.
use std::sync::atomic::AtomicBool;
use std::sync::OnceLock;

static mut LEGACY_COUNTER: u64 = 0;

static SWITCH: AtomicBool = AtomicBool::new(false);

static REGISTRY: OnceLock<Vec<u32>> = OnceLock::new();

fn tally() -> u64 {
    let n = AtomicUsize::new(0);
    n.into_inner()
}

lazy_static! {
    static ref TABLE: Vec<u32> = Vec::new();
}

fn cached() -> &'static str {
    static NAME: LazyLock<String> = LazyLock::new(|| "x".to_string());
    &NAME
}
