//! One measured child process: set-up, timed phase, output checks, report.
//!
//! A run of a workload is several fresh children with the same inputs, so
//! each child's `VmHWM` is its own peak and its set-up is a set-up from
//! cold. The child prints `key value` lines; the parent (`run.rs`) takes
//! medians of the host-clock values and insists the simulated ones are
//! bit-identical.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use crate::api::{self, Bed, Counters, Group, Ledger, PutLatencies, Readings, Server, LAYERS};
use crate::metrics::{percentile, MIN_BEYOND};
use crate::workloads::{fill_value, value_matches, Op, Plan, Workload, BATCHES};

/// What the parent asks of a child.
pub struct ChildArgs {
    /// The workload.
    pub workload: &'static Workload,
    /// Input seed.
    pub seed: u64,
    /// Client ops in the timed phase.
    pub ops: u64,
    /// Wrap every actor in a timer and run the replay probes.
    pub traced: bool,
    /// Selftest: busy-wait this long during set-up.
    pub inject_setup_ms: u64,
    /// Selftest: busy-wait this long in every batch.
    pub inject_batch_us: u64,
    /// Selftest: `ConvergenceOptions::naive()`.
    pub naive: bool,
}

fn spin(d: Duration) {
    let t = Instant::now();
    while t.elapsed() < d {
        std::hint::spin_loop();
    }
}

/// What one pass over a plan's timed ops produced.
#[derive(Default)]
struct Phase {
    put_ok_us: Vec<u32>,
    get_ok_us: Vec<u32>,
    gets: u64,
    gets_ok: u64,
    gets_degraded: u64,
    batch_ns: Vec<u64>,
    /// Clock readings at the end of each batch, cumulative.
    batch_layers: Vec<Readings>,
    /// Clock readings when the phase ended.
    end_clocks: Readings,
    /// Generating put values and verifying got ones.
    harness_ns: u64,
    converge_ns: u64,
    /// Inside the gated convergence check.
    check_ns: u64,
    wall_ns: u64,
    /// A batch or the convergence tail stopped before its target.
    stalled: bool,
}

/// Runs the plan's timed ops in [`BATCHES`] batches, then to convergence.
fn drive(bed: &mut Bed, plan: &Plan, inject_batch_us: u64) -> Phase {
    let mut phase = Phase::default();
    let batches = BATCHES.min(plan.ops);
    let mut latest = latest_seeds(plan);
    let names = key_names(plan);
    let mut lat = PutLatencies::default();
    let check0 = bed.check_ns;
    let t0 = Instant::now();
    for b in 1..=batches {
        let t = Instant::now();
        let (from, to) = (plan.ops * (b - 1) / batches, plan.ops * b / batches);
        if plan.stream.is_some() {
            phase.stalled |= !bed.run_stream_until(to, &mut lat);
        } else {
            for op in &plan.script[from as usize..to as usize] {
                drive_op(bed, plan, *op, &names, &mut latest, &mut phase);
            }
        }
        if inject_batch_us > 0 {
            spin(Duration::from_micros(inject_batch_us));
        }
        phase.batch_ns.push(t.elapsed().as_nanos() as u64);
        if let Some(clocks) = &bed.clocks {
            phase.batch_layers.push(clocks.read());
        }
    }
    let t = Instant::now();
    phase.stalled |= !bed.run_to_convergence();
    phase.converge_ns = t.elapsed().as_nanos() as u64;
    phase.wall_ns = t0.elapsed().as_nanos() as u64;
    phase.check_ns = bed.check_ns - check0;
    phase.end_clocks = bed.clocks.as_ref().map(|c| c.read()).unwrap_or_default();
    phase.put_ok_us.append(&mut lat.ok_us);
    phase
}

fn key_names(plan: &Plan) -> Vec<Vec<u8>> {
    (0..plan.keys)
        .map(|k| format!("obj/{k}").into_bytes())
        .collect()
}

/// The value seed last acknowledged per key, starting from the preload.
fn latest_seeds(plan: &Plan) -> Vec<u64> {
    let mut latest = vec![0; plan.keys as usize];
    for op in &plan.preload {
        if let Op::Put { key, value_seed } = *op {
            latest[key as usize] = value_seed;
        }
    }
    latest
}

fn drive_op(
    bed: &mut Bed,
    plan: &Plan,
    op: Op,
    names: &[Vec<u8>],
    latest: &mut [u64],
    phase: &mut Phase,
) {
    match op {
        Op::Put { key, value_seed } => {
            let t = Instant::now();
            let value = fill_value(value_seed, plan.value_len);
            phase.harness_ns += t.elapsed().as_nanos() as u64;
            match bed.put(&names[key as usize], value) {
                Some(latency_us) => {
                    phase.put_ok_us.push(latency_us as u32);
                    latest[key as usize] = value_seed;
                }
                None => phase.stalled = true,
            }
        }
        Op::Get { key } => {
            phase.gets += 1;
            phase.gets_degraded += u64::from(bed.is_down(Server::Fs(0, 0)));
            let (value, latency_us) = bed.get(&names[key as usize]);
            let t = Instant::now();
            // One op is outstanding at a time, so the latest acknowledged
            // value is also the newest one there is. An absent or wrong
            // value is a failed get.
            if value.is_some_and(|v| {
                v.len() == plan.value_len && value_matches(latest[key as usize], &v)
            }) {
                phase.gets_ok += 1;
                phase.get_ok_us.push(latency_us as u32);
            }
            phase.harness_ns += t.elapsed().as_nanos() as u64;
        }
    }
}

/// Puts the preload through the bed and runs it to convergence, then
/// moves simulated time to the plan's start.
fn preload(bed: &mut Bed, plan: &Plan) -> bool {
    let names = key_names(plan);
    for op in &plan.preload {
        if let Op::Put { key, value_seed } = *op {
            if bed
                .put(&names[key as usize], fill_value(value_seed, plan.value_len))
                .is_none()
            {
                return false;
            }
        }
    }
    let ok = plan.preload.is_empty() || bed.run_to_convergence();
    bed.run_until_time(plan.start_us);
    ok
}

fn build(plan: &Plan, naive: bool, seed: u64, traced: bool) -> Bed {
    let shape = api::Shape {
        naive,
        ..plan.shape
    };
    Bed::build(&shape, &plan.faults, plan.stream.as_ref(), seed, traced)
}

/// The measured child. Prints its report on stdout and returns whether
/// every output check passed.
pub fn run(args: &ChildArgs, process_start: Instant) -> bool {
    let w = args.workload;
    let mut out = String::new();

    // ---- set-up: generate, warm up, build, preload ----
    let t = Instant::now();
    let plan = w.plan(args.ops, args.seed);
    let warm_plan = w.plan((args.ops / 10).max(1), args.seed);
    let gen_s = t.elapsed().as_secs_f64();

    // The first 10 % of the workload on a throw-away cluster: the
    // allocator, the page cache and the CPU clock reach their working
    // state before the first timed op. (The issue asks for 5 %; that left
    // `fault-recovery` with a 0.2 s set-up that spread by 12 %.)
    let t = Instant::now();
    {
        let mut warm = build(&warm_plan, args.naive, args.seed, false);
        let _ = preload(&mut warm, &warm_plan);
        let _ = drive(&mut warm, &warm_plan, 0);
    }
    let warmup_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let mut bed = build(&plan, args.naive, args.seed, args.traced);
    let build_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let preload_ok = preload(&mut bed, &plan);
    let preload_s = t.elapsed().as_secs_f64();

    spin(Duration::from_millis(args.inject_setup_ms));
    let setup_s = process_start.elapsed().as_secs_f64();

    // ---- timed phase ----
    let base = bed.counters();
    let (events0, sim0_us) = (bed.events(), bed.now_us());
    let clocks0 = bed.clocks.as_ref().map(|c| c.read());
    let phase = drive(&mut bed, &plan, args.inject_batch_us);
    let wall_s = phase.wall_ns as f64 / 1e9;
    let events = bed.events() - events0;
    let sim_us = bed.now_us() - sim0_us;
    let timers_pending = bed.pending_timers();
    let c = bed.counters().since(&base);
    let peak_rss = api::peak_rss_bytes();

    // ---- output checks ----
    let ledger = bed.ledger();
    let (sampled, sampled_wrong) = match &plan.stream {
        Some(stream) => bed.verify_stream(stream, 8),
        None => (0, 0),
    };
    let gets_failed = phase.gets - phase.gets_ok;
    let parts = gen_s + warmup_s + build_s + preload_s;
    let injected = args.inject_setup_ms > 0;
    let checks = [
        ("preload converged", preload_ok),
        ("timed phase converged", !phase.stalled),
        ("every acked put is AMR", ledger.acked == ledger.acked_amr),
        ("every get returned the latest value", gets_failed == 0),
        ("read-back sample matches", sampled_wrong == 0),
        (
            "set-up parts sum to setup_s within 5 %",
            injected || (setup_s - parts).abs() <= 0.05 * setup_s,
        ),
    ];
    let correct = checks.iter().all(|&(_, ok)| ok);
    for (what, ok) in checks {
        if !ok {
            eprintln!("CHECK FAILED: {what}");
        }
    }

    // ---- end-to-end metrics ----
    let user_bytes = (c.puts_succeeded + phase.gets_ok) * plan.value_len as u64;
    let attempts = c.puts_attempted + phase.gets;
    let mut op_us: Vec<u32> = phase.put_ok_us.clone();
    op_us.extend(&phase.get_ok_us);
    op_us.sort_unstable();
    let (lat_p50, _) = percentile(&op_us, 50.0).unwrap_or((0, 0));
    let (lat_p99, lat_beyond) = percentile(&op_us, 99.0).unwrap_or((0, 0));
    let (amr_p50, _) = percentile(&ledger.time_to_amr_us, 50.0).unwrap_or((0, 0));
    let (amr_p99, amr_beyond) = percentile(&ledger.time_to_amr_us, 99.0).unwrap_or((0, 0));
    let (conv_msgs, conv_bytes) = c.group(Group::Convergence);
    let puts = c.puts_succeeded.max(1) as f64;

    let mut host = |name: &str, v: f64| {
        let _ = writeln!(out, "host {name} {v}");
    };
    host("setup_s", setup_s);
    host("ops_per_wall_s", plan.ops as f64 / wall_s);
    host("peak_rss_mb", peak_rss as f64 / 1e6);
    host("part.gen_s", gen_s);
    host("part.warmup_s", warmup_s);
    host("part.build_s", build_s);
    host("part.preload_s", preload_s);
    host("wall_s", wall_s);
    host("converge_s", phase.converge_ns as f64 / 1e9);

    let mut sim = |name: &str, v: f64| {
        let _ = writeln!(out, "sim {name} {v}");
    };
    sim("op_latency_sim_ms_p50", f64::from(lat_p50) / 1e3);
    sim("op_latency_sim_ms_p99", f64::from(lat_p99) / 1e3);
    sim("time_to_amr_sim_s_p50", amr_p50 as f64 / 1e6);
    sim("time_to_amr_sim_s_p99", amr_p99 as f64 / 1e6);
    sim(
        "wire_bytes_per_user_byte",
        c.total_bytes as f64 / user_bytes.max(1) as f64,
    );
    sim("convergence_bytes_per_put", conv_bytes as f64 / puts);
    sim("msgs_per_op", c.total_count as f64 / plan.ops as f64);
    sim(
        "ok_op_share",
        (c.puts_succeeded + phase.gets_ok) as f64 / attempts.max(1) as f64,
    );
    sim("ops", plan.ops as f64);
    sim("ops_failed", gets_failed as f64);
    sim("latency_samples", op_us.len() as f64);
    sim("latency_beyond_p99", lat_beyond as f64);
    sim("amr_samples", ledger.time_to_amr_us.len() as f64);
    sim("amr_beyond_p99", amr_beyond as f64);
    sim(
        "tails_trusted",
        f64::from(lat_beyond >= MIN_BEYOND && amr_beyond >= MIN_BEYOND),
    );
    sim("events", events as f64);
    sim("sim_s", sim_us as f64 / 1e6);
    sim("gets_degraded", phase.gets_degraded as f64);
    sim("readback_sampled", sampled as f64);
    let _ = writeln!(out, "sim digest.counters {:016x}", c.digest());
    let _ = writeln!(out, "sim digest.ledger {:016x}", ledger.digest);

    if args.traced {
        let clocks0 = clocks0.expect("a traced bed has clocks");
        let trace = Trace {
            args,
            plan: &plan,
            phase: &phase,
            c: &c,
            ledger: &ledger,
            clocks0,
            events,
            sim_us,
            timers_pending,
            peak_rss,
            build_s,
            conv_msgs,
        };
        trace.report(&bed, &mut out);
    }

    let _ = writeln!(out, "correct {}", u8::from(correct));
    print!("{out}");
    correct
}

/// Everything the per-layer report of a traced child is derived from.
struct Trace<'a> {
    args: &'a ChildArgs,
    plan: &'a Plan,
    phase: &'a Phase,
    c: &'a Counters,
    ledger: &'a Ledger,
    clocks0: Readings,
    events: u64,
    sim_us: u64,
    timers_pending: u64,
    peak_rss: u64,
    build_s: f64,
    conv_msgs: u64,
}

impl Trace<'_> {
    /// Derives the per-layer metrics, prints them as `layer` lines and
    /// writes the spans to `out/trace-<workload>.json`.
    fn report(&self, bed: &Bed, out: &mut String) {
        let (c, phase, plan) = (self.c, self.phase, self.plan);
        let wall = phase.wall_ns as f64;
        let mut layer = |name: &str, v: f64| {
            let _ = writeln!(out, "layer {name} {v}");
        };
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let puts = c.puts_succeeded as f64;

        // -- timed actors --
        let end = phase.end_clocks;
        let mut actor_ns = 0.0;
        let mut actor_calls = 0.0;
        for (i, name) in LAYERS.iter().enumerate() {
            let calls = (end.layers[i].0 - self.clocks0.layers[i].0) as f64;
            let busy = (end.layers[i].1 - self.clocks0.layers[i].1) as f64;
            actor_ns += busy;
            actor_calls += calls;
            layer(&format!("pahoehoe.{name}.busy_share"), busy / wall);
            layer(&format!("pahoehoe.{name}.calls"), calls);
            layer(&format!("pahoehoe.{name}.ns_per_call"), ratio(busy, calls));
        }
        let gap_ns = (end.gap_ns - self.clocks0.gap_ns) as f64;
        let loop_ns = (end.loop_ns - self.clocks0.loop_ns) as f64;

        // -- replay probes --
        let (k, n, per_fs) = match plan.shape.policy {
            Some((k, n, _, per_fs)) => (k, n, per_fs),
            None => (4, 12, 2),
        };
        let frag_len = plan.value_len.div_ceil(usize::from(k));
        let delivered = |kind: &str| {
            let k = c.kinds.iter().find(|k| k.kind == kind);
            k.map_or(0, |k| k.count - k.dropped_fault - k.dropped_random)
        };
        // The proxy encodes once per put request it receives.
        let encode = api::probe_encode(k, n, plan.value_len, delivered("ClientPutReq"));
        // A fragment server hashes a fragment when it stores it (one ack
        // or one delivered sibling push each) and when it serves it.
        let checksum_calls = c.count_of("StoreFragmentRep")
            + delivered("SiblingStoreReq")
            + c.count_of("RetrieveFragRep");
        let checksum = api::probe_checksum(frag_len, checksum_calls);
        // The fragments one server holds: what a get cannot reach while
        // that server is down, and what a recovery regenerates.
        let one_server: Vec<u8> = (0..per_fs).collect();
        let healthy = api::probe_decode(
            k,
            n,
            plan.value_len,
            &[],
            phase.gets_ok - phase.gets_degraded.min(phase.gets_ok),
        );
        let degraded = api::probe_decode(
            k,
            n,
            plan.value_len,
            &one_server,
            phase.gets_degraded.min(phase.gets_ok),
        );
        let recover = api::probe_recover(k, n, plan.value_len, &one_server, c.recoveries);
        let blocks = api::probe_fault_plan(&plan.shape, &plan.faults, self.sim_us, c.total_count);
        let null = api::probe_null_engine(bed.nodes(), self.events);
        let pair_ns = api::timer_pair_ns();
        let predicate_ns = bed.probe_stream_predicate_ns(self.events) as f64;

        let mb_per_s = |bytes: f64, ns: f64| ratio(bytes * 1e3, ns);
        layer("erasure.encode.calls", encode.calls as f64);
        layer(
            "erasure.encode.mb_per_s",
            mb_per_s((encode.calls * plan.value_len as u64) as f64, encode.ns),
        );
        layer("erasure.encode.busy_share", encode.ns / wall);
        layer(
            "erasure.checksum.mb_per_s",
            mb_per_s((checksum.calls * frag_len as u64) as f64, checksum.ns),
        );
        layer("erasure.checksum.busy_share", checksum.ns / wall);
        layer("erasure.decode.calls", phase.gets_ok as f64);
        layer(
            "erasure.decode.degraded_share",
            ratio(phase.gets_degraded as f64, phase.gets as f64),
        );
        layer(
            "erasure.decode.busy_share",
            (healthy.ns + degraded.ns) / wall,
        );
        layer("erasure.recover.calls", recover.calls as f64);
        layer("erasure.recover.busy_share", recover.ns / wall);

        // -- the engine --
        // The gaps between actor calls hold the engine, the per-event
        // predicate and the part of each timer pair that falls outside
        // the span it measures (about half).
        let timing_ns = actor_calls * pair_ns / 2.0;
        let check_ns = phase.check_ns as f64;
        let engine_ns = gap_ns - predicate_ns - check_ns - timing_ns;
        let (dropped_fault, dropped_random) = c.drops();
        layer("simnet.events", self.events as f64);
        layer("simnet.events_per_op", self.events as f64 / plan.ops as f64);
        layer("simnet.events_per_wall_s", self.events as f64 * 1e9 / wall);
        layer("simnet.engine.busy_share", engine_ns / wall);
        let null_calls = null.layers[0].0 as f64;
        layer(
            "simnet.null_replay.events_per_wall_s",
            ratio(null_calls * 1e9, null.loop_ns as f64 - null_calls * pair_ns),
        );
        layer(
            "simnet.faultplan.blocks.ns_per_call",
            ratio(blocks.ns, blocks.calls as f64),
        );
        layer("simnet.msgs_dropped_fault", dropped_fault as f64);
        layer("simnet.msgs_dropped_random", dropped_random as f64);
        layer("simnet.sim_s_per_wall_s", self.sim_us as f64 * 1e3 / wall);
        layer("simnet.timers_pending_end", self.timers_pending as f64);

        // -- protocol counts --
        let user_put = puts * plan.value_len as f64;
        let user_got = phase.gets_ok as f64 * plan.value_len as f64;
        let (put_msgs, put_bytes) = c.group(Group::Put);
        let (get_msgs, get_bytes) = c.group(Group::Get);
        layer("pahoehoe.cluster.build_s", self.build_s);
        layer("pahoehoe.put.msgs_per_put", ratio(put_msgs as f64, puts));
        layer(
            "pahoehoe.put.bytes_per_user_byte",
            ratio(put_bytes as f64, user_put),
        );
        layer(
            "pahoehoe.get.msgs_per_get",
            ratio(get_msgs as f64, phase.gets as f64),
        );
        layer(
            "pahoehoe.get.bytes_per_user_byte",
            ratio(get_bytes as f64, user_got),
        );
        layer(
            "pahoehoe.get.degraded_reads",
            c.protocol_event("degraded_reads") as f64,
        );
        layer(
            "pahoehoe.convergence.msgs_per_put",
            ratio(self.conv_msgs as f64, puts),
        );
        layer(
            "pahoehoe.convergence.recovered_frags_per_put",
            ratio(c.count_of("SiblingStoreReq") as f64, puts),
        );
        layer(
            "pahoehoe.put.attempts_per_put",
            ratio(c.puts_attempted as f64, puts),
        );
        layer("pahoehoe.put.timeouts", c.puts_timed_out as f64);
        layer(
            "pahoehoe.versions.non_durable",
            self.ledger.non_durable as f64,
        );
        layer(
            "pahoehoe.versions.excess_amr",
            self.ledger.excess_amr as f64,
        );
        layer("pahoehoe.fs.compacted_entries", c.compacted_entries as f64);
        layer(
            "pahoehoe.rss_bytes_per_put",
            ratio(self.peak_rss as f64, puts),
        );

        // -- the harness itself --
        let mut batch_ms: Vec<f64> = phase.batch_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
        batch_ms.sort_by(f64::total_cmp);
        layer(
            "harness.batch_wall_ms_p50",
            percentile(&batch_ms, 50.0).map_or(0.0, |p| p.0),
        );
        layer(
            "harness.batch_wall_ms_p95",
            percentile(&batch_ms, 95.0).map_or(0.0, |p| p.0),
        );
        layer(
            "harness.predicate.busy_share",
            (predicate_ns + check_ns) / wall,
        );
        // Outside the simulator's loop the harness works alone: it
        // generates and verifies values (timed) and issues ops (the rest).
        let driver_ns = wall - loop_ns;
        // Loop time in neither an actor nor a gap between two actors:
        // entering the loop, and leaving it after the last event.
        let unattributed = (loop_ns - actor_ns - gap_ns) / wall;
        layer("trace.unattributed_share", unattributed.abs());

        let attribution = [
            ("loop_ns", loop_ns),
            ("actors_ns", actor_ns),
            ("gaps_ns", gap_ns),
            ("gaps.engine_ns", engine_ns),
            ("gaps.timing_ns", timing_ns),
            ("gaps.predicate_ns", predicate_ns),
            ("gaps.convergence_check_ns", check_ns),
            ("driver_ns", driver_ns),
            ("driver.values_ns", phase.harness_ns as f64),
            ("unattributed_signed_ns", unattributed * wall),
            ("timer_pair_ns", pair_ns),
            ("null_replay.loop_ns", null.loop_ns as f64),
            ("null_replay.gaps_ns", null.gap_ns as f64),
            ("null_replay.events", null_calls),
        ];
        let probes = [
            ("encode", encode),
            ("checksum", checksum),
            ("decode", healthy),
            ("decode_degraded", degraded),
            ("recover", recover),
            ("faultplan_blocks", blocks),
        ];
        if let Err(e) = self.write_spans(&attribution, &probes) {
            eprintln!("could not write the trace file: {e}");
        }
    }

    /// Spans `run → batch → layer`, kept in memory until now.
    fn write_spans(
        &self,
        attribution: &[(&str, f64)],
        probes: &[(&str, api::Probe)],
    ) -> std::io::Result<()> {
        let phase = self.phase;
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\n  \"workload\": \"{}\",\n  \"seed\": {},\n  \"ops\": {},\n  \"run\": {{\"wall_ns\": {}, \"converge_ns\": {}, \"events\": {}}},\n  \"attribution\": {{",
            self.args.workload.name,
            self.args.seed,
            self.plan.ops,
            phase.wall_ns,
            phase.converge_ns,
            self.events
        );
        for (i, (name, v)) in attribution.iter().enumerate() {
            let _ = write!(s, "{}\"{name}\": {v}", if i > 0 { ", " } else { "" });
        }
        s.push_str("},\n  \"probes\": {");
        for (i, (name, p)) in probes.iter().enumerate() {
            let _ = write!(
                s,
                "{}\"{name}\": {{\"calls\": {}, \"replayed\": {}, \"ns\": {}}}",
                if i > 0 { ", " } else { "" },
                p.calls,
                p.replayed,
                p.ns
            );
        }
        s.push_str("},\n  \"batches\": [\n");
        let mut prev = self.clocks0;
        for (b, (wall_ns, now)) in phase.batch_ns.iter().zip(&phase.batch_layers).enumerate() {
            let _ = write!(
                s,
                "    {{\"batch\": {b}, \"wall_ns\": {wall_ns}, \"layers\": {{"
            );
            for (i, name) in LAYERS.iter().enumerate() {
                let _ = write!(
                    s,
                    "\"{name}\": {{\"calls\": {}, \"busy_ns\": {}}}, ",
                    now.layers[i].0 - prev.layers[i].0,
                    now.layers[i].1 - prev.layers[i].1
                );
            }
            let _ = write!(
                s,
                "\"engine+predicate\": {{\"busy_ns\": {}}}",
                now.gap_ns - prev.gap_ns
            );
            let comma = if b + 1 < phase.batch_ns.len() {
                ","
            } else {
                ""
            };
            let _ = writeln!(s, "}}}}{comma}");
            prev = *now;
        }
        s.push_str("  ]\n}\n");
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        std::fs::create_dir_all(&dir)?;
        std::fs::write(
            dir.join(format!("trace-{}.json", self.args.workload.name)),
            s,
        )
    }
}
