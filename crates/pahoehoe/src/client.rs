//! The workload client.
//!
//! Drives a scripted sequence of puts and gets through one proxy,
//! retrying failed puts until they succeed — the behaviour behind the
//! paper's lossy-network experiment (§5.4), which counts how many put
//! operations must be *attempted* for 100 to *succeed*, and classifies the
//! object versions left behind by failed attempts (excess-AMR versus
//! non-durable).
//!
//! What the client keeps is bounded by the data it describes, not by the
//! operations it served: version ledgers hold one small record per put, and
//! the values gets returned live in a [`GetLog`] that counts every
//! completed get but retains only the newest few — a get's value belongs
//! to the caller, who reads it right after the get completes.

use std::any::Any;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

use bytes::Bytes;
use simnet::{Actor, Context, NodeId, SimDuration, SimTime};

use crate::messages::{Message, OpId};
use crate::policy::Policy;
use crate::types::{Key, ObjectVersion};
use crate::workload::StreamingWorkload;

const TAG_NEXT_OP: u64 = 1;
const TAG_OP_TIMEOUT: u64 = 1 << 56;
const TAG_MASK: u64 = 0xff << 56;

/// One scripted client operation.
#[derive(Debug, Clone)]
pub enum ClientOp {
    /// Store `value` under `key`, retrying until the proxy reports
    /// success.
    Put {
        /// Object key.
        key: Key,
        /// Value to store.
        value: Bytes,
        /// Durability policy.
        policy: Policy,
    },
    /// Retrieve the object stored under `key` (no retry; the outcome is
    /// recorded as-is).
    Get {
        /// Object key.
        key: Key,
    },
}

/// The outcome of a completed get.
#[derive(Debug, Clone, PartialEq)]
pub struct GetOutcome {
    /// The key requested.
    pub key: Key,
    /// Version and value returned, or `None` if the get aborted/failed.
    pub result: Option<(ObjectVersion, Bytes)>,
}

/// How many of the newest outcomes a [`GetLog`] retains.
const GET_LOG_WINDOW: usize = 64;

/// The client's record of completed gets, addressed by absolute completion
/// index (the first get to complete is 0). Every completion is counted;
/// only the newest few outcomes — and so the values they carry — are
/// retained, which keeps a long read-heavy run's memory independent of how
/// many gets it has served. Callers that want a value read it when the get
/// completes: remember [`len`](GetLog::len), issue the get, and index the
/// log at the remembered position once `len` has grown.
#[derive(Debug, Default)]
pub struct GetLog {
    /// Gets completed so far, retained or not.
    done: usize,
    /// How many of them returned nothing.
    failed: usize,
    /// The newest `min(done, GET_LOG_WINDOW)` outcomes, oldest first.
    recent: VecDeque<GetOutcome>,
}

impl GetLog {
    /// Gets completed so far (not the number still retained).
    pub fn len(&self) -> usize {
        self.done
    }

    /// Whether no get has completed yet.
    pub fn is_empty(&self) -> bool {
        self.done == 0
    }

    /// How many completed gets returned nothing (aborted, failed, or
    /// timed out at the client).
    pub fn failed(&self) -> usize {
        self.failed
    }

    /// The outcome of the `i`-th get to complete, or `None` if no such
    /// get completed yet or its outcome has left the retained window.
    pub fn get(&self, i: usize) -> Option<&GetOutcome> {
        let first_retained = self.done - self.recent.len();
        self.recent.get(i.checked_sub(first_retained)?)
    }

    /// The most recently completed get's outcome.
    pub fn last(&self) -> Option<&GetOutcome> {
        self.recent.back()
    }

    fn push(&mut self, outcome: GetOutcome) {
        self.done += 1;
        self.failed += usize::from(outcome.result.is_none());
        if self.recent.len() == GET_LOG_WINDOW {
            self.recent.pop_front();
        }
        self.recent.push_back(outcome);
    }
}

impl std::ops::Index<usize> for GetLog {
    type Output = GetOutcome;

    fn index(&self, i: usize) -> &GetOutcome {
        match self.get(i) {
            Some(outcome) => outcome,
            None if i < self.done => panic!(
                "get outcome {i} was evicted: only the newest {GET_LOG_WINDOW} of {} are retained",
                self.done
            ),
            None => panic!("get outcome {i} out of range: {} gets completed", self.done),
        }
    }
}

/// Iterates the retained outcomes, oldest first.
impl<'a> IntoIterator for &'a GetLog {
    type Item = &'a GetOutcome;
    type IntoIter = std::collections::vec_deque::Iter<'a, GetOutcome>;

    fn into_iter(self) -> Self::IntoIter {
        self.recent.iter()
    }
}

/// A scripted workload client bound to one proxy.
pub struct Client {
    proxy: NodeId,
    /// Pause between consecutive operations.
    gap: SimDuration,
    /// Pause before retrying a failed put.
    retry_delay: SimDuration,
    /// Give up on an unanswered operation after this long. The request or
    /// the answer may have been dropped by a lossy network; the paper's
    /// client "effectively handles [the proxy's unknown answer] like a
    /// timeout" and retries (§3.5). Must exceed the proxy's own
    /// operation timeout plus a round trip.
    op_timeout: SimDuration,
    script: VecDeque<ClientOp>,
    /// Constant-memory op source drained after `script`: ops synthesized
    /// one at a time from `(workload, next index)`, so a million-put
    /// workload never materializes a script. Retries re-enter `script`.
    stream: Option<(StreamingWorkload, u64)>,
    in_flight: Option<(OpId, ClientOp)>,
    in_flight_timer: Option<simnet::TimerId>,
    /// When the in-flight operation was issued.
    in_flight_since: SimTime,
    next_op: OpId,
    wakeup_scheduled: bool,
    /// Attempts that timed out with no proxy answer at all.
    puts_timed_out: u64,
    // ---- outcome accounting ----
    puts_attempted: u64,
    puts_succeeded: u64,
    /// Put attempts the proxy answered (success or failure). Paired with
    /// [`last_put_latency`](Client::last_put_latency) this lets an
    /// external observer (a `simnet::Observer`, after each event) stream
    /// every per-put latency into a constant-memory estimator.
    puts_answered: u64,
    /// Issue-to-answer latency of the most recently answered put.
    last_put_latency: SimDuration,
    /// Versions whose put the client saw succeed.
    success_versions: BTreeSet<ObjectVersion>,
    /// Versions created by attempts the client saw fail.
    failed_versions: BTreeSet<ObjectVersion>,
    /// Version each key's successful put produced.
    version_of: BTreeMap<Key, ObjectVersion>,
    gets_done: GetLog,
}

impl Client {
    /// Creates a client that will run `script` against `proxy`.
    pub fn new(proxy: NodeId, script: Vec<ClientOp>) -> Self {
        Client {
            proxy,
            gap: SimDuration::ZERO,
            retry_delay: SimDuration::from_millis(200),
            op_timeout: SimDuration::from_secs(5),
            script: script.into(),
            stream: None,
            in_flight: None,
            in_flight_timer: None,
            in_flight_since: SimTime::ZERO,
            next_op: 1,
            wakeup_scheduled: false,
            puts_timed_out: 0,
            puts_attempted: 0,
            puts_succeeded: 0,
            puts_answered: 0,
            last_put_latency: SimDuration::ZERO,
            success_versions: BTreeSet::new(),
            failed_versions: BTreeSet::new(),
            version_of: BTreeMap::new(),
            gets_done: GetLog::default(),
        }
    }

    /// Builds the paper's standard workload: `count` puts of `value_len`
    /// bytes each, with deterministic per-key contents.
    pub fn standard_workload(
        proxy: NodeId,
        count: usize,
        value_len: usize,
        policy: Policy,
    ) -> Self {
        Self::standard_workload_rounds(proxy, count, value_len, policy, 1)
    }

    /// The standard workload repeated `rounds` times: every round puts
    /// each key once, with the same key-derived contents each round, so
    /// `rounds > 1` turns the insert-only script into an overwrite stream
    /// while staying compatible with byte-level durability checks (the
    /// blob for a key never changes across rounds).
    pub fn standard_workload_rounds(
        proxy: NodeId,
        count: usize,
        value_len: usize,
        policy: Policy,
        rounds: usize,
    ) -> Self {
        let script = (0..rounds.max(1))
            .flat_map(|_| {
                (0..count).map(move |i| ClientOp::Put {
                    key: Key::from_u64(i as u64 + 1),
                    value: Self::synthetic_value(i as u64, value_len),
                    policy,
                })
            })
            .collect();
        Client::new(proxy, script)
    }

    /// Creates a client that synthesizes its puts one at a time from a
    /// [`StreamingWorkload`] — constant memory in the workload size.
    pub fn streaming(proxy: NodeId, workload: StreamingWorkload) -> Self {
        let mut c = Client::new(proxy, Vec::new());
        c.stream = Some((workload, 0));
        c
    }

    /// Deterministic synthetic object contents for workload key `i`.
    pub fn synthetic_value(i: u64, len: usize) -> Bytes {
        let mut v = Vec::with_capacity(len);
        let mut state = i.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        for _ in 0..len {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            v.push(state as u8);
        }
        Bytes::from(v)
    }

    /// Appends an operation to the script. The caller must also wake the
    /// client with a scheduled timer if the simulation already started
    /// (see [`Cluster::put`](crate::cluster::Cluster::put)).
    pub fn enqueue(&mut self, op: ClientOp) {
        self.script.push_back(op);
    }

    /// All operations done (script and stream drained, nothing in
    /// flight)?
    pub fn is_done(&self) -> bool {
        self.script.is_empty() && !self.stream_has_more() && self.in_flight.is_none()
    }

    fn stream_has_more(&self) -> bool {
        self.stream
            .as_ref()
            .is_some_and(|(wl, next)| *next < wl.puts)
    }

    /// The next operation: scripted ops (including retries pushed back to
    /// the front) first, then the stream.
    fn next_op_from_script(&mut self) -> Option<ClientOp> {
        if let Some(op) = self.script.pop_front() {
            return Some(op);
        }
        let (wl, next) = self.stream.as_mut()?;
        if *next >= wl.puts {
            return None;
        }
        let op = wl.op_at(*next);
        *next += 1;
        Some(op)
    }

    /// Put attempts issued so far (the paper's "puts attempted").
    pub fn puts_attempted(&self) -> u64 {
        self.puts_attempted
    }

    /// Attempts that received no proxy answer before the client timeout.
    pub fn puts_timed_out(&self) -> u64 {
        self.puts_timed_out
    }

    /// Puts the proxy reported successful.
    pub fn puts_succeeded(&self) -> u64 {
        self.puts_succeeded
    }

    /// Put attempts the proxy answered (success or failure) so far.
    pub fn puts_answered(&self) -> u64 {
        self.puts_answered
    }

    /// Issue-to-answer latency of the most recently answered put.
    pub fn last_put_latency(&self) -> SimDuration {
        self.last_put_latency
    }

    /// Versions whose put succeeded.
    pub fn success_versions(&self) -> &BTreeSet<ObjectVersion> {
        &self.success_versions
    }

    /// Versions created by failed attempts (candidates for excess-AMR or
    /// non-durable classification).
    pub fn failed_versions(&self) -> &BTreeSet<ObjectVersion> {
        &self.failed_versions
    }

    /// The version the successful put of `key` produced.
    pub fn version_of(&self, key: Key) -> Option<ObjectVersion> {
        self.version_of.get(&key).copied()
    }

    /// Completed gets in completion order: all of them counted, the
    /// newest outcomes retained (see [`GetLog`]).
    pub fn gets_done(&self) -> &GetLog {
        &self.gets_done
    }

    fn kick(&mut self, ctx: &mut Context<'_, Message>, delay: SimDuration) {
        if !self.wakeup_scheduled {
            ctx.schedule_timer(delay, TAG_NEXT_OP);
            self.wakeup_scheduled = true;
        }
    }

    fn issue_next(&mut self, ctx: &mut Context<'_, Message>) {
        if self.in_flight.is_some() {
            return;
        }
        let Some(op) = self.next_op_from_script() else {
            return;
        };
        let id = self.next_op;
        self.next_op += 1;
        match &op {
            ClientOp::Put { key, value, policy } => {
                self.puts_attempted += 1;
                ctx.send(
                    self.proxy,
                    Message::ClientPut {
                        op: id,
                        key: *key,
                        value: value.clone(),
                        policy: *policy,
                    },
                );
            }
            ClientOp::Get { key } => {
                ctx.send(self.proxy, Message::ClientGet { op: id, key: *key });
            }
        }
        self.in_flight = Some((id, op));
        self.in_flight_since = ctx.now();
        self.in_flight_timer = Some(ctx.schedule_timer(self.op_timeout, TAG_OP_TIMEOUT | id));
    }

    fn clear_in_flight_timer(&mut self, ctx: &mut Context<'_, Message>) {
        if let Some(t) = self.in_flight_timer.take() {
            ctx.cancel_timer(t);
        }
    }

    /// The in-flight operation got no answer: count it and retry puts
    /// (gets record a failed outcome).
    fn on_op_timeout(&mut self, ctx: &mut Context<'_, Message>, id: OpId) {
        let Some((current_id, op)) = self.in_flight.take() else {
            return;
        };
        if current_id != id {
            self.in_flight = Some((current_id, op));
            return;
        }
        self.in_flight_timer = None;
        match op {
            put @ ClientOp::Put { .. } => {
                self.puts_timed_out += 1;
                self.script.push_front(put);
                self.kick(ctx, self.retry_delay);
            }
            ClientOp::Get { key } => {
                self.gets_done.push(GetOutcome { key, result: None });
                self.kick(ctx, self.gap);
            }
        }
    }
}

impl Actor<Message> for Client {
    fn on_start(&mut self, ctx: &mut Context<'_, Message>) {
        if !self.script.is_empty() || self.stream_has_more() {
            self.kick(ctx, SimDuration::ZERO);
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_, Message>, _from: NodeId, msg: Message) {
        match msg {
            Message::ClientPutReply { op, ov, success } => {
                let Some((id, current)) = self.in_flight.take() else {
                    return;
                };
                if id != op {
                    self.in_flight = Some((id, current));
                    return;
                }
                self.clear_in_flight_timer(ctx);
                let ClientOp::Put { key, .. } = &current else {
                    debug_assert!(false, "put reply while get in flight");
                    return;
                };
                self.puts_answered += 1;
                self.last_put_latency = SimDuration::from_micros(
                    ctx.now().as_micros() - self.in_flight_since.as_micros(),
                );
                if success {
                    self.puts_succeeded += 1;
                    self.success_versions.insert(ov);
                    self.version_of.insert(*key, ov);
                    self.kick(ctx, self.gap);
                } else {
                    // Retry the same logical put; a new attempt makes a
                    // new object version (fresh timestamp).
                    self.failed_versions.insert(ov);
                    self.script.push_front(current);
                    self.kick(ctx, self.retry_delay);
                }
            }
            Message::ClientGetReply { op, result } => {
                let Some((id, current)) = self.in_flight.take() else {
                    return;
                };
                if id != op {
                    self.in_flight = Some((id, current));
                    return;
                }
                self.clear_in_flight_timer(ctx);
                let ClientOp::Get { key } = &current else {
                    debug_assert!(false, "get reply while put in flight");
                    return;
                };
                self.gets_done.push(GetOutcome { key: *key, result });
                self.kick(ctx, self.gap);
            }
            other => {
                debug_assert!(false, "client received unexpected {:?}", other);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Message>, tag: u64) {
        match tag & TAG_MASK {
            TAG_OP_TIMEOUT => self.on_op_timeout(ctx, tag & !TAG_MASK),
            _ => {
                debug_assert_eq!(tag, TAG_NEXT_OP);
                self.wakeup_scheduled = false;
                self.issue_next(ctx);
            }
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_values_are_deterministic_and_distinct() {
        let a = Client::synthetic_value(1, 256);
        let b = Client::synthetic_value(1, 256);
        let c = Client::synthetic_value(2, 256);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 256);
    }

    #[test]
    fn standard_workload_has_one_put_per_key() {
        let c = Client::standard_workload(NodeId::new(0), 5, 128, Policy::paper_default());
        assert_eq!(c.script.len(), 5);
        let keys: BTreeSet<Key> = c
            .script
            .iter()
            .map(|op| match op {
                ClientOp::Put { key, .. } => *key,
                ClientOp::Get { key } => *key,
            })
            .collect();
        assert_eq!(keys.len(), 5);
        assert!(!c.is_done());
    }

    fn outcome(i: u64) -> GetOutcome {
        let key = Key::from_u64(i);
        let ov = ObjectVersion::new(key, crate::types::Timestamp::new(SimTime::ZERO, 0));
        GetOutcome {
            key,
            result: Some((ov, Bytes::from(vec![i as u8]))),
        }
    }

    #[test]
    fn get_log_counts_every_get_and_retains_the_newest_window() {
        let mut log = GetLog::default();
        assert!(log.is_empty());
        assert!(log.last().is_none());
        for i in 0..200 {
            log.push(outcome(i));
            assert_eq!(log.len(), i as usize + 1);
            assert_eq!(log.last(), Some(&outcome(i)), "the newest is always there");
        }
        assert_eq!(log.failed(), 0);
        let first_kept = 200 - GET_LOG_WINDOW;
        for i in 0..200 {
            if i < first_kept {
                assert!(log.get(i).is_none(), "outcome {i} left the window");
            } else {
                assert_eq!(log.get(i), Some(&outcome(i as u64)));
                assert_eq!(log[i], outcome(i as u64));
            }
        }
        assert!(log.get(200).is_none(), "not completed yet");
        let kept: Vec<&GetOutcome> = (&log).into_iter().collect();
        assert_eq!(kept.len(), GET_LOG_WINDOW);
        assert_eq!(kept[0], &outcome(first_kept as u64));
    }

    #[test]
    #[should_panic(expected = "was evicted")]
    fn indexing_an_evicted_get_outcome_says_so() {
        let mut log = GetLog::default();
        for i in 0..=GET_LOG_WINDOW as u64 {
            log.push(outcome(i));
        }
        let _ = &log[0];
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn indexing_a_get_that_has_not_completed_is_out_of_range() {
        let mut log = GetLog::default();
        log.push(outcome(0));
        let _ = &log[1];
    }

    /// A proxy stand-in that never answers.
    struct Silent;
    impl Actor<Message> for Silent {
        fn on_message(&mut self, _ctx: &mut Context<'_, Message>, _from: NodeId, _msg: Message) {}
        fn on_timer(&mut self, _ctx: &mut Context<'_, Message>, _tag: u64) {}
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn a_get_that_times_out_at_the_client_counts_as_failed() {
        let mut sim = simnet::Simulation::new(3);
        let proxy = sim.add_actor(Silent);
        let key = Key::from_u64(1);
        let client = sim.add_actor(Client::new(proxy, vec![ClientOp::Get { key }]));
        sim.run_until_quiescent();
        let log = sim.actor::<Client>(client).gets_done();
        assert_eq!((log.len(), log.failed()), (1, 1));
        assert_eq!(log[0], GetOutcome { key, result: None });
    }

    #[test]
    fn empty_script_is_done() {
        let c = Client::new(NodeId::new(0), Vec::new());
        assert!(c.is_done());
        assert_eq!(c.puts_attempted(), 0);
    }
}
