//! The router's per-shard hop, factored behind [`ShardTransport`].
//!
//! [`ShardedEngine`](super::ShardedEngine) scatters, gathers, and merges;
//! *how* a sub-request reaches its shard engine is the transport's
//! business. [`InProcess`] is the original path — one [`Engine`] per shard
//! in this address space — and [`crate::net::TcpTransport`] carries the
//! same protocol over sockets to [`crate::net::ShardHost`] processes,
//! failing over between replica hosts of a shard without the router
//! noticing. Both take [`WireFrontier`]s in and hand [`Frame::Partial`] /
//! [`Frame::Error`] replies back, so the transports are behaviorally
//! interchangeable (the shard property suite asserts bit-identical results
//! across them, replicated fleets with killed primaries included).

use std::sync::Mutex;
use std::time::{Duration, Instant};

use sparse_substrate::{Scalar, Semiring};

use crate::engine::{Engine, EngineError, FlushOutcome, MxvRequest, Ticket};
use crate::obs::Registry;
use crate::stats::EngineStats;

use super::{Frame, WireFrontier};

/// What one [`ShardTransport::exchange`] produced: the gathered replies in
/// wire shape plus the execution telemetry the router folds into its
/// [`ShardFlushOutcome`](super::ShardFlushOutcome).
pub struct Exchange<X, Y> {
    /// One [`Frame::Partial`] or [`Frame::Error`] per live sub-request.
    pub replies: Vec<Frame<X, Y>>,
    /// Each shard engine's own flush outcome, indexed by shard. A remote
    /// transport fills in the summary fields its host ships back (lanes,
    /// requests, execute time); a downed shard's slot stays default.
    pub per_shard: Vec<FlushOutcome>,
    /// Shards whose engines actually flushed.
    pub shards_flushed: usize,
    /// Wall time of the parallel scatter/execute/gather phase.
    pub execute_time: Duration,
}

/// How sub-requests reach shard engines and replies come back. Implemented
/// by [`InProcess`] (shard engines in this address space) and
/// [`crate::net::TcpTransport`] (shard engines behind
/// [`crate::net::ShardHost`] daemons).
///
/// The contract mirrors the router's flush discipline: [`enqueue`]d
/// requests sit until [`exchange`], which must produce exactly one reply
/// per enqueued request that is neither `retired` nor silently dropped —
/// a transport failure is an `Error` reply, never a missing one.
///
/// [`enqueue`]: ShardTransport::enqueue
/// [`exchange`]: ShardTransport::exchange
pub trait ShardTransport<X: Scalar, Y: Scalar>: Send + Sync {
    /// Number of shards behind this transport.
    fn num_shards(&self) -> usize;

    /// Queues one sub-request for its shard, re-anchoring its deadline
    /// budget to the local clock.
    fn enqueue(&self, frontier: WireFrontier<X>);

    /// Sub-requests currently queued for `shard` (feeds the
    /// `shard.queue_depth.<s>` gauge).
    fn queued(&self, shard: usize) -> usize;

    /// Shards that have work to flush.
    fn involved(&self) -> Vec<usize>;

    /// Drops queued sub-requests whose request id is in `ids` (session
    /// close / client cancel): no reply will be produced for them.
    fn retire(&self, ids: &[u64]);

    /// Flushes every involved shard and gathers replies. `down[s]` carries
    /// an injected outage for shard `s` (the `shard.flush.<s>` failpoint):
    /// the shard must not execute, and its sub-requests must come back as
    /// `KernelFailed` errors. `retired` lists request ids cancelled after
    /// enqueue; their sub-requests produce no reply.
    fn exchange(&self, down: &[Option<String>], retired: &[u64]) -> Exchange<X, Y>;

    /// Shard `s`'s engine stats — `None` when the shard lives in another
    /// process (its stats are local to the host).
    fn shard_stats(&self, shard: usize) -> Option<EngineStats>;

    /// Shard `s`'s engine registry — `None` when the shard is remote.
    fn shard_obs(&self, shard: usize) -> Option<&Registry>;
}

/// One sub-request awaiting its shard's reply: `(request id, shard,
/// ticket)`.
type Inflight<Y> = (u64, usize, Ticket<Y>);

/// The original transport: one [`Engine`] per shard in this process,
/// sub-requests submitted straight into its queue. Sub-request tickets are
/// held here between `enqueue` and `exchange`.
pub struct InProcess<A: Scalar, X: Scalar, S: Semiring<A, X> + Clone + 'static> {
    engines: Vec<Engine<'static, A, X, S>>,
    inflight: Mutex<Vec<Inflight<S::Output>>>,
}

impl<A, X, S> InProcess<A, X, S>
where
    A: Scalar,
    X: Scalar,
    S: Semiring<A, X> + Clone + 'static,
{
    /// Wraps a fleet of shard engines (index = shard).
    pub fn new(engines: Vec<Engine<'static, A, X, S>>) -> Self {
        InProcess { engines, inflight: Mutex::new(Vec::new()) }
    }
}

impl<A, X, S> ShardTransport<X, S::Output> for InProcess<A, X, S>
where
    A: Scalar,
    X: Scalar,
    S: Semiring<A, X> + Clone + 'static,
{
    fn num_shards(&self) -> usize {
        self.engines.len()
    }

    fn enqueue(&self, frontier: WireFrontier<X>) {
        let deadline = frontier.deadline_from(Instant::now());
        let (id, s) = (frontier.request, frontier.shard);
        let sub = MxvRequest {
            frontier: frontier.slice,
            mask: frontier.mask,
            algorithm: frontier.algorithm,
            deadline,
        };
        let ticket = self.engines[s].submit(sub);
        crate::engine::lock(&self.inflight).push((id, s, ticket));
    }

    fn queued(&self, shard: usize) -> usize {
        self.engines[shard].pending()
    }

    fn involved(&self) -> Vec<usize> {
        (0..self.engines.len()).filter(|&s| self.engines[s].pending() > 0).collect()
    }

    fn retire(&self, ids: &[u64]) {
        let mut inflight = crate::engine::lock(&self.inflight);
        inflight.retain(|(id, _, ticket)| {
            if ids.contains(id) {
                ticket.cancel();
                false
            } else {
                true
            }
        });
    }

    fn exchange(&self, down: &[Option<String>], retired: &[u64]) -> Exchange<X, S::Output> {
        let entries: Vec<(u64, usize, Ticket<S::Output>)> = {
            let mut inflight = crate::engine::lock(&self.inflight);
            inflight.drain(..).collect()
        };
        let involved = self.involved();
        let mut per_shard = vec![FlushOutcome::default(); self.engines.len()];
        let mut shards_flushed = 0;

        // A downed shard's engine is not flushed at all this round; its
        // sub-requests stay queued (their cancelled lanes drain at the
        // next flush) and come back as errors below.
        let t0 = Instant::now();
        std::thread::scope(|scope| {
            let handles: Vec<(usize, _)> = involved
                .iter()
                .filter(|&&s| down[s].is_none())
                .map(|&s| (s, scope.spawn(move || self.engines[s].flush())))
                .collect();
            for (s, handle) in handles {
                per_shard[s] = handle.join().expect("shard flush thread panicked");
                shards_flushed += 1;
            }
        });
        let execute_time = t0.elapsed();

        let mut replies = Vec::with_capacity(entries.len());
        for (id, s, ticket) in entries {
            if retired.contains(&id) {
                // Client cancelled between submit and flush: drop the
                // sub-ticket too so the shard queue sheds the dead lane.
                ticket.cancel();
                continue;
            }
            // A lane still queued in a downed or unflushed shard is
            // cancelled so the shard queue sheds it at its next flush.
            let result = match &down[s] {
                Some(msg) => {
                    ticket.cancel();
                    Err(EngineError::KernelFailed(msg.clone()))
                }
                None => ticket.try_take().unwrap_or_else(|| {
                    ticket.cancel();
                    Err(EngineError::KernelFailed("shard never flushed the sub-request".into()))
                }),
            };
            replies.push(Frame::reply(id, s, result));
        }
        Exchange { replies, per_shard, shards_flushed, execute_time }
    }

    fn shard_stats(&self, shard: usize) -> Option<EngineStats> {
        Some(self.engines[shard].stats())
    }

    fn shard_obs(&self, shard: usize) -> Option<&Registry> {
        Some(self.engines[shard].obs())
    }
}
