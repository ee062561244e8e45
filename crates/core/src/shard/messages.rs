//! The router ↔ shard protocol: one frontier type, one frame enum.
//!
//! [`WireFrontier`] is the only shape a routed sub-request takes, whether
//! it is queued for an in-process shard engine or encoded onto a socket,
//! and [`Frame::Partial`] / [`Frame::Error`] are the only shapes a reply
//! takes. The remaining [`Frame`] variants are the socket transport's
//! control frames. Encoding lives in [`crate::net`]; see its module docs
//! for the byte layout.

use std::sync::Arc;
use std::time::{Duration, Instant};

use sparse_substrate::{MaskBits, SparseVec};

use crate::batch::BatchAlgorithmKind;
use crate::engine::EngineError;
use crate::masked::MaskMode;

/// Router → shard: one request's frontier slice plus the output mask and
/// the algorithm hint that travel with it.
#[derive(Debug, Clone, PartialEq)]
pub struct WireFrontier<X> {
    /// Router-unique request id, echoed by the reply.
    pub request: u64,
    /// Destination shard.
    pub shard: usize,
    /// The frontier slice, re-based to the shard's column range.
    pub slice: SparseVec<X>,
    /// Remaining deadline budget in microseconds. Relative, not absolute:
    /// wall clocks don't cross process boundaries, so whoever receives the
    /// frontier re-anchors it to its own clock.
    pub deadline_micros: Option<u64>,
    /// Output mask (full output height, shared by every shard).
    pub mask: Option<(Arc<MaskBits>, MaskMode)>,
    /// Batched-algorithm hint.
    pub algorithm: Option<BatchAlgorithmKind>,
}

impl<X> WireFrontier<X> {
    /// The budget re-anchored to the local clock at `received`. A budget
    /// too large to represent as an `Instant` is no deadline at all.
    pub(crate) fn deadline_from(&self, received: Instant) -> Option<Instant> {
        self.deadline_micros.and_then(|b| received.checked_add(Duration::from_micros(b)))
    }
}

/// The budget left until `deadline`, in whole microseconds (0 once it has
/// passed).
pub(crate) fn budget_micros(deadline: Instant) -> u64 {
    deadline.saturating_duration_since(Instant::now()).as_micros() as u64
}

/// Everything that can travel on a shard connection: the frontier, the two
/// reply shapes, and the control frames (`Flush` = "execute everything
/// queued on this connection", `Done` = the host's flush summary,
/// `Goodbye` = orderly close, plus the discovery and heartbeat pairs).
#[derive(Debug, Clone, PartialEq)]
pub enum Frame<X, Y> {
    /// Router → host: one request's frontier slice.
    Frontier(WireFrontier<X>),
    /// Host → router: one full-height partial product, to be ⊕-merged
    /// with the other owning shards' partials.
    Partial {
        /// Echoed request id.
        request: u64,
        /// Responding shard.
        shard: usize,
        /// The partial product.
        partial: SparseVec<Y>,
    },
    /// Host → router: the sub-request failed. Fails only the tickets
    /// routed through this shard.
    Error {
        /// Echoed request id.
        request: u64,
        /// Failing shard.
        shard: usize,
        /// What went wrong.
        error: EngineError,
    },
    /// Router → host: flush the engine and reply to every frontier
    /// received on this connection since the last flush.
    Flush,
    /// Host → router: flush finished; sent after the per-request replies
    /// with the host engine's execution summary.
    Done {
        /// Responding shard.
        shard: usize,
        /// Lanes the host engine executed this flush.
        lanes: u64,
        /// Requests the host engine drained this flush.
        requests: u64,
        /// Host-side kernel wall time, microseconds.
        execute_micros: u64,
    },
    /// Either direction: orderly connection close.
    Goodbye,
    /// Router → host: discovery probe sent immediately after dialing. The
    /// host answers with [`Frame::Welcome`] before any traffic flows.
    Hello,
    /// Host → router: the host's advertisement, verified against the
    /// router's `ShardPlan` at dial time — a host serving the wrong shard,
    /// column range, height, or matrix structure is rejected with a typed
    /// `PlanMismatch` instead of silently corrupting merges.
    Welcome {
        /// Shard id this host serves.
        shard: usize,
        /// First global column of the host's slice (inclusive).
        col_start: usize,
        /// One past the last global column of the host's slice.
        col_end: usize,
        /// Output height (rows of the original matrix).
        nrows: usize,
        /// Structural fingerprint of the host's matrix slice
        /// (`CscMatrix::fingerprint`).
        fingerprint: u64,
    },
    /// Router → host: liveness probe from the background heartbeat. The
    /// host echoes the nonce in a [`Frame::Pong`].
    Ping {
        /// Opaque echo token correlating probe and reply.
        nonce: u64,
    },
    /// Host → router: heartbeat reply.
    Pong {
        /// The nonce from the matching [`Frame::Ping`].
        nonce: u64,
    },
}

impl<X, Y> Frame<X, Y> {
    /// The reply to sub-request `request` on `shard`: a `Partial` for a
    /// result, an `Error` for a failure.
    pub(crate) fn reply(
        request: u64,
        shard: usize,
        result: Result<SparseVec<Y>, EngineError>,
    ) -> Self {
        match result {
            Ok(partial) => Frame::Partial { request, shard, partial },
            Err(error) => Frame::Error { request, shard, error },
        }
    }
}
