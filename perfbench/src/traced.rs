//! Per-layer split of a traced run: self time per span kind on the
//! slowest rank, from the span kinds the trainer already records.

use opt_trace::{analyze, SpanKind, SpanRecord, Trace, TraceBuffer, NO_PARENT};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// The `core.*` metric each span kind's self time is reported under.
/// Kinds not listed (the iteration's own self time, the instant
/// overlap-launch marker) fall into `core.unattributed_ms`.
const KIND_METRICS: [(SpanKind, &str); 10] = [
    (SpanKind::Forward, "core.forward_ms"),
    (SpanKind::Backward, "core.backward_ms"),
    (SpanKind::Optimizer, "core.optimizer_ms"),
    (SpanKind::Encode, "core.encode_ms"),
    (SpanKind::Decode, "core.decode_ms"),
    (SpanKind::DpExchange, "core.dp_exchange_ms"),
    (SpanKind::EmbeddingSync, "core.embedding_sync_ms"),
    (SpanKind::Send, "core.send_ms"),
    (SpanKind::Recv, "core.recv_wait_ms"),
    (SpanKind::OverlapJoin, "core.overlap_join_ms"),
];

/// Name of the remainder bucket.
pub const UNATTRIBUTED: &str = "core.unattributed_ms";

/// Every metric name [`Breakdown::self_ms`] holds.
pub fn metric_names() -> impl Iterator<Item = &'static str> {
    KIND_METRICS
        .iter()
        .map(|&(_, m)| m)
        .chain(std::iter::once(UNATTRIBUTED))
}

/// Where one rank's iteration time went.
#[derive(Debug, Clone)]
pub struct Breakdown {
    /// The rank with the most time inside iteration spans.
    pub rank: u32,
    /// Iteration spans on that rank.
    pub iterations: u64,
    /// Mean iteration-span duration on that rank, ms.
    pub iteration_ms: f64,
    /// Mean self time per iteration, ms, by `core.*` metric name; sums
    /// to `iteration_ms`.
    pub self_ms: BTreeMap<&'static str, f64>,
    /// Encode spans per iteration, over every rank.
    pub encodes_per_iter: f64,
}

fn metric_of(kind: SpanKind) -> &'static str {
    KIND_METRICS
        .iter()
        .find(|&&(k, _)| k == kind)
        .map_or(UNATTRIBUTED, |&(_, m)| m)
}

/// Splits each rank's iteration spans into self time per kind — a span's
/// duration minus the part its child spans cover — and keeps the slowest
/// rank. Spans outside any iteration (validation, recovery) are ignored.
///
/// Returns `None` when the trace holds no iteration span.
pub fn breakdown(trace: &Trace) -> Option<Breakdown> {
    let mut best: Option<Breakdown> = None;
    let mut encodes = 0u64;
    for buf in &trace.buffers {
        let by_seq: HashMap<u64, usize> = buf
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| (s.seq, i))
            .collect();
        let parent_of = |i: usize| match buf.spans[i].parent {
            NO_PARENT => None,
            p => by_seq.get(&p).copied(),
        };
        let mut child_ns = vec![0u64; buf.spans.len()];
        for i in 0..buf.spans.len() {
            if let Some(p) = parent_of(i) {
                child_ns[p] += buf.spans[i].dur_ns;
            }
        }
        let in_iteration = |mut i: usize| loop {
            if buf.spans[i].kind == SpanKind::Iteration {
                return true;
            }
            match parent_of(i) {
                Some(p) => i = p,
                None => return false,
            }
        };
        let mut self_ns: BTreeMap<&'static str, u64> = metric_names().map(|m| (m, 0)).collect();
        let (mut iterations, mut iteration_ns) = (0u64, 0u64);
        for (i, s) in buf.spans.iter().enumerate() {
            if !in_iteration(i) {
                continue;
            }
            if s.kind == SpanKind::Iteration {
                iterations += 1;
                iteration_ns += s.dur_ns;
            }
            if s.kind == SpanKind::Encode {
                encodes += 1;
            }
            *self_ns.get_mut(metric_of(s.kind)).expect("declared") +=
                s.dur_ns.saturating_sub(child_ns[i]);
        }
        if iterations == 0 {
            continue;
        }
        let per_iter_ms = |ns: u64| ns as f64 / iterations as f64 / 1e6;
        let candidate = Breakdown {
            rank: buf.rank,
            iterations,
            iteration_ms: per_iter_ms(iteration_ns),
            self_ms: self_ns
                .into_iter()
                .map(|(m, ns)| (m, per_iter_ms(ns)))
                .collect(),
            encodes_per_iter: 0.0,
        };
        if best
            .as_ref()
            .is_none_or(|b| candidate.iteration_ms > b.iteration_ms)
        {
            best = Some(candidate);
        }
    }
    best.map(|mut b| {
        b.encodes_per_iter = encodes as f64 / b.iterations as f64;
        b
    })
}

/// The replayed pipeline-bubble fraction of every iteration on its own
/// (largest over ranks), in iteration order. `analyze` averages these
/// over the run, which rounds; one iteration's replay is exact, so each
/// can be held to the closed form bit for bit.
pub fn iteration_bubbles(trace: &Trace) -> Vec<f64> {
    let slots = |s: &SpanRecord| matches!(s.kind, SpanKind::Forward | SpanKind::Backward);
    let iters: BTreeSet<u64> = trace
        .buffers
        .iter()
        .flat_map(|b| b.spans.iter().filter(|s| slots(s)).map(|s| s.iter))
        .collect();
    iters
        .into_iter()
        .map(|iter| {
            let one = Trace::merge(
                trace
                    .buffers
                    .iter()
                    .map(|b| TraceBuffer {
                        rank: b.rank,
                        stage: b.stage,
                        dp: b.dp,
                        spans: b
                            .spans
                            .iter()
                            .filter(|s| s.iter == iter && slots(s))
                            .copied()
                            .collect(),
                    })
                    .collect(),
            );
            analyze(&one, 0)
                .ranks
                .iter()
                .map(|r| r.bubble_fraction)
                .fold(0.0, f64::max)
        })
        .collect()
}
