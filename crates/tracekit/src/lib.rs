//! Causal distributed tracing for the Contory reproduction.
//!
//! obskit gives the single-threaded device stack a deterministic span
//! log; tracekit is the span model of the broker tier, and makes spans
//! *causal across processes*. The two share no code path. A
//! [`TraceCtx`] rides inside every [`brokerd`] context packet (and,
//! behind the compat flag, inside the Fuego envelope): a 64-bit trace
//! id, the span id of the hop that forwarded it, a federation hop
//! count, and a **sampling decision derived purely from the trace
//! id** — no ambient randomness,
//! so the same seed always samples the same traces and byte-identity
//! across shard/thread counts is preserved with tracing on.
//!
//! The pieces:
//!
//! * [`TraceCtx`] — the propagated context (created with
//!   [`TraceCtx::root`] from deterministic id/seq material, advanced
//!   with [`TraceCtx::child`]/[`TraceCtx::hopped`]).
//! * [`TraceLog`] / [`TraceEvent`] — per-node append-only logs of hop
//!   events (publish/admit/shed/enqueue/dispatch/federate/gossip/
//!   deliver). `Send` and mergeable, unlike the thread-local obskit
//!   collector, so shard-parallel actors record locally and the
//!   harness folds logs in actor order after the run. Exports a
//!   canonical JSONL stream ([`TraceLog::export_jsonl`]) and parses it
//!   back ([`TraceLog::parse_jsonl`]).
//! * [`assemble`] — reconstructs end-to-end trace trees from a span
//!   stream, with parent links validated so a parent always precedes
//!   its child in sim time.
//! * [`Breakup`] — per-delivery critical paths folded into a
//!   broker-side latency break-up table, exported in the deterministic
//!   JSON style benchkit consumes.
//! * [`summaries`] — compact per-trace rows for the `TRACE` ops
//!   request on the live TCP service.
//!
//! [`brokerd`]: ../brokerd/index.html

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod assemble;
mod ctx;
mod log;

pub use assemble::{
    assemble, summaries, Breakup, Delivery, TraceNode, TraceSummary, TraceTree,
};
pub use ctx::{ParseCtxError, TraceCtx};
pub use log::{Stage, TraceError, TraceEvent, TraceLog};
