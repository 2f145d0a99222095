//! Oracle-as-a-service: the ParaDL oracle behind a socket.
//!
//! This crate turns the in-process oracle into a long-lived daemon so that
//! sweeps, notebooks and CI jobs stop paying the model-build + engine-build
//! cost per question. Three binaries share the library:
//!
//! * **`paradl-serve`** — the daemon. Listens on a unix socket or TCP
//!   address, answers unified [`paradl_core::query::Query`] requests, and
//!   amortizes work two ways: an LRU cache of engine cores keyed by the
//!   (model, cluster, δ·γ) validity class, and a *coalescing queue* that
//!   merges concurrent ranked queries into one grid sweep (see
//!   [`server`] for the batching invariant).
//! * **`paradl-client`** — a one-shot CLI client: build a query from flags,
//!   print the ranked answer (or ping / stats / shutdown the daemon).
//! * **`paradl-loadgen`** — a closed-loop load generator that measures
//!   sustained qps and p50/p99 latency at several concurrency levels on one
//!   daemon, under shared traffic (requests coalesce) and distinct traffic
//!   (the same work per request, nothing coalesces), and writes the
//!   comparison to `BENCH_serve.json`.
//! * **`paradl-chaos`** — a chaos soak: N retrying clients against a
//!   daemon under an escalating, seeded fault schedule ([`fault`]),
//!   asserting the daemon survives, every success stays byte-identical to
//!   the local oracle, and availability clears a floor. Results go to
//!   `BENCH_chaos.json`.
//!
//! The wire protocol ([`proto`]) is deliberately boring: 12-byte header
//! (4-byte big-endian length + 8-byte FNV-1a payload checksum), JSON
//! payload rendered by `paradl_core::jsonio` — the same emitter the golden
//! fixtures use, so a served answer is *byte-identical* to
//! `QueryAnswer::to_json().render()` computed locally. That property is
//! what the integration tests pin, and the checksum keeps it true even on
//! a byte-flipping transport: corruption becomes a detected, retryable
//! transport error ([`retry`]), never a silently different answer.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod fault;
pub mod proto;
pub mod resolve;
pub mod retry;
pub mod server;
