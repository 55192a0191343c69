//! A threaded HTTP evaluation service for the speculative-reconvergence
//! simulator, plus its load-generator client.
//!
//! `specrecon serve` exposes the [`workloads::Engine`] batch evaluator
//! over a small hand-rolled HTTP/1.1 + JSON surface (the workspace has
//! a no-new-dependencies rule, so there is no hyper/serde here):
//!
//! - `POST /v1/eval` — evaluate a named workload or an inline kernel
//!   module under a chosen scheduling policy / SR variant, returning
//!   per-seed metrics JSON. See [`api`] for the request schema.
//! - `GET /healthz` — liveness (`ok` / `draining`).
//! - `GET /metrics` — Prometheus text exposition: request counts by
//!   status, evals waiting for a slot (now and peak), latency histogram,
//!   compiled-image cache hit rate.
//!
//! The service is built from small, separately tested parts:
//!
//! | module      | role                                                |
//! |-------------|-----------------------------------------------------|
//! | [`http`]    | minimal HTTP/1.1 framing (requests and responses)   |
//! | [`json`]    | parse/render for the API payloads                   |
//! | [`gate`]    | admission gate — at most N run, at most M wait      |
//! | [`metrics`] | atomic counters + Prometheus rendering              |
//! | [`signal`]  | SIGINT/SIGTERM → atomic flag, no crates             |
//! | [`api`]     | request validation and engine invocation            |
//! | [`server`]  | accept loop, connections, deadlines, graceful drain |
//! | [`loadgen`] | closed-loop benchmark client (`specrecon loadgen`)  |
//!
//! ## Backpressure and shutdown contract
//!
//! A request is *accepted* exactly when the admission gate lets it run
//! or wait: at most `--workers` evals run, each on the connection thread
//! that read it, and at most `--queue-depth` wait for a slot. A full gate
//! answers `503` with `Retry-After` immediately; once shutdown begins,
//! new work gets `503` while everything already accepted is drained to
//! completion (or its deadline) before the process exits. Deadlines cancel in-flight simulation cooperatively
//! via [`simt_sim::CancelToken`]. `docs/SERVING.md` is the operator-
//! facing version of this contract.

#![warn(missing_docs)]

pub mod api;
pub mod gate;
pub mod http;
pub mod json;
pub mod loadgen;
pub mod metrics;
pub mod server;
pub mod signal;

pub use loadgen::{LoadgenConfig, LoadgenReport};
pub use server::{DrainReport, ServeConfig, Server, ServerHandle};
