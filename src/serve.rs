//! `zfgan serve-metrics` — glue over the shared single-threaded HTTP
//! server in [`zfgan_telemetry::http`].
//!
//! The server itself (serving loop, request parsing, the [`scrape`]
//! client and its tests) lives in the telemetry crate so every consumer
//! of the `/metrics` endpoint — the CLI, the DSE engine's cache/shard
//! counters, benches — shares one implementation. This module only binds
//! the CLI-facing address and keeps the historical `crate::serve` paths
//! working.

use std::net::TcpListener;

pub use crate::telemetry::http::{scrape, serve_on};

/// Binds `addr` and serves until `max_requests` requests are handled
/// (forever when `None`). Prints the bound address before serving so a
/// scraper knows where to connect even with `--addr 127.0.0.1:0`, and
/// turns the process-global registry on so anything else the process
/// records while serving lands on the served page.
///
/// # Errors
///
/// Returns an error when the address cannot be bound.
pub fn run_serve(addr: &str, max_requests: Option<u64>) -> Result<String, String> {
    let listener = TcpListener::bind(addr).map_err(|e| format!("--addr {addr}: {e}"))?;
    let local = listener
        .local_addr()
        .map_err(|e| format!("--addr {addr}: {e}"))?;
    println!("serving metrics on http://{local}/metrics (also /health); ctrl-c to stop");
    crate::telemetry::set_enabled(true);
    serve_on(listener, max_requests)
}
