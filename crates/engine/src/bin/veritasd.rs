//! `veritasd` — the Veritas causal-query engine as a long-lived daemon.
//!
//! Binds a TCP listener, loads one resident corpus, warms one shared
//! abduction cache, and answers newline-delimited JSON query requests
//! until killed. `veritasd --help` lists the flags; see the
//! `veritas_engine::service` module for the wire protocol and the
//! metrics snapshot format.
//!
//! On startup the daemon prints `veritasd: listening on <addr>` to
//! stdout — with `--addr 127.0.0.1:0` this line is how callers learn the
//! ephemeral port. Exit codes follow `EngineError::exit_code`.

use std::process::ExitCode;

use veritas_engine::service;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match service::run_cli(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(error) => {
            eprintln!("veritasd: {error}");
            ExitCode::from(error.exit_code())
        }
    }
}
