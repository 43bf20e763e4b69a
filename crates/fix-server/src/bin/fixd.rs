//! `fixd` — the FIX network query daemon.
//!
//! ```text
//! fixd <db> [--addr HOST:PORT] [--shards N] [--max-inflight N]
//!           [--tenant-quota N]
//! ```
//!
//! `<db>` is either a sharded manifest written by
//! `ShardedDatabase::save` / `fixdb build --shards`, or an ordinary
//! single-file database — the latter is resharded in memory across
//! `--shards N` (default 1) document-hash shards at startup.
//!
//! Serves the binary protocol and HTTP (`/query`, `/metrics`, `/events`,
//! `/healthz`) on one port. SIGTERM or SIGINT drains: accepting stops,
//! in-flight queries finish and flush, then the process exits 0. The
//! same front door runs as `fixdb serve`.

use std::process::ExitCode;

use fix_server::{run_daemon, DAEMON_USAGE};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("usage: fixd {DAEMON_USAGE}");
        return ExitCode::SUCCESS;
    }
    match run_daemon("fixd", &args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("fixd: {e}");
            ExitCode::FAILURE
        }
    }
}
