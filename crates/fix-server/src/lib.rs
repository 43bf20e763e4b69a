//! `fix-server` — fixd, the sharded scatter-gather query server.
//!
//! Three layers:
//!
//! * [`proto`] — the length-prefixed binary wire protocol. The decoder is
//!   total: any byte sequence decodes or returns a structured
//!   [`proto::ProtoError`]; it never panics and never allocates beyond
//!   the bytes in hand.
//! * [`server`] — the threaded front end: binary + HTTP/JSON surfaces
//!   over a [`fix_core::ShardedSession`], two-layer admission control,
//!   Prometheus `/metrics`, the flight recorder at `/events`, graceful
//!   drain on shutdown, and [`run_daemon`], the command line `fixd` and
//!   `fixdb serve` share.
//! * [`client`] — a small blocking client ( `fixdb remote-query` and the
//!   loopback test suite use it).
//!
//! The `fixd` binary in this crate is the daemon: [`run_daemon`] loads a
//! database (sharded manifest or single-file, resharded on the fly),
//! serves it, and drains cleanly on SIGTERM/SIGINT.

pub mod client;
pub mod proto;
pub mod server;

pub use client::{Client, ClientError, RemoteOutcome};
pub use proto::{ErrorCode, ProtoError, Request, Response, WireMetrics};
pub use server::{run_daemon, serve, ServerConfig, ServerHandle, DAEMON_USAGE};
