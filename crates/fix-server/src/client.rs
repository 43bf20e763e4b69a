//! A small blocking client for the fixd binary protocol.

use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::proto::{
    decode_response, encode_request, read_frame, write_frame, ErrorCode, ProtoError, Request,
    Response, WireMetrics, MAGIC,
};

/// What a remote query can fail with.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(io::Error),
    /// The server's bytes did not decode.
    Proto(ProtoError),
    /// The server answered with a structured error.
    Server {
        /// The error class.
        code: ErrorCode,
        /// Server-side detail.
        message: String,
    },
    /// The server answered with an unexpected (but well-formed) frame.
    Unexpected(&'static str),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "I/O error: {e}"),
            ClientError::Proto(e) => write!(f, "protocol error: {e}"),
            ClientError::Server { code, message } => {
                write!(f, "server error ({}): {message}", code.name())
            }
            ClientError::Unexpected(what) => write!(f, "unexpected response frame: {what}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> Self {
        ClientError::Proto(e)
    }
}

/// One successful remote query.
#[derive(Debug, Clone)]
pub struct RemoteOutcome {
    /// `(global doc id, node id)` hits, sorted and deduplicated — the
    /// same byte stream a local unsharded query returns.
    pub results: Vec<(u32, u32)>,
    /// Summed effectiveness counters.
    pub metrics: WireMetrics,
    /// Server-side wall time, nanoseconds.
    pub elapsed_ns: u64,
}

/// A blocking fixd connection speaking the binary protocol.
///
/// A round trip that fails with [`ClientError::Io`] or
/// [`ClientError::Proto`] — a timeout included — leaves the connection
/// unusable: the server may still send that request's answer, and the
/// next read would take it for its own. Every later call then fails with
/// `ErrorKind::NotConnected`; reconnect to continue.
pub struct Client {
    stream: TcpStream,
    tenant: String,
    broken: bool,
}

impl Client {
    /// Connects and sends the protocol magic.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Client, ClientError> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        write_frame(&mut stream, &MAGIC)?;
        Ok(Client {
            stream,
            tenant: String::new(),
            broken: false,
        })
    }

    /// Sets the tenant name sent with subsequent queries.
    pub fn with_tenant(mut self, tenant: &str) -> Self {
        self.tenant = tenant.to_string();
        self
    }

    /// Bounds how long [`Client::query`] / [`Client::ping`] wait for a
    /// response (`None` = forever). A request that times out breaks the
    /// connection (see [`Client`]).
    pub fn set_timeout(&mut self, timeout: Option<Duration>) -> Result<(), ClientError> {
        self.stream.set_read_timeout(timeout)?;
        Ok(())
    }

    /// Liveness round trip.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.round_trip(&Request::Ping)? {
            Response::Pong => Ok(()),
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            Response::Hits { .. } => Err(ClientError::Unexpected("hits for a ping")),
        }
    }

    /// Executes one query remotely.
    pub fn query(&mut self, query: &str) -> Result<RemoteOutcome, ClientError> {
        let req = Request::Query {
            tenant: self.tenant.clone(),
            query: query.to_string(),
        };
        match self.round_trip(&req)? {
            Response::Hits {
                results,
                metrics,
                elapsed_ns,
            } => Ok(RemoteOutcome {
                results,
                metrics,
                elapsed_ns,
            }),
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            Response::Pong => Err(ClientError::Unexpected("pong for a query")),
        }
    }

    fn round_trip(&mut self, req: &Request) -> Result<Response, ClientError> {
        if self.broken {
            return Err(ClientError::Io(io::Error::new(
                io::ErrorKind::NotConnected,
                "connection unusable after an earlier failed request; reconnect",
            )));
        }
        let out = self.exchange(req);
        self.broken = matches!(out, Err(ClientError::Io(_) | ClientError::Proto(_)));
        out
    }

    fn exchange(&mut self, req: &Request) -> Result<Response, ClientError> {
        write_frame(&mut self.stream, &encode_request(req))?;
        match read_frame(&mut self.stream)? {
            None => Err(ClientError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ))),
            Some(Ok(payload)) => Ok(decode_response(&payload)?),
            Some(Err(e)) => Err(ClientError::Proto(e)),
        }
    }
}
