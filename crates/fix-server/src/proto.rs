//! The fixd wire protocol: length-prefixed binary frames.
//!
//! A connection opens with the 4-byte magic `FIXB` (which is also how the
//! server tells binary clients apart from HTTP ones — no HTTP method
//! starts with those bytes). After the magic, both directions speak
//! frames:
//!
//! ```text
//! [u32 LE payload length][u8 opcode][opcode-specific body]
//! ```
//!
//! The length counts the opcode byte plus the body and is capped at
//! [`MAX_FRAME`]; a peer claiming more is answered with a structured
//! error and disconnected, *before* any allocation of the claimed size.
//! The decoder is total: any byte sequence either decodes or returns a
//! [`ProtoError`] — it never panics, and it never allocates more than the
//! bytes actually present (`tests/prop_protocol.rs` holds it to that
//! under random mutation, truncation, and length-field lies).

use std::io::{self, Read, Write};

/// Connection magic a binary client sends first.
pub const MAGIC: [u8; 4] = *b"FIXB";

/// Hard cap on one frame's payload (opcode + body), both directions.
pub const MAX_FRAME: usize = 4 << 20;

/// Request opcodes.
pub const OP_PING: u8 = 0x01;
pub const OP_QUERY: u8 = 0x02;

/// Response opcodes.
pub const OP_PONG: u8 = 0x81;
pub const OP_HITS: u8 = 0x82;
pub const OP_ERROR: u8 = 0x83;

/// What went wrong decoding a frame. Structured so the server can answer
/// with the right [`ErrorCode`] and tests can assert exact failure modes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// The frame needs more bytes than were provided.
    Truncated {
        /// Bytes the decoder needed next.
        need: usize,
        /// Bytes that were actually left.
        have: usize,
    },
    /// The length prefix (or an internal count) exceeds [`MAX_FRAME`] or
    /// what the payload could possibly hold.
    Oversize {
        /// The claimed size.
        claimed: usize,
        /// The limit it broke.
        limit: usize,
    },
    /// Unknown opcode byte.
    BadOpcode(u8),
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// The frame decoded but bytes were left over.
    TrailingBytes(usize),
    /// The connection did not open with [`MAGIC`].
    BadMagic([u8; 4]),
    /// Unknown error code byte in an error response.
    BadErrorCode(u8),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Truncated { need, have } => {
                write!(f, "truncated frame: needed {need} more bytes, had {have}")
            }
            ProtoError::Oversize { claimed, limit } => {
                write!(f, "oversized frame: claimed {claimed} bytes, limit {limit}")
            }
            ProtoError::BadOpcode(op) => write!(f, "unknown opcode 0x{op:02x}"),
            ProtoError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            ProtoError::TrailingBytes(n) => write!(f, "{n} trailing bytes after frame body"),
            ProtoError::BadMagic(m) => write!(f, "bad connection magic {m:02x?}"),
            ProtoError::BadErrorCode(c) => write!(f, "unknown error code {c}"),
        }
    }
}

impl std::error::Error for ProtoError {}

/// Structured error codes a server can answer with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// The query string failed to parse.
    BadQuery = 1,
    /// The query's depth exceeds the index's depth limit.
    NotCovered = 2,
    /// Global admission control shed this query; retry later.
    Admission = 3,
    /// The tenant's concurrent-query quota shed this query.
    Quota = 4,
    /// The request frame exceeded [`MAX_FRAME`].
    Oversize = 5,
    /// The request frame failed to decode.
    Malformed = 6,
    /// The engine failed internally (I/O, corruption, ...).
    Internal = 7,
    /// The server is draining for shutdown.
    ShuttingDown = 8,
    /// The query ran past the server's deadline.
    Deadline = 9,
}

impl ErrorCode {
    /// Decodes the wire byte.
    pub fn from_u8(b: u8) -> Option<ErrorCode> {
        Some(match b {
            1 => ErrorCode::BadQuery,
            2 => ErrorCode::NotCovered,
            3 => ErrorCode::Admission,
            4 => ErrorCode::Quota,
            5 => ErrorCode::Oversize,
            6 => ErrorCode::Malformed,
            7 => ErrorCode::Internal,
            8 => ErrorCode::ShuttingDown,
            9 => ErrorCode::Deadline,
            _ => return None,
        })
    }

    /// Stable lowercase name (used by the HTTP surface and logs).
    pub fn name(self) -> &'static str {
        match self {
            ErrorCode::BadQuery => "bad_query",
            ErrorCode::NotCovered => "not_covered",
            ErrorCode::Admission => "admission",
            ErrorCode::Quota => "quota",
            ErrorCode::Oversize => "oversize",
            ErrorCode::Malformed => "malformed",
            ErrorCode::Internal => "internal",
            ErrorCode::ShuttingDown => "shutting_down",
            ErrorCode::Deadline => "deadline",
        }
    }
}

/// Query-effectiveness counters carried on the wire (mirrors
/// `fix_core::Metrics`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireMetrics {
    /// Total index entries across shards.
    pub entries: u64,
    /// Candidates returned by the pruning phase, summed over shards.
    pub candidates: u64,
    /// Candidates contributed by delta runs.
    pub delta_candidates: u64,
    /// Entries that produced ≥ 1 hit (shard-invariant).
    pub producing: u64,
}

/// A client → server request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Execute one twig query for `tenant`.
    Query {
        /// Tenant name for quota accounting (may be empty).
        tenant: String,
        /// The query text.
        query: String,
    },
}

/// A server → client response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Liveness answer.
    Pong,
    /// A successful query: the merged global hit stream.
    Hits {
        /// `(global doc id, node id)` pairs, sorted, deduplicated.
        results: Vec<(u32, u32)>,
        /// Summed effectiveness counters.
        metrics: WireMetrics,
        /// Server-side wall time in nanoseconds.
        elapsed_ns: u64,
    },
    /// A structured failure.
    Error {
        /// What class of failure.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

// ---------------------------------------------------------------- encoding

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn frame(payload: Vec<u8>) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + payload.len());
    put_u32(&mut out, payload.len() as u32);
    out.extend_from_slice(&payload);
    out
}

/// Truncates `s` to at most `max` bytes, backing up to a `char` boundary
/// so the truncated field is still valid UTF-8 and the peer's decoder
/// accepts it instead of failing with [`ProtoError::BadUtf8`].
fn truncate_utf8(s: &str, max: usize) -> &[u8] {
    if s.len() <= max {
        return s.as_bytes();
    }
    let mut end = max;
    while end > 0 && !s.is_char_boundary(end) {
        end -= 1;
    }
    &s.as_bytes()[..end]
}

/// Encodes a request as a complete frame (length prefix included).
/// A tenant longer than its `u16` length field can carry is truncated at
/// a `char` boundary; the query is sent verbatim (an over-long query
/// becomes an oversized frame the server rejects with a structured
/// error, rather than being silently altered).
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut p = Vec::new();
    match req {
        Request::Ping => p.push(OP_PING),
        Request::Query { tenant, query } => {
            p.push(OP_QUERY);
            let tenant = truncate_utf8(tenant, u16::MAX as usize);
            put_u16(&mut p, tenant.len() as u16);
            p.extend_from_slice(tenant);
            p.extend_from_slice(query.as_bytes());
        }
    }
    frame(p)
}

/// Encodes a response as a complete frame (length prefix included).
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut p = Vec::new();
    match resp {
        Response::Pong => p.push(OP_PONG),
        Response::Hits {
            results,
            metrics,
            elapsed_ns,
        } => {
            p.push(OP_HITS);
            put_u32(&mut p, results.len() as u32);
            for &(doc, node) in results {
                put_u32(&mut p, doc);
                put_u32(&mut p, node);
            }
            put_u64(&mut p, metrics.entries);
            put_u64(&mut p, metrics.candidates);
            put_u64(&mut p, metrics.delta_candidates);
            put_u64(&mut p, metrics.producing);
            put_u64(&mut p, *elapsed_ns);
        }
        Response::Error { code, message } => {
            p.push(OP_ERROR);
            p.push(*code as u8);
            let msg = truncate_utf8(message, u16::MAX as usize);
            put_u16(&mut p, msg.len() as u16);
            p.extend_from_slice(msg);
        }
    }
    frame(p)
}

// ---------------------------------------------------------------- decoding

/// Bounds-checked little-endian cursor over one frame payload. Every read
/// verifies the bytes exist first, so a lying length field can never cause
/// a panic or an allocation beyond the payload actually in hand.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        if self.remaining() < n {
            return Err(ProtoError::Truncated {
                need: n,
                have: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, ProtoError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, ProtoError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("len 2")))
    }

    fn u32(&mut self) -> Result<u32, ProtoError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len 4")))
    }

    fn u64(&mut self) -> Result<u64, ProtoError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }

    fn str(&mut self, n: usize) -> Result<String, ProtoError> {
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| ProtoError::BadUtf8)
    }

    fn finish(self) -> Result<(), ProtoError> {
        if self.remaining() != 0 {
            return Err(ProtoError::TrailingBytes(self.remaining()));
        }
        Ok(())
    }
}

/// Decodes one request payload (the bytes after the length prefix).
pub fn decode_request(payload: &[u8]) -> Result<Request, ProtoError> {
    if payload.len() > MAX_FRAME {
        return Err(ProtoError::Oversize {
            claimed: payload.len(),
            limit: MAX_FRAME,
        });
    }
    let mut c = Cursor::new(payload);
    let req = match c.u8()? {
        OP_PING => Request::Ping,
        OP_QUERY => {
            let tlen = c.u16()? as usize;
            let tenant = c.str(tlen)?;
            let query = c.str(c.remaining())?;
            Request::Query { tenant, query }
        }
        op => return Err(ProtoError::BadOpcode(op)),
    };
    c.finish()?;
    Ok(req)
}

/// Decodes one response payload (the bytes after the length prefix).
pub fn decode_response(payload: &[u8]) -> Result<Response, ProtoError> {
    if payload.len() > MAX_FRAME {
        return Err(ProtoError::Oversize {
            claimed: payload.len(),
            limit: MAX_FRAME,
        });
    }
    let mut c = Cursor::new(payload);
    let resp = match c.u8()? {
        OP_PONG => Response::Pong,
        OP_HITS => {
            let n = c.u32()? as usize;
            // A hit is 8 bytes on the wire; reject counts the payload
            // cannot hold *before* reserving anything.
            if n > c.remaining() / 8 {
                return Err(ProtoError::Oversize {
                    claimed: n,
                    limit: c.remaining() / 8,
                });
            }
            let mut results = Vec::with_capacity(n);
            for _ in 0..n {
                let doc = c.u32()?;
                let node = c.u32()?;
                results.push((doc, node));
            }
            let metrics = WireMetrics {
                entries: c.u64()?,
                candidates: c.u64()?,
                delta_candidates: c.u64()?,
                producing: c.u64()?,
            };
            let elapsed_ns = c.u64()?;
            Response::Hits {
                results,
                metrics,
                elapsed_ns,
            }
        }
        OP_ERROR => {
            let code = c.u8()?;
            let code = ErrorCode::from_u8(code).ok_or(ProtoError::BadErrorCode(code))?;
            let mlen = c.u16()? as usize;
            let message = c.str(mlen)?;
            Response::Error { code, message }
        }
        op => return Err(ProtoError::BadOpcode(op)),
    };
    c.finish()?;
    Ok(resp)
}

// ------------------------------------------------------------ frame reader

/// Reads one frame payload from a blocking reader. `Ok(None)` means clean
/// EOF at a frame boundary. An oversized length prefix is reported as
/// [`ProtoError::Oversize`] without allocating the claimed size; EOF right
/// after a complete prefix is [`ProtoError::Truncated`]; EOF anywhere else
/// inside a frame is an `UnexpectedEof` I/O error. Any other read error —
/// a client's read timeout included — leaves the stream mid-frame, so the
/// caller must drop the connection.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Option<Result<Vec<u8>, ProtoError>>> {
    let mut len_buf = [0u8; 4];
    match read_full(r, &mut len_buf)? {
        0 => return Ok(None),
        4 => {}
        got => {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!("connection closed mid-prefix ({got}/4 bytes)"),
            ))
        }
    }
    let need = u32::from_le_bytes(len_buf) as usize;
    if need > MAX_FRAME {
        return Ok(Some(Err(ProtoError::Oversize {
            claimed: need,
            limit: MAX_FRAME,
        })));
    }
    let mut payload = vec![0; need];
    match read_full(r, &mut payload)? {
        have if have == need => Ok(Some(Ok(payload))),
        0 => Ok(Some(Err(ProtoError::Truncated { need, have: 0 }))),
        have => Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("connection closed mid-frame ({have}/{need} bytes)"),
        )),
    }
}

/// Fills `buf` until it is full or the reader reports EOF, and returns
/// how many bytes arrived.
fn read_full<R: Read>(r: &mut R, buf: &mut [u8]) -> io::Result<usize> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(filled)
}

/// Writes a pre-encoded frame.
pub fn write_frame<W: Write>(w: &mut W, frame: &[u8]) -> io::Result<()> {
    w.write_all(frame)?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trip() {
        for req in [
            Request::Ping,
            Request::Query {
                tenant: String::new(),
                query: "//a/b".into(),
            },
            Request::Query {
                tenant: "acme".into(),
                query: "//x[y]/z".into(),
            },
        ] {
            let f = encode_request(&req);
            let payload = &f[4..];
            assert_eq!(decode_request(payload), Ok(req));
        }
    }

    #[test]
    fn response_round_trip() {
        for resp in [
            Response::Pong,
            Response::Hits {
                results: vec![(0, 1), (2, 7)],
                metrics: WireMetrics {
                    entries: 10,
                    candidates: 4,
                    delta_candidates: 1,
                    producing: 2,
                },
                elapsed_ns: 12345,
            },
            Response::Error {
                code: ErrorCode::Admission,
                message: "too busy".into(),
            },
        ] {
            let f = encode_response(&resp);
            assert_eq!(decode_response(&f[4..]), Ok(resp));
        }
    }

    #[test]
    fn truncation_is_structured() {
        let f = encode_request(&Request::Query {
            tenant: "t".into(),
            query: "//a".into(),
        });
        let payload = &f[4..];
        // Cuts inside the fixed header (opcode + tenant length + tenant)
        // must fail with a structured error; cuts inside the query text
        // are themselves well-formed frames with a shorter query (the
        // query field is "rest of frame"), so they must decode to a
        // prefix — never panic either way.
        let header = 1 + 2 + 1;
        for cut in 0..payload.len() {
            match decode_request(&payload[..cut]) {
                Err(_) => assert!(cut < header, "cut at {cut} unexpectedly failed"),
                Ok(Request::Query { tenant, query }) => {
                    assert!(cut >= header, "cut at {cut} unexpectedly decoded");
                    assert_eq!(tenant, "t");
                    assert!("//a".starts_with(&query));
                }
                Ok(other) => panic!("cut at {cut} decoded to {other:?}"),
            }
        }
    }

    #[test]
    fn hits_count_lie_is_rejected_without_allocation() {
        // Claim u32::MAX hits with an 8-byte body: must error, not OOM.
        let mut p = vec![OP_HITS];
        p.extend_from_slice(&u32::MAX.to_le_bytes());
        p.extend_from_slice(&[0u8; 8]);
        assert!(matches!(
            decode_response(&p),
            Err(ProtoError::Oversize { .. })
        ));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut f = encode_request(&Request::Ping);
        f.push(0xff);
        assert_eq!(decode_request(&f[4..]), Err(ProtoError::TrailingBytes(1)));
    }

    #[test]
    fn bad_opcode_and_error_code() {
        assert_eq!(decode_request(&[0x7f]), Err(ProtoError::BadOpcode(0x7f)));
        assert_eq!(decode_response(&[0x7f]), Err(ProtoError::BadOpcode(0x7f)));
        assert_eq!(
            decode_response(&[OP_ERROR, 200, 0, 0]),
            Err(ProtoError::BadErrorCode(200))
        );
    }

    #[test]
    fn error_codes_round_trip() {
        for b in 0..=255u8 {
            if let Some(c) = ErrorCode::from_u8(b) {
                assert_eq!(c as u8, b);
                assert!(!c.name().is_empty());
            }
        }
    }

    #[test]
    fn truncation_lands_on_char_boundaries() {
        // 2-byte chars: 65535 is mid-codepoint, so the encoder must back
        // up one byte and the peer must still decode clean UTF-8.
        let long = "é".repeat(40_000);
        let f = encode_response(&Response::Error {
            code: ErrorCode::Internal,
            message: long.clone(),
        });
        match decode_response(&f[4..]).expect("truncated message must decode") {
            Response::Error { code, message } => {
                assert_eq!(code, ErrorCode::Internal);
                assert!(message.len() <= u16::MAX as usize);
                assert!(!message.is_empty());
                assert!(long.starts_with(&message));
            }
            other => panic!("expected error response, got {other:?}"),
        }

        let f = encode_request(&Request::Query {
            tenant: long.clone(),
            query: "//a".into(),
        });
        match decode_request(&f[4..]).expect("truncated tenant must decode") {
            Request::Query { tenant, query } => {
                assert!(tenant.len() <= u16::MAX as usize);
                assert!(long.starts_with(&tenant));
                assert_eq!(query, "//a");
            }
            other => panic!("expected query request, got {other:?}"),
        }
    }

    #[test]
    fn frame_reader_handles_eof_and_oversize() {
        let mut data: &[u8] = &[];
        assert!(matches!(read_frame(&mut data), Ok(None)));

        let huge = ((MAX_FRAME + 1) as u32).to_le_bytes();
        let mut data: &[u8] = &huge;
        match read_frame(&mut data) {
            Ok(Some(Err(ProtoError::Oversize { .. }))) => {}
            other => panic!("expected oversize, got {other:?}"),
        }

        let f = encode_request(&Request::Ping);
        let mut data: &[u8] = &f;
        let got = read_frame(&mut data).unwrap().unwrap().unwrap();
        assert_eq!(decode_request(&got), Ok(Request::Ping));

        // EOF right after a whole prefix is a structured truncation; EOF
        // inside the prefix or the payload is a torn frame.
        let mut data: &[u8] = &f[..4];
        match read_frame(&mut data) {
            Ok(Some(Err(ProtoError::Truncated { need: 1, have: 0 }))) => {}
            other => panic!("expected truncated, got {other:?}"),
        }
        let q = encode_request(&Request::Query {
            tenant: String::new(),
            query: "//a".into(),
        });
        for cut in [2, 6] {
            let mut data: &[u8] = &q[..cut];
            let e = read_frame(&mut data).unwrap_err();
            assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof, "cut at {cut}");
        }
    }
}
