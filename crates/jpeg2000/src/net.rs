//! Wire protocol for the network decode server, plus the blocking
//! [`Client`].
//!
//! The paper refines abstract method calls into a framed, checked
//! transport (the VTA layer's CRC-framed `ReliableRmi`); this module
//! is the same refinement applied to the *real* decoder: a
//! length-prefixed binary protocol with a CRC-32 trailer — the exact
//! [`osss_sim::checksum::crc32`] the simulated transport pins — that
//! carries decode requests to a [`crate::server::DecodeServer`] and
//! images back.
//!
//! ## Frame layout
//!
//! Every message travels in one frame (all integers little-endian):
//!
//! ```text
//! magic   u32   0x4A32_4B44 ("J2KD")
//! len     u32   payload length in bytes (bounded by the receiver)
//! payload len bytes
//! crc     u32   crc32(payload), IEEE 802.3
//! ```
//!
//! A receiver rejects bad magic, oversized lengths, and CRC mismatches
//! *before* interpreting a single payload byte; payload parsing then
//! yields structured [`WireError::Protocol`] errors, never panics —
//! fuzzed in this module's tests with the [`crate::fuzz::Mutator`].
//!
//! ## Messages
//!
//! A request payload is `tag=1, version, kind, param, deadline_ms,
//! stream`; a response payload is `tag=2, status, …` where status `0`
//! carries the served-from level, the full image raster and an
//! optional tolerant-report summary, and non-zero statuses carry the
//! error taxonomy ([`NetError`]): retryable-busy (backpressure),
//! expired (deadline), protocol error, decode failure, refused
//! (shutdown), internal.
//!
//! ## Deadlines
//!
//! Every socket operation on either side goes through one adapter,
//! `DeadlineIo`: an absolute deadline per operation (the client's
//! [`Client::op_deadline`], the server's frame deadline and idle
//! timeout), an optional poll cap and an abort flag (the server's
//! shutdown flag). A client whose request times out or fails on the
//! wire drops that socket and dials afresh, so a late reply never
//! answers a later request.

use crate::codec::{DecodeReport, DecodeStage};
use crate::image::{Image, Plane};
use crate::service::{Request, RequestKind, ServedFrom, ServiceError};
use osss_sim::checksum::crc32;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Frame magic: `"J2KD"`.
pub const FRAME_MAGIC: u32 = 0x4A32_4B44;

/// Protocol version carried in every request.
pub const PROTOCOL_VERSION: u8 = 1;

/// Default bound on a frame payload (64 MiB) — both sides refuse
/// larger frames before allocating.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

const TAG_REQUEST: u8 = 1;
const TAG_RESPONSE: u8 = 2;

const STATUS_OK: u8 = 0;
const STATUS_BUSY: u8 = 1;
const STATUS_EXPIRED: u8 = 2;
const STATUS_DECODE: u8 = 3;
const STATUS_PROTOCOL: u8 = 4;
const STATUS_REFUSED: u8 = 5;
const STATUS_INTERNAL: u8 = 6;

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Why a frame (or its payload) was rejected by this side.
#[derive(Debug)]
#[non_exhaustive]
pub enum WireError {
    /// The underlying transport failed.
    Io(io::Error),
    /// The peer closed the connection mid-frame.
    Truncated,
    /// The frame header's magic was not [`FRAME_MAGIC`].
    BadMagic(u32),
    /// The declared payload length exceeds the receiver's bound.
    Oversized {
        /// Declared payload length.
        len: usize,
        /// The receiver's bound.
        max: usize,
    },
    /// The CRC-32 trailer did not match the payload.
    Crc {
        /// CRC carried by the frame.
        expected: u32,
        /// CRC recomputed over the payload.
        actual: u32,
    },
    /// The payload violated the message grammar.
    Protocol(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "transport error: {e}"),
            WireError::Truncated => write!(f, "connection closed mid-frame"),
            WireError::BadMagic(m) => write!(f, "bad frame magic {m:#010x}"),
            WireError::Oversized { len, max } => {
                write!(
                    f,
                    "frame payload of {len} bytes exceeds the {max}-byte bound"
                )
            }
            WireError::Crc { expected, actual } => {
                write!(
                    f,
                    "crc mismatch: frame says {expected:#010x}, payload is {actual:#010x}"
                )
            }
            WireError::Protocol(d) => write!(f, "protocol error: {d}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        match e.kind() {
            io::ErrorKind::UnexpectedEof => WireError::Truncated,
            _ => WireError::Io(e),
        }
    }
}

/// What a network decode ultimately failed with, client side: the
/// server's error taxonomy plus local wire failures.
#[derive(Debug)]
#[non_exhaustive]
pub enum NetError {
    /// The server's queue was full — retryable backpressure
    /// ([`Client::decode_retry`] handles it).
    Busy,
    /// The request's deadline passed server-side.
    Expired,
    /// The decode failed; the payload is the server-rendered
    /// [`crate::error::CodecError`] with its site.
    Decode(String),
    /// The server rejected our frame or payload.
    Protocol(String),
    /// The server is shutting down.
    Refused,
    /// The server failed internally (e.g. a caught worker panic).
    Internal(String),
    /// Framing or transport failed on this side.
    Wire(WireError),
    /// Busy retries were exhausted ([`Client::decode_retry`]).
    RetriesExhausted {
        /// Busy responses absorbed before giving up.
        attempts: u32,
    },
    /// The client-side operation deadline elapsed before a complete
    /// reply arrived ([`Client::op_deadline`]) — the server (or the
    /// path to it) stalled mid-frame.
    Timeout,
    /// The client's [`CircuitBreaker`] is open: recent transport
    /// failures tripped it and the cooldown has not elapsed, so the
    /// request was failed fast without touching the network.
    CircuitOpen,
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Busy => write!(f, "server busy (retryable)"),
            NetError::Expired => write!(f, "request deadline exceeded"),
            NetError::Decode(d) => write!(f, "decode failed: {d}"),
            NetError::Protocol(d) => write!(f, "server rejected the request: {d}"),
            NetError::Refused => write!(f, "server shutting down"),
            NetError::Internal(d) => write!(f, "server internal error: {d}"),
            NetError::Wire(e) => write!(f, "{e}"),
            NetError::RetriesExhausted { attempts } => {
                write!(f, "server still busy after {attempts} attempts")
            }
            NetError::Timeout => write!(f, "client operation deadline elapsed"),
            NetError::CircuitOpen => write!(f, "circuit breaker open: failing fast"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<WireError> for NetError {
    fn from(e: WireError) -> Self {
        NetError::Wire(e)
    }
}

impl From<io::Error> for NetError {
    fn from(e: io::Error) -> Self {
        NetError::Wire(WireError::from(e))
    }
}

// ---------------------------------------------------------------------------
// Frame I/O
// ---------------------------------------------------------------------------

/// Writes one frame: header, payload, CRC trailer.
///
/// # Errors
///
/// Any transport [`io::Error`].
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let mut head = [0u8; 8];
    head[..4].copy_from_slice(&FRAME_MAGIC.to_le_bytes());
    head[4..].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    w.write_all(&head)?;
    w.write_all(payload)?;
    w.write_all(&crc32(payload).to_le_bytes())?;
    w.flush()
}

/// Reads one frame's payload; `Ok(None)` on a clean EOF before the
/// first header byte (the peer hung up between frames).
///
/// # Errors
///
/// [`WireError::BadMagic`] / [`WireError::Oversized`] /
/// [`WireError::Crc`] for frame-level violations,
/// [`WireError::Truncated`] when the peer vanished mid-frame,
/// [`WireError::Io`] for transport failures (including read timeouts,
/// surfaced as `Io` with kind `WouldBlock`/`TimedOut`).
pub fn read_frame(r: &mut impl Read, max_bytes: usize) -> Result<Option<Vec<u8>>, WireError> {
    let mut head = [0u8; 8];
    // First byte distinguishes clean EOF from a truncated frame; like
    // `read_exact` below, a spurious `Interrupted` is retried rather
    // than surfaced.
    loop {
        match r.read(&mut head[..1]) {
            Ok(0) => return Ok(None),
            Ok(_) => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(WireError::from(e)),
        }
    }
    r.read_exact(&mut head[1..])?;
    let magic = u32::from_le_bytes(head[..4].try_into().expect("4-byte slice"));
    if magic != FRAME_MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    let len = u32::from_le_bytes(head[4..].try_into().expect("4-byte slice")) as usize;
    if len > max_bytes {
        return Err(WireError::Oversized {
            len,
            max: max_bytes,
        });
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    let mut trailer = [0u8; 4];
    r.read_exact(&mut trailer)?;
    let expected = u32::from_le_bytes(trailer);
    let actual = crc32(&payload);
    if expected != actual {
        return Err(WireError::Crc { expected, actual });
    }
    Ok(Some(payload))
}

// ---------------------------------------------------------------------------
// Payload cursor
// ---------------------------------------------------------------------------

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

    fn bytes(&mut self, n: usize, what: &str) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Protocol(format!(
                "payload truncated reading {what}: need {n} bytes, have {}",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self, what: &str) -> Result<u8, WireError> {
        Ok(self.bytes(1, what)?[0])
    }

    fn u16(&mut self, what: &str) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(
            self.bytes(2, what)?.try_into().expect("2-byte slice"),
        ))
    }

    fn u32(&mut self, what: &str) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(
            self.bytes(4, what)?.try_into().expect("4-byte slice"),
        ))
    }

    fn finish(self, what: &str) -> Result<(), WireError> {
        if self.remaining() != 0 {
            return Err(WireError::Protocol(format!(
                "{} trailing bytes after {what}",
                self.remaining()
            )));
        }
        Ok(())
    }
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

// ---------------------------------------------------------------------------
// Request message
// ---------------------------------------------------------------------------

fn kind_to_wire(kind: RequestKind) -> (u8, u32) {
    match kind {
        RequestKind::Strict => (0, 0),
        RequestKind::Tolerant => (1, 0),
        RequestKind::Quality { max_layers } => (2, max_layers.min(u32::MAX as usize) as u32),
        RequestKind::Thumbnail { max_res } => (3, max_res.min(u32::MAX as usize) as u32),
    }
}

fn kind_from_wire(tag: u8, param: u32) -> Result<RequestKind, WireError> {
    match tag {
        0 => Ok(RequestKind::Strict),
        1 => Ok(RequestKind::Tolerant),
        2 => Ok(RequestKind::Quality {
            max_layers: param as usize,
        }),
        3 => Ok(RequestKind::Thumbnail {
            max_res: param as usize,
        }),
        _ => Err(WireError::Protocol(format!("unknown request kind {tag}"))),
    }
}

/// Encodes a request payload: the decode variant, an optional deadline
/// (millisecond granularity, `0` = none, saturating at `u32::MAX` ms ≈
/// 49 days) and the codestream.
pub fn encode_request(request: &Request, stream: &[u8]) -> Vec<u8> {
    let (kind, param) = kind_to_wire(request.kind);
    let deadline_ms = request
        .timeout
        .map(|t| u32::try_from(t.as_millis()).unwrap_or(u32::MAX).max(1))
        .unwrap_or(0);
    let mut out = Vec::with_capacity(15 + stream.len());
    out.push(TAG_REQUEST);
    out.push(PROTOCOL_VERSION);
    out.push(kind);
    put_u32(&mut out, param);
    put_u32(&mut out, deadline_ms);
    put_u32(&mut out, stream.len() as u32);
    out.extend_from_slice(stream);
    out
}

/// A decoded request payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireRequest {
    /// The service request (kind + deadline) the payload asked for.
    pub request: Request,
    /// The codestream to decode.
    pub stream: Vec<u8>,
}

/// Parses a request payload.
///
/// # Errors
///
/// [`WireError::Protocol`] on any grammar violation (wrong tag,
/// unsupported version, unknown kind, length mismatch).
pub fn decode_request(payload: &[u8]) -> Result<WireRequest, WireError> {
    let mut c = Cursor::new(payload);
    let tag = c.u8("message tag")?;
    if tag != TAG_REQUEST {
        return Err(WireError::Protocol(format!(
            "expected request tag {TAG_REQUEST}, got {tag}"
        )));
    }
    let version = c.u8("protocol version")?;
    if version != PROTOCOL_VERSION {
        return Err(WireError::Protocol(format!(
            "unsupported protocol version {version}"
        )));
    }
    let kind = c.u8("request kind")?;
    let param = c.u32("request param")?;
    let deadline_ms = c.u32("deadline")?;
    let stream_len = c.u32("stream length")? as usize;
    if stream_len != c.remaining() {
        return Err(WireError::Protocol(format!(
            "stream length {stream_len} disagrees with the {} payload bytes that follow",
            c.remaining()
        )));
    }
    let stream = c.bytes(stream_len, "stream")?.to_vec();
    c.finish("request")?;
    Ok(WireRequest {
        request: Request {
            kind: kind_from_wire(kind, param)?,
            timeout: (deadline_ms != 0).then(|| Duration::from_millis(u64::from(deadline_ms))),
        },
        stream,
    })
}

// ---------------------------------------------------------------------------
// Response message
// ---------------------------------------------------------------------------

/// One isolated failure from a tolerant decode, as summarised on the
/// wire: the tile, the stage, and the rendered error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireFailure {
    /// The affected tile, when attributable to one.
    pub tile: Option<u32>,
    /// Which stage recorded the failure.
    pub stage: DecodeStage,
    /// The rendered error, including its site.
    pub detail: String,
}

/// The tolerant-report summary a response carries.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WireReport {
    /// Failures in the server's (deterministic) report order.
    pub failures: Vec<WireFailure>,
}

impl WireReport {
    /// Summarises a service-side [`DecodeReport`] for the wire.
    pub fn summarise(report: &DecodeReport) -> Self {
        WireReport {
            failures: report
                .failures
                .iter()
                .map(|f| WireFailure {
                    tile: f.tile.map(|t| u32::try_from(t).unwrap_or(u32::MAX)),
                    stage: f.stage,
                    detail: f.error.to_string(),
                })
                .collect(),
        }
    }
}

/// A successful network decode.
#[derive(Debug, Clone, PartialEq)]
pub struct NetResponse {
    /// The decoded image, bit-exact with the in-process entry point.
    pub image: Image,
    /// The tolerant-report summary (tolerant requests only).
    pub report: Option<WireReport>,
    /// Which service cache level served the request.
    pub served_from: ServedFrom,
}

fn stage_to_wire(stage: DecodeStage) -> u8 {
    match stage {
        DecodeStage::TileParse => 0,
        DecodeStage::Entropy => 1,
    }
}

fn stage_from_wire(v: u8) -> Result<DecodeStage, WireError> {
    match v {
        0 => Ok(DecodeStage::TileParse),
        1 => Ok(DecodeStage::Entropy),
        _ => Err(WireError::Protocol(format!("unknown decode stage {v}"))),
    }
}

fn served_to_wire(s: ServedFrom) -> u8 {
    match s {
        ServedFrom::Cold => 0,
        ServedFrom::HeaderCache => 1,
        ServedFrom::ImageCache => 2,
        ServedFrom::Coalesced => 3,
    }
}

fn served_from_wire(v: u8) -> Result<ServedFrom, WireError> {
    match v {
        0 => Ok(ServedFrom::Cold),
        1 => Ok(ServedFrom::HeaderCache),
        2 => Ok(ServedFrom::ImageCache),
        3 => Ok(ServedFrom::Coalesced),
        _ => Err(WireError::Protocol(format!(
            "unknown served-from level {v}"
        ))),
    }
}

const NO_TILE: u32 = u32::MAX;

/// Longest error/failure detail carried on the wire, in bytes.
const MAX_DETAIL: usize = 1024;

/// `s` cut to at most [`MAX_DETAIL`] bytes, on a character boundary.
fn clip(s: &str) -> &str {
    let mut end = s.len().min(MAX_DETAIL);
    while end > 0 && !s.is_char_boundary(end) {
        end -= 1;
    }
    &s[..end]
}

fn put_string(out: &mut Vec<u8>, s: &str) {
    let s = clip(s);
    put_u16(out, s.len() as u16);
    out.extend_from_slice(s.as_bytes());
}

fn get_string(c: &mut Cursor<'_>, what: &str) -> Result<String, WireError> {
    let len = c.u16(what)? as usize;
    let bytes = c.bytes(len, what)?;
    String::from_utf8(bytes.to_vec())
        .map_err(|_| WireError::Protocol(format!("{what} is not UTF-8")))
}

/// The exact payload length [`encode_ok`] produces for `image` and
/// `report`, known before a byte is written.
pub(crate) fn ok_len(image: &Image, report: Option<&WireReport>) -> usize {
    // Header: tag, status, served-from (1 each), width, height (4
    // each), depth, component count (1 each) = 13; each plane its
    // width and height, then 4 bytes a sample; the report flag; then
    // a failure count and per failure its tile (4), stage (1) and
    // length-prefixed (2) detail.
    let raster: usize = image.components.iter().map(|p| 8 + 4 * p.data.len()).sum();
    let report = report.map_or(0, |r| {
        4 + r
            .failures
            .iter()
            .map(|f| 7 + clip(&f.detail).len())
            .sum::<usize>()
    });
    13 + raster + 1 + report
}

/// Encodes a success response: served-from level, the raster, and the
/// optional report summary.
pub fn encode_ok(image: &Image, report: Option<&WireReport>, served_from: ServedFrom) -> Vec<u8> {
    let len = ok_len(image, report);
    let mut out = Vec::with_capacity(len);
    out.push(TAG_RESPONSE);
    out.push(STATUS_OK);
    out.push(served_to_wire(served_from));
    put_u32(&mut out, image.width as u32);
    put_u32(&mut out, image.height as u32);
    out.push(image.depth);
    out.push(image.num_components() as u8);
    for plane in &image.components {
        put_u32(&mut out, plane.width as u32);
        put_u32(&mut out, plane.height as u32);
        let start = out.len();
        out.resize(start + 4 * plane.data.len(), 0);
        for (dst, v) in out[start..].chunks_exact_mut(4).zip(&plane.data) {
            dst.copy_from_slice(&v.to_le_bytes());
        }
    }
    match report {
        None => out.push(0),
        Some(r) => {
            out.push(1);
            put_u32(&mut out, r.failures.len() as u32);
            for f in &r.failures {
                put_u32(&mut out, f.tile.unwrap_or(NO_TILE));
                out.push(stage_to_wire(f.stage));
                put_string(&mut out, &f.detail);
            }
        }
    }
    debug_assert_eq!(out.len(), len, "ok_len disagrees with encode_ok");
    out
}

/// Encodes an error response from the service-side taxonomy:
/// `QueueFull` → retryable-busy, deadline → expired, decode failure →
/// the rendered `CodecError` (site included), shutdown → refused,
/// anything else (caught panics, lost workers) → internal.
pub fn encode_service_error(err: &ServiceError) -> Vec<u8> {
    let (status, detail) = match err {
        ServiceError::QueueFull => (STATUS_BUSY, String::new()),
        ServiceError::DeadlineExceeded => (STATUS_EXPIRED, String::new()),
        ServiceError::Decode(e) => (STATUS_DECODE, e.to_string()),
        ServiceError::ShuttingDown => (STATUS_REFUSED, String::new()),
        other => (STATUS_INTERNAL, other.to_string()),
    };
    encode_error(status, &detail)
}

/// Encodes a protocol-error response (the peer's frame was readable
/// but invalid).
pub fn encode_protocol_error(detail: &str) -> Vec<u8> {
    encode_error(STATUS_PROTOCOL, detail)
}

/// Encodes a retryable-busy response (used both for a full decode
/// queue and for a saturated connection-handler pool).
pub fn encode_busy() -> Vec<u8> {
    encode_error(STATUS_BUSY, "")
}

/// Encodes an internal-error response.
pub(crate) fn encode_internal_error(detail: &str) -> Vec<u8> {
    encode_error(STATUS_INTERNAL, detail)
}

fn encode_error(status: u8, detail: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + detail.len());
    out.push(TAG_RESPONSE);
    out.push(status);
    put_string(&mut out, detail);
    out
}

/// Parses a response payload into the client-side result.
///
/// # Errors
///
/// The server's own error taxonomy as the matching [`NetError`]
/// variant, or [`NetError::Wire`]`(`[`WireError::Protocol`]`)` when
/// the payload itself is malformed.
pub fn decode_response(payload: &[u8]) -> Result<NetResponse, NetError> {
    let mut c = Cursor::new(payload);
    let tag = c.u8("message tag")?;
    if tag != TAG_RESPONSE {
        return Err(WireError::Protocol(format!(
            "expected response tag {TAG_RESPONSE}, got {tag}"
        ))
        .into());
    }
    let status = c.u8("status")?;
    if status != STATUS_OK {
        let detail = get_string(&mut c, "error detail")?;
        c.finish("error response")?;
        return Err(match status {
            STATUS_BUSY => NetError::Busy,
            STATUS_EXPIRED => NetError::Expired,
            STATUS_DECODE => NetError::Decode(detail),
            STATUS_PROTOCOL => NetError::Protocol(detail),
            STATUS_REFUSED => NetError::Refused,
            STATUS_INTERNAL => NetError::Internal(detail),
            other => WireError::Protocol(format!("unknown response status {other}")).into(),
        });
    }
    let served_from = served_from_wire(c.u8("served-from")?)?;
    let width = c.u32("image width")? as usize;
    let height = c.u32("image height")? as usize;
    let depth = c.u8("image depth")?;
    let ncomp = c.u8("component count")? as usize;
    let mut components = Vec::with_capacity(ncomp.min(16));
    for comp in 0..ncomp {
        let pw = c.u32("plane width")? as usize;
        let ph = c.u32("plane height")? as usize;
        let samples = pw.checked_mul(ph).ok_or_else(|| {
            WireError::Protocol(format!("plane {comp} dimensions {pw}x{ph} overflow"))
        })?;
        // The raster must actually be present in this payload, so the
        // remaining length bounds the allocation before it happens.
        if samples.checked_mul(4).is_none_or(|b| b > c.remaining()) {
            return Err(WireError::Protocol(format!(
                "plane {comp} claims {samples} samples but only {} payload bytes remain",
                c.remaining()
            ))
            .into());
        }
        let data = c
            .bytes(4 * samples, "plane samples")?
            .chunks_exact(4)
            .map(|b| i32::from_le_bytes(b.try_into().expect("4-byte chunk")))
            .collect();
        components.push(Plane::from_data(pw, ph, data));
    }
    let report = match c.u8("report flag")? {
        0 => None,
        1 => {
            let nfail = c.u32("failure count")? as usize;
            // Each failure is ≥ 7 bytes on the wire; bound before allocating.
            if nfail > c.remaining() / 7 {
                return Err(WireError::Protocol(format!(
                    "failure count {nfail} exceeds what {} remaining bytes can hold",
                    c.remaining()
                ))
                .into());
            }
            let mut failures = Vec::with_capacity(nfail);
            for _ in 0..nfail {
                let tile = c.u32("failure tile")?;
                let stage = stage_from_wire(c.u8("failure stage")?)?;
                let detail = get_string(&mut c, "failure detail")?;
                failures.push(WireFailure {
                    tile: (tile != NO_TILE).then_some(tile),
                    stage,
                    detail,
                });
            }
            Some(WireReport { failures })
        }
        other => {
            return Err(WireError::Protocol(format!("unknown report flag {other}")).into());
        }
    };
    c.finish("response")?;
    let image = Image {
        width,
        height,
        depth,
        components,
    };
    Ok(NetResponse {
        image,
        report,
        served_from,
    })
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

/// Deterministic retry-on-busy backoff, mirroring the VTA layer's
/// `RetryPolicy`: exponential from `backoff_base`, capped at
/// `backoff_cap`, with jitter drawn from a seeded hash of the attempt
/// number — two clients with different seeds de-synchronise instead of
/// stampeding the queue in lockstep.
#[derive(Debug, Clone)]
pub struct NetRetryPolicy {
    /// Busy responses tolerated before giving up (0 = no retries).
    pub max_retries: u32,
    /// Backoff before the first retry; doubles per attempt.
    pub backoff_base: Duration,
    /// Upper bound on the exponential backoff (before jitter).
    pub backoff_cap: Duration,
    /// Seed of the deterministic jitter stream.
    pub jitter_seed: u64,
}

impl Default for NetRetryPolicy {
    fn default() -> Self {
        NetRetryPolicy {
            max_retries: 8,
            backoff_base: Duration::from_millis(2),
            backoff_cap: Duration::from_millis(250),
            jitter_seed: 0x4A32_4B44,
        }
    }
}

/// splitmix64-style finaliser — the same shape the VTA fault layer
/// uses for its deterministic decision streams.
fn mix(seed: u64, attempt: u64) -> u64 {
    let mut z = seed ^ attempt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl NetRetryPolicy {
    /// The backoff before retry `attempt` (0-based): `base << attempt`
    /// capped, plus up to 25 % deterministic jitter.
    pub fn backoff(&self, attempt: u32) -> Duration {
        let base = self
            .backoff_base
            .saturating_mul(1u32.checked_shl(attempt).unwrap_or(u32::MAX))
            .min(self.backoff_cap);
        let jitter_ns = base.as_nanos() as u64 / 4;
        let jitter = if jitter_ns == 0 {
            0
        } else {
            mix(self.jitter_seed, u64::from(attempt)) % jitter_ns
        };
        base + Duration::from_nanos(jitter)
    }
}

// ---------------------------------------------------------------------------
// Circuit breaker
// ---------------------------------------------------------------------------

/// Where a [`CircuitBreaker`] currently is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CircuitState {
    /// Traffic flows; consecutive transport failures are being counted.
    Closed,
    /// Tripped: requests fail fast with [`NetError::CircuitOpen`] until
    /// the cooldown elapses.
    Open,
    /// Cooldown elapsed and exactly one probe request is in flight; its
    /// outcome closes or re-opens the circuit.
    HalfOpen,
}

/// A consecutive-failure circuit breaker for the network client.
///
/// A blackholed or dead server makes every request pay its full
/// deadline before failing; once `threshold` consecutive *transport*
/// failures accumulate (timeouts and wire errors — a server-answered
/// error, even `Busy`, proves the path works and resets the count),
/// the breaker opens and [`Client::decode_retry_guarded`] fails fast
/// with [`NetError::CircuitOpen`] without touching the network. After
/// `cooldown`, the next caller is granted exactly one deterministic
/// half-open probe: success closes the circuit, failure re-opens it
/// for another full cooldown. All decisions are pure functions of the
/// observed outcome sequence and elapsed time — no randomness.
#[derive(Debug)]
pub struct CircuitBreaker {
    threshold: u32,
    cooldown: Duration,
    consecutive_failures: u32,
    opened_at: Option<Instant>,
    probing: bool,
}

impl CircuitBreaker {
    /// A breaker tripping after `threshold` consecutive transport
    /// failures (clamped to ≥ 1) and re-probing after `cooldown`.
    pub fn new(threshold: u32, cooldown: Duration) -> Self {
        CircuitBreaker {
            threshold: threshold.max(1),
            cooldown,
            consecutive_failures: 0,
            opened_at: None,
            probing: false,
        }
    }

    /// The current state (evaluating the cooldown against now).
    pub fn state(&self) -> CircuitState {
        if self.probing {
            CircuitState::HalfOpen
        } else {
            match self.opened_at {
                Some(at) if at.elapsed() < self.cooldown => CircuitState::Open,
                Some(_) => CircuitState::HalfOpen,
                None => CircuitState::Closed,
            }
        }
    }

    /// Asks to send one request. `true` admits it (and, when the
    /// circuit was open past its cooldown, marks it as *the* half-open
    /// probe); `false` means fail fast.
    pub fn allow(&mut self) -> bool {
        match self.opened_at {
            None => true,
            Some(_) if self.probing => false,
            Some(at) => {
                if at.elapsed() >= self.cooldown {
                    self.probing = true;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Records a request the server answered (any structured response,
    /// including errors): closes the circuit and resets the count.
    pub fn on_success(&mut self) {
        self.consecutive_failures = 0;
        self.opened_at = None;
        self.probing = false;
    }

    /// Records a transport failure (timeout or wire error): a failed
    /// half-open probe re-opens immediately, otherwise the consecutive
    /// count advances toward the threshold.
    pub fn on_failure(&mut self) {
        if self.probing {
            self.probing = false;
            self.consecutive_failures = self.threshold;
            self.opened_at = Some(Instant::now());
            return;
        }
        self.consecutive_failures += 1;
        if self.consecutive_failures >= self.threshold {
            self.opened_at = Some(Instant::now());
        }
    }
}

// ---------------------------------------------------------------------------
// Deadline-bounded socket
// ---------------------------------------------------------------------------

/// The one wire path's socket adapter, used by [`Client::request`] and
/// the server's frame read. Before each read, peek or write on the
/// borrowed socket it fails with `ConnectionAborted` once `abort` is
/// set and with `TimedOut` once [`Self::deadline`] has passed;
/// otherwise it installs the smaller of the time left and the poll cap
/// as the socket timeout — only when that window changed, so with
/// neither set no timeout syscall is made — and absorbs the syscall's
/// own `WouldBlock`/`TimedOut`/`Interrupted` wake-ups. `TimedOut` thus
/// always means the deadline, and a peer trickling a byte per window
/// cannot stretch an operation: partial progress shrinks the window.
pub(crate) struct DeadlineIo<'a> {
    stream: &'a TcpStream,
    /// When the current operation expires; `None` waits indefinitely.
    pub(crate) deadline: Option<Instant>,
    poll: Option<Duration>,
    abort: &'a AtomicBool,
    read_window: Option<Duration>,
    write_window: Option<Duration>,
}

impl<'a> DeadlineIo<'a> {
    /// Wraps a socket with no timeout installed yet in any direction
    /// the adapter will be used for.
    pub(crate) fn new(
        stream: &'a TcpStream,
        poll: Option<Duration>,
        abort: &'a AtomicBool,
    ) -> Self {
        DeadlineIo {
            stream,
            deadline: None,
            poll,
            abort,
            read_window: None,
            write_window: None,
        }
    }

    /// [`TcpStream::peek`] under the same deadline and abort flag.
    pub(crate) fn peek(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.run(false, |s| s.peek(buf))
    }

    fn run<T>(
        &mut self,
        write: bool,
        mut op: impl FnMut(&TcpStream) -> io::Result<T>,
    ) -> io::Result<T> {
        use io::ErrorKind::{ConnectionAborted, Interrupted, TimedOut, WouldBlock};
        loop {
            if self.abort.load(Ordering::SeqCst) {
                return Err(io::Error::new(ConnectionAborted, "operation aborted"));
            }
            let left = self
                .deadline
                .map(|d| d.saturating_duration_since(Instant::now()));
            if left == Some(Duration::ZERO) {
                return Err(io::Error::new(TimedOut, "operation deadline elapsed"));
            }
            let window = [left, self.poll].into_iter().flatten().min();
            if write && self.write_window != window {
                self.stream.set_write_timeout(window)?;
                self.write_window = window;
            } else if !write && self.read_window != window {
                self.stream.set_read_timeout(window)?;
                self.read_window = window;
            }
            match op(self.stream) {
                Err(e) if matches!(e.kind(), WouldBlock | TimedOut | Interrupted) => continue,
                other => return other,
            }
        }
    }
}

impl Read for DeadlineIo<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.run(false, |mut s| s.read(buf))
    }
}

impl Write for DeadlineIo<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.run(true, |mut s| s.write(buf))
    }

    fn flush(&mut self) -> io::Result<()> {
        (&mut &*self.stream).flush()
    }
}

/// The client's abort flag: a client operation ends only by its
/// deadline or the transport, never by request.
static NEVER_ABORT: AtomicBool = AtomicBool::new(false);

/// A blocking client for a [`crate::server::DecodeServer`]: one
/// connection, requests answered in order.
#[derive(Debug)]
pub struct Client {
    /// `None` after a timeout or wire error: that socket may still hold
    /// a late reply, so it is dropped and the next request dials afresh.
    stream: Option<TcpStream>,
    addr: SocketAddr,
    max_frame_bytes: usize,
    op_deadline: Option<Duration>,
}

impl Client {
    /// Connects to a server.
    ///
    /// # Errors
    ///
    /// Any connect-time [`io::Error`].
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let stream = dial(addr)?;
        let addr = stream.peer_addr()?;
        Ok(Client {
            stream: Some(stream),
            addr,
            max_frame_bytes: MAX_FRAME_BYTES,
            op_deadline: None,
        })
    }

    /// Lowers (or raises) the response-frame size this client accepts.
    #[must_use]
    pub fn max_frame_bytes(mut self, max: usize) -> Self {
        self.max_frame_bytes = max;
        self
    }

    /// Bounds every [`Self::request`] (send + full reply) by one
    /// wall-clock deadline, surfacing expiry as [`NetError::Timeout`].
    ///
    /// Without it, a server (or intermediary) that stalls mid-frame
    /// after the header hangs the client forever: per-read socket
    /// timeouts alone reset on every byte, so a trickling peer evades
    /// them. The deadline is absolute per operation — partial progress
    /// shrinks the remaining window instead of resetting it. It lives
    /// on the `Client`, not the socket, so it holds on every socket the
    /// client dials (regression:
    /// `reconnected_client_keeps_its_op_deadline`).
    #[must_use]
    pub fn op_deadline(mut self, deadline: Duration) -> Self {
        self.op_deadline = Some(deadline);
        self
    }

    /// Sends one decode request and blocks for the response.
    ///
    /// After a [`NetError::Timeout`] or [`NetError::Wire`] the socket is
    /// dropped — a late reply on it must never answer a later request —
    /// and the next call dials a fresh connection first.
    ///
    /// # Errors
    ///
    /// The full [`NetError`] taxonomy; [`NetError::Busy`] is the
    /// retryable one, [`NetError::Timeout`] reports an elapsed
    /// [`Self::op_deadline`], and a failed re-dial surfaces as
    /// [`NetError::Wire`].
    pub fn request(&mut self, request: &Request, stream: &[u8]) -> Result<NetResponse, NetError> {
        let socket = match self.stream.take() {
            Some(socket) => socket,
            None => dial(self.addr)?,
        };
        let mut io = DeadlineIo::new(&socket, None, &NEVER_ABORT);
        io.deadline = self.op_deadline.map(|limit| Instant::now() + limit);
        let result = write_frame(&mut io, &encode_request(request, stream))
            .map_err(WireError::from)
            .and_then(|()| read_frame(&mut io, self.max_frame_bytes)?.ok_or(WireError::Truncated))
            .map_err(|e| match e {
                WireError::Io(e) if e.kind() == io::ErrorKind::TimedOut => NetError::Timeout,
                other => NetError::Wire(other),
            })
            .and_then(|payload| decode_response(&payload));
        if !matches!(result, Err(NetError::Timeout | NetError::Wire(_))) {
            self.stream = Some(socket);
        }
        result
    }

    /// [`Self::decode_retry_guarded`] behind a fresh breaker that
    /// cannot trip within one call: [`NetError::Busy`] responses are
    /// absorbed under `policy`'s deterministic backoff.
    ///
    /// A busy answer from the *acceptor* (handler pool saturated)
    /// closes the connection after the frame, so each retry runs on a
    /// fresh connection — transparent to the caller.
    ///
    /// # Errors
    ///
    /// [`NetError::RetriesExhausted`] once the budget is spent; any
    /// non-busy error immediately.
    pub fn decode_retry(
        &mut self,
        request: &Request,
        stream: &[u8],
        policy: &NetRetryPolicy,
    ) -> Result<NetResponse, NetError> {
        self.decode_retry_guarded(
            request,
            stream,
            policy,
            &mut CircuitBreaker::new(u32::MAX, Duration::ZERO),
        )
    }

    /// [`Self::request`] under `policy`'s retry-on-busy backoff, behind
    /// a [`CircuitBreaker`]: when the breaker is open the call fails
    /// fast with [`NetError::CircuitOpen`] without touching the
    /// network, so a blackholed server costs one deadline per cooldown
    /// instead of one per request.
    ///
    /// Breaker accounting: timeouts and wire errors are failures;
    /// *any* server-answered outcome — success, `Busy`, or a
    /// structured server error — proves the path works and resets the
    /// breaker.
    ///
    /// # Errors
    ///
    /// As [`Self::decode_retry`], plus [`NetError::Timeout`] and
    /// [`NetError::CircuitOpen`].
    pub fn decode_retry_guarded(
        &mut self,
        request: &Request,
        stream: &[u8],
        policy: &NetRetryPolicy,
        breaker: &mut CircuitBreaker,
    ) -> Result<NetResponse, NetError> {
        if !breaker.allow() {
            return Err(NetError::CircuitOpen);
        }
        let mut attempt = 0u32;
        loop {
            match self.request(request, stream) {
                Err(NetError::Busy) => {
                    // The server answered: the transport works.
                    breaker.on_success();
                    if attempt >= policy.max_retries {
                        return Err(NetError::RetriesExhausted {
                            attempts: attempt + 1,
                        });
                    }
                    std::thread::sleep(policy.backoff(attempt));
                    attempt += 1;
                    self.reconnect()?;
                }
                Err(e @ (NetError::Timeout | NetError::Wire(_))) => {
                    breaker.on_failure();
                    return Err(e);
                }
                // An image or a structured server error proves liveness.
                other => {
                    breaker.on_success();
                    return other;
                }
            }
        }
    }

    fn reconnect(&mut self) -> io::Result<()> {
        self.stream = Some(dial(self.addr)?);
        Ok(())
    }
}

/// Opens a client socket; the one place per-socket options are set,
/// so a re-dialled socket can never lose one the original had.
fn dial(addr: impl ToSocketAddrs) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{encode, EncodeParams, Mode};
    use crate::fuzz::Mutator;

    fn test_image() -> Image {
        Image::synthetic_rgb(16, 16, 5)
    }

    #[test]
    fn frame_roundtrips() {
        let payload = b"the quick brown fox".to_vec();
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        assert_eq!(wire.len(), 8 + payload.len() + 4);
        let back = read_frame(&mut &wire[..], MAX_FRAME_BYTES).unwrap();
        assert_eq!(back, Some(payload));
        // Clean EOF between frames.
        assert_eq!(read_frame(&mut &[][..], MAX_FRAME_BYTES).unwrap(), None);
    }

    #[test]
    fn frame_rejects_bad_magic_oversize_truncation_and_crc() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"payload").unwrap();

        let mut bad_magic = wire.clone();
        bad_magic[0] ^= 0xFF;
        assert!(matches!(
            read_frame(&mut &bad_magic[..], MAX_FRAME_BYTES),
            Err(WireError::BadMagic(_))
        ));

        assert!(matches!(
            read_frame(&mut &wire[..], 3),
            Err(WireError::Oversized { len: 7, max: 3 })
        ));

        for cut in 1..wire.len() {
            assert!(
                matches!(
                    read_frame(&mut &wire[..cut], MAX_FRAME_BYTES),
                    Err(WireError::Truncated)
                ),
                "cut at {cut}"
            );
        }

        let mut corrupt = wire.clone();
        let n = corrupt.len();
        corrupt[9] ^= 0x01; // payload byte: CRC must catch it
        assert!(matches!(
            read_frame(&mut &corrupt[..], MAX_FRAME_BYTES),
            Err(WireError::Crc { .. })
        ));
        let mut bad_trailer = wire;
        bad_trailer[n - 1] ^= 0x80; // trailer byte: same
        assert!(matches!(
            read_frame(&mut &bad_trailer[..], MAX_FRAME_BYTES),
            Err(WireError::Crc { .. })
        ));
    }

    #[test]
    fn request_roundtrips_for_every_kind() {
        let stream = vec![1u8, 2, 3, 4, 5];
        for request in [
            Request::strict(),
            Request::tolerant(),
            Request::quality(3),
            Request::thumbnail(2),
            Request::strict().with_timeout(Duration::from_millis(1500)),
        ] {
            let payload = encode_request(&request, &stream);
            let back = decode_request(&payload).unwrap();
            assert_eq!(back.request, request);
            assert_eq!(back.stream, stream);
        }
        // Sub-millisecond deadlines round up to 1 ms, not silently to
        // "no deadline".
        let tight = Request::strict().with_timeout(Duration::from_micros(10));
        let back = decode_request(&encode_request(&tight, &stream)).unwrap();
        assert_eq!(back.request.timeout, Some(Duration::from_millis(1)));
    }

    #[test]
    fn request_rejects_grammar_violations() {
        let good = encode_request(&Request::strict(), b"abc");
        for (mutate, what) in [(0usize, "tag"), (1, "version"), (2, "kind")] {
            let mut bad = good.clone();
            bad[mutate] = 0x7F;
            let err = decode_request(&bad).unwrap_err();
            assert!(matches!(err, WireError::Protocol(_)), "{what}: {err}");
        }
        // Stream length disagreeing with the payload.
        let mut bad = good.clone();
        bad[11] ^= 0x01;
        assert!(matches!(decode_request(&bad), Err(WireError::Protocol(_))));
        // Trailing garbage.
        let mut bad = good;
        bad.push(0);
        assert!(matches!(decode_request(&bad), Err(WireError::Protocol(_))));
    }

    #[test]
    fn ok_response_roundtrips_image_and_report() {
        let img = test_image();
        let report = WireReport {
            failures: vec![
                WireFailure {
                    tile: Some(3),
                    stage: DecodeStage::Entropy,
                    detail: "mq decoder desynchronised".into(),
                },
                WireFailure {
                    tile: None,
                    stage: DecodeStage::TileParse,
                    detail: "truncated tile-part".into(),
                },
            ],
        };
        let payload = encode_ok(&img, Some(&report), ServedFrom::HeaderCache);
        let back = decode_response(&payload).unwrap();
        assert_eq!(back.image, img);
        assert_eq!(back.report.as_ref(), Some(&report));
        assert_eq!(back.served_from, ServedFrom::HeaderCache);

        let bare = decode_response(&encode_ok(&img, None, ServedFrom::Cold)).unwrap();
        assert_eq!(bare.image, img);
        assert_eq!(bare.report, None);
    }

    #[test]
    fn ok_response_bytes_are_pinned() {
        // The raster layout is a contract: little-endian `i32` samples,
        // plane by plane, each plane after its own width and height.
        let img = Image {
            width: 3,
            height: 2,
            depth: 8,
            components: vec![
                Plane::from_data(3, 2, vec![i32::MIN, -1, 0, 1, 0x0102_0304, i32::MAX]),
                Plane::from_data(2, 1, vec![0x0102_0304, -1]),
            ],
        };
        let report = WireReport {
            failures: vec![WireFailure {
                tile: Some(5),
                stage: DecodeStage::Entropy,
                detail: "bad".into(),
            }],
        };
        #[rustfmt::skip]
        let expected: Vec<u8> = vec![
            2, 0, 2,                                // tag, status OK, image cache
            3, 0, 0, 0, 2, 0, 0, 0, 8, 2,           // 3x2, depth 8, 2 planes
            3, 0, 0, 0, 2, 0, 0, 0,                 // plane 0: 3x2
            0x00, 0x00, 0x00, 0x80,                 // i32::MIN
            0xFF, 0xFF, 0xFF, 0xFF,                 // -1
            0x00, 0x00, 0x00, 0x00,                 // 0
            0x01, 0x00, 0x00, 0x00,                 // 1
            0x04, 0x03, 0x02, 0x01,                 // 0x0102_0304
            0xFF, 0xFF, 0xFF, 0x7F,                 // i32::MAX
            2, 0, 0, 0, 1, 0, 0, 0,                 // plane 1: 2x1
            0x04, 0x03, 0x02, 0x01,                 // 0x0102_0304
            0xFF, 0xFF, 0xFF, 0xFF,                 // -1
            1, 1, 0, 0, 0,                          // report, 1 failure
            5, 0, 0, 0, 1, 3, 0, b'b', b'a', b'd',  // tile 5, entropy, "bad"
        ];
        let payload = encode_ok(&img, Some(&report), ServedFrom::ImageCache);
        assert_eq!(payload, expected);
        assert_eq!(ok_len(&img, Some(&report)), expected.len());

        let back = decode_response(&payload).unwrap();
        assert_eq!(back.image, img);
        assert_eq!(back.report, Some(report));
        assert_eq!(back.served_from, ServedFrom::ImageCache);
        for cut in 0..payload.len() {
            assert!(
                decode_response(&payload[..cut]).is_err(),
                "prefix of {cut} bytes accepted"
            );
        }
    }

    #[test]
    fn error_responses_map_the_service_taxonomy() {
        use crate::error::CodecError;
        type NetMatcher = fn(&NetError) -> bool;
        let cases: [(ServiceError, NetMatcher); 5] = [
            (ServiceError::QueueFull, |e| matches!(e, NetError::Busy)),
            (ServiceError::DeadlineExceeded, |e| {
                matches!(e, NetError::Expired)
            }),
            (ServiceError::ShuttingDown, |e| {
                matches!(e, NetError::Refused)
            }),
            (
                ServiceError::Panicked("boom".into()),
                |e| matches!(e, NetError::Internal(d) if d.contains("boom")),
            ),
            (
                ServiceError::Decode(CodecError::malformed("bad marker")),
                |e| matches!(e, NetError::Decode(d) if d.contains("bad marker")),
            ),
        ];
        for (service_err, matches_net) in cases {
            let payload = encode_service_error(&service_err);
            let err = decode_response(&payload).unwrap_err();
            assert!(matches_net(&err), "{service_err:?} -> {err:?}");
        }
        let err = decode_response(&encode_protocol_error("bad frame")).unwrap_err();
        assert!(matches!(err, NetError::Protocol(d) if d.contains("bad frame")));
        let err = decode_response(&encode_busy()).unwrap_err();
        assert!(matches!(err, NetError::Busy));
    }

    #[test]
    fn response_rejects_lying_plane_and_failure_counts() {
        // A plane claiming more samples than the payload carries must
        // be rejected before any allocation of that size.
        let img = test_image();
        let mut payload = encode_ok(&img, None, ServedFrom::Cold);
        // plane 0 width lives right after tag+status+served+w+h+depth+ncomp.
        let plane_w_at = 1 + 1 + 1 + 4 + 4 + 1 + 1;
        payload[plane_w_at..plane_w_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_response(&payload),
            Err(NetError::Wire(WireError::Protocol(_)))
        ));

        let report = WireReport { failures: vec![] };
        let mut payload = encode_ok(&img, Some(&report), ServedFrom::Cold);
        let n = payload.len();
        payload[n - 4..].copy_from_slice(&u32::MAX.to_le_bytes()); // failure count
        assert!(matches!(
            decode_response(&payload),
            Err(NetError::Wire(WireError::Protocol(_)))
        ));
    }

    /// The deterministic structure-aware mutation engine from the fuzz
    /// harness, pointed at wire frames instead of codestreams: no
    /// mutation may panic the frame reader or the payload parsers —
    /// every outcome is a structured accept or reject. (A mutation
    /// *can* rewrite a frame into a different valid one — e.g. zeroing
    /// length, payload and trailer together, since `crc32([]) == 0` —
    /// so accepted-implies-identical would be too strong; integrity
    /// against single corruptions is covered by
    /// [`frame_rejects_bad_magic_oversize_truncation_and_crc`].)
    #[test]
    fn mutated_frames_never_panic_and_never_parse_wrong() {
        let img = Image::synthetic_rgb(8, 8, 1);
        let stream = encode(&img, &EncodeParams::new(Mode::Lossless)).unwrap();
        let seeds: [Vec<u8>; 3] = [
            {
                let mut w = Vec::new();
                write_frame(&mut w, &encode_request(&Request::quality(2), &stream)).unwrap();
                w
            },
            {
                let mut w = Vec::new();
                write_frame(&mut w, &encode_ok(&img, None, ServedFrom::Cold)).unwrap();
                w
            },
            {
                let mut w = Vec::new();
                write_frame(&mut w, &encode_service_error(&ServiceError::QueueFull)).unwrap();
                w
            },
        ];
        let iters: usize = std::env::var("FUZZ_ITERS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(200);
        let mut mutator = Mutator::new(0x6E65_7431);
        let mut accepted = 0u32;
        for seed_frame in &seeds {
            for _ in 0..iters {
                let (mutated, _mutation) = mutator.mutate(seed_frame);
                if mutated.is_empty() {
                    continue;
                }
                match read_frame(&mut &mutated[..], MAX_FRAME_BYTES) {
                    Err(_) | Ok(None) => {} // structured rejection: the point
                    Ok(Some(payload)) => {
                        accepted += 1;
                        // CRC + length accepted the frame: the payload
                        // parsers must parse or reject cleanly, never
                        // panic.
                        let _ = decode_request(&payload);
                        let _ = decode_response(&payload);
                    }
                }
            }
        }
        // Some mutations (e.g. header-only overwrites past the trailer
        // region) leave the frame valid; the loop must exercise both
        // branches for the no-panic claim to mean anything.
        assert!(accepted > 0, "no mutation left any frame acceptable");
    }

    #[test]
    fn backoff_is_deterministic_bounded_and_grows() {
        let policy = NetRetryPolicy::default();
        let a: Vec<Duration> = (0..10).map(|i| policy.backoff(i)).collect();
        let b: Vec<Duration> = (0..10).map(|i| policy.backoff(i)).collect();
        assert_eq!(a, b, "same seed, same schedule");
        for (i, d) in a.iter().enumerate() {
            let cap = policy.backoff_cap + policy.backoff_cap / 4;
            assert!(*d <= cap, "attempt {i}: {d:?} above cap+jitter {cap:?}");
        }
        assert!(a[3] > a[0], "backoff must grow");
        let other = NetRetryPolicy {
            jitter_seed: 99,
            ..NetRetryPolicy::default()
        };
        assert_ne!(
            (0..10).map(|i| other.backoff(i)).collect::<Vec<_>>(),
            a,
            "different seeds de-synchronise"
        );
    }

    /// A reader/writer delivering one byte per call and injecting a
    /// spurious `Interrupted` every `interrupt_every` operations — the
    /// worst honest transport the frame layer can meet.
    struct Trickle<T> {
        inner: T,
        interrupt_every: usize,
        ops: usize,
    }

    impl<T> Trickle<T> {
        fn new(inner: T, interrupt_every: usize) -> Self {
            Trickle {
                inner,
                interrupt_every,
                ops: 0,
            }
        }

        fn interrupts(&mut self) -> bool {
            self.ops += 1;
            self.interrupt_every > 0 && self.ops.is_multiple_of(self.interrupt_every)
        }
    }

    impl<R: Read> Read for Trickle<R> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.interrupts() {
                return Err(io::Error::new(io::ErrorKind::Interrupted, "spurious"));
            }
            let take = buf.len().min(1);
            self.inner.read(&mut buf[..take])
        }
    }

    impl<W: Write> Write for Trickle<W> {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.interrupts() {
                return Err(io::Error::new(io::ErrorKind::Interrupted, "spurious"));
            }
            let take = buf.len().min(1);
            self.inner.write(&buf[..take])
        }

        fn flush(&mut self) -> io::Result<()> {
            self.inner.flush()
        }
    }

    #[test]
    fn frames_survive_one_byte_reads_writes_and_interrupts() {
        let payload: Vec<u8> = (0..1000u32).map(|i| (i % 253) as u8).collect();
        // interrupt_every = 1 would never progress; 2 interrupts every
        // other call including the very first read (the first-byte
        // path that used to surface Interrupted as an Io error).
        for interrupt_every in [0usize, 2, 3, 7] {
            let mut writer = Trickle::new(Vec::new(), interrupt_every);
            write_frame(&mut writer, &payload).unwrap();
            let wire = writer.inner;
            // Interruption starts fresh on the read side so the first
            // header byte also sees an Interrupted when every == 2...
            // ops counter starts at 0, first call ops=1, interrupts at
            // ops % every == 0, i.e. the second call. Shift by one op
            // to hit the first-byte read too.
            let mut reader = Trickle::new(&wire[..], interrupt_every);
            if interrupt_every > 0 {
                reader.ops = interrupt_every - 1; // next call interrupts
            }
            let back = read_frame(&mut reader, MAX_FRAME_BYTES).unwrap();
            assert_eq!(
                back.as_deref(),
                Some(&payload[..]),
                "interrupt_every={interrupt_every}"
            );
        }
    }

    #[test]
    fn circuit_breaker_trips_probes_and_recovers() {
        let mut b = CircuitBreaker::new(3, Duration::from_millis(30));
        assert_eq!(b.state(), CircuitState::Closed);
        // Failures below the threshold keep the circuit closed; an
        // intervening success resets the count entirely.
        assert!(b.allow());
        b.on_failure();
        assert!(b.allow());
        b.on_failure();
        b.on_success();
        assert!(b.allow());
        b.on_failure();
        b.on_failure();
        assert_eq!(b.state(), CircuitState::Closed);
        b.on_failure(); // third consecutive: trip
        assert_eq!(b.state(), CircuitState::Open);
        assert!(!b.allow(), "open circuit fails fast");
        assert!(!b.allow());
        // Cooldown elapses: exactly one half-open probe is granted.
        std::thread::sleep(Duration::from_millis(40));
        assert_eq!(b.state(), CircuitState::HalfOpen);
        assert!(b.allow(), "one probe after cooldown");
        assert!(!b.allow(), "second concurrent probe denied");
        // Failed probe re-opens for a full cooldown.
        b.on_failure();
        assert_eq!(b.state(), CircuitState::Open);
        assert!(!b.allow());
        std::thread::sleep(Duration::from_millis(40));
        assert!(b.allow());
        b.on_success();
        assert_eq!(b.state(), CircuitState::Closed);
        assert!(b.allow(), "closed again after a successful probe");
    }

    /// Regression (PR 9): a server stalling mid-frame after the header
    /// used to hang `Client::request` forever — per-read timeouts reset
    /// on every byte. With an operation deadline the client returns
    /// [`NetError::Timeout`] within the budget.
    #[test]
    fn stalled_server_times_out_instead_of_hanging() {
        use std::net::TcpListener;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (stop_tx, stop_rx) = std::sync::mpsc::channel::<()>();
        let stall = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            // Read the request, then answer with a frame header that
            // promises a payload and trickle exactly one byte of it.
            let mut sink = [0u8; 4096];
            while let Ok(n) = s.read(&mut sink) {
                if n == 0 || n < sink.len() {
                    break;
                }
            }
            let mut head = [0u8; 8];
            head[..4].copy_from_slice(&FRAME_MAGIC.to_le_bytes());
            head[4..].copy_from_slice(&1024u32.to_le_bytes());
            s.write_all(&head).unwrap();
            s.write_all(&[0u8]).unwrap();
            // ...then stall until the test ends.
            let _ = stop_rx.recv_timeout(Duration::from_secs(30));
        });
        let mut client = Client::connect(addr)
            .unwrap()
            .op_deadline(Duration::from_millis(200));
        let started = Instant::now();
        let err = client
            .request(&Request::strict(), b"unused")
            .expect_err("stalled server must not produce a response");
        let elapsed = started.elapsed();
        assert!(matches!(err, NetError::Timeout), "{err:?}");
        assert!(
            elapsed >= Duration::from_millis(150) && elapsed < Duration::from_secs(5),
            "deadline respected: {elapsed:?}"
        );
        stop_tx.send(()).unwrap();
        stall.join().unwrap();
    }

    /// The coalesced outcome is part of the wire taxonomy: it
    /// roundtrips alongside the cache levels, and codes beyond the
    /// taxonomy stay protocol errors rather than panics.
    #[test]
    fn coalesced_served_from_roundtrips_on_the_wire() {
        let img = test_image();
        let back = decode_response(&encode_ok(&img, None, ServedFrom::Coalesced)).unwrap();
        assert_eq!(back.served_from, ServedFrom::Coalesced);
        assert_eq!(back.image, img);
        for s in [
            ServedFrom::Cold,
            ServedFrom::HeaderCache,
            ServedFrom::ImageCache,
            ServedFrom::Coalesced,
        ] {
            assert_eq!(served_from_wire(served_to_wire(s)).unwrap(), s);
        }
        for v in 4..=u8::MAX {
            assert!(
                matches!(served_from_wire(v), Err(WireError::Protocol(_))),
                "wire code {v} must be rejected"
            );
        }
    }

    /// Regression: the audit of `reconnect()` — the fresh socket must
    /// behave exactly like the original, in particular a mid-frame
    /// stall *after* a reconnect must still surface as
    /// [`NetError::Timeout`] under the client's `op_deadline` rather
    /// than hanging (the deadline lives on the `Client`, not the
    /// socket, and installs its timeouts per syscall).
    #[test]
    fn reconnected_client_keeps_its_op_deadline() {
        use std::net::TcpListener;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (stop_tx, stop_rx) = std::sync::mpsc::channel::<()>();
        let stall = std::thread::spawn(move || {
            // First connection: the client's original socket; it goes
            // quiet once the client reconnects.
            let (_original, _) = listener.accept().unwrap();
            // Second connection (post-reconnect): read the request,
            // promise a 1024-byte frame, deliver one byte, stall.
            let (mut s, _) = listener.accept().unwrap();
            let mut sink = [0u8; 4096];
            while let Ok(n) = s.read(&mut sink) {
                if n == 0 || n < sink.len() {
                    break;
                }
            }
            let mut head = [0u8; 8];
            head[..4].copy_from_slice(&FRAME_MAGIC.to_le_bytes());
            head[4..].copy_from_slice(&1024u32.to_le_bytes());
            s.write_all(&head).unwrap();
            s.write_all(&[0u8]).unwrap();
            let _ = stop_rx.recv_timeout(Duration::from_secs(30));
        });
        let mut client = Client::connect(addr)
            .unwrap()
            .op_deadline(Duration::from_millis(200));
        client.reconnect().unwrap();
        let started = Instant::now();
        let err = client
            .request(&Request::strict(), b"unused")
            .expect_err("a mid-frame stall after reconnect must not hang");
        let elapsed = started.elapsed();
        assert!(matches!(err, NetError::Timeout), "{err:?}");
        assert!(
            elapsed >= Duration::from_millis(150) && elapsed < Duration::from_secs(5),
            "deadline survived the reconnect: {elapsed:?}"
        );
        stop_tx.send(()).unwrap();
        stall.join().unwrap();
    }

    /// Regression: a reply that arrives after the client's deadline
    /// must never answer the client's next request. The fake server
    /// reads request 1, answers it (image A) only after the client has
    /// timed out, then answers request 2 with image B — on the same
    /// connection if the client reused it, else on a fresh one.
    #[test]
    fn late_reply_never_answers_the_next_request() {
        use std::net::TcpListener;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (image_a, image_b) = (Image::synthetic_rgb(4, 4, 1), Image::synthetic_rgb(4, 4, 2));
        let (late, fresh) = (image_a.clone(), image_b.clone());
        let server = std::thread::spawn(move || {
            let (mut first, _) = listener.accept().unwrap();
            read_frame(&mut first, MAX_FRAME_BYTES).unwrap().unwrap();
            std::thread::sleep(Duration::from_millis(300));
            let _ = write_frame(&mut first, &encode_ok(&late, None, ServedFrom::Cold));
            let mut second = match read_frame(&mut first, MAX_FRAME_BYTES) {
                Ok(Some(_)) => first,
                _ => {
                    let (mut s, _) = listener.accept().unwrap();
                    read_frame(&mut s, MAX_FRAME_BYTES).unwrap().unwrap();
                    s
                }
            };
            write_frame(&mut second, &encode_ok(&fresh, None, ServedFrom::Cold)).unwrap();
        });
        let mut client = Client::connect(addr)
            .unwrap()
            .op_deadline(Duration::from_millis(100));
        let err = client
            .request(&Request::strict(), b"one")
            .expect_err("request 1 outlives its deadline");
        assert!(matches!(err, NetError::Timeout), "{err:?}");
        std::thread::sleep(Duration::from_millis(400));
        let resp = client.request(&Request::strict(), b"two").unwrap();
        assert_eq!(resp.image, image_b, "request 2 got request 1's late reply");
        server.join().unwrap();
    }

    /// A breaker-guarded client against a blackhole: the first
    /// `threshold` calls each pay one deadline, every later call fails
    /// fast with `CircuitOpen` until the cooldown.
    #[test]
    fn guarded_retry_fails_fast_once_the_breaker_trips() {
        use std::net::TcpListener;
        // A listener that accepts and never answers.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (stop_tx, stop_rx) = std::sync::mpsc::channel::<()>();
        let hole = std::thread::spawn(move || {
            let mut held = Vec::new();
            listener.set_nonblocking(true).unwrap();
            loop {
                if let Ok((s, _)) = listener.accept() {
                    held.push(s);
                }
                if stop_rx.try_recv().is_ok() {
                    return;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        });
        let mut client = Client::connect(addr)
            .unwrap()
            .op_deadline(Duration::from_millis(100));
        let mut breaker = CircuitBreaker::new(2, Duration::from_secs(60));
        let policy = NetRetryPolicy::default();
        for i in 0..2 {
            let err = client
                .decode_retry_guarded(&Request::strict(), b"x", &policy, &mut breaker)
                .expect_err("blackhole cannot answer");
            assert!(matches!(err, NetError::Timeout), "call {i}: {err:?}");
        }
        assert_eq!(breaker.state(), CircuitState::Open);
        let started = Instant::now();
        let err = client
            .decode_retry_guarded(&Request::strict(), b"x", &policy, &mut breaker)
            .expect_err("open breaker fails fast");
        assert!(matches!(err, NetError::CircuitOpen), "{err:?}");
        assert!(
            started.elapsed() < Duration::from_millis(50),
            "fail-fast must not touch the network: {:?}",
            started.elapsed()
        );
        stop_tx.send(()).unwrap();
        hole.join().unwrap();
    }
}
