//! The wire protocol: length-prefixed, versioned binary frames over a
//! byte stream, with JSON payloads (see `pdbt_obs::json`).
//!
//! Every frame is a fixed 12-byte header followed by the payload:
//!
//! ```text
//! offset  size  field
//!      0     4  magic  "PDBT"
//!      4     1  version (currently 1)
//!      5     1  opcode
//!      6     2  reserved (zero)
//!      8     4  payload length, big-endian
//!     12     n  payload (UTF-8 JSON; empty for PING/SHUTDOWN)
//! ```
//!
//! The magic catches a client speaking the wrong protocol at byte 0
//! instead of after a mis-sized read; the explicit version lets a
//! future frame layout be rejected loudly rather than misparsed. The
//! payload length is capped ([`MAX_PAYLOAD`]) so a corrupt header
//! cannot provoke a multi-gigabyte allocation.
//!
//! Request opcodes come from the client (`SUBMIT`, `PING`,
//! `SHUTDOWN`, `STATS`, and `pdbt sync`'s `ART_LIST`/`ART_PULL`);
//! response opcodes have the top bit set (`RESULT`, `ERROR`, `PONG`).
//! One request frame per connection, answered by exactly one response
//! frame — except artifact pulls, which follow their JSON header frame
//! with a counted run of raw [`op::ART_DATA`] chunk frames on the same
//! connection, so a sealed artifact larger than [`MAX_PAYLOAD`] can
//! still cross the wire.

use std::fmt;
use std::io::{self, Read, Write};

/// Frame magic: the first four bytes of every frame.
pub const MAGIC: [u8; 4] = *b"PDBT";

/// Current protocol version.
pub const VERSION: u8 = 1;

/// Header size in bytes.
pub const HEADER_LEN: usize = 12;

/// Upper bound on a frame payload; larger lengths are rejected before
/// allocating.
pub const MAX_PAYLOAD: u32 = 16 * 1024 * 1024;

/// Frame opcodes. Requests are < 0x80, responses have the top bit set.
pub mod op {
    /// Client → server: run a guest (JSON request payload).
    pub const SUBMIT: u8 = 0x01;
    /// Client → server: health/status probe (empty payload).
    pub const PING: u8 = 0x02;
    /// Client → server: stop accepting, drain in-flight sessions.
    pub const SHUTDOWN: u8 = 0x03;
    /// Client → server: live telemetry snapshot (empty payload).
    /// Answered inline by the accept loop — like `PING`, it works even
    /// when every session worker is busy — with a `PONG` frame carrying
    /// the point-in-time stats JSON (monotone `stats_seq`, uptime,
    /// queue depth, per-partition latency quantiles, flight-recorder
    /// tail).
    pub const STATS: u8 = 0x04;
    /// Client → server: advertise your sealed artifacts (empty payload).
    /// Answered with a `RESULT` frame listing, per partition, the
    /// guest-image fingerprint (hex), generation, section CRCs, and
    /// block/trace counts — everything a client needs to decide what to
    /// pull.
    pub const ART_LIST: u8 = 0x05;
    /// Client → server: stream a sealed artifact by fingerprint (JSON
    /// `{"fingerprint": "<hex>"}` payload). Answered with a `RESULT`
    /// header frame (`generation`, `bytes`, `chunks`, `crc32`) followed
    /// by that many [`ART_DATA`] frames — the one place the protocol's
    /// one-frame-per-direction rule bends, so artifacts larger than
    /// [`MAX_PAYLOAD`](super::MAX_PAYLOAD) can cross it.
    pub const ART_PULL: u8 = 0x06;
    /// Server → client: a raw binary artifact chunk (at most
    /// `pdbt_fleet::CHUNK` bytes), the continuation frame of an
    /// [`ART_PULL`] stream. (0x07 is retired: it carried artifact
    /// pushes into a running daemon.)
    pub const ART_DATA: u8 = 0x08;
    /// Server → client: a completed run's report (JSON payload).
    pub const RESULT: u8 = 0x81;
    /// Server → client: request failed (JSON `{"error": …}` payload).
    pub const ERROR: u8 = 0x82;
    /// Server → client: reply to PING/SHUTDOWN (JSON status payload).
    pub const PONG: u8 = 0x83;
}

/// A decoded frame: opcode plus raw payload bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// The frame's opcode (see [`op`]).
    pub opcode: u8,
    /// The raw payload bytes.
    pub payload: Vec<u8>,
}

impl Frame {
    /// The payload as UTF-8 text.
    ///
    /// # Errors
    ///
    /// [`FrameError::BadPayload`] when the payload is not UTF-8.
    pub fn payload_str(&self) -> Result<&str, FrameError> {
        std::str::from_utf8(&self.payload).map_err(|_| FrameError::BadPayload)
    }
}

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying stream failed (includes short reads / EOF).
    Io(io::Error),
    /// The first four bytes were not [`MAGIC`].
    BadMagic([u8; 4]),
    /// The peer speaks a different protocol version.
    BadVersion(u8),
    /// The declared payload length exceeds [`MAX_PAYLOAD`].
    TooLarge(u32),
    /// The payload was not valid UTF-8 where text was required.
    BadPayload,
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "i/o error: {e}"),
            FrameError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            FrameError::BadVersion(v) => {
                write!(
                    f,
                    "unsupported protocol version {v} (this side speaks {VERSION})"
                )
            }
            FrameError::TooLarge(n) => {
                write!(f, "payload length {n} exceeds the {MAX_PAYLOAD}-byte cap")
            }
            FrameError::BadPayload => write!(f, "payload is not valid UTF-8"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> FrameError {
        FrameError::Io(e)
    }
}

/// Writes one frame and flushes the stream.
///
/// # Errors
///
/// Forwarded i/o errors.
///
/// # Panics
///
/// If `payload` exceeds [`MAX_PAYLOAD`] — a caller bug, not a peer
/// condition.
pub fn write_frame(w: &mut impl Write, opcode: u8, payload: &[u8]) -> io::Result<()> {
    assert!(
        payload.len() <= MAX_PAYLOAD as usize,
        "frame payload exceeds MAX_PAYLOAD"
    );
    let mut hdr = [0u8; HEADER_LEN];
    hdr[..4].copy_from_slice(&MAGIC);
    hdr[4] = VERSION;
    hdr[5] = opcode;
    hdr[8..12].copy_from_slice(&(payload.len() as u32).to_be_bytes());
    w.write_all(&hdr)?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one frame, validating magic, version, and payload length
/// before allocating.
///
/// # Errors
///
/// See [`FrameError`].
pub fn read_frame(r: &mut impl Read) -> Result<Frame, FrameError> {
    let mut hdr = [0u8; HEADER_LEN];
    r.read_exact(&mut hdr)?;
    if hdr[..4] != MAGIC {
        return Err(FrameError::BadMagic([hdr[0], hdr[1], hdr[2], hdr[3]]));
    }
    if hdr[4] != VERSION {
        return Err(FrameError::BadVersion(hdr[4]));
    }
    let len = u32::from_be_bytes(hdr[8..12].try_into().expect("4-byte slice"));
    if len > MAX_PAYLOAD {
        return Err(FrameError::TooLarge(len));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(Frame {
        opcode: hdr[5],
        payload,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_roundtrip_through_a_buffer() {
        let mut buf = Vec::new();
        write_frame(&mut buf, op::SUBMIT, b"{\"id\":1}").unwrap();
        write_frame(&mut buf, op::PING, b"").unwrap();
        let mut r = buf.as_slice();
        let a = read_frame(&mut r).unwrap();
        assert_eq!(a.opcode, op::SUBMIT);
        assert_eq!(a.payload_str().unwrap(), "{\"id\":1}");
        let b = read_frame(&mut r).unwrap();
        assert_eq!(b.opcode, op::PING);
        assert!(b.payload.is_empty());
        assert!(r.is_empty(), "no trailing bytes");
    }

    #[test]
    fn bad_magic_version_and_length_are_rejected() {
        let mut good = Vec::new();
        write_frame(&mut good, op::PING, b"").unwrap();

        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(matches!(
            read_frame(&mut bad.as_slice()),
            Err(FrameError::BadMagic(_))
        ));

        let mut bad = good.clone();
        bad[4] = 99;
        assert!(matches!(
            read_frame(&mut bad.as_slice()),
            Err(FrameError::BadVersion(99))
        ));

        let mut bad = good.clone();
        bad[8..12].copy_from_slice(&(MAX_PAYLOAD + 1).to_be_bytes());
        assert!(matches!(
            read_frame(&mut bad.as_slice()),
            Err(FrameError::TooLarge(_))
        ));
    }

    #[test]
    fn truncated_streams_error_not_panic() {
        let mut buf = Vec::new();
        write_frame(&mut buf, op::RESULT, b"{\"ok\":true}").unwrap();
        for cut in [0, 1, HEADER_LEN - 1, HEADER_LEN, buf.len() - 1] {
            assert!(
                matches!(read_frame(&mut &buf[..cut]), Err(FrameError::Io(_))),
                "cut at {cut} should be an i/o error"
            );
        }
    }
}
