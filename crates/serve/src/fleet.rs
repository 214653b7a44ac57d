//! The artifact-sync client: the requesting side of the `ART_LIST` /
//! `ART_PULL` frames. `pdbt sync` uses [`sync`] to mirror a running
//! daemon's sealed artifacts into a directory that another daemon then
//! serves with `--artifact-dir`; tests use the lower-level calls to
//! drive the wire trust boundary.
//!
//! An artifact pull is the one multi-frame exchange in the protocol: a
//! JSON header frame declares `bytes`, `chunks`, and a whole-artifact
//! `crc32`, then exactly `chunks` raw [`op::ART_DATA`] frames follow on
//! the same connection. The client verifies the declared length and CRC
//! before anything else looks at the bytes.

use crate::client::ClientError;
use crate::proto::{self, op};
use pdbt_fleet::{chunk_count, validate, write_artifact, ArtifactAd, CHUNK, MAX_ARTIFACT};
use pdbt_obs::json::Json;
use std::net::{TcpStream, ToSocketAddrs};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// A sealed artifact fetched from a peer, CRC-verified but not yet
/// validated against the trust boundary (see `pdbt_fleet::validate`).
#[derive(Debug, Clone)]
pub struct PulledArtifact {
    /// The fingerprint the peer served it under.
    pub fingerprint: u64,
    /// The peer's generation for it.
    pub generation: u64,
    /// The sealed PDBA bytes.
    pub bytes: Vec<u8>,
}

fn connect(addr: impl ToSocketAddrs, timeout: Duration) -> Result<TcpStream, ClientError> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    Ok(stream)
}

/// Reads a frame that must be a JSON `RESULT`; unwraps `ERROR` frames
/// into [`ClientError::Remote`].
fn read_result(stream: &mut TcpStream) -> Result<Json, ClientError> {
    let frame = proto::read_frame(stream)?;
    let text = frame
        .payload_str()
        .map_err(|_| ClientError::Protocol("response payload is not UTF-8".into()))?;
    let json = Json::parse(text)
        .map_err(|e| ClientError::Protocol(format!("response payload is not JSON: {e}")))?;
    if frame.opcode == op::ERROR {
        let msg = json
            .get("error")
            .and_then(Json::as_str)
            .unwrap_or("unspecified server error");
        return Err(ClientError::Remote(msg.to_string()));
    }
    if frame.opcode != op::RESULT {
        return Err(ClientError::Protocol(format!(
            "unexpected response opcode {:#04x}",
            frame.opcode
        )));
    }
    Ok(json)
}

/// Asks a peer for its artifact advertisements: one entry per sealed
/// partition with the fingerprint, version (generation + section
/// CRCs), block/trace counts, and sealed size.
///
/// # Errors
///
/// See [`ClientError`].
pub fn list_artifacts(
    addr: impl ToSocketAddrs,
    timeout: Duration,
) -> Result<Vec<ArtifactAd>, ClientError> {
    let mut stream = connect(addr, timeout)?;
    proto::write_frame(&mut stream, op::ART_LIST, b"")?;
    let json = read_result(&mut stream)?;
    json.get("artifacts")
        .and_then(Json::as_arr)
        .ok_or_else(|| ClientError::Protocol("ART_LIST reply lacks `artifacts`".into()))?
        .iter()
        .map(|ad| ArtifactAd::from_json(ad).map_err(ClientError::Protocol))
        .collect()
}

/// Streams one sealed artifact down from a peer, reassembles the
/// chunk frames, and verifies the declared length and CRC-32. The
/// caller still owes the trust-boundary validation before keeping it.
///
/// # Errors
///
/// See [`ClientError`]; a length or CRC mismatch is a
/// [`ClientError::Protocol`].
pub fn pull_artifact(
    addr: impl ToSocketAddrs,
    fingerprint: u64,
    timeout: Duration,
) -> Result<PulledArtifact, ClientError> {
    let mut stream = connect(addr, timeout)?;
    let req = Json::obj([("fingerprint", Json::str(format!("{fingerprint:016x}")))]);
    proto::write_frame(&mut stream, op::ART_PULL, req.to_string().as_bytes())?;
    let header = read_result(&mut stream)?;
    let need = |field: &str| {
        header
            .get(field)
            .and_then(Json::as_u64)
            .ok_or_else(|| ClientError::Protocol(format!("ART_PULL header lacks `{field}`")))
    };
    let generation = need("generation")?;
    let total = need("bytes")?;
    let chunks = need("chunks")?;
    let crc = need("crc32")?;
    if total > MAX_ARTIFACT {
        return Err(ClientError::Protocol(format!(
            "peer declares a {total}-byte artifact (cap {MAX_ARTIFACT})"
        )));
    }
    if chunks != chunk_count(total as usize) as u64 {
        return Err(ClientError::Protocol(format!(
            "peer declares {chunks} chunks for {total} bytes"
        )));
    }
    let mut bytes = Vec::with_capacity(total as usize);
    for _ in 0..chunks {
        let frame = proto::read_frame(&mut stream)?;
        if frame.opcode != op::ART_DATA {
            return Err(ClientError::Protocol(format!(
                "expected ART_DATA continuation, got opcode {:#04x}",
                frame.opcode
            )));
        }
        if frame.payload.len() > CHUNK || bytes.len() + frame.payload.len() > total as usize {
            return Err(ClientError::Protocol("oversized artifact chunk".into()));
        }
        bytes.extend_from_slice(&frame.payload);
    }
    if bytes.len() as u64 != total {
        return Err(ClientError::Protocol(format!(
            "artifact transfer is {} bytes, header declared {total}",
            bytes.len()
        )));
    }
    if u64::from(pdbt_artifact::bytes::crc32(&bytes)) != crc {
        return Err(ClientError::Protocol(
            "artifact transfer fails its declared CRC".into(),
        ));
    }
    Ok(PulledArtifact {
        fingerprint,
        generation,
        bytes,
    })
}

/// Mirrors every artifact a daemon advertises into `dir`: each one is
/// pulled, checked against the wire trust boundary
/// ([`pdbt_fleet::validate`]: zero quarantined sections, content
/// fingerprint as declared), and written atomically as
/// `{fingerprint:016x}-g{N}.pdba`. A daemon serving `dir` as its
/// `--artifact-dir` loads the files at boot, or on the first request
/// for an image whose file arrived after it booted. Returns the
/// written paths with their sizes, in advertisement order.
///
/// # Errors
///
/// The first failed list, pull, validation or write; files written
/// before it stay in place.
pub fn sync(
    addr: impl ToSocketAddrs + Copy,
    dir: &Path,
    timeout: Duration,
) -> Result<Vec<(PathBuf, usize)>, ClientError> {
    let mut written = Vec::new();
    for ad in list_artifacts(addr, timeout)? {
        let pulled = pull_artifact(addr, ad.fingerprint, timeout)?;
        validate(&pulled.bytes, ad.fingerprint).map_err(ClientError::Protocol)?;
        let path = write_artifact(dir, pulled.fingerprint, pulled.generation, &pulled.bytes)?;
        written.push((path, pulled.bytes.len()));
    }
    Ok(written)
}
