//! The sealed PDBA container: header, section table, per-section
//! CRCs, and the salvage-mode loader.
//!
//! ## Layout (all little-endian, no alignment)
//!
//! ```text
//! magic            "PDBA"
//! format_version   u32            (must match exactly)
//! toolchain        str            (informational stamp, never a gate)
//! fingerprint      u64            (stable guest-image fingerprint)
//! section_count    u32
//! section table    tag [u8;4], offset u32, len u32, crc32 u32  × count
//! header_crc       u32            (CRC-32 of every byte above)
//! payload          concatenated section payloads
//! ```
//!
//! Section offsets are relative to the payload area and the table is
//! written in the fixed section order META, GIMG, RULE, BLKS, TRCE —
//! sealing is canonical (blocks sorted by address, traces by head and
//! then member starts), so `seal(open(seal(a)))` is byte-identical to
//! `seal(a)`.
//!
//! ## Salvage semantics
//!
//! The trust boundary is the header plus the guest image: damage to
//! the magic, version, table, header CRC, GIMG section, or a
//! fingerprint that does not match the image rejects the *whole*
//! artifact (an [`ArtifactError`]) — a warm boot keyed by an untrusted
//! fingerprint could hand one image's code to another. Damage inside
//! any other section quarantines exactly that section
//! ([`Opened::quarantined`]) and keeps the rest: a corrupted BLKS
//! still boots with the artifact's ruleset and traces, a corrupted
//! RULE falls back to the server's own rules, and so on — mirroring
//! the rule-store salvage loader, and never a panic.

use crate::bytes::{crc32, CodecError, Reader, Writer};
use crate::codec::{read_block, write_block};
use pdbt_core::{load_rules, save_rules, RuleSet};
use pdbt_isa_arm::{parse_listing, Program};
use pdbt_runtime::TranslatedBlock;
use std::fmt;
use std::ops::Range;

/// File magic.
pub const MAGIC: [u8; 4] = *b"PDBA";
/// Current format version. Bumped on any layout change; version
/// mismatches reject the artifact (cold fallback), never reinterpret.
pub const FORMAT_VERSION: u32 = 1;
/// Toolchain stamp sealed into every artifact. Informational: recorded
/// and surfaced, but never a compatibility gate — the format version
/// is the gate.
pub const TOOLCHAIN: &str = concat!("pdbt-", env!("CARGO_PKG_VERSION"));

/// Section tags, in sealed order.
pub const SECTIONS: [&str; 5] = ["META", "GIMG", "RULE", "BLKS", "TRCE"];

/// An unsealed translation artifact: everything `pdbt compile`
/// persists and a warm boot rehydrates.
#[derive(Debug, Clone)]
pub struct Artifact {
    /// Human-readable label (workload or program name).
    pub label: String,
    /// The guest image the translations belong to.
    pub program: Program,
    /// The ruleset the blocks were translated with (`None` = the pure
    /// QEMU-path baseline).
    pub rules: Option<RuleSet>,
    /// Pre-translated blocks (sorted by guest address when sealed).
    pub blocks: Vec<TranslatedBlock>,
    /// Superblock traces (sorted by head address, then member starts,
    /// when sealed); member lists are recoverable from each trace's
    /// `member_marks`.
    pub traces: Vec<TranslatedBlock>,
}

impl Artifact {
    /// The stable fingerprint of the guest image — the partition key
    /// a serving daemon maps this artifact to.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        self.program.fingerprint()
    }
}

/// A section the salvage loader had to drop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedSection {
    /// The section tag (`"RULE"`, `"BLKS"`, …).
    pub section: String,
    /// Why it was dropped.
    pub reason: String,
}

/// A successfully opened artifact plus its quarantine log.
#[derive(Debug)]
pub struct Opened {
    /// The salvaged artifact (quarantined sections emptied).
    pub artifact: Artifact,
    /// The toolchain stamp the artifact was sealed with.
    pub toolchain: String,
    /// Sections dropped by the salvage loader.
    pub quarantined: Vec<QuarantinedSection>,
}

/// A whole-artifact rejection: nothing salvageable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArtifactError {
    /// The file does not start with the PDBA magic.
    BadMagic,
    /// Sealed under a different format version.
    BadVersion {
        /// The version stamped in the header.
        found: u32,
    },
    /// The header or section table is cut short or self-inconsistent.
    Truncated(String),
    /// The header CRC does not cover the bytes present.
    HeaderCrc,
    /// The guest-image section is damaged or unparseable.
    BadImage(String),
    /// The image present does not hash to the declared fingerprint.
    FingerprintMismatch {
        /// The fingerprint stamped in the header.
        declared: u64,
        /// The fingerprint of the image actually present.
        computed: u64,
    },
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::BadMagic => f.write_str("not a PDBA artifact (bad magic)"),
            ArtifactError::BadVersion { found } => write!(
                f,
                "unsupported artifact format version {found} (this build reads {FORMAT_VERSION})"
            ),
            ArtifactError::Truncated(detail) => write!(f, "truncated artifact: {detail}"),
            ArtifactError::HeaderCrc => f.write_str("artifact header checksum mismatch"),
            ArtifactError::BadImage(detail) => write!(f, "damaged guest image: {detail}"),
            ArtifactError::FingerprintMismatch { declared, computed } => write!(
                f,
                "guest-image fingerprint mismatch: header says {declared:#018x}, image hashes to {computed:#018x}"
            ),
        }
    }
}

impl std::error::Error for ArtifactError {}

/// One parsed section-table entry.
#[derive(Debug, Clone)]
struct TableEntry {
    tag: [u8; 4],
    offset: usize,
    len: usize,
    crc: u32,
}

/// Seals an artifact into PDBA bytes. Canonical: sections are written
/// in fixed order, blocks sorted by guest address, traces by head
/// address and then member starts — sealing the same content twice
/// yields identical bytes.
#[must_use]
pub fn seal(artifact: &Artifact) -> Vec<u8> {
    let mut meta = Writer::new();
    meta.str(&artifact.label);

    let mut gimg = Writer::new();
    gimg.u32(artifact.program.base());
    let listing: String = artifact
        .program
        .insts()
        .iter()
        .map(|i| format!("{i}\n"))
        .collect();
    gimg.str(&listing);

    let mut rule = Writer::new();
    match &artifact.rules {
        Some(rules) => {
            rule.u8(1);
            rule.str(&save_rules(rules));
        }
        None => rule.u8(0),
    }

    let mut blks = Writer::new();
    let mut sorted_blocks: Vec<&TranslatedBlock> = artifact.blocks.iter().collect();
    sorted_blocks.sort_by_key(|b| b.start);
    blks.u32(sorted_blocks.len() as u32);
    for b in sorted_blocks {
        write_block(&mut blks, b);
    }

    let mut trce = Writer::new();
    // A live library can hold two member lists with one head (sessions
    // that chained differently), so the member starts break head ties.
    let mut sorted_traces: Vec<&TranslatedBlock> = artifact.traces.iter().collect();
    sorted_traces.sort_by_cached_key(|t| (t.start, t.member_starts()));
    trce.u32(sorted_traces.len() as u32);
    for t in sorted_traces {
        write_block(&mut trce, t);
    }

    let payloads = [meta.buf, gimg.buf, rule.buf, blks.buf, trce.buf];
    let mut header = Writer::new();
    header.bytes(&MAGIC);
    header.u32(FORMAT_VERSION);
    header.str(TOOLCHAIN);
    header.u64(artifact.fingerprint());
    header.u32(payloads.len() as u32);
    let mut offset = 0u32;
    for (tag, payload) in SECTIONS.iter().zip(&payloads) {
        header.bytes(tag.as_bytes());
        header.u32(offset);
        header.u32(payload.len() as u32);
        header.u32(crc32(payload));
        offset += payload.len() as u32;
    }
    let hcrc = crc32(&header.buf);
    header.u32(hcrc);
    let mut out = header.buf;
    for payload in &payloads {
        out.extend_from_slice(payload);
    }
    out
}

/// Parses the header and section table, verifying the header CRC.
/// Returns the table and the absolute offset of the payload area.
fn parse_header(bytes: &[u8]) -> Result<(u64, String, Vec<TableEntry>, usize), ArtifactError> {
    let mut r = Reader::new(bytes);
    let trunc = |e: CodecError| ArtifactError::Truncated(e.to_string());
    let magic = r.take(4).map_err(trunc)?;
    if magic != MAGIC {
        return Err(ArtifactError::BadMagic);
    }
    let version = r.u32().map_err(trunc)?;
    if version != FORMAT_VERSION {
        return Err(ArtifactError::BadVersion { found: version });
    }
    let toolchain = r.str().map_err(trunc)?;
    let fingerprint = r.u64().map_err(trunc)?;
    let count = r.count(16).map_err(trunc)?;
    if count != SECTIONS.len() {
        return Err(ArtifactError::Truncated(format!(
            "expected {} sections, header declares {count}",
            SECTIONS.len()
        )));
    }
    let mut table = Vec::with_capacity(count);
    for expected_tag in SECTIONS {
        let tag: [u8; 4] = r.take(4).map_err(trunc)?.try_into().unwrap();
        if tag != *expected_tag.as_bytes() {
            return Err(ArtifactError::Truncated(format!(
                "section table out of order: expected {expected_tag}, found {:?}",
                String::from_utf8_lossy(&tag)
            )));
        }
        table.push(TableEntry {
            tag,
            offset: r.u32().map_err(trunc)? as usize,
            len: r.u32().map_err(trunc)? as usize,
            crc: r.u32().map_err(trunc)?,
        });
    }
    let header_len = bytes.len() - r.remaining();
    let declared = r.u32().map_err(trunc)?;
    if crc32(&bytes[..header_len]) != declared {
        return Err(ArtifactError::HeaderCrc);
    }
    Ok((fingerprint, toolchain, table, header_len + 4))
}

/// The absolute byte range of every section in a sealed artifact —
/// exposed so corruption tests (and forensics) can target payload
/// bytes precisely.
///
/// # Errors
///
/// [`ArtifactError`] when the header itself does not parse.
pub fn section_table(bytes: &[u8]) -> Result<Vec<(String, Range<usize>)>, ArtifactError> {
    let (_, _, table, payload_start) = parse_header(bytes)?;
    Ok(table
        .iter()
        .map(|e| {
            let start = payload_start + e.offset;
            (
                String::from_utf8_lossy(&e.tag).into_owned(),
                start..start + e.len,
            )
        })
        .collect())
}

/// Opens a sealed artifact in salvage mode.
///
/// # Errors
///
/// [`ArtifactError`] only for whole-artifact rejections (header,
/// guest image, fingerprint); per-section damage lands in
/// [`Opened::quarantined`] instead.
pub fn open_salvage(bytes: &[u8]) -> Result<Opened, ArtifactError> {
    let (fingerprint, toolchain, table, payload_start) = parse_header(bytes)?;
    let mut quarantined = Vec::new();
    // A section is healthy iff its range lies within the file AND its
    // CRC matches. Truncation cuts trailing sections' ranges short.
    let section = |e: &TableEntry| -> Result<&[u8], String> {
        let start = payload_start + e.offset;
        let end = start + e.len;
        if end > bytes.len() {
            return Err(format!(
                "section runs past end of file ({end} > {})",
                bytes.len()
            ));
        }
        let payload = &bytes[start..end];
        if crc32(payload) != e.crc {
            return Err("section checksum mismatch".to_string());
        }
        Ok(payload)
    };

    // GIMG is part of the trust boundary: no image, no artifact.
    let gimg = section(&table[1]).map_err(ArtifactError::BadImage)?;
    let program = {
        let mut r = Reader::new(gimg);
        let mut parse = || -> Result<Program, CodecError> {
            let base = r.u32()?;
            let listing = r.str()?;
            let insts = parse_listing(&listing)
                .map_err(|e| CodecError(format!("guest listing does not assemble: {e}")))?;
            Ok(Program::new(base, insts))
        };
        parse().map_err(|e| ArtifactError::BadImage(e.to_string()))?
    };
    let computed = program.fingerprint();
    if computed != fingerprint {
        return Err(ArtifactError::FingerprintMismatch {
            declared: fingerprint,
            computed,
        });
    }

    let mut quarantine = |tag: &str, reason: String| {
        quarantined.push(QuarantinedSection {
            section: tag.to_string(),
            reason,
        });
    };

    // META: label. Damage falls back to an empty label.
    let label = match section(&table[0]) {
        Ok(payload) => {
            let mut r = Reader::new(payload);
            match r.str().and_then(|s| r.finish().map(|()| s)) {
                Ok(label) => label,
                Err(e) => {
                    quarantine("META", e.to_string());
                    String::new()
                }
            }
        }
        Err(reason) => {
            quarantine("META", reason);
            String::new()
        }
    };

    // RULE: the embedded ruleset. Damage falls back to no rules (the
    // loader's caller supplies its own).
    let rules = match section(&table[2]) {
        Ok(payload) => {
            let mut r = Reader::new(payload);
            let mut parse = || -> Result<Option<RuleSet>, CodecError> {
                let present = r.u8()?;
                let rules = match present {
                    0 => None,
                    1 => {
                        let text = r.str()?;
                        Some(
                            load_rules(&text)
                                .map_err(|e| CodecError(format!("embedded ruleset: {e}")))?,
                        )
                    }
                    t => return Err(CodecError(format!("bad ruleset presence tag {t}"))),
                };
                r.finish()?;
                Ok(rules)
            };
            match parse() {
                Ok(rules) => rules,
                Err(e) => {
                    quarantine("RULE", e.to_string());
                    None
                }
            }
        }
        Err(reason) => {
            quarantine("RULE", reason);
            None
        }
    };

    // BLKS / TRCE: pre-translated code. Damage falls back to cold
    // translation.
    let mut read_blocks = |idx: usize, tag: &str| -> Vec<TranslatedBlock> {
        match section(&table[idx]) {
            Ok(payload) => {
                let mut r = Reader::new(payload);
                let mut parse = || -> Result<Vec<TranslatedBlock>, CodecError> {
                    let n = r.count(20)?;
                    let mut out = Vec::with_capacity(n);
                    for _ in 0..n {
                        out.push(read_block(&mut r)?);
                    }
                    r.finish()?;
                    Ok(out)
                };
                match parse() {
                    Ok(blocks) => blocks,
                    Err(e) => {
                        quarantine(tag, e.to_string());
                        Vec::new()
                    }
                }
            }
            Err(reason) => {
                quarantine(tag, reason);
                Vec::new()
            }
        }
    };
    let blocks = read_blocks(3, "BLKS");
    let traces = read_blocks(4, "TRCE");

    Ok(Opened {
        artifact: Artifact {
            label,
            program,
            rules,
            blocks,
            traces,
        },
        toolchain,
        quarantined,
    })
}
