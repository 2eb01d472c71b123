//! Header layout, versioning, and the engine-options fingerprint.
//!
//! One `.omna` file = header + sections, all little-endian:
//!
//! ```text
//! magic "OMNPROF1" (8)  version u32  header_len u32
//! options_fp u64
//! dataset_key: len u16 + UTF-8 bytes
//! num_nodes u32  num_internal u32
//! window.start f64-bits  window.end f64-bits
//! shard: index u32  count u32  begin u32  end u32
//! options: store_levels u32  max_levels u32
//! section table: count u32, then per section (id u32, len u64, fnv1a64 u64)
//! header checksum: fnv1a64 over all preceding header bytes
//! ```
//!
//! The options block holds exactly the two [`ProfileOptions`] fields. A
//! file of any other version — version 1 included, whose options block
//! was two bytes longer — is refused with
//! [`ArtifactError::UnsupportedVersion`].
//!
//! Section bodies follow the header sequentially in table order. Unknown
//! section ids are skipped on load (additive extensions don't bump the
//! version); any change to the header or an existing section's encoding
//! bumps [`FORMAT_VERSION`], and loaders reject other versions outright.

use crate::codec::{fnv1a64, Reader, Writer};
use crate::ArtifactError;
use omnet_core::ProfileOptions;
use omnet_temporal::{Interval, Time};

/// First eight bytes of every profile artifact.
pub const MAGIC: [u8; 8] = *b"OMNPROF1";

/// The one format version this build writes and reads.
pub const FORMAT_VERSION: u32 = 2;

/// Section id of the profile-rows payload.
pub const SECTION_ROWS: u32 = 1;

/// Where the header stores its own byte length (a little-endian `u32`).
pub(crate) const HEADER_LEN_AT: std::ops::Range<usize> = 12..16;

/// Dataset- and engine-level identity of a profile set, stored in every
/// shard header and required to agree across a set.
#[derive(Debug, Clone, PartialEq)]
pub struct ArtifactMeta {
    /// Free-form identity of the trace the profiles were computed from
    /// (e.g. `infocom05/days0.5/seed7`).
    pub dataset_key: String,
    /// Node universe size of the trace.
    pub num_nodes: u32,
    /// Number of internal devices (complete logs).
    pub num_internal: u32,
    /// The trace's observation window.
    pub window: Interval,
    /// Options the §4.4 induction ran with.
    pub options: ProfileOptions,
}

/// Which contiguous source range a shard covers, and its position in the
/// set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRange {
    /// Shard position, `0..count`.
    pub index: u32,
    /// Total shards in the set.
    pub count: u32,
    /// First source covered (inclusive).
    pub begin: u32,
    /// One past the last source covered.
    pub end: u32,
}

/// Canonical byte encoding of the options that determine profile content.
fn options_bytes(o: &ProfileOptions) -> [u8; 8] {
    let sl = (o.store_levels.min(u32::MAX as usize) as u32).to_le_bytes();
    let ml = (o.max_levels.min(u32::MAX as usize) as u32).to_le_bytes();
    [sl[0], sl[1], sl[2], sl[3], ml[0], ml[1], ml[2], ml[3]]
}

/// Fingerprint of the engine options: FNV-1a over the canonical encoding.
/// Two artifacts are query-compatible only when their fingerprints match.
pub fn options_fingerprint(o: &ProfileOptions) -> u64 {
    fnv1a64(&options_bytes(o))
}

/// Serializes the header (including its trailing checksum) for a shard
/// whose sections are `(id, len, checksum)` in file order.
pub(crate) fn encode_header(
    meta: &ArtifactMeta,
    range: &ShardRange,
    sections: &[(u32, u64, u64)],
) -> Result<Vec<u8>, ArtifactError> {
    if meta.dataset_key.len() > u16::MAX as usize {
        return Err(ArtifactError::Corrupt {
            context: "dataset key longer than 64 KiB",
        });
    }
    let mut w = Writer::new();
    w.bytes(&MAGIC);
    w.u32(FORMAT_VERSION);
    w.u32(0); // header_len, patched below
    w.u64(options_fingerprint(&meta.options));
    w.u16(meta.dataset_key.len() as u16);
    w.bytes(meta.dataset_key.as_bytes());
    w.u32(meta.num_nodes);
    w.u32(meta.num_internal);
    w.f64_bits(meta.window.start.as_secs());
    w.f64_bits(meta.window.end.as_secs());
    w.u32(range.index);
    w.u32(range.count);
    w.u32(range.begin);
    w.u32(range.end);
    w.bytes(&options_bytes(&meta.options));
    w.u32(sections.len() as u32);
    for &(id, len, ck) in sections {
        w.u32(id);
        w.u64(len);
        w.u64(ck);
    }
    let header_len = (w.len() + 8) as u32;
    let mut buf = w.into_vec();
    buf[HEADER_LEN_AT].copy_from_slice(&header_len.to_le_bytes());
    let ck = fnv1a64(&buf);
    buf.extend_from_slice(&ck.to_le_bytes());
    Ok(buf)
}

/// One section-table entry: `(id, body length, fnv1a64 checksum)`.
pub(crate) type SectionEntry = (u32, u64, u64);

/// Validates and decodes the header at the start of `file`, returning the
/// metadata, shard range, section table, and the header's byte length
/// (where section bodies begin).
pub(crate) fn parse_header(
    file: &[u8],
) -> Result<(ArtifactMeta, ShardRange, Vec<SectionEntry>, usize), ArtifactError> {
    let mut r = Reader::new(file);
    let magic = r.take(8, "magic")?;
    if magic != MAGIC {
        let mut found = [0u8; 8];
        found.copy_from_slice(magic);
        return Err(ArtifactError::BadMagic { found });
    }
    let version = r.u32("format version")?;
    if version != FORMAT_VERSION {
        return Err(ArtifactError::UnsupportedVersion {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    let header_len = r.u32("header length")? as usize;
    if header_len < 24 || header_len > file.len() {
        return Err(ArtifactError::Truncated {
            context: "header body",
        });
    }
    let stored_ck =
        u64::from_le_bytes(file[header_len - 8..header_len].try_into().map_err(|_| {
            ArtifactError::Truncated {
                context: "header checksum",
            }
        })?);
    if fnv1a64(&file[..header_len - 8]) != stored_ck {
        return Err(ArtifactError::ChecksumMismatch { what: "header" });
    }

    let options_fp = r.u64("options fingerprint")?;
    let key_len = r.u16("dataset key length")? as usize;
    let key_bytes = r.take(key_len, "dataset key")?;
    let dataset_key = std::str::from_utf8(key_bytes)
        .map_err(|_| ArtifactError::Corrupt {
            context: "dataset key is not UTF-8",
        })?
        .to_string();
    let num_nodes = r.u32("num_nodes")?;
    let num_internal = r.u32("num_internal")?;
    let w_start = r.f64_bits("window start")?;
    let w_end = r.f64_bits("window end")?;
    if !(w_start.is_finite() && w_end.is_finite()) {
        return Err(ArtifactError::Corrupt {
            context: "window is not finite",
        });
    }
    if w_start > w_end {
        return Err(ArtifactError::Corrupt {
            context: "window start after end",
        });
    }
    let range = ShardRange {
        index: r.u32("shard index")?,
        count: r.u32("shard count")?,
        begin: r.u32("shard begin")?,
        end: r.u32("shard end")?,
    };
    let options = ProfileOptions::builder()
        .store_levels(r.u32("store_levels")? as usize)
        .max_levels(r.u32("max_levels")? as usize)
        .build();
    if options_fingerprint(&options) != options_fp {
        return Err(ArtifactError::Corrupt {
            context: "options fingerprint does not match stored options",
        });
    }
    if num_internal > num_nodes {
        return Err(ArtifactError::Corrupt {
            context: "more internal devices than nodes",
        });
    }
    if range.begin > range.end
        || range.end > num_nodes
        || range.count == 0
        || range.index >= range.count
    {
        return Err(ArtifactError::Corrupt {
            context: "shard range outside universe",
        });
    }
    let section_count = r.u32("section count")? as usize;
    if section_count.saturating_mul(20) > header_len {
        return Err(ArtifactError::Truncated {
            context: "section table",
        });
    }
    let mut sections = Vec::with_capacity(section_count);
    for _ in 0..section_count {
        let id = r.u32("section id")?;
        let len = r.u64("section length")?;
        let ck = r.u64("section checksum")?;
        sections.push((id, len, ck));
    }
    if r.pos() != header_len - 8 {
        return Err(ArtifactError::Corrupt {
            context: "header length does not match its fields",
        });
    }
    let meta = ArtifactMeta {
        dataset_key,
        num_nodes,
        num_internal,
        window: Interval::new(Time::secs(w_start), Time::secs(w_end)),
        options,
    };
    Ok((meta, range, sections, header_len))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta() -> ArtifactMeta {
        ArtifactMeta {
            dataset_key: "test/ds".into(),
            num_nodes: 10,
            num_internal: 8,
            window: Interval::secs(0.0, 1000.0),
            options: ProfileOptions::default(),
        }
    }

    fn range() -> ShardRange {
        ShardRange {
            index: 0,
            count: 2,
            begin: 0,
            end: 5,
        }
    }

    #[test]
    fn header_roundtrip() {
        let sections = vec![(SECTION_ROWS, 42u64, 7u64)];
        let buf = encode_header(&meta(), &range(), &sections).unwrap();
        // Pretend the body follows.
        let mut file = buf.clone();
        file.extend_from_slice(&[0u8; 42]);
        let (m, rg, secs, hlen) = parse_header(&file).unwrap();
        assert_eq!(m, meta());
        assert_eq!(rg, range());
        assert_eq!(secs, sections);
        assert_eq!(hlen, buf.len());
    }

    #[test]
    fn bad_magic_rejected() {
        let mut buf = encode_header(&meta(), &range(), &[]).unwrap();
        buf[0] = b'X';
        assert!(matches!(
            parse_header(&buf),
            Err(ArtifactError::BadMagic { .. })
        ));
    }

    #[test]
    fn version_bump_rejected() {
        let mut buf = encode_header(&meta(), &range(), &[]).unwrap();
        buf[8..12].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        assert!(matches!(
            parse_header(&buf),
            Err(ArtifactError::UnsupportedVersion { found, supported })
                if found == FORMAT_VERSION + 1 && supported == FORMAT_VERSION
        ));
    }

    #[test]
    fn flipped_bit_fails_checksum() {
        let mut buf = encode_header(&meta(), &range(), &[]).unwrap();
        let mid = buf.len() / 2;
        buf[mid] ^= 0x40;
        assert!(matches!(
            parse_header(&buf),
            Err(ArtifactError::ChecksumMismatch { what: "header" })
                | Err(ArtifactError::Truncated { .. })
        ));
    }

    #[test]
    fn truncation_rejected() {
        let buf = encode_header(&meta(), &range(), &[]).unwrap();
        for cut in [0, 4, 11, buf.len() / 2, buf.len() - 1] {
            assert!(
                parse_header(&buf[..cut]).is_err(),
                "prefix of {cut} bytes accepted"
            );
        }
    }

    /// Regression: a NaN or infinite window (behind a valid header
    /// checksum) reached the panicking `Time`/`Interval` constructors.
    #[test]
    fn non_finite_window_rejected() {
        let buf = encode_header(&meta(), &range(), &[]).unwrap();
        // The window follows magic, version, length, fingerprint, the
        // 2-byte key length, the key and the two node counts.
        let at = 8 + 4 + 4 + 8 + 2 + meta().dataset_key.len() + 4 + 4;
        for (offset, value) in [(0, f64::NAN), (0, f64::NEG_INFINITY), (8, f64::INFINITY)] {
            let mut bad = buf.clone();
            bad[at + offset..at + offset + 8].copy_from_slice(&value.to_bits().to_le_bytes());
            let ck_at = bad.len() - 8;
            let ck = fnv1a64(&bad[..ck_at]);
            bad[ck_at..].copy_from_slice(&ck.to_le_bytes());
            assert!(matches!(
                parse_header(&bad),
                Err(ArtifactError::Corrupt { .. })
            ));
        }
    }

    #[test]
    fn fingerprint_distinguishes_options() {
        let a = options_fingerprint(&ProfileOptions::default());
        let b = options_fingerprint(&ProfileOptions::builder().store_levels(3).build());
        assert_ne!(a, b);
    }
}
