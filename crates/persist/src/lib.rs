//! # ripq-persist — crash-safe persistence primitives
//!
//! Dependency-free building blocks for durable snapshots of pipeline
//! state (particle cache, collector watermark, RNG streams):
//!
//! * a **canonical little-endian codec** ([`ByteWriter`] /
//!   [`ByteReader`]) — fixed-width integers, `f64` as IEEE-754 bits,
//!   length-prefixed strings and sequences, so equal state always
//!   encodes to byte-identical payloads;
//! * a table-based **CRC32** (IEEE polynomial, [`crc32`]) over the
//!   payload;
//! * a **framed snapshot format** ([`seal_snapshot`] /
//!   [`open_snapshot`]): magic, format version, payload length, CRC,
//!   payload — torn, corrupt and stale-version files are detected, never
//!   trusted;
//! * **atomic file replacement** ([`write_atomic`]): write a sibling
//!   temp file, fsync, then rename over the target, so a crash mid-write
//!   leaves either the old snapshot or the new one, never a torn mix.
//!
//! The error taxonomy ([`PersistError`]) distinguishes a missing
//! snapshot (cold start) from a damaged one (quarantine + cold rebuild);
//! callers decide policy, this crate only ever reports.

use std::fmt;
use std::path::{Path, PathBuf};

mod codec;
mod crc;

pub use codec::{ByteReader, ByteWriter};
pub use crc::crc32;

/// Leading magic of every framed snapshot file.
pub const MAGIC: [u8; 8] = *b"RIPQSNAP";

/// Current snapshot format version. Bump on any layout change; readers
/// refuse other versions with [`PersistError::StaleVersion`].
pub const FORMAT_VERSION: u32 = 1;

/// Size of the frame header preceding the payload: magic (8) + version
/// (4) + payload length (8) + payload CRC32 (4).
pub const HEADER_LEN: usize = 24;

/// Everything that can go wrong reading or writing a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PersistError {
    /// No snapshot file exists — a cold start, not a failure.
    Missing,
    /// An OS-level read/write/rename failed; carries the rendered error.
    Io(String),
    /// The file (or a length-prefixed field inside it) is shorter than
    /// its own framing claims — a torn or truncated write.
    Torn,
    /// The leading magic bytes are wrong — not a snapshot file.
    BadMagic,
    /// The payload checksum does not match the header — bit rot or a
    /// partially overwritten file.
    BadCrc {
        /// CRC32 recorded in the header.
        expected: u32,
        /// CRC32 of the payload actually read.
        actual: u32,
    },
    /// The snapshot was written by an incompatible format version.
    StaleVersion {
        /// Version found in the file.
        found: u32,
        /// The version this build reads and writes.
        supported: u32,
    },
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Missing => write!(f, "no snapshot file"),
            PersistError::Io(msg) => write!(f, "io error: {msg}"),
            PersistError::Torn => write!(f, "torn snapshot (truncated frame or field)"),
            PersistError::BadMagic => write!(f, "bad snapshot magic"),
            PersistError::BadCrc { expected, actual } => write!(
                f,
                "snapshot checksum mismatch (header {expected:#010x}, payload {actual:#010x})"
            ),
            PersistError::StaleVersion { found, supported } => write!(
                f,
                "snapshot format version {found} unsupported (this build reads {supported})"
            ),
        }
    }
}

impl std::error::Error for PersistError {}

/// Frames the payload `encode` writes into a self-checking snapshot:
/// magic, version, length, CRC32, payload. The payload is encoded after
/// room left for the header, which is filled in last, so the body is
/// written once and never copied.
pub fn seal_snapshot(encode: impl FnOnce(&mut ByteWriter)) -> Vec<u8> {
    let mut w = ByteWriter::new();
    for _ in 0..HEADER_LEN {
        w.put_u8(0);
    }
    encode(&mut w);
    let mut frame = w.into_bytes();
    if let Some((header, payload)) = frame.split_at_mut_checked(HEADER_LEN) {
        let fields = MAGIC
            .into_iter()
            .chain(FORMAT_VERSION.to_le_bytes())
            .chain((payload.len() as u64).to_le_bytes())
            .chain(crc32(payload).to_le_bytes());
        for (slot, byte) in header.iter_mut().zip(fields) {
            *slot = byte;
        }
    }
    frame
}

/// Validates a framed snapshot and returns its payload slice. Every
/// failure mode maps to one [`PersistError`] variant; nothing panics on
/// arbitrary bytes.
pub fn open_snapshot(bytes: &[u8]) -> Result<&[u8], PersistError> {
    if bytes.len() < HEADER_LEN {
        return Err(if bytes.starts_with(&MAGIC) || MAGIC.starts_with(bytes) {
            PersistError::Torn
        } else {
            PersistError::BadMagic
        });
    }
    if bytes[..8] != MAGIC {
        return Err(PersistError::BadMagic);
    }
    let version = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
    if version != FORMAT_VERSION {
        return Err(PersistError::StaleVersion {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    let len = u64::from_le_bytes([
        bytes[12], bytes[13], bytes[14], bytes[15], bytes[16], bytes[17], bytes[18], bytes[19],
    ]);
    let expected = u32::from_le_bytes([bytes[20], bytes[21], bytes[22], bytes[23]]);
    let body = &bytes[HEADER_LEN..];
    if (body.len() as u64) != len {
        return Err(PersistError::Torn);
    }
    let actual = crc32(body);
    if actual != expected {
        return Err(PersistError::BadCrc { expected, actual });
    }
    Ok(body)
}

/// Writes `bytes` to `path` atomically: the content goes to a sibling
/// `<name>.tmp` first, is synced to disk, then renamed over `path`. A
/// crash at any point leaves either the previous file or the complete
/// new one.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), PersistError> {
    use std::io::Write as _;
    let tmp = sibling(path, "tmp");
    let io_err = |e: std::io::Error| PersistError::Io(format!("{}: {e}", tmp.display()));
    // ripq-lint: allow(atomic-persistence) -- this IS the atomic-write primitive: the create targets a sibling temp file that is fsynced and renamed over the destination below
    let mut file = std::fs::File::create(&tmp).map_err(io_err)?;
    file.write_all(bytes).map_err(io_err)?;
    file.sync_all().map_err(io_err)?;
    drop(file);
    std::fs::rename(&tmp, path)
        .map_err(|e| PersistError::Io(format!("{} -> {}: {e}", tmp.display(), path.display())))
}

/// Loads a framed snapshot from `path`, validating the frame. A missing
/// file is [`PersistError::Missing`]; any damage is reported, never
/// panicked on.
pub fn load_snapshot(path: &Path) -> Result<Vec<u8>, PersistError> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Err(PersistError::Missing),
        Err(e) => return Err(PersistError::Io(format!("{}: {e}", path.display()))),
    };
    open_snapshot(&bytes).map(<[u8]>::to_vec)
}

/// Moves a damaged snapshot aside to `<name>.corrupt` so the next run
/// cold-starts instead of tripping on it again. Returns the quarantine
/// path.
pub fn quarantine(path: &Path) -> Result<PathBuf, PersistError> {
    let target = sibling(path, "corrupt");
    std::fs::rename(path, &target).map_err(|e| {
        PersistError::Io(format!("{} -> {}: {e}", path.display(), target.display()))
    })?;
    Ok(target)
}

/// `path` with `suffix` appended to its file name (`a/b.ckpt` →
/// `a/b.ckpt.<suffix>`), staying in the same directory so the final
/// rename is within one filesystem.
fn sibling(path: &Path, suffix: &str) -> PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    name.push(".");
    name.push(suffix);
    path.with_file_name(name)
}

/// Human-readable description of the on-disk frame — the format contract
/// pinned by the `tests/fixtures/expected_snapshot_header.txt` golden.
/// Any layout change must show up here (and bump [`FORMAT_VERSION`]).
pub fn format_spec() -> String {
    format!(
        "ripq snapshot frame v{FORMAT_VERSION}\n\
         magic:    {:?} (8 bytes)\n\
         version:  u32 LE = {FORMAT_VERSION}\n\
         length:   u64 LE payload byte count\n\
         crc32:    u32 LE, IEEE polynomial 0xEDB88320 over payload\n\
         payload:  canonical little-endian encoding\n\
         encoding: u8 | u32 LE | u64 LE | f64 as IEEE-754 bits (u64 LE) |\n\
         \x20         bool as u8 0/1 | str/seq as u32 LE length prefix + items\n\
         write:    sibling .tmp file, fsync, rename over target\n\
         damage:   torn/bad-magic/bad-crc/stale-version files are\n\
         \x20         quarantined to <name>.corrupt and rebuilt cold\n",
        std::str::from_utf8(&MAGIC).unwrap_or("RIPQSNAP"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The sealed frame of a raw payload.
    fn sealed(payload: &[u8]) -> Vec<u8> {
        seal_snapshot(|w| payload.iter().for_each(|&b| w.put_u8(b)))
    }

    #[test]
    fn seal_open_round_trip() {
        let payload = b"hello snapshot".to_vec();
        let framed = sealed(&payload);
        assert_eq!(open_snapshot(&framed).unwrap(), &payload[..]);
        assert_eq!(framed.len(), HEADER_LEN + payload.len());
    }

    #[test]
    fn empty_payload_is_valid() {
        let framed = sealed(&[]);
        assert_eq!(open_snapshot(&framed).unwrap(), &[] as &[u8]);
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let framed = sealed(b"determinism is a feature");
        for byte in 0..framed.len() {
            for bit in 0..8 {
                let mut bad = framed.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    open_snapshot(&bad).is_err(),
                    "flip at byte {byte} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn truncation_is_torn_or_bad_magic() {
        let framed = sealed(b"payload bytes");
        for cut in 0..framed.len() {
            let err = open_snapshot(&framed[..cut]).unwrap_err();
            assert!(
                matches!(err, PersistError::Torn | PersistError::BadMagic),
                "cut at {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn stale_version_is_reported() {
        let mut framed = sealed(b"x");
        framed[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert_eq!(
            open_snapshot(&framed).unwrap_err(),
            PersistError::StaleVersion {
                found: 99,
                supported: FORMAT_VERSION
            }
        );
    }

    #[test]
    fn wrong_magic_is_reported() {
        let mut framed = sealed(b"x");
        framed[0] = b'X';
        assert_eq!(open_snapshot(&framed).unwrap_err(), PersistError::BadMagic);
        assert_eq!(
            open_snapshot(b"not a snapshot at all, definitely").unwrap_err(),
            PersistError::BadMagic
        );
    }

    #[test]
    fn atomic_write_load_round_trip_and_quarantine() {
        let dir = std::env::temp_dir().join("ripq_persist_test_rt");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.ckpt");
        assert_eq!(load_snapshot(&path).unwrap_err(), PersistError::Missing);
        write_atomic(&path, &sealed(b"alpha")).unwrap();
        assert_eq!(load_snapshot(&path).unwrap(), b"alpha");
        // Replacement is atomic: the temp sibling never survives.
        write_atomic(&path, &sealed(b"beta")).unwrap();
        assert_eq!(load_snapshot(&path).unwrap(), b"beta");
        assert!(!dir.join("state.ckpt.tmp").exists());
        // Corrupt in place, then quarantine.
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            load_snapshot(&path).unwrap_err(),
            PersistError::BadCrc { .. }
        ));
        let moved = quarantine(&path).unwrap();
        assert_eq!(moved, dir.join("state.ckpt.corrupt"));
        assert!(moved.exists());
        assert_eq!(load_snapshot(&path).unwrap_err(), PersistError::Missing);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unwritable_target_is_an_io_error() {
        let dir = std::env::temp_dir().join("ripq_persist_test_missing_parent");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("nested").join("state.ckpt");
        assert!(matches!(
            write_atomic(&path, b"x").unwrap_err(),
            PersistError::Io(_)
        ));
    }

    #[test]
    fn format_spec_names_the_contract() {
        let spec = format_spec();
        assert!(spec.contains("RIPQSNAP"));
        assert!(spec.contains(&format!("v{FORMAT_VERSION}")));
        assert!(spec.contains("crc32"));
        assert!(spec.contains("rename over target"));
    }
}
