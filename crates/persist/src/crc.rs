//! Table-based CRC32 (IEEE 802.3 polynomial, reflected form
//! `0xEDB88320`) — the checksum of the snapshot frame — computed eight
//! bytes per step ("slicing-by-8"), the tail a byte at a time.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// The eight 256-entry tables, built once at first use. The first is the
/// classic byte table: the CRC of one byte. Each next one advances the
/// one before by a zero byte, so table `k` holds the contribution of a
/// byte followed by `k` more.
fn tables() -> &'static [[u32; 256]; 8] {
    use std::sync::OnceLock;
    static TABLES: OnceLock<[[u32; 256]; 8]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut tables = [[0u32; 256]; 8];
        if let Some((first, rest)) = tables.split_first_mut() {
            for (byte, slot) in (0u32..).zip(first.iter_mut()) {
                *slot = (0..8).fold(byte, |crc, _| {
                    if crc & 1 != 0 {
                        (crc >> 1) ^ POLY
                    } else {
                        crc >> 1
                    }
                });
            }
            let mut prev = *first;
            for table in rest {
                for (slot, &p) in table.iter_mut().zip(&prev) {
                    *slot = (p >> 8) ^ entry(first, u64::from(p));
                }
                prev = *table;
            }
        }
        tables
    })
}

/// Entry `index & 0xFF` of `table`, always in range.
#[inline]
fn entry(table: &[u32; 256], index: u64) -> u32 {
    table.get((index & 0xFF) as usize).copied().unwrap_or(0)
}

/// CRC32 of `bytes` (IEEE polynomial, init `0xFFFFFFFF`, final XOR) —
/// the same function `cksum`-family tools call `crc32`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let tables = tables();
    let at = |k: usize, index: u64| tables.get(k).map_or(0, |table| entry(table, index));
    let mut crc = 0xFFFF_FFFFu32;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        // The word, little-endian, with the running CRC folded into its
        // low four bytes; byte i is followed by 7 − i more.
        let x = u64::from_le_bytes(word.try_into().unwrap_or_default()) ^ u64::from(crc);
        crc = at(7, x)
            ^ at(6, x >> 8)
            ^ at(5, x >> 16)
            ^ at(4, x >> 24)
            ^ at(3, x >> 32)
            ^ at(2, x >> 40)
            ^ at(1, x >> 48)
            ^ at(0, x >> 56);
    }
    let tail = words.remainder().iter();
    !tail.fold(crc, |crc, &b| {
        (crc >> 8) ^ at(0, u64::from(crc ^ u32::from(b)))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time loop slicing-by-8 replaced.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let table = &tables()[0];
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc = (crc >> 8) ^ table[((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn known_vectors() {
        // Standard CRC32 check values.
        for crc in [crc32, crc32_bytewise] {
            assert_eq!(crc(b""), 0);
            assert_eq!(crc(b"123456789"), 0xCBF4_3926);
            assert_eq!(
                crc(b"The quick brown fox jumps over the lazy dog"),
                0x414F_A339
            );
        }
    }

    #[test]
    fn the_byte_table_is_the_classic_one() {
        assert_eq!(tables()[0][1], 0x7707_3096);
        assert_eq!(tables()[0][255], 0x2D02_EF8D);
    }

    /// Slicing-by-8 against the bytewise loop on pseudo-random buffers of
    /// every length up to 300 bytes, each cut from eight places, plus
    /// long runs of zeros, of ones and of noise.
    #[test]
    fn slicing_by_8_matches_the_bytewise_loop() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) as u8
        };
        let buffer: Vec<u8> = (0..4096).map(|_| next()).collect();
        for len in 0..=300 {
            for start in 0..8 {
                let bytes = &buffer[start * 97..start * 97 + len];
                assert_eq!(
                    crc32(bytes),
                    crc32_bytewise(bytes),
                    "len {len}, start {start}"
                );
            }
        }
        let runs = [vec![0u8; 1000], vec![0xFF; 1000], buffer];
        for bytes in &runs {
            assert_eq!(crc32(bytes), crc32_bytewise(bytes));
        }
    }

    #[test]
    fn sensitive_to_every_bit() {
        let base = crc32(b"abcdef");
        for i in 0..6 {
            let mut m = *b"abcdef";
            m[i] ^= 1;
            assert_ne!(crc32(&m), base, "bit flip at byte {i} not detected");
        }
    }
}
