//! CRC-32 (IEEE 802.3 polynomial) over frame payloads.
//!
//! Implemented from scratch with compile-time slicing-by-8 tables (Kounavis
//! & Berry's slicing-by-N construction): the loop folds eight bytes per step
//! through eight 256-entry tables and finishes the tail byte by byte. The
//! sequencer rejects frames whose checksum does not match rather than risk
//! ordering a corrupted timestamp.

/// The reflected IEEE 802.3 polynomial.
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k][b]` is the
/// CRC of byte `b` followed by `k` zero bytes, so eight table reads fold
/// eight input bytes at once.
static TABLES: [[u32; 256]; 8] = tables();

const fn tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 == 1 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// Compute the CRC-32 (IEEE) of a byte slice.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc: u32 = 0xFFFF_FFFF;
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &byte in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ byte as u32) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The byte-at-a-time loop this module ran before slicing, over a table
    /// of its own built at run time: the reference the sliced loop must
    /// agree with bit for bit.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut table = [0u32; 256];
        for (i, entry) in table.iter_mut().enumerate() {
            let mut crc = i as u32;
            for _ in 0..8 {
                crc = if crc & 1 == 1 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
            }
            *entry = crc;
        }
        let mut crc: u32 = 0xFFFF_FFFF;
        for &byte in data {
            let idx = ((crc ^ byte as u32) & 0xFF) as usize;
            crc = (crc >> 8) ^ table[idx];
        }
        !crc
    }

    #[test]
    fn known_vectors() {
        // Standard CRC-32 test vectors.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn sliced_loop_matches_the_bytewise_loop_at_every_length() {
        let mut rng = StdRng::seed_from_u64(0xC5C3);
        let random: Vec<u8> = (0..256).map(|_| rng.random_range(0..=255u8)).collect();
        let (zeros, ones) = ([0u8; 256], [0xFFu8; 256]);
        for len in 0..=256 {
            for data in [&random[..len], &zeros[..len], &ones[..len]] {
                assert_eq!(crc32(data), crc32_bytewise(data), "length {len}: {data:?}");
            }
        }
    }

    #[test]
    fn different_payloads_have_different_checksums() {
        assert_ne!(crc32(b"hello"), crc32(b"hellp"));
        assert_ne!(crc32(b"ab"), crc32(b"ba"));
    }

    #[test]
    fn checksum_is_deterministic() {
        let data: Vec<u8> = (0..=255).collect();
        assert_eq!(crc32(&data), crc32(&data));
    }
}
