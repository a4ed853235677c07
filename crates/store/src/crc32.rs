//! CRC32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) with
//! compile-time lookup tables — no dependency, no runtime init.
//!
//! CRC32 detects *all* single-bit errors and all burst errors up to 32
//! bits, which is exactly the corruption class the store's proptests
//! inject; anything larger is caught with probability `1 - 2^-32` per
//! section.
//!
//! The checksum runs slicing-by-8: table `k` maps a byte to its CRC
//! contribution `k` bytes further back, so eight independent lookups
//! fold eight input bytes per step instead of one — a paper-scale
//! checkpoint is checksummed in about a quarter of the byte loop's time.

/// Slicing-by-8 lookup tables, built at compile time. `TABLES[0]` is
/// the classic byte-wise table.
const TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            k += 1;
        }
        i += 1;
    }
    tables
}

/// CRC32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use outage_types::rng::SmallRng;

    /// The byte-at-a-time definition the sliced loop must equal.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn known_vectors() {
        // The classic check value for "123456789".
        for (input, want) in [
            (&b"123456789"[..], 0xCBF4_3926),
            (b"", 0),
            (b"a", 0xE8B7_BE43),
        ] {
            assert_eq!(crc32(input), want);
            assert_eq!(crc32_bytewise(input), want);
        }
    }

    #[test]
    fn sliced_equals_bytewise() {
        let mut rng = SmallRng::seed_from_u64(0x5EED);
        let buf: Vec<u8> = (0..72).map(|_| rng.u8()).collect();
        // Every length 0..=64 at every alignment 0..8.
        for offset in 0..8 {
            for len in 0..=64 {
                let s = &buf[offset..offset + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "offset {offset} len {len}");
            }
        }
        for _ in 0..64 {
            let len = rng.gen_range(0..5_000usize);
            let s: Vec<u8> = (0..len).map(|_| rng.u8()).collect();
            assert_eq!(crc32(&s), crc32_bytewise(&s), "len {len}");
        }
    }

    #[test]
    fn every_single_bit_flip_changes_the_crc() {
        let base = b"passive outage model store".to_vec();
        let c0 = crc32(&base);
        for byte in 0..base.len() {
            for bit in 0..8 {
                let mut flipped = base.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), c0, "flip at {byte}:{bit} undetected");
            }
        }
    }
}
