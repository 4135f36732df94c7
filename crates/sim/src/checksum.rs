//! Shared checksums for framed transports.
//!
//! The reliable-RMI layer (`osss-vta`) and the native network decode
//! server (`jpeg2000::net`) both frame their payloads with the same
//! CRC-32 trailer; this module is the single implementation both link
//! against, so the simulated transport and the real wire protocol are
//! checked by literally the same code — the refinement story the paper
//! tells for communication, applied to the checksum itself.
//!
//! ## Algorithm
//!
//! [`crc32`] is the table-driven reflected CRC-32 computed
//! *slice-by-16*: sixteen 256-entry `u32` tables (16 KiB), built at
//! compile time, fold sixteen input bytes per step with sixteen
//! independent lookups instead of a sixteen-long dependency chain of
//! one-byte steps; the last `len % 16` bytes go through the classic
//! bytewise loop on the first table. Table `k` maps a byte to the CRC
//! of that byte followed by `k` zero bytes, so the XOR of the sixteen
//! lookups is exactly the CRC state the bytewise loop reaches after the
//! same sixteen bytes — the values are unchanged, bit for bit, and the
//! tests check that against a bytewise oracle at every alignment.

/// Reflected IEEE 802.3 polynomial.
const POLY: u32 = 0xEDB8_8320;

/// The slice-by-16 tables: `T[0]` is the bytewise table, and
/// `T[k][i] = (T[k-1][i] >> 8) ^ T[0][T[k-1][i] & 0xFF]` advances an
/// entry by one more zero byte.
const fn crc32_tables() -> [[u32; 256]; 16] {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

static CRC32_TABLES: [[u32; 256]; 16] = crc32_tables();

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) over `data`.
///
/// This is the checksum both the reliable-RMI frame trailer and the
/// network decode protocol carry; the receiver recomputes it over the
/// payload and rejects the frame on mismatch. Same algorithm as
/// Ethernet/zip, so `crc32(b"123456789") == 0xCBF4_3926`.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut blocks = data.chunks_exact(16);
    for block in &mut blocks {
        let b: &[u8; 16] = block.try_into().expect("16-byte block");
        let lo = crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        crc = t[15][(lo & 0xFF) as usize]
            ^ t[14][((lo >> 8) & 0xFF) as usize]
            ^ t[13][((lo >> 16) & 0xFF) as usize]
            ^ t[12][(lo >> 24) as usize]
            ^ t[11][b[4] as usize]
            ^ t[10][b[5] as usize]
            ^ t[9][b[6] as usize]
            ^ t[8][b[7] as usize]
            ^ t[7][b[8] as usize]
            ^ t[6][b[9] as usize]
            ^ t[5][b[10] as usize]
            ^ t[4][b[11] as usize]
            ^ t[3][b[12] as usize]
            ^ t[2][b[13] as usize]
            ^ t[1][b[14] as usize]
            ^ t[0][b[15] as usize];
    }
    for &b in blocks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time loop: one table lookup per input byte.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc = (crc >> 8) ^ CRC32_TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    /// A fixed pseudo-random buffer (64-bit LCG, high byte).
    fn noise(len: usize) -> Vec<u8> {
        let mut s = 0x2008_u64;
        (0..len)
            .map(|_| {
                s = s
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (s >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_detects_any_single_bit_flip() {
        let data: Vec<u8> = (0u32..64).map(|i| (i * 37 % 251) as u8).collect();
        let good = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut bad = data.clone();
                bad[byte] ^= 1 << bit;
                assert_ne!(crc32(&bad), good, "flip at {byte}.{bit} undetected");
            }
        }
    }

    #[test]
    fn sliced_crc32_equals_the_bytewise_oracle() {
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        let data = noise(16 + 80);
        for start in 0..16 {
            for len in 0..=80 {
                let s = &data[start..start + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "offset {start}, length {len}");
            }
        }
        let big = noise(4096 + 13);
        assert_eq!(crc32(&big), crc32_bytewise(&big));
    }
}
