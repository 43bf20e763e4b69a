//! CRC-32 (IEEE 802.3, the LevelDB/zlib polynomial) for on-disk frame
//! and page checksums.
//!
//! Hand-rolled because the workspace is dependency-free. This *is* on
//! the query path: a verified attach checks every page the buffer pool
//! reads, so each pool miss runs `crc32` over 8 KiB before the page is
//! served (DESIGN §14 has the measured miss breakdown), and save, open,
//! verify and the WAL checksum every frame they touch. The kernel is
//! therefore slicing-by-16: sixteen 256-entry tables built at compile
//! time fold sixteen input bytes per step with independent lookups, and
//! the classic one-lookup-per-byte loop survives only for the tail of
//! fewer than sixteen bytes. Safe code, one path on every CPU — the
//! SSE4.2 `crc32` instruction computes a different polynomial (CRC-32C)
//! and would be a format change.

/// Streaming CRC-32 state.
///
/// ```
/// use fix_storage::Crc32;
/// let mut c = Crc32::new();
/// c.update(b"1234");
/// c.update(b"56789");
/// assert_eq!(c.finalize(), 0xCBF4_3926); // the standard check value
/// ```
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

/// Input bytes folded per step of the sliced kernel.
const SLICES: usize = 16;

/// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k][b]` is the
/// CRC of byte `b` followed by `k` zero bytes, which is what lets one
/// step fold `SLICES` bytes with independent lookups.
const fn build_tables() -> [[u32; 256]; SLICES] {
    let mut tables = [[0u32; 256]; SLICES];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < SLICES {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        t += 1;
    }
    tables
}

static TABLES: [[u32; 256]; SLICES] = build_tables();

/// One table lookup per byte: the tail of the sliced kernel (and the
/// reference its tests compare against).
fn update_bytewise(mut s: u32, data: &[u8]) -> u32 {
    for &b in data {
        s = TABLES[0][((s ^ b as u32) & 0xFF) as usize] ^ (s >> 8);
    }
    s
}

impl Crc32 {
    /// Fresh state.
    pub fn new() -> Self {
        Self { state: 0xFFFF_FFFF }
    }

    /// Feeds `data` into the checksum.
    pub fn update(&mut self, data: &[u8]) {
        let mut s = self.state;
        let mut blocks = data.chunks_exact(SLICES);
        for block in &mut blocks {
            // The running state folds into the first four bytes; byte `i`
            // of the block is `SLICES - 1 - i` bytes from the block's end.
            let head = s ^ u32::from_le_bytes([block[0], block[1], block[2], block[3]]);
            s = 0;
            for (i, &b) in head.to_le_bytes().iter().chain(&block[4..]).enumerate() {
                s ^= TABLES[SLICES - 1 - i][b as usize];
            }
        }
        self.state = update_bytewise(s, blocks.remainder());
    }

    /// The checksum of everything fed so far (does not consume the state;
    /// further updates continue from the same position).
    pub fn finalize(&self) -> u32 {
        !self.state
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

/// One-shot CRC-32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(data);
    c.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn standard_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    /// The parent kernel, one table lookup per byte over the whole input.
    fn reference(data: &[u8]) -> u32 {
        !update_bytewise(0xFFFF_FFFF, data)
    }

    fn random_bytes(len: usize, seed: u64) -> Vec<u8> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..len).map(|_| rng.gen()).collect()
    }

    #[test]
    fn published_vectors_that_span_whole_blocks() {
        // Longer than one sliced step, so (unlike the 9-byte check value)
        // these cannot pass through the tail loop alone.
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
        assert_eq!(crc32(&[0u8; 32]), 0x190A_55AD);
        assert_eq!(crc32(&[0xFFu8; 32]), 0xFF6C_AB0B);
    }

    #[test]
    fn sliced_kernel_equals_the_byte_loop_at_every_length_and_offset() {
        let backing = random_bytes(8192 + SLICES, 1);
        for len in (0..=300).chain([8192]) {
            for start in 0..SLICES {
                let data = &backing[start..start + len];
                assert_eq!(crc32(data), reference(data), "len {len} at offset {start}");
            }
        }
    }

    #[test]
    fn every_two_way_split_streams_to_the_one_shot_value() {
        for len in [0, 1, 15, 16, 17, 100, 300] {
            let data = random_bytes(len, len as u64);
            let want = reference(&data);
            for cut in 0..=len {
                let mut c = Crc32::new();
                c.update(&data[..cut]);
                c.update(&data[cut..]);
                assert_eq!(c.finalize(), want, "len {len} split at {cut}");
            }
        }
    }

    #[test]
    fn empty_and_incremental() {
        assert_eq!(crc32(b""), 0);
        let mut c = Crc32::new();
        c.update(b"hello ");
        c.update(b"world");
        assert_eq!(c.finalize(), crc32(b"hello world"));
    }

    #[test]
    fn detects_single_byte_flips() {
        let base = b"the quick brown fox jumps over the lazy dog".to_vec();
        let want = crc32(&base);
        for i in 0..base.len() {
            for flip in [0x01u8, 0x80, 0xFF] {
                let mut m = base.clone();
                m[i] ^= flip;
                assert_ne!(crc32(&m), want, "flip {flip:#x} at {i} undetected");
            }
        }
    }
}
