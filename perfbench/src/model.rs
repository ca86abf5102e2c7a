//! The benchmark's own model of the file tree, and the seeded generators
//! behind it.
//!
//! A file's bytes are a pure function of (file id, write generation,
//! offset), so the model stores extents, not data: checking a read costs
//! one pattern evaluation per 8 bytes.  Each file has exactly one writing
//! thread, which owns its model entry, so the model needs no locking while
//! directories stay shared.

use std::collections::BTreeMap;

/// SplitMix64: small, fast, and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    /// A generator for stream `stream` of `seed` (one per thread and use).
    pub fn stream(seed: u64, stream: u64) -> Rng {
        Rng::new(mix(seed ^ mix(stream.wrapping_add(1))))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `[lo, hi]`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn pattern_word(id: u64, generation: u64, word: u64) -> u64 {
    mix(id.wrapping_mul(0xA24B_AED4_963E_E407) ^ generation.rotate_left(40) ^ mix(word))
}

/// Fills `buf` with the bytes a file `id` holds at `offset..` when written
/// at `generation`.
pub fn fill(buf: &mut [u8], id: u64, generation: u64, offset: u64) {
    let mut pos = offset;
    let mut i = 0;
    while i < buf.len() {
        let word = pattern_word(id, generation, pos / 8).to_le_bytes();
        let lane = (pos % 8) as usize;
        let take = (8 - lane).min(buf.len() - i);
        buf[i..i + take].copy_from_slice(&word[lane..lane + take]);
        i += take;
        pos += take as u64;
    }
}

/// One contiguous range of a file written at one generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Extent {
    start: u64,
    len: u64,
    generation: u64,
}

/// The model of one regular file.
#[derive(Debug, Clone)]
pub struct FileModel {
    pub id: u64,
    pub path: String,
    /// Size a replacement of the file is written at (fileserver keeps its
    /// live data constant).
    pub slot_size: u64,
    extents: Vec<Extent>,
    next_generation: u64,
}

impl FileModel {
    pub fn new(id: u64, path: String, slot_size: u64) -> FileModel {
        FileModel { id, path, slot_size, extents: Vec::new(), next_generation: 1 }
    }

    pub fn size(&self) -> u64 {
        self.extents.last().map_or(0, |e| e.start + e.len)
    }

    /// Records a whole-file write of `len` bytes and returns the data.
    pub fn rewrite(&mut self, len: u64) -> Vec<u8> {
        self.extents.clear();
        self.append(len)
    }

    /// Records an append of `len` bytes and returns the data.
    pub fn append(&mut self, len: u64) -> Vec<u8> {
        let generation = self.next_generation;
        self.next_generation += 1;
        let start = self.size();
        let mut data = vec![0u8; len as usize];
        fill(&mut data, self.id, generation, start);
        self.extents.push(Extent { start, len, generation });
        data
    }

    /// Index of the first byte of `data` (read from offset 0) that differs
    /// from the model, or `None` when `data` is exactly the file.
    pub fn first_mismatch(&self, data: &[u8]) -> Option<u64> {
        if data.len() as u64 != self.size() {
            return Some(data.len().min(self.size() as usize) as u64);
        }
        let mut expect = Vec::new();
        for e in &self.extents {
            expect.resize(e.len as usize, 0);
            fill(&mut expect, self.id, e.generation, e.start);
            let got = &data[e.start as usize..(e.start + e.len) as usize];
            if let Some(i) = got.iter().zip(&expect).position(|(a, b)| a != b) {
                return Some(e.start + i as u64);
            }
        }
        None
    }

    /// The file's first `len` bytes as the model has them (negative
    /// controls use this to find the file's first data block on a device).
    pub fn head(&self, len: usize) -> Vec<u8> {
        let e = self.extents.first().expect("file has data");
        let mut data = vec![0u8; len.min(e.len as usize)];
        fill(&mut data, self.id, e.generation, 0);
        data
    }
}

/// What the tree should hold: every directory and every file by path.
#[derive(Debug, Default)]
pub struct TreeModel {
    pub dirs: Vec<String>,
    pub files: BTreeMap<String, FileModel>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern_depends_on_offset_only_through_position() {
        let mut whole = vec![0u8; 100];
        fill(&mut whole, 7, 3, 5);
        let mut tail = vec![0u8; 60];
        fill(&mut tail, 7, 3, 45);
        assert_eq!(&whole[40..], &tail[..]);
    }

    #[test]
    fn model_checks_appends_and_rewrites() {
        let mut f = FileModel::new(1, "/a".into(), 10);
        let mut data = f.rewrite(10);
        data.extend(f.append(7));
        assert_eq!(f.size(), 17);
        assert_eq!(f.first_mismatch(&data), None);
        data[12] ^= 1;
        assert_eq!(f.first_mismatch(&data), Some(12));
        assert_eq!(f.first_mismatch(&data[..16]), Some(16));
        let fresh = f.rewrite(4);
        assert_eq!(f.first_mismatch(&fresh), None);
    }

    #[test]
    fn same_seed_same_stream() {
        let a: Vec<u64> = (0..4).map(|_| Rng::stream(9, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::stream(9, 1).next_u64(), Rng::stream(9, 2).next_u64());
    }
}
