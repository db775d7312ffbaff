//! The one stable hasher: cache keys, artifact checksums, image
//! fingerprints and symbol interning all go through [`StableHasher`].
//!
//! The value depends only on the sequence of writes — not on the process,
//! the host's endianness or its pointer width — so it can name files that
//! outlive the binary that wrote them. Changing anything here changes every
//! persisted key: bump `crate::diskcache::FORMAT_VERSION` with it (the
//! constants are pinned by `crates/llvm/tests/stable_key.rs`).
//!
//! Every step is a folded 64×64→128 multiply (the wyhash/rapidhash "mum"),
//! which diffuses each input bit over the whole state: the caches trust the
//! 64-bit key without comparing content, so a cheaper rotate-xor-multiply
//! mix is not good enough. Integer writes consume one word per step; byte
//! slices take eight bytes per step, over four independent lanes once the
//! slice is long enough for throughput to matter.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

const SEED: u64 = 0x2d35_8dcc_aa6c_78a5;
/// Odd multipliers (rapidhash's secrets): one for the word stream, one per
/// extra lane, one for the final mix.
const K: [u64; 5] = [
    0x8bb8_4b93_962e_acc9,
    0x4b33_a62e_d433_d4a3,
    0x4d5a_2da5_1de1_aa47,
    0xa076_1d64_78bd_642f,
    0xe703_7ed1_a0b4_28db,
];
/// Bytes consumed per round of the four-lane loop.
const WIDE: usize = 32;

#[inline(always)]
fn mum(a: u64, b: u64) -> u64 {
    let r = (a as u128) * (b as u128);
    (r as u64) ^ ((r >> 64) as u64)
}

#[inline(always)]
fn le64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b.try_into().expect("8-byte chunk"))
}

/// Deterministic 64-bit hasher, usable wherever a [`Hasher`] is.
#[derive(Clone, Debug)]
pub struct StableHasher {
    /// The lane the next word goes to, and the one after it.
    a: u64,
    b: u64,
}

impl StableHasher {
    /// A hasher in its fixed initial state.
    #[inline]
    pub fn new() -> StableHasher {
        StableHasher {
            a: SEED,
            b: SEED ^ K[1],
        }
    }

    /// The hash of one byte slice on its own.
    #[inline]
    pub fn hash_bytes(bytes: &[u8]) -> u64 {
        let mut h = StableHasher::new();
        h.write(bytes);
        h.finish()
    }
}

impl Default for StableHasher {
    fn default() -> StableHasher {
        StableHasher::new()
    }
}

impl Hasher for StableHasher {
    #[inline]
    fn finish(&self) -> u64 {
        mum(mum(self.a ^ K[4], K[1]) ^ self.b, K[2])
    }

    /// Full words first (four lanes while at least `WIDE` bytes remain),
    /// then the zero-padded tail and the length, so no two slices feed the
    /// same word stream.
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut rest = bytes;
        if rest.len() >= WIDE {
            let mut lanes = [self.a, self.b, self.a ^ K[2], self.b ^ K[3]];
            while rest.len() >= WIDE {
                for (i, lane) in lanes.iter_mut().enumerate() {
                    *lane = mum(*lane ^ le64(&rest[8 * i..8 * i + 8]), K[i]);
                }
                rest = &rest[WIDE..];
            }
            (self.a, self.b) = (lanes[0], lanes[1]);
            self.write_u64(lanes[2]);
            self.write_u64(lanes[3]);
        }
        while rest.len() >= 8 {
            self.write_u64(le64(&rest[..8]));
            rest = &rest[8..];
        }
        if !rest.is_empty() {
            let tail = rest.iter().rev().fold(0, |w, &b| w << 8 | b as u64);
            self.write_u64(tail);
        }
        self.write_u64(bytes.len() as u64);
    }

    #[inline(always)]
    fn write_u64(&mut self, v: u64) {
        (self.a, self.b) = (self.b, mum(self.a ^ v, K[0]));
    }

    // Every integer is widened to one word, so a `usize` hashes like the
    // `u64` of the same value on every host.
    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.write_u64(v as u64);
    }
    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.write_u64(v as u64);
    }
    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.write_u64(v as u64);
    }
    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
    #[inline]
    fn write_i8(&mut self, v: i8) {
        self.write_u64(v as i64 as u64);
    }
    #[inline]
    fn write_i16(&mut self, v: i16) {
        self.write_u64(v as i64 as u64);
    }
    #[inline]
    fn write_i32(&mut self, v: i32) {
        self.write_u64(v as i64 as u64);
    }
    #[inline]
    fn write_i64(&mut self, v: i64) {
        self.write_u64(v as u64);
    }
    #[inline]
    fn write_isize(&mut self, v: isize) {
        self.write_u64(v as i64 as u64);
    }
}

/// A map keyed by a [`StableHasher`] result. The key is already mixed, so
/// it is its own hash: a lookup pays no second hash.
pub(crate) type KeyMap<V> = HashMap<u64, V, BuildHasherDefault<KeyIsHash>>;

/// The pass-through hasher of [`KeyMap`].
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct KeyIsHash(u64);

impl Hasher for KeyIsHash {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("KeyMap keys are u64");
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = v;
    }
}
