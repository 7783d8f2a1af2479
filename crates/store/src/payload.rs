//! Values: real bytes for correctness tests, synthetic descriptors for
//! terabyte-scale experiments.

use core::fmt;

/// Cheaply-clonable immutable byte buffer.
///
/// A stand-in for the external `bytes::Bytes` type (which cannot be fetched
/// in offline builds): an `Arc<[u8]>` clones by reference-count bump,
/// derefs to `&[u8]`, and converts from `Vec<u8>`/`&[u8]` — everything the
/// store and engine need from a shared value buffer.
pub type Bytes = std::sync::Arc<[u8]>;

/// FNV-1a 64-bit hash: the *key* hash.
///
/// Used for consistent hashing and placement, the scrambled-Zipfian rank
/// spread, repair rotation and synthetic value seeds: short inputs where
/// its byte-serial loop is cheap. Value bytes are digested with
/// [`value_digest`] instead.
///
/// ```
/// assert_ne!(eckv_store::fnv1a_64(b"a"), eckv_store::fnv1a_64(b"b"));
/// assert_eq!(eckv_store::fnv1a_64(b""), 0xcbf29ce484222325);
/// ```
pub fn fnv1a_64(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;
const P5: u64 = 0x27D4_EB2F_1656_67C5;

/// Bytes consumed per round: one little-endian `u64` word per lane.
const BLOCK: usize = 32;

fn round(acc: u64, word: u64) -> u64 {
    acc.wrapping_add(word.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

fn merge_round(acc: u64, lane: u64) -> u64 {
    (acc ^ round(0, lane)).wrapping_mul(P1).wrapping_add(P4)
}

fn word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("an 8-byte word"))
}

/// Streaming value digest (XXH64 with seed 0): four `u64` lanes consume
/// 32-byte blocks word-at-a-time, so a digest costs about one pass over
/// the bytes rather than one multiply per byte.
///
/// The result does not depend on how the input is split between
/// [`update`](ValueHasher::update) calls, so a value can be digested
/// straight from its erasure-coded data shards without being joined.
///
/// ```
/// use eckv_store::{value_digest, ValueHasher};
///
/// let mut h = ValueHasher::new();
/// h.update(b"hello, ");
/// h.update(b"world");
/// assert_eq!(h.finish(), value_digest(b"hello, world"));
/// ```
#[derive(Debug, Clone)]
pub struct ValueHasher {
    lanes: [u64; 4],
    /// Bytes not yet consumed by a full block.
    buf: [u8; BLOCK],
    buf_len: usize,
    total_len: u64,
}

impl Default for ValueHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl ValueHasher {
    /// A hasher over the empty input.
    pub fn new() -> Self {
        ValueHasher {
            lanes: [P1.wrapping_add(P2), P2, 0, 0u64.wrapping_sub(P1)],
            buf: [0; BLOCK],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// Runs every whole block of `data` through the lanes; returns the
    /// unconsumed tail.
    fn consume<'a>(lanes: &mut [u64; 4], data: &'a [u8]) -> &'a [u8] {
        let [mut v1, mut v2, mut v3, mut v4] = *lanes;
        let mut blocks = data.chunks_exact(BLOCK);
        for b in &mut blocks {
            v1 = round(v1, word(&b[0..8]));
            v2 = round(v2, word(&b[8..16]));
            v3 = round(v3, word(&b[16..24]));
            v4 = round(v4, word(&b[24..32]));
        }
        *lanes = [v1, v2, v3, v4];
        blocks.remainder()
    }

    /// Appends `data` to the digested input.
    pub fn update(&mut self, mut data: &[u8]) {
        self.total_len += data.len() as u64;
        if self.buf_len > 0 {
            let take = (BLOCK - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len < BLOCK {
                return;
            }
            Self::consume(&mut self.lanes, &self.buf);
            self.buf_len = 0;
        }
        let tail = Self::consume(&mut self.lanes, data);
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    /// The digest of everything passed to [`update`](ValueHasher::update).
    pub fn finish(&self) -> u64 {
        let [v1, v2, v3, v4] = self.lanes;
        let mut h = if self.total_len >= BLOCK as u64 {
            let h = v1
                .rotate_left(1)
                .wrapping_add(v2.rotate_left(7))
                .wrapping_add(v3.rotate_left(12))
                .wrapping_add(v4.rotate_left(18));
            [v1, v2, v3, v4].into_iter().fold(h, merge_round)
        } else {
            P5
        };
        h = h.wrapping_add(self.total_len);
        let mut tail = &self.buf[..self.buf_len];
        while tail.len() >= 8 {
            h = (h ^ round(0, word(&tail[..8])))
                .rotate_left(27)
                .wrapping_mul(P1)
                .wrapping_add(P4);
            tail = &tail[8..];
        }
        if tail.len() >= 4 {
            let w = u32::from_le_bytes(tail[..4].try_into().expect("a 4-byte word"));
            h = (h ^ u64::from(w).wrapping_mul(P1))
                .rotate_left(23)
                .wrapping_mul(P2)
                .wrapping_add(P3);
            tail = &tail[4..];
        }
        for &b in tail {
            h = (h ^ u64::from(b).wrapping_mul(P5))
                .rotate_left(11)
                .wrapping_mul(P1);
        }
        h ^= h >> 33;
        h = h.wrapping_mul(P2);
        h ^= h >> 29;
        h = h.wrapping_mul(P3);
        h ^ (h >> 32)
    }
}

/// One-shot [`ValueHasher`] digest of `data`: the end-to-end integrity
/// digest of inline values.
///
/// ```
/// assert_eq!(eckv_store::value_digest(b""), 0xef46_db37_51d8_e999);
/// ```
pub fn value_digest(data: &[u8]) -> u64 {
    let mut h = ValueHasher::new();
    h.update(data);
    h.finish()
}

/// A key-value store value.
///
/// Large-scale simulations (Figures 10–13 move tens of gigabytes) cannot
/// hold real bytes in host memory, so a value is either:
///
/// * [`Payload::Inline`] — actual bytes (used by unit/integration tests and
///   small experiments, where shards are really encoded and decoded), or
/// * [`Payload::Synthetic`] — a `(len, digest)` descriptor that flows
///   through exactly the same code paths and is integrity-checked by
///   digest comparison on reads.
///
/// # Example
///
/// ```
/// use eckv_store::Payload;
///
/// let real = Payload::inline(vec![7u8; 100]);
/// let synth = Payload::synthetic(100, 42);
/// assert_eq!(real.len(), synth.len());
/// assert_ne!(real.digest(), synth.digest());
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub enum Payload {
    /// Actual value bytes.
    Inline(Bytes),
    /// Descriptor of a value that exists only logically.
    Synthetic {
        /// Logical length in bytes.
        len: u64,
        /// Integrity digest (stands in for the [`value_digest`] of the real
        /// bytes).
        digest: u64,
    },
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Payload::Inline(b) => write!(f, "Payload::Inline({} bytes)", b.len()),
            Payload::Synthetic { len, digest } => {
                write!(f, "Payload::Synthetic({len} bytes, digest={digest:#x})")
            }
        }
    }
}

impl Payload {
    /// Wraps real bytes.
    pub fn inline(bytes: impl Into<Bytes>) -> Self {
        Payload::Inline(bytes.into())
    }

    /// Creates a synthetic value of `len` bytes whose digest is derived
    /// from `seed` (deterministic; distinct seeds give distinct digests).
    pub fn synthetic(len: u64, seed: u64) -> Self {
        Payload::Synthetic {
            len,
            digest: fnv1a_64(&seed.to_le_bytes()),
        }
    }

    /// Logical length in bytes.
    pub fn len(&self) -> u64 {
        match self {
            Payload::Inline(b) => b.len() as u64,
            Payload::Synthetic { len, .. } => *len,
        }
    }

    /// Returns `true` for a zero-length value.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Integrity digest: [`value_digest`] of the bytes for inline values,
    /// the stored digest for synthetic ones.
    pub fn digest(&self) -> u64 {
        match self {
            Payload::Inline(b) => value_digest(b),
            Payload::Synthetic { digest, .. } => *digest,
        }
    }

    /// The real bytes, if this value is inline.
    pub fn as_bytes(&self) -> Option<&Bytes> {
        match self {
            Payload::Inline(b) => Some(b),
            Payload::Synthetic { .. } => None,
        }
    }

    /// Derives the payload for erasure-coded shard `index` of this value,
    /// given the shard length. For synthetic values the shard digest mixes
    /// the parent digest and index, so misplaced shards are detectable.
    pub fn shard(&self, index: usize, shard_len: u64) -> Payload {
        match self {
            Payload::Inline(_) => {
                unreachable!("inline values are sharded by the erasure codec, not here")
            }
            Payload::Synthetic { digest, .. } => Payload::Synthetic {
                len: shard_len,
                digest: digest
                    .rotate_left(index as u32 + 1)
                    .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(index as u64 + 1)),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_known_vectors() {
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x85944171f73967e8);
    }

    /// Deterministic non-repeating test bytes.
    fn bytes(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 131 + 17) as u8).collect()
    }

    #[test]
    fn value_digest_matches_known_vectors() {
        assert_eq!(value_digest(b""), 0xef46_db37_51d8_e999);
        assert_eq!(value_digest(b"a"), 0xd24e_c4f1_a98c_6e5b);
        assert_eq!(value_digest(b"abc"), 0x44bc_2cf5_ad77_0999);
        assert_eq!(
            value_digest(b"Nobody inspects the spammish repetition"),
            0xfbce_a83c_8a37_8bf1
        );
        assert_eq!(value_digest(&bytes(1000)), 0x9fb3_251b_ef67_c2b5);
    }

    #[test]
    fn value_digest_is_split_invariant() {
        for len in [0usize, 1, 31, 32, 33, 100, 1000] {
            let data = bytes(len);
            let whole = value_digest(&data);
            for cut in 0..=len {
                let mut h = ValueHasher::new();
                h.update(&data[..cut]);
                h.update(&data[cut..]);
                assert_eq!(h.finish(), whole, "len={len} cut={cut}");
            }
            // The three-way splits a k=3 stripe makes at its shard
            // boundaries.
            let shard = len.div_ceil(3);
            let (a, b) = (shard.min(len), (2 * shard).min(len));
            let mut h = ValueHasher::new();
            for part in [&data[..a], &data[a..b], &data[b..]] {
                h.update(part);
            }
            assert_eq!(h.finish(), whole, "len={len} three-way");
        }
    }

    #[test]
    fn value_digest_detects_every_single_bit_flip() {
        let data = bytes(256);
        let clean = value_digest(&data);
        for bit in 0..data.len() * 8 {
            let mut flipped = data.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(value_digest(&flipped), clean, "bit {bit}");
        }
    }

    #[test]
    fn inline_digest_tracks_contents() {
        let a = Payload::inline(vec![1, 2, 3]);
        let b = Payload::inline(vec![1, 2, 4]);
        assert_ne!(a.digest(), b.digest());
        assert_eq!(a.digest(), Payload::inline(vec![1, 2, 3]).digest());
        assert_eq!(a.digest(), value_digest(&[1, 2, 3]));
    }

    #[test]
    fn synthetic_seeds_differentiate() {
        let a = Payload::synthetic(1024, 1);
        let b = Payload::synthetic(1024, 2);
        assert_eq!(a.len(), b.len());
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn shards_of_synthetic_values_are_distinct() {
        let v = Payload::synthetic(3000, 99);
        let s0 = v.shard(0, 1000);
        let s1 = v.shard(1, 1000);
        assert_eq!(s0.len(), 1000);
        assert_ne!(s0.digest(), s1.digest());
        assert_ne!(s0.digest(), v.digest());
    }

    #[test]
    fn empty_and_debug() {
        assert!(Payload::inline(Vec::new()).is_empty());
        assert!(!Payload::synthetic(1, 0).is_empty());
        let s = format!("{:?}", Payload::synthetic(5, 1));
        assert!(s.contains("Synthetic"));
    }
}
