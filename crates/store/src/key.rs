//! Stable content-addressed keys over a canonical byte encoding.
//!
//! A [`StoreKey`] is a 128-bit FNV-1a hash, taken over little-endian
//! `u64` words with the byte length mixed in last, of a canonical byte
//! stream fed through a [`KeyBuilder`]. The encoding rules keep keys
//! bit-stable across platforms, compiler versions, and thread counts:
//!
//! * `f64` values contribute their raw IEEE-754 bits (`f64::to_bits`),
//!   matching the `SweepCheckpoint` hex convention — two floats produce the
//!   same key contribution iff they are bit-identical;
//! * integers contribute fixed-width little-endian bytes;
//! * strings are length-prefixed so adjacent fields cannot alias
//!   (`"ab" + "c"` and `"a" + "bc"` hash differently).
//!
//! The hash is implemented in-crate (no external dependencies) and is *not*
//! cryptographic: it defends against accidental collisions in a result
//! cache, not against adversaries.

/// FNV-1a 128-bit offset basis.
const FNV_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;

/// FNV-1a 128-bit prime.
const FNV_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

/// Packs at most 8 bytes into a little-endian word, zero-padded, with at
/// most three loads and no per-byte loop: two overlapping 4-byte loads
/// cover 4–8 bytes, and the first, middle and last byte cover 1–3. An
/// overlapped byte lands at the same position from both loads, so OR-ing
/// them cannot change it.
#[inline]
fn le_word(bytes: &[u8]) -> u64 {
    let n = bytes.len();
    debug_assert!(n <= 8, "le_word packs at most one word");
    let lo32 = |at: usize| {
        let mut four = [0u8; 4];
        four.copy_from_slice(&bytes[at..at + 4]);
        u64::from(u32::from_le_bytes(four))
    };
    if n >= 4 {
        lo32(0) | lo32(n - 4) << (8 * (n - 4))
    } else if n > 0 {
        let byte = |at: usize| u64::from(bytes[at]) << (8 * at);
        byte(0) | byte(n / 2) | byte(n - 1)
    } else {
        0
    }
}

/// A stable 128-bit content hash identifying one store entry.
///
/// Rendered as 32 lowercase hex digits — the on-disk file stem and the
/// handle users pass to `replay <hash>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StoreKey(u128);

impl StoreKey {
    /// The raw 128-bit value.
    #[must_use]
    pub fn value(self) -> u128 {
        self.0
    }

    /// Renders the key as 32 lowercase hex digits.
    #[must_use]
    pub fn to_hex(self) -> String {
        format!("{:032x}", self.0)
    }

    /// Parses a key from exactly 32 hex digits (case-insensitive).
    #[must_use]
    pub fn from_hex(text: &str) -> Option<Self> {
        if text.len() != 32 || !text.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        u128::from_str_radix(text, 16).ok().map(Self)
    }
}

impl std::fmt::Display for StoreKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// Streaming builder for a [`StoreKey`].
///
/// The canonical byte stream is absorbed one little-endian `u64` word at
/// a time — one 128-bit multiply per 8 bytes rather than per byte. Bytes
/// that do not yet fill a word wait in a tail; [`finish`](Self::finish)
/// absorbs the zero-padded tail and then the stream's total byte length,
/// so padding cannot alias a stream that really ends in zero bytes. The
/// key depends only on the byte stream: how it is split across `push_*`
/// calls does not matter.
///
/// ```
/// use cordoba_store::KeyBuilder;
///
/// let mut k = KeyBuilder::new("op_time_sweep");
/// k.push_f64(1.5);
/// k.push_u64(29);
/// k.push_str("xr_5_kernels");
/// let key = k.finish();
/// assert_eq!(key.to_hex().len(), 32);
/// ```
#[derive(Debug, Clone)]
pub struct KeyBuilder {
    state: u128,
    /// Pending bytes, little-endian in the low `tail_len` bytes.
    tail: u64,
    /// Number of pending bytes in `tail`, always below 8.
    tail_len: usize,
    /// Total bytes fed so far.
    len: u64,
}

impl KeyBuilder {
    /// Starts a key stream for one entry kind; the kind participates in the
    /// hash so identical payloads under different kinds cannot collide.
    #[must_use]
    pub fn new(kind: &str) -> Self {
        let mut builder = Self {
            state: FNV_OFFSET,
            tail: 0,
            tail_len: 0,
            len: 0,
        };
        builder.push_str(kind);
        builder
    }

    /// One FNV-1a step over a whole word.
    #[inline]
    fn absorb(&mut self, word: u64) {
        self.state ^= u128::from(word);
        self.state = self.state.wrapping_mul(FNV_PRIME);
    }

    /// Feeds the low `n` bytes of `word` (`n <= 8`, higher bytes zero):
    /// they complete the pending tail, absorbing at most one word.
    #[inline]
    fn push_short(&mut self, word: u64, n: usize) {
        self.len = self.len.wrapping_add(n as u64);
        let shift = 8 * self.tail_len;
        let merged = self.tail | word << shift;
        let total = self.tail_len + n;
        if total < 8 {
            self.tail = merged;
            self.tail_len = total;
        } else {
            self.absorb(merged);
            // The bytes that did not fit; `>> 1 >> 63 - shift` is
            // `>> 64 - shift` without overflowing at `shift == 0`.
            self.tail = word >> 1 >> (63 - shift);
            self.tail_len = total - 8;
        }
    }

    /// Feeds raw bytes into the hash.
    pub fn push_bytes(&mut self, bytes: &[u8]) {
        if bytes.len() <= 8 {
            self.push_short(le_word(bytes), bytes.len());
            return;
        }
        self.len = self.len.wrapping_add(bytes.len() as u64);
        let mut rest = bytes;
        // Top up a partial tail first, so whole words stay aligned to the
        // stream rather than to this call.
        if self.tail_len > 0 {
            let (head, after) = rest.split_at(rest.len().min(8 - self.tail_len));
            self.tail |= le_word(head) << (8 * self.tail_len);
            self.tail_len += head.len();
            if self.tail_len < 8 {
                return;
            }
            let word = self.tail;
            self.absorb(word);
            rest = after;
        }
        let (words, tail) = rest.as_chunks::<8>();
        for word in words {
            self.absorb(u64::from_le_bytes(*word));
        }
        self.tail = le_word(tail);
        self.tail_len = tail.len();
    }

    /// Feeds a `u64` as 8 little-endian bytes.
    #[inline]
    pub fn push_u64(&mut self, value: u64) {
        self.len = self.len.wrapping_add(8);
        if self.tail_len == 0 {
            self.absorb(value);
        } else {
            // The value's low bytes complete the pending word and its high
            // bytes become the new tail, which keeps its length.
            let shift = 8 * self.tail_len;
            let word = self.tail | (value << shift);
            self.absorb(word);
            self.tail = value >> (64 - shift);
        }
    }

    /// Feeds an `f64` as its raw IEEE-754 bit pattern.
    #[inline]
    pub fn push_f64(&mut self, value: f64) {
        self.push_u64(value.to_bits());
    }

    /// Feeds a string, length-prefixed so field boundaries cannot alias.
    pub fn push_str(&mut self, value: &str) {
        self.push_u64(value.len() as u64);
        self.push_bytes(value.as_bytes());
    }

    /// Finalizes the stream into a [`StoreKey`].
    #[must_use]
    pub fn finish(mut self) -> StoreKey {
        if self.tail_len > 0 {
            let word = self.tail;
            self.absorb(word);
        }
        let len = self.len;
        self.absorb(len);
        StoreKey(self.state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_deterministic() {
        let build = || {
            let mut k = KeyBuilder::new("kind");
            k.push_f64(3.5);
            k.push_u64(7);
            k.push_str("name");
            k.finish()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn field_boundaries_do_not_alias() {
        let mut a = KeyBuilder::new("k");
        a.push_str("ab");
        a.push_str("c");
        let mut b = KeyBuilder::new("k");
        b.push_str("a");
        b.push_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn kind_participates_in_key() {
        let mut a = KeyBuilder::new("eval_space");
        a.push_u64(1);
        let mut b = KeyBuilder::new("op_time_sweep");
        b.push_u64(1);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn f64_keying_is_bit_exact() {
        let mut a = KeyBuilder::new("k");
        a.push_f64(0.0);
        let mut b = KeyBuilder::new("k");
        b.push_f64(-0.0);
        // +0.0 == -0.0 numerically but the bit patterns differ; canonical
        // encoding keys on bits, so these are distinct entries.
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn hex_round_trip() {
        let mut k = KeyBuilder::new("k");
        k.push_u64(42);
        let key = k.finish();
        let hex = key.to_hex();
        assert_eq!(hex.len(), 32);
        assert_eq!(StoreKey::from_hex(&hex), Some(key));
        assert_eq!(StoreKey::from_hex("zz"), None);
        assert_eq!(StoreKey::from_hex(&hex[..31]), None);
    }

    /// splitmix64 step for the seeded tests.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// The key is a function of the byte stream alone: feeding the same
    /// bytes through any mix of `push_bytes`, `push_u64` (at every offset
    /// 0–7 from a word boundary) and `push_str` gives one key.
    #[test]
    fn key_depends_on_the_stream_not_the_call_split() {
        let mut rng = 0x00c0_7d0b_a5ee_d000_u64;
        let mut u64_offsets = [false; 8];
        for trial in 0..300 {
            // Random calls, and the canonical byte stream they spell.
            let mut by_calls = KeyBuilder::new("k");
            let mut stream = Vec::new();
            for _ in 0..next(&mut rng) % 12 {
                let len = usize::try_from(next(&mut rng) % 13).expect("small");
                match next(&mut rng) % 3 {
                    0 => {
                        let value = next(&mut rng);
                        u64_offsets[stream.len() % 8] = true;
                        by_calls.push_u64(value);
                        stream.extend(value.to_le_bytes());
                    }
                    1 => {
                        let bytes: Vec<u8> = (0..len).map(|_| next(&mut rng) as u8).collect();
                        by_calls.push_bytes(&bytes);
                        stream.extend(&bytes);
                    }
                    _ => {
                        let text: String = (0..len)
                            .map(|_| char::from(b'a' + (next(&mut rng) % 26) as u8))
                            .collect();
                        by_calls.push_str(&text);
                        stream.extend((text.len() as u64).to_le_bytes());
                        stream.extend(text.as_bytes());
                    }
                }
            }
            let reference = by_calls.finish();

            let mut whole = KeyBuilder::new("k");
            whole.push_bytes(&stream);
            assert_eq!(whole.finish(), reference, "trial {trial}: one push");

            let mut by_byte = KeyBuilder::new("k");
            for &byte in &stream {
                by_byte.push_bytes(&[byte]);
            }
            assert_eq!(by_byte.finish(), reference, "trial {trial}: byte-wise");

            let mut by_chunk = KeyBuilder::new("k");
            let mut rest = stream.as_slice();
            while !rest.is_empty() {
                let take = usize::try_from(next(&mut rng) % 20).expect("small");
                let (piece, tail) = rest.split_at(take.min(rest.len()));
                by_chunk.push_bytes(piece);
                rest = tail;
            }
            assert_eq!(by_chunk.finish(), reference, "trial {trial}: chunked");
        }
        assert_eq!(u64_offsets, [true; 8], "push_u64 reached every offset");
    }

    #[test]
    fn trailing_zero_bytes_change_the_key() {
        let mut a = KeyBuilder::new("k");
        a.push_bytes(b"ab");
        let mut b = KeyBuilder::new("k");
        b.push_bytes(b"ab\0");
        let mut c = KeyBuilder::new("k");
        c.push_bytes(b"ab\0\0\0\0\0\0");
        let (a, b, c) = (a.finish(), b.finish(), c.finish());
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }

    /// Pins the key of one fixed stream. Every stored entry is filed under
    /// its key, so changing this value orphans every entry already on disk:
    /// warm lookups derive the new key and recompute, and only
    /// `cache evict` reclaims the old files.
    #[test]
    fn golden_key_is_stable() {
        let mut k = KeyBuilder::new("op_time_sweep");
        k.push_f64(1.5);
        k.push_u64(29);
        k.push_str("xr_5_kernels");
        k.push_f64(-0.0);
        k.push_bytes(&[1, 2, 3]);
        assert_eq!(k.finish().to_hex(), "506c36430dce9c7c0d6b3c7eb1130542");
    }
}
