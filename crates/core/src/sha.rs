//! SHA-256 and HMAC-SHA-256, the signing and sealing substrate for
//! licenses, watermarks, bundle digests and sealed payloads.
//!
//! The paper defers to "a variety of web-based security measures"; a
//! keyed MAC is the minimal such measure that lets a vendor issue
//! unforgeable capability licenses. Implemented in-repo per the
//! reproduction's no-new-dependencies rule (FIPS 180-4, RFC 2104).
//!
//! [`Sha256`] is a streaming hasher: whole 64-byte blocks are
//! compressed straight from the caller's slices and only a partial
//! block is buffered, so digesting a netlist or a bundle never copies
//! it. [`HmacSha256`] absorbs the key's ipad and opad blocks once and
//! keeps both midstates, so every MAC under that key costs only the
//! compressions of its own message plus one outer block. The one-shot
//! [`sha256`], [`sha256_parts`] and [`hmac_sha256`] are thin wrappers
//! over the two.

/// SHA-256 input block size in bytes.
const BLOCK: usize = 64;

/// The FIPS 180-4 initial hash value.
const H0: [u32; 8] = [
    0x6a09_e667,
    0xbb67_ae85,
    0x3c6e_f372,
    0xa54f_f53a,
    0x510e_527f,
    0x9b05_688c,
    0x1f83_d9ab,
    0x5be0_cd19,
];

/// An incremental SHA-256 computation.
#[derive(Clone)]
pub(crate) struct Sha256 {
    state: [u32; 8],
    /// The buffered tail of the message: `block[..filled]`.
    block: [u8; BLOCK],
    filled: usize,
    /// Message bytes absorbed so far.
    length: u64,
}

impl Sha256 {
    /// Starts a digest of the empty message.
    #[must_use]
    pub(crate) fn new() -> Self {
        Sha256 {
            state: H0,
            block: [0; BLOCK],
            filled: 0,
            length: 0,
        }
    }

    /// Absorbs `data`. Whole blocks are compressed in place; only a
    /// trailing partial block is copied into the hasher.
    pub(crate) fn update(&mut self, mut data: &[u8]) {
        self.length = self.length.wrapping_add(data.len() as u64);
        if self.filled > 0 {
            let take = (BLOCK - self.filled).min(data.len());
            self.block[self.filled..self.filled + take].copy_from_slice(&data[..take]);
            self.filled += take;
            data = &data[take..];
            if self.filled < BLOCK {
                return;
            }
            compress(&mut self.state, &self.block);
            self.filled = 0;
        }
        let mut blocks = data.chunks_exact(BLOCK);
        for block in &mut blocks {
            compress(&mut self.state, block.try_into().expect("64-byte chunk"));
        }
        let rest = blocks.remainder();
        self.block[..rest.len()].copy_from_slice(rest);
        self.filled = rest.len();
    }

    /// Absorbs one part of a [`sha256_parts`] message: its length as a
    /// 64-bit little-endian prefix, then its bytes.
    pub(crate) fn update_part(&mut self, part: &[u8]) {
        self.update(&(part.len() as u64).to_le_bytes());
        self.update(part);
    }

    /// Pads the message (0x80, zeros, 64-bit big-endian bit length)
    /// and returns its digest.
    #[must_use]
    pub(crate) fn finalize(mut self) -> [u8; 32] {
        let bit_len = self.length.wrapping_mul(8);
        let mut pad = [0u8; BLOCK];
        pad[0] = 0x80;
        let pad_len = if self.filled < 56 {
            56 - self.filled
        } else {
            120 - self.filled
        };
        self.update(&pad[..pad_len]);
        self.update(&bit_len.to_be_bytes());
        debug_assert_eq!(self.filled, 0);
        let mut out = [0u8; 32];
        for (bytes, word) in out.chunks_exact_mut(4).zip(self.state) {
            bytes.copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// HMAC-SHA-256 (RFC 2104) under one key, with the ipad and opad
/// midstates computed once.
///
/// Keying costs two compressions; after that a MAC over `n` message
/// bytes costs the inner compressions of those bytes plus one outer
/// compression, with no allocation. [`HmacSha256::mac`] reuses the
/// keyed state for many short messages, which is how the sealed-payload
/// keystream gets each 32-byte block for two compressions.
#[derive(Clone)]
pub(crate) struct HmacSha256 {
    /// SHA-256 state after absorbing `key ^ ipad`, then any message.
    inner: Sha256,
    /// SHA-256 state after absorbing `key ^ opad`.
    outer: Sha256,
}

impl HmacSha256 {
    /// Keys a MAC. Keys longer than one block are hashed first, as
    /// RFC 2104 requires.
    #[must_use]
    pub(crate) fn new(key: &[u8]) -> Self {
        let mut key_block = [0u8; BLOCK];
        if key.len() > BLOCK {
            key_block[..32].copy_from_slice(&sha256(key));
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }
        let mut inner = Sha256::new();
        inner.update(&key_block.map(|b| b ^ 0x36));
        let mut outer = Sha256::new();
        outer.update(&key_block.map(|b| b ^ 0x5c));
        HmacSha256 { inner, outer }
    }

    /// Absorbs message bytes.
    pub(crate) fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Finishes the MAC over everything absorbed.
    #[must_use]
    pub(crate) fn finalize(self) -> [u8; 32] {
        let inner = self.inner.finalize();
        let mut outer = self.outer;
        outer.update(&inner);
        outer.finalize()
    }

    /// The MAC of `message` alone under this key, leaving `self`
    /// reusable for the next message.
    #[must_use]
    pub(crate) fn mac(&self, message: &[u8]) -> [u8; 32] {
        let mut keyed = self.clone();
        keyed.update(message);
        keyed.finalize()
    }
}

/// Computes the SHA-256 digest of a message.
///
/// # Examples
///
/// ```
/// use ipd_core::sha256;
///
/// let digest = sha256(b"abc");
/// assert_eq!(
///     digest[..4],
///     [0xba, 0x78, 0x16, 0xbf], // ba7816bf... the FIPS test vector
/// );
/// ```
#[must_use]
pub fn sha256(message: &[u8]) -> [u8; 32] {
    let mut hasher = Sha256::new();
    hasher.update(message);
    hasher.finalize()
}

/// Computes HMAC-SHA-256 (RFC 2104) of a message under a key.
#[must_use]
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> [u8; 32] {
    HmacSha256::new(key).mac(message)
}

/// Computes the SHA-256 digest of a sequence of byte parts, each
/// length-prefixed (64-bit little-endian) so part boundaries are
/// unambiguous: `["ab", "c"]` and `["a", "bc"]` hash differently.
///
/// This is the framing the content-addressed bundle store uses to
/// digest a bundle's name and entries without concatenation
/// ambiguity. The parts are streamed through the hasher, never
/// concatenated.
#[must_use]
pub fn sha256_parts(parts: &[&[u8]]) -> [u8; 32] {
    let mut hasher = Sha256::new();
    for part in parts {
        hasher.update_part(part);
    }
    hasher.finalize()
}

/// Formats a digest as lowercase hex.
#[must_use]
pub fn to_hex(digest: &[u8]) -> String {
    digest.iter().map(|b| format!("{b:02x}")).collect()
}

/// One SHA-256 round over schedule word `$w[$j]` and round constant
/// `$k[$j]`. Past the first 16 rounds (`$next`), the round first
/// advances its word of the 16-word schedule ring in place. Callers
/// rotate the argument order instead of moving the eight working
/// variables: only `$d` and `$h` change.
macro_rules! round {
    ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident, $k:ident, $w:ident, $j:expr, $next:expr) => {
        if $next {
            let w15 = $w[($j + 1) & 15];
            let w2 = $w[($j + 14) & 15];
            $w[$j] = $w[$j]
                .wrapping_add(w15.rotate_right(7) ^ w15.rotate_right(18) ^ (w15 >> 3))
                .wrapping_add($w[($j + 9) & 15])
                .wrapping_add(w2.rotate_right(17) ^ w2.rotate_right(19) ^ (w2 >> 10));
        }
        let t1 = $h
            .wrapping_add($e.rotate_right(6) ^ $e.rotate_right(11) ^ $e.rotate_right(25))
            .wrapping_add(($e & $f) ^ (!$e & $g))
            .wrapping_add($k[$j])
            .wrapping_add($w[$j]);
        let t2 = ($a.rotate_right(2) ^ $a.rotate_right(13) ^ $a.rotate_right(22))
            .wrapping_add(($a & $b) ^ ($a & $c) ^ ($b & $c));
        $d = $d.wrapping_add(t1);
        $h = t1.wrapping_add(t2);
    };
}

/// Eight rounds over schedule words and round constants `$j..$j + 8`.
macro_rules! eight_rounds {
    ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident, $k:ident, $w:ident, $j:expr, $next:expr) => {
        round!($a, $b, $c, $d, $e, $f, $g, $h, $k, $w, $j, $next);
        round!($h, $a, $b, $c, $d, $e, $f, $g, $k, $w, $j + 1, $next);
        round!($g, $h, $a, $b, $c, $d, $e, $f, $k, $w, $j + 2, $next);
        round!($f, $g, $h, $a, $b, $c, $d, $e, $k, $w, $j + 3, $next);
        round!($e, $f, $g, $h, $a, $b, $c, $d, $k, $w, $j + 4, $next);
        round!($d, $e, $f, $g, $h, $a, $b, $c, $k, $w, $j + 5, $next);
        round!($c, $d, $e, $f, $g, $h, $a, $b, $k, $w, $j + 6, $next);
        round!($b, $c, $d, $e, $f, $g, $h, $a, $k, $w, $j + 7, $next);
    };
}

/// The SHA-256 compression function: folds one 64-byte block into
/// `state`, 16 rounds (and 16 round constants) at a time.
fn compress(state: &mut [u32; 8], block: &[u8; BLOCK]) {
    let mut w = [0u32; 16];
    for (word, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
        *word = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for (i, k) in K.chunks_exact(16).enumerate() {
        let k: &[u32; 16] = k.try_into().expect("16 round constants");
        eight_rounds!(a, b, c, d, e, f, g, h, k, w, 0, i > 0);
        eight_rounds!(a, b, c, d, e, f, g, h, k, w, 8, i > 0);
    }
    for (word, add) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *word = word.wrapping_add(add);
    }
}

static K: [u32; 64] = [
    0x428a_2f98,
    0x7137_4491,
    0xb5c0_fbcf,
    0xe9b5_dba5,
    0x3956_c25b,
    0x59f1_11f1,
    0x923f_82a4,
    0xab1c_5ed5,
    0xd807_aa98,
    0x1283_5b01,
    0x2431_85be,
    0x550c_7dc3,
    0x72be_5d74,
    0x80de_b1fe,
    0x9bdc_06a7,
    0xc19b_f174,
    0xe49b_69c1,
    0xefbe_4786,
    0x0fc1_9dc6,
    0x240c_a1cc,
    0x2de9_2c6f,
    0x4a74_84aa,
    0x5cb0_a9dc,
    0x76f9_88da,
    0x983e_5152,
    0xa831_c66d,
    0xb003_27c8,
    0xbf59_7fc7,
    0xc6e0_0bf3,
    0xd5a7_9147,
    0x06ca_6351,
    0x1429_2967,
    0x27b7_0a85,
    0x2e1b_2138,
    0x4d2c_6dfc,
    0x5338_0d13,
    0x650a_7354,
    0x766a_0abb,
    0x81c2_c92e,
    0x9272_2c85,
    0xa2bf_e8a1,
    0xa81a_664b,
    0xc24b_8b70,
    0xc76c_51a3,
    0xd192_e819,
    0xd699_0624,
    0xf40e_3585,
    0x106a_a070,
    0x19a4_c116,
    0x1e37_6c08,
    0x2748_774c,
    0x34b0_bcb5,
    0x391c_0cb3,
    0x4ed8_aa4a,
    0x5b9c_ca4f,
    0x682e_6ff3,
    0x748f_82ee,
    0x78a5_636f,
    0x84c8_7814,
    0x8cc7_0208,
    0x90be_fffa,
    0xa450_6ceb,
    0xbef9_a3f7,
    0xc671_78f2,
];
/// Today's pad-and-copy SHA-256 and HMAC bodies, kept verbatim as
/// independent oracles for the streaming hasher and the midstate MAC.
#[cfg(test)]
pub(crate) mod oracle {
    use super::K;

    /// SHA-256 by copying the message into a padded buffer and
    /// compressing it block by block.
    pub(crate) fn sha256(message: &[u8]) -> [u8; 32] {
        let mut h: [u32; 8] = [
            0x6a09_e667,
            0xbb67_ae85,
            0x3c6e_f372,
            0xa54f_f53a,
            0x510e_527f,
            0x9b05_688c,
            0x1f83_d9ab,
            0x5be0_cd19,
        ];
        // Padding: 0x80, zeros, 64-bit big-endian bit length.
        let bit_len = (message.len() as u64).wrapping_mul(8);
        let mut data = message.to_vec();
        data.push(0x80);
        while data.len() % 64 != 56 {
            data.push(0);
        }
        data.extend_from_slice(&bit_len.to_be_bytes());

        for block in data.chunks_exact(64) {
            let mut w = [0u32; 64];
            for (i, word) in block.chunks_exact(4).enumerate() {
                w[i] = u32::from_be_bytes([word[0], word[1], word[2], word[3]]);
            }
            for i in 16..64 {
                let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
                let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
                w[i] = w[i - 16]
                    .wrapping_add(s0)
                    .wrapping_add(w[i - 7])
                    .wrapping_add(s1);
            }
            let (mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut hh) =
                (h[0], h[1], h[2], h[3], h[4], h[5], h[6], h[7]);
            for i in 0..64 {
                let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
                let ch = (e & f) ^ (!e & g);
                let temp1 = hh
                    .wrapping_add(s1)
                    .wrapping_add(ch)
                    .wrapping_add(K[i])
                    .wrapping_add(w[i]);
                let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
                let maj = (a & b) ^ (a & c) ^ (b & c);
                let temp2 = s0.wrapping_add(maj);
                hh = g;
                g = f;
                f = e;
                e = d.wrapping_add(temp1);
                d = c;
                c = b;
                b = a;
                a = temp1.wrapping_add(temp2);
            }
            h[0] = h[0].wrapping_add(a);
            h[1] = h[1].wrapping_add(b);
            h[2] = h[2].wrapping_add(c);
            h[3] = h[3].wrapping_add(d);
            h[4] = h[4].wrapping_add(e);
            h[5] = h[5].wrapping_add(f);
            h[6] = h[6].wrapping_add(g);
            h[7] = h[7].wrapping_add(hh);
        }
        let mut out = [0u8; 32];
        for (i, word) in h.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// Textbook HMAC-SHA-256: re-pads the key and hashes two copied
    /// buffers on every call.
    pub(crate) fn hmac_sha256(key: &[u8], message: &[u8]) -> [u8; 32] {
        let mut key_block = [0u8; 64];
        if key.len() > 64 {
            key_block[..32].copy_from_slice(&sha256(key));
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }
        let mut inner = Vec::with_capacity(64 + message.len());
        let mut outer = Vec::with_capacity(64 + 32);
        for &b in &key_block {
            inner.push(b ^ 0x36);
        }
        inner.extend_from_slice(message);
        let inner_hash = sha256(&inner);
        for &b in &key_block {
            outer.push(b ^ 0x5c);
        }
        outer.extend_from_slice(&inner_hash);
        sha256(&outer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fips_vectors() {
        assert_eq!(
            to_hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            to_hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            to_hex(&sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn long_message() {
        let message = vec![b'a'; 1_000_000];
        assert_eq!(
            to_hex(&sha256(&message)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn hmac_rfc4231_vectors() {
        // RFC 4231 test case 1.
        let key = [0x0b; 20];
        let mac = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            to_hex(&mac),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
        // Test case 2: key "Jefe".
        let mac = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            to_hex(&mac),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn hmac_long_key_is_hashed() {
        // RFC 4231 test case 6 (131-byte key).
        let key = [0xaa; 131];
        let mac = hmac_sha256(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            to_hex(&mac),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn part_framing_is_unambiguous() {
        assert_eq!(
            sha256_parts(&[b"abc"]),
            sha256_parts(&[b"abc"]),
            "deterministic"
        );
        assert_ne!(sha256_parts(&[b"ab", b"c"]), sha256_parts(&[b"a", b"bc"]));
        assert_ne!(sha256_parts(&[b"abc"]), sha256_parts(&[b"abc", b""]));
    }

    #[test]
    fn keyed_macs_differ_by_key() {
        let a = hmac_sha256(b"key-a", b"license");
        let b = hmac_sha256(b"key-b", b"license");
        assert_ne!(a, b);
    }

    /// A deterministic, non-periodic test message.
    fn message(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 131 + len * 7 + 3) as u8).collect()
    }

    #[test]
    fn streaming_matches_one_shot_at_every_split() {
        for len in 0..=200 {
            let m = message(len);
            let expected = oracle::sha256(&m);
            assert_eq!(sha256(&m), expected, "one-shot, len {len}");
            for split in 0..=len {
                let mut hasher = Sha256::new();
                hasher.update(&m[..split]);
                hasher.update(&m[split..]);
                assert_eq!(hasher.finalize(), expected, "len {len} split {split}");
            }
        }
    }

    #[test]
    fn byte_at_a_time_and_long_messages_match_the_oracle() {
        for len in [1000, 4096, 10_007] {
            let m = message(len);
            let mut hasher = Sha256::new();
            for byte in &m {
                hasher.update(std::slice::from_ref(byte));
            }
            assert_eq!(hasher.finalize(), oracle::sha256(&m), "len {len}");
        }
    }

    #[test]
    fn midstate_mac_matches_textbook_hmac() {
        let lens = [0usize, 1, 31, 32, 33, 55, 56, 63, 64, 65, 1000];
        for key_len in [0usize, 1, 32, 63, 64, 65, 131] {
            let key = message(key_len + 500);
            let key = &key[..key_len];
            let keyed = HmacSha256::new(key);
            for len in lens {
                let m = message(len);
                let expected = oracle::hmac_sha256(key, &m);
                assert_eq!(keyed.mac(&m), expected, "key {key_len} msg {len}");
                assert_eq!(hmac_sha256(key, &m), expected, "key {key_len} msg {len}");
                let mut streaming = keyed.clone();
                streaming.update(&m[..len / 3]);
                streaming.update(&m[len / 3..]);
                assert_eq!(streaming.finalize(), expected, "key {key_len} msg {len}");
            }
        }
    }

    #[test]
    fn parts_stream_the_length_prefixed_framing() {
        let parts: [&[u8]; 3] = [b"ipd", b"", &[7u8; 100]];
        let mut framed = Vec::new();
        for part in parts {
            framed.extend_from_slice(&(part.len() as u64).to_le_bytes());
            framed.extend_from_slice(part);
        }
        assert_eq!(sha256_parts(&parts), oracle::sha256(&framed));
    }
}
