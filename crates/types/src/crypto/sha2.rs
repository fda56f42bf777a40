//! SHA-256 (FIPS 180-4) with two compression kernels.
//!
//! The padding and block streaming are written from the specification so
//! the workspace has no dependency on external hashing crates. Each 64-byte
//! block goes through one private `compress`, which dispatches to one of two
//! kernels with identical output:
//!
//! * a portable pure-Rust kernel, the reference and the fallback;
//! * on x86_64, a kernel on the SHA extensions (`sha256rnds2`,
//!   `sha256msg1/2`), chosen at run time when the CPU reports them.
//!
//! [`sha256_block_count`] counts compressions whichever kernel ran. The
//! unit tests below check the FIPS/NIST vectors through the dispatcher and
//! drive both kernels against each other.

/// Round constants: first 32 bits of the fractional parts of the cube roots
/// of the first 64 primes (FIPS 180-4 §4.2.2).
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Initial hash values: first 32 bits of the fractional parts of the square
/// roots of the first 8 primes (FIPS 180-4 §5.3.3).
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Process-wide count of compression-function invocations (one per 64-byte
/// block, padding included, whichever kernel ran). The counter is a pure
/// diagnostic — it measures hashing *work* deterministically, independent of
/// machine speed — used by the `msg_pipeline` speedup guard the same way the
/// state commitment's `bytes_hashed` counter backs the `state_root` guard.
static BLOCKS: core::sync::atomic::AtomicU64 = core::sync::atomic::AtomicU64::new(0);

/// Total SHA-256 blocks compressed by this process so far.
///
/// Monotonic and thread-safe; callers measure a region of work by
/// differencing two readings.
pub fn sha256_block_count() -> u64 {
    BLOCKS.load(core::sync::atomic::Ordering::Relaxed)
}

/// Computes the SHA-256 digest of `data`.
///
/// # Example
///
/// ```
/// use hc_types::crypto::sha256;
///
/// // The empty-string digest is a well-known constant.
/// let d = sha256(b"");
/// assert_eq!(d[0], 0xe3);
/// assert_eq!(d[31], 0x55);
/// ```
pub fn sha256(data: &[u8]) -> [u8; 32] {
    digest(&[data], compress)
}

/// Computes SHA-256 over the concatenation of several byte strings without
/// materializing the concatenation.
pub(crate) fn sha256_concat(parts: &[&[u8]]) -> [u8; 32] {
    digest(parts, compress)
}

/// SHA-256 of the concatenation of `parts`, compressing each block with
/// `compress`.
///
/// The parts stream through one 64-byte block buffer; whole blocks of a part
/// go to `compress` without being copied. The padded message is
/// `data || 0x80 || zeros || (bit length as big-endian u64)`.
fn digest(parts: &[&[u8]], mut compress: impl FnMut(&mut [u32; 8], &[u8; 64])) -> [u8; 32] {
    let mut state = H0;
    let mut block = [0u8; 64];
    // Bytes waiting in `block`; always below 64 between parts.
    let mut pending = 0;
    let mut len = 0u64;
    for mut part in parts.iter().copied() {
        len = len.wrapping_add(part.len() as u64);
        if pending > 0 {
            let take = part.len().min(64 - pending);
            block[pending..pending + take].copy_from_slice(&part[..take]);
            pending += take;
            part = &part[take..];
            if pending < 64 {
                continue;
            }
            compress(&mut state, &block);
        }
        let (whole, rest) = part.as_chunks::<64>();
        for chunk in whole {
            compress(&mut state, chunk);
        }
        block[..rest.len()].copy_from_slice(rest);
        pending = rest.len();
    }

    block[pending] = 0x80;
    block[pending + 1..].fill(0);
    if pending + 1 > 56 {
        // Length field does not fit; it goes into an extra block.
        compress(&mut state, &block);
        block.fill(0);
    }
    block[56..].copy_from_slice(&len.wrapping_mul(8).to_be_bytes());
    compress(&mut state, &block);

    let mut out = [0u8; 32];
    for (i, word) in state.iter().enumerate() {
        out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// The compression function every digest runs: counts the block, then runs
/// the kernel this CPU supports.
fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
    BLOCKS.fetch_add(1, core::sync::atomic::Ordering::Relaxed);
    Kernel::detect().compress(state, block);
}

/// A SHA-256 compression kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kernel {
    /// The pure-Rust reference kernel; runs everywhere.
    Portable,
    /// The SHA-extensions kernel, with proof that the CPU supports it.
    #[cfg(target_arch = "x86_64")]
    ShaNi(shani::Detected),
}

impl Kernel {
    /// The fastest kernel this CPU supports. `std` caches the CPU feature
    /// bits, so this costs a few loads after the first call.
    fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        if let Some(cpu) = shani::detect() {
            return Kernel::ShaNi(cpu);
        }
        Kernel::Portable
    }

    /// Compresses one block into `state` (FIPS 180-4 §6.2.2 steps 1–4).
    fn compress(self, state: &mut [u32; 8], block: &[u8; 64]) {
        match self {
            Kernel::Portable => compress_portable(state, block),
            #[cfg(target_arch = "x86_64")]
            Kernel::ShaNi(cpu) => cpu.compress(state, block),
        }
    }
}

fn compress_portable(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }

    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }

    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

/// The x86_64 SHA-extensions kernel.
///
/// `sha256rnds2` runs two rounds on the working variables held as two
/// vectors, ABEF and CDGH; `sha256msg1`/`sha256msg2` extend the message
/// schedule four words at a time. The layout follows Intel's "Intel SHA
/// Extensions" white paper (Gulley et al., 2013).
#[cfg(target_arch = "x86_64")]
mod shani {
    use super::K;
    use core::arch::x86_64::*;

    /// Proof that this CPU has every feature [`compress`] enables. Only
    /// [`detect`] makes one.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(super) struct Detected(());

    /// A [`Detected`] when the CPU reports SHA, SSE2, SSSE3 and SSE4.1.
    pub(super) fn detect() -> Option<Detected> {
        let supported = is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("sse2")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1");
        supported.then_some(Detected(()))
    }

    impl Detected {
        /// Compresses one block into `state` on the SHA extensions.
        #[allow(unsafe_code)]
        pub(super) fn compress(self, state: &mut [u32; 8], block: &[u8; 64]) {
            // SAFETY: `compress` only needs its target features present.
            // `self` exists only because `detect` saw `sha`, `sse2`, `ssse3`
            // and `sse4.1` through `is_x86_feature_detected!`.
            unsafe { compress(state, block) }
        }
    }

    /// Lanes 0..4 hold `w[0..4]`.
    #[target_feature(enable = "sse2")]
    fn lanes(w: [u32; 4]) -> __m128i {
        _mm_set_epi32(w[3] as i32, w[2] as i32, w[1] as i32, w[0] as i32)
    }

    /// Message words `4q..4q + 4` of `block`, big-endian, word `4q` in lane 0.
    #[target_feature(enable = "sse2,ssse3")]
    fn message_quad(block: &[u8; 64], q: usize) -> __m128i {
        let bytes = u128::from_le_bytes(block.as_chunks::<16>().0[q]);
        let v = _mm_set_epi64x((bytes >> 64) as i64, bytes as i64);
        // Reverse the bytes of each 32-bit lane.
        _mm_shuffle_epi8(
            v,
            _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203),
        )
    }

    /// Schedule words `4q..4q + 4` from the four quads before them,
    /// oldest first.
    #[target_feature(enable = "sha,sse2,ssse3")]
    fn schedule(w0: __m128i, w1: __m128i, w2: __m128i, w3: __m128i) -> __m128i {
        // W[t-16] + σ0(W[t-15]) + W[t-7], then + σ1(W[t-2]).
        let x = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8(w3, w2, 4));
        _mm_sha256msg2_epu32(x, w3)
    }

    /// Rounds `4q..4q + 4` with schedule words `w`.
    #[target_feature(enable = "sha,sse2")]
    fn rounds4(abef: &mut __m128i, cdgh: &mut __m128i, w: __m128i, q: usize) {
        let wk = _mm_add_epi32(w, lanes(K.as_chunks::<4>().0[q]));
        *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, wk);
        *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32(wk, 0x0e));
    }

    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
        let dcba = lanes([state[0], state[1], state[2], state[3]]);
        let hgfe = lanes([state[4], state[5], state[6], state[7]]);
        let cdab = _mm_shuffle_epi32(dcba, 0xb1);
        let efgh = _mm_shuffle_epi32(hgfe, 0x1b);
        let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);
        let (abef_in, cdgh_in) = (abef, cdgh);

        let mut w0 = message_quad(block, 0);
        let mut w1 = message_quad(block, 1);
        let mut w2 = message_quad(block, 2);
        let mut w3 = message_quad(block, 3);
        rounds4(&mut abef, &mut cdgh, w0, 0);
        rounds4(&mut abef, &mut cdgh, w1, 1);
        rounds4(&mut abef, &mut cdgh, w2, 2);
        rounds4(&mut abef, &mut cdgh, w3, 3);
        for q in (4..16).step_by(4) {
            w0 = schedule(w0, w1, w2, w3);
            rounds4(&mut abef, &mut cdgh, w0, q);
            w1 = schedule(w1, w2, w3, w0);
            rounds4(&mut abef, &mut cdgh, w1, q + 1);
            w2 = schedule(w2, w3, w0, w1);
            rounds4(&mut abef, &mut cdgh, w2, q + 2);
            w3 = schedule(w3, w0, w1, w2);
            rounds4(&mut abef, &mut cdgh, w3, q + 3);
        }

        let abef = _mm_add_epi32(abef, abef_in);
        let cdgh = _mm_add_epi32(cdgh, cdgh_in);
        let feba = _mm_shuffle_epi32(abef, 0x1b);
        let dchg = _mm_shuffle_epi32(cdgh, 0xb1);
        let dcba = _mm_blend_epi16(feba, dchg, 0xf0);
        let hgfe = _mm_alignr_epi8(dchg, feba, 8);
        *state = [
            _mm_extract_epi32(dcba, 0) as u32,
            _mm_extract_epi32(dcba, 1) as u32,
            _mm_extract_epi32(dcba, 2) as u32,
            _mm_extract_epi32(dcba, 3) as u32,
            _mm_extract_epi32(hgfe, 0) as u32,
            _mm_extract_epi32(hgfe, 1) as u32,
            _mm_extract_epi32(hgfe, 2) as u32,
            _mm_extract_epi32(hgfe, 3) as u32,
        ];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};

    fn hex(digest: [u8; 32]) -> String {
        digest.iter().map(|b| format!("{b:02x}")).collect()
    }

    // Official FIPS 180-4 / NIST CAVP vectors.
    #[test]
    fn fips_vector_empty() {
        assert_eq!(
            hex(sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn fips_vector_abc() {
        assert_eq!(
            hex(sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn fips_vector_two_block_message() {
        assert_eq!(
            hex(sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn fips_vector_million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            hex(sha256(&data)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn padding_boundaries_are_handled() {
        // Lengths around the 55/56/64-byte padding boundaries exercise the
        // extra-block path.
        for len in [54usize, 55, 56, 57, 63, 64, 65, 119, 120, 128] {
            let data = vec![0x5au8; len];
            let d1 = sha256(&data);
            let d2 = sha256(&data);
            assert_eq!(d1, d2);
            // Flipping any byte must change the digest.
            let mut tampered = data.clone();
            tampered[len / 2] ^= 1;
            assert_ne!(sha256(&tampered), d1, "len {len}");
        }
    }

    #[test]
    fn concat_matches_plain_hash() {
        assert_eq!(sha256_concat(&[b"ab", b"c"]), sha256(b"abc"));
        assert_eq!(sha256_concat(&[]), sha256(b""));
    }

    #[test]
    fn split_parts_hash_like_one_and_compress_the_same_blocks() {
        let mut rng = StdRng::seed_from_u64(0x5ec7);
        let mut data = vec![0u8; 700];
        rng.fill_bytes(&mut data);
        for _ in 0..500 {
            let len = rng.gen_range(0..=data.len());
            let mut cuts: Vec<usize> = (0..rng.gen_range(0..6usize))
                .map(|_| rng.gen_range(0..=len))
                .collect();
            cuts.sort_unstable();
            let mut parts = Vec::new();
            let mut from = 0;
            for cut in cuts.into_iter().chain([len]) {
                parts.push(&data[from..cut]);
                from = cut;
            }
            let mut blocks = 0;
            let streamed = digest(&parts, |state, block| {
                blocks += 1;
                compress_portable(state, block);
            });
            assert_eq!(streamed, sha256(&data[..len]), "len {len}");
            // One block per 64 bytes of message, 0x80 byte and length field.
            assert_eq!(blocks, (len + 9).div_ceil(64), "len {len}");
        }
    }

    /// Whether this CPU reports the features the SHA-extensions kernel
    /// enables, read independently of the dispatcher.
    fn cpu_has_sha_extensions() -> bool {
        #[cfg(target_arch = "x86_64")]
        return is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("sse2")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1");
        #[cfg(not(target_arch = "x86_64"))]
        false
    }

    #[test]
    fn kernels_agree() {
        let chosen = Kernel::detect();
        if !cpu_has_sha_extensions() {
            assert_eq!(chosen, Kernel::Portable, "no SHA extensions on this CPU");
            return;
        }
        assert_ne!(
            chosen,
            Kernel::Portable,
            "SHA extensions present but unused"
        );

        let mut rng = StdRng::seed_from_u64(0x5a256);
        for _ in 0..4096 {
            let mut state = [0u32; 8];
            state.iter_mut().for_each(|w| *w = rng.next_u32());
            let mut block = [0u8; 64];
            rng.fill_bytes(&mut block);
            let (mut reference, mut fast) = (state, state);
            Kernel::Portable.compress(&mut reference, &block);
            chosen.compress(&mut fast, &block);
            assert_eq!(fast, reference, "state {state:08x?} block {block:02x?}");
        }

        let through = |kernel: Kernel, data: &[u8]| digest(&[data], |s, b| kernel.compress(s, b));
        let mut data = vec![0u8; 8 << 10];
        rng.fill_bytes(&mut data);
        let random_lens = (0..64).map(|_| rng.gen_range(0..=data.len()));
        for len in (0..=257).chain(random_lens) {
            let data = &data[..len];
            assert_eq!(
                through(chosen, data),
                through(Kernel::Portable, data),
                "len {len}"
            );
        }
    }
}
