//! The lane checksum: the one primitive under every integrity check of
//! this crate. It seals each `colv1` table block ([`crate::colv1`]),
//! checks the whole index sidecar ([`crate::sidecar`]), and hashes a
//! table's content into its fingerprint
//! ([`crate::dedup::table_fingerprint`]) for dedup and for the `jsonl`
//! codec, which has no seal. [`step`] folds a shard's per-table check
//! values — `colv1` block seals, `jsonl` fingerprints — into its
//! manifest entry ([`crate::dedup::combine_fingerprints`]).
//!
//! A store load hashes each stored byte once: a `colv1` block's seal is
//! both the proof that its bytes are intact and the value the manifest
//! and the sidecar directory bind, so nothing re-hashes a decoded
//! table. Under `cfg(test)` a thread-local counter records every byte
//! [`checksum`] and [`checksum_u32s`] read, so tests assert that as a
//! count (`take_hashed`).
//!
//! [`checksum`] reads the bytes as little-endian `u64` words, 32 bytes a
//! round, each word folded into one of four independent lanes by
//! `h = (h ^ word) * FNV_PRIME; h ^= h >> 32`. The lanes, then the tail
//! bytes (fewer than 32, one at a time), then the total length are
//! folded into one `u64` by the same step. Every step is a bijection of
//! the state it updates — xor with the input, multiplication by an odd
//! number, xor with the own high half — and a bijection of the input
//! for a fixed state, so two buffers of one length that differ in a
//! **single byte** (or a single word) never share a digest; lanes are
//! folded in order, so the digest is position- and order-sensitive.
//! The four lanes are independent chains, so the loop runs at about
//! 0.2 ns a byte where byte-serial FNV-1a, one dependent multiply per
//! byte, needs 1.5.
//!
//! It is not cryptographic: it guards against rot and torn writes, not
//! against an adversary. Its definition is part of the on-disk formats
//! (the digests pinned in the tests below must not drift).

/// The starting state of every lane and of every fold.
pub(crate) const BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// One fold of `v` into the state `h`: bijective in `h` for a fixed `v`
/// and in `v` for a fixed `h`.
pub(crate) fn step(h: u64, v: u64) -> u64 {
    const PRIME: u64 = 0x100_0000_01b3;
    let h = (h ^ v).wrapping_mul(PRIME);
    h ^ (h >> 32)
}

/// The lanes, then `tail` byte by byte, then `len`, folded in order.
fn finish(lanes: [u64; 4], tail: &[u8], len: usize) -> u64 {
    let folded = lanes.into_iter().fold(BASIS, step);
    let tailed = tail.iter().fold(folded, |h, &b| step(h, u64::from(b)));
    step(tailed, len as u64)
}

#[cfg(test)]
thread_local! {
    static HASHED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Adds `n` to this thread's count of hashed bytes (tests only).
#[cfg(test)]
fn count_hashed(n: usize) {
    HASHED.with(|c| c.set(c.get() + n as u64));
}

/// The bytes this thread has hashed since the last call, resetting the
/// count (tests only).
#[cfg(test)]
pub(crate) fn take_hashed() -> u64 {
    HASHED.with(|c| c.replace(0))
}

/// The lane checksum of `bytes` (module docs).
pub(crate) fn checksum(bytes: &[u8]) -> u64 {
    #[cfg(test)]
    count_hashed(bytes.len());
    let mut lanes = [BASIS; 4];
    let mut stripes = bytes.chunks_exact(32);
    for stripe in &mut stripes {
        for (lane, word) in lanes.iter_mut().zip(stripe.chunks_exact(8)) {
            *lane = step(*lane, u64::from_le_bytes(word.try_into().expect("8")));
        }
    }
    finish(lanes, stripes.remainder(), bytes.len())
}

/// [`checksum`] of the little-endian bytes of `values` — the layout a
/// cell arena's end offsets have on disk — without copying them into a
/// byte buffer first.
pub(crate) fn checksum_u32s(values: &[u32]) -> u64 {
    #[cfg(test)]
    count_hashed(values.len() * 4);
    let mut lanes = [BASIS; 4];
    let mut stripes = values.chunks_exact(8);
    for stripe in &mut stripes {
        for (lane, pair) in lanes.iter_mut().zip(stripe.chunks_exact(2)) {
            *lane = step(*lane, u64::from(pair[0]) | u64::from(pair[1]) << 32);
        }
    }
    let rest = stripes.remainder();
    let mut tail = [0u8; 28];
    for (bytes, v) in tail.chunks_exact_mut(4).zip(rest) {
        bytes.copy_from_slice(&v.to_le_bytes());
    }
    finish(lanes, &tail[..rest.len() * 4], values.len() * 4)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 37 + 11) as u8).collect()
    }

    #[test]
    fn checksum_sees_every_bit_of_every_lane_the_tail_and_the_length() {
        for len in 0..=80 {
            let clean = sample(len);
            let digest = checksum(&clean);
            for bit in 0..len * 8 {
                let mut flipped = clean.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(checksum(&flipped), digest, "len {len} bit {bit}");
            }
            let mut longer = clean;
            longer.push(0);
            assert_ne!(checksum(&longer), digest, "len {len} plus a zero byte");
        }
    }

    #[test]
    fn checksum_is_order_sensitive_across_stripes() {
        let clean = sample(96);
        let mut swapped = clean.clone();
        swapped[..32].copy_from_slice(&clean[32..64]);
        swapped[32..64].copy_from_slice(&clean[..32]);
        assert_ne!(checksum(&swapped), checksum(&clean));
        // Two words trading lanes inside one stripe.
        let mut traded = clean.clone();
        traded[..8].copy_from_slice(&clean[8..16]);
        traded[8..16].copy_from_slice(&clean[..8]);
        assert_ne!(checksum(&traded), checksum(&clean));
    }

    /// The function is part of the on-disk formats: it must not drift.
    #[test]
    fn checksum_golden_digests() {
        assert_eq!(checksum(b""), 0x0f42_c414_7dbb_93f2);
        assert_eq!(checksum(&sample(100)), 0x63fd_b84c_abe0_389e);
    }

    #[test]
    fn the_counter_sees_every_hashed_byte_once() {
        take_hashed();
        checksum(&sample(100));
        checksum_u32s(&[1, 2, 3]);
        assert_eq!(take_hashed(), 112);
        assert_eq!(take_hashed(), 0, "taking resets");
    }

    #[test]
    fn u32_checksum_is_the_checksum_of_the_little_endian_bytes() {
        for len in 0..=40u32 {
            let values: Vec<u32> = (0..len)
                .map(|i| i.wrapping_mul(0x9e37_79b9) ^ (i << 3))
                .collect();
            let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
            assert_eq!(checksum_u32s(&values), checksum(&bytes), "len {len}");
        }
    }
}
