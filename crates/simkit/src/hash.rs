//! The workspace's two 64-bit hash primitives, kept once here.
//!
//! - [`fnv1a`] folds bytes into an FNV-1a state: the shard engine's
//!   emit digest, fault-plan stream labels, the tracekit export digest
//!   and the broker subscription-table digest.
//! - [`mix64`] is the SplitMix64 finalizer: [`DetRng`](crate::DetRng)
//!   seeding, trace-id minting and sampling, broker retry jitter and
//!   the bench scenarios' stateless per-device mixing.
//!
//! Both sit on hot paths in other crates (one `fnv1a` per shard emit,
//! one `mix64` per `scale_city` event), hence `#[inline]`.

/// FNV-1a 64-bit offset basis: the initial state for [`fnv1a`].
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into the FNV-1a state `h`. Start from [`FNV_OFFSET`];
/// chaining calls equals one call over the concatenated bytes.
#[inline]
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// SplitMix64 finalizer: a bijective 64-bit mixer. Nearby inputs give
/// unrelated outputs, so sequence numbers and ids can be hashed
/// without an RNG.
#[inline]
pub fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_known_answers() {
        assert_eq!(fnv1a(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn fnv1a_chains() {
        assert_eq!(
            fnv1a(fnv1a(FNV_OFFSET, b"con"), b"tory"),
            fnv1a(FNV_OFFSET, b"contory")
        );
    }

    #[test]
    fn mix64_known_answer() {
        assert_eq!(mix64(0), 0xe220_a839_7b1d_cdaf);
    }
}
