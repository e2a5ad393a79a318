//! FNV-1a content hashing for manifest entries and the service's result
//! cache keys.
//!
//! Manifests record a content hash per ingested file so consumers can tell
//! whether a tree drifted since ingestion without re-reading it. FNV-1a is
//! used because it is tiny, dependency-free, and deterministic across
//! platforms — the manifest needs a fingerprint, not cryptographic
//! strength.

/// The 64-bit FNV-1a offset basis: the hash of no bytes, and the state
/// [`fold`] starts from.
pub const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into the running 64-bit FNV-1a hash `state`. Folding
/// several slices in turn hashes their concatenation.
pub fn fold(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state ^= u64::from(b);
        state = state.wrapping_mul(PRIME);
    }
    state
}

/// 64-bit FNV-1a over a byte slice.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fold(OFFSET_BASIS, bytes)
}

/// The manifest encoding of a content hash: `fnv1a64:<16 hex digits>`.
pub fn content_hash(bytes: &[u8]) -> String {
    format!("fnv1a64:{:016x}", fnv1a64(bytes))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn folding_in_pieces_hashes_the_concatenation() {
        assert_eq!(fold(fold(OFFSET_BASIS, b"foo"), b"bar"), fnv1a64(b"foobar"));
    }

    #[test]
    fn hash_string_shape() {
        let h = content_hash(b"fn main() {}");
        assert!(h.starts_with("fnv1a64:"));
        assert_eq!(h.len(), "fnv1a64:".len() + 16);
    }

    #[test]
    fn deterministic() {
        assert_eq!(content_hash(b"xyz"), content_hash(b"xyz"));
        assert_ne!(content_hash(b"xyz"), content_hash(b"xyzq"));
    }
}
