//! Helpers shared by the integration tests that pin bits.

/// FNV-1a over the bit patterns — a one-word fingerprint of a parameter
/// vector (or a flattened δ table) for the parity tables.
pub fn bit_hash(v: &[f32]) -> u64 {
    v.iter().fold(0xcbf2_9ce4_8422_2325, |h, x| {
        x.to_bits().to_le_bytes().iter().fold(h, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
    })
}
