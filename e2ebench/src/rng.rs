//! A small seeded generator (SplitMix64). Every input the benchmark builds
//! comes from one of these, so a seed fixes the inputs byte for byte.

/// SplitMix64's output function: a bijection on `u64`.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A SplitMix64 stream. Distinct `(seed, stream)` pairs give independent
/// streams, so each generator draws from its own.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(mix(seed ^ mix(stream.wrapping_add(0x632B_E59B_D9B4_E019))))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}
