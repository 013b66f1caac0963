//! Small numeric helpers: order statistics, a fast content hash, and a
//! named-duration accumulator for the traced legs.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Nearest-rank quantile of `samples` (`q` in `[0, 1]`). Returns 0 for
/// an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (nearest rank).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn per(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Microseconds in a duration.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// A 64-bit content hash over whole words (not cryptographic). The
/// benchmark's oracles compare object bytes by this hash, computed from
/// the generator's blob on one side and from the bytes the program
/// returned on the other, so no check leans on the program's MD5.
pub fn content_hash(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0x9e37_79b9_7f4a_7c15 ^ bytes.len() as u64;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let v = u64::from_le_bytes(w.try_into().expect("chunks of 8"));
        h = (h ^ v).wrapping_mul(0x0000_0100_0000_01b3).rotate_left(29);
    }
    for b in words.remainder() {
        h = (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h ^ (h >> 31)
}

/// Time spent in named calls, plus how many calls: the traced legs'
/// per-layer ledger. Kept in the benchmark, outside the program.
#[derive(Debug, Default, Clone)]
pub struct Ledger {
    spans: BTreeMap<&'static str, (Duration, u64)>,
}

impl Ledger {
    /// Times `f` under `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.add(name, start.elapsed());
        out
    }

    /// Adds one call of duration `d` under `name`.
    pub fn add(&mut self, name: &'static str, d: Duration) {
        let slot = self.spans.entry(name).or_default();
        slot.0 += d;
        slot.1 += 1;
    }

    /// Merges another ledger into this one.
    pub fn absorb(&mut self, other: &Ledger) {
        for (name, (d, n)) in &other.spans {
            let slot = self.spans.entry(name).or_default();
            slot.0 += *d;
            slot.1 += n;
        }
    }

    /// Mean microseconds per call under `name` (0 if never called).
    pub fn mean_us(&self, name: &str) -> f64 {
        self.spans
            .get(name)
            .map_or(0.0, |(d, n)| per(us(*d), *n as f64))
    }

    /// Total time and calls over every name.
    pub fn overall(&self) -> (Duration, u64) {
        self.spans
            .values()
            .fold((Duration::ZERO, 0), |(d, n), (sd, sn)| (d + *sd, n + sn))
    }

    /// Calls made under `name`.
    pub fn calls(&self, name: &str) -> u64 {
        self.spans.get(name).map_or(0, |(_, n)| *n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn content_hash_sees_one_flipped_byte() {
        let mut bytes = vec![7u8; 1003];
        let h = content_hash(&bytes);
        bytes[1001] ^= 1;
        assert_ne!(h, content_hash(&bytes));
    }
}
