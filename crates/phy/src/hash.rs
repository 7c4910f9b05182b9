//! Deterministic hash-derived randomness.
//!
//! Radio realizations (fading, slot choices, interference) must be a pure
//! function of (seed, round, slot, node, …) so that executions replay
//! exactly and no hidden RNG state couples independent draws. A
//! splitmix64 finalizer over the packed inputs provides that.

/// The splitmix64 finalizer: a high-quality 64-bit mixer.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Hashes a tuple of values into one word.
pub fn hash_tuple(parts: &[u64]) -> u64 {
    let mut acc = 0x51_7C_C1_B7_27_22_0A_95u64;
    for &p in parts {
        acc = splitmix64(acc ^ p);
    }
    acc
}

/// Extends a [`hash_tuple`] accumulator by one more part.
///
/// Because `hash_tuple` folds its parts strictly left-to-right,
/// `extend(hash_tuple(&parts[..k]), parts[k])` equals
/// `hash_tuple(&parts[..=k])` bit-for-bit. Hot loops use this to hoist
/// the shared prefix of a tuple (e.g. `(seed, salt, round, tx)`) out of
/// an inner loop that varies only the last part.
#[inline]
pub fn extend(acc: u64, part: u64) -> u64 {
    splitmix64(acc ^ part)
}

/// The `[0, 1)` uniform encoded by a finished hash word (53-bit
/// mantissa) — the same construction [`uniform`] applies to
/// `hash_tuple`'s output.
#[inline]
fn unit_from(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// [`unit_from`], but never exactly zero (safe for `ln`).
#[inline]
fn open_unit_from(h: u64) -> f64 {
    let u = unit_from(h);
    if u <= 0.0 {
        f64::MIN_POSITIVE
    } else {
        u
    }
}

/// An exponential(1) draw from a prefix accumulator plus final part:
/// bit-identical to `exponential(&[..prefix parts.., last])`.
#[inline]
pub fn exponential_extend(prefix: u64, last: u64) -> f64 {
    -open_unit_from(extend(prefix, last)).ln()
}

/// A uniform draw in `[0, 1)` from hashed inputs (53-bit mantissa).
pub fn uniform(parts: &[u64]) -> f64 {
    unit_from(hash_tuple(parts))
}

/// A uniform draw that is never exactly zero (safe for `ln`).
pub fn uniform_open(parts: &[u64]) -> f64 {
    open_unit_from(hash_tuple(parts))
}

/// An exponential(1) draw — Rayleigh *power* fading.
pub fn exponential(parts: &[u64]) -> f64 {
    -uniform_open(parts).ln()
}

/// The Box–Muller normal keyed by a finished tuple hash `h`: its two
/// uniforms are `h` extended by the salts `0xA5A5` and `0x5A5A`.
#[inline]
fn normal_from(h: u64) -> f64 {
    let u1 = open_unit_from(extend(h, 0xA5A5));
    let u2 = unit_from(extend(h, 0x5A5A));
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// A standard normal draw from a prefix accumulator plus final part:
/// bit-identical to `standard_normal(&[..prefix parts.., last])`, with no
/// allocation.
#[inline]
pub fn standard_normal_extend(prefix: u64, last: u64) -> f64 {
    normal_from(extend(prefix, last))
}

/// A standard normal draw via Box–Muller (used for log-normal shadowing).
pub fn standard_normal(parts: &[u64]) -> f64 {
    normal_from(hash_tuple(parts))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        assert_eq!(hash_tuple(&[1, 2, 3]), hash_tuple(&[1, 2, 3]));
        assert_ne!(hash_tuple(&[1, 2, 3]), hash_tuple(&[1, 2, 4]));
        assert_eq!(uniform(&[9, 9]), uniform(&[9, 9]));
    }

    #[test]
    fn prefix_extension_is_bit_identical() {
        // The whole point of the prefix helpers: hoisting the shared
        // tuple prefix must not change a single bit of any draw.
        for round in 0..50u64 {
            for rx in 0..16u64 {
                let parts = [42, 0xFAD3, round, 7, rx];
                let prefix = hash_tuple(&parts[..4]);
                assert_eq!(extend(prefix, rx), hash_tuple(&parts));
                assert_eq!(
                    exponential_extend(prefix, rx).to_bits(),
                    exponential(&parts).to_bits(),
                    "round {round} rx {rx}"
                );
            }
        }
    }

    #[test]
    fn normal_prefix_extension_is_bit_identical() {
        // The gain build's shadowing draw: a `(seed, 0x5D)` prefix
        // extended by the pair `(a, b)` must reproduce the slice form,
        // and both must equal the seed-era Box–Muller over the salted
        // slices `[.., 0xA5A5]` and `[.., 0x5A5A]`.
        for seed in 0..20u64 {
            let prefix = hash_tuple(&[seed, 0x5D]);
            for a in 0..8u64 {
                let row = extend(prefix, a);
                for b in a + 1..12 {
                    let u1 = uniform_open(&[seed, 0x5D, a, b, 0xA5A5]);
                    let u2 = uniform(&[seed, 0x5D, a, b, 0x5A5A]);
                    let seed_era =
                        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                    assert_eq!(
                        standard_normal(&[seed, 0x5D, a, b]).to_bits(),
                        seed_era.to_bits(),
                        "slice form, seed {seed} pair ({a}, {b})"
                    );
                    assert_eq!(
                        standard_normal_extend(row, b).to_bits(),
                        seed_era.to_bits(),
                        "prefix form, seed {seed} pair ({a}, {b})"
                    );
                }
            }
        }
    }

    #[test]
    fn uniform_in_range() {
        for i in 0..1000u64 {
            let u = uniform(&[42, i]);
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn exponential_positive_with_unit_mean() {
        let mean: f64 = (0..20_000u64).map(|i| exponential(&[7, i])).sum::<f64>() / 20_000.0;
        assert!((mean - 1.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn normal_moments() {
        let n = 20_000u64;
        let draws: Vec<f64> = (0..n).map(|i| standard_normal(&[3, i])).collect();
        let mean = draws.iter().sum::<f64>() / n as f64;
        let var = draws.iter().map(|d| (d - mean) * (d - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.08, "var {var}");
    }
}
