//! Generation strategies: how a case value is drawn from a seeded
//! generator, and how a failing value is shrunk toward a minimal one.
//!
//! Plain range expressions are strategies (`0.0f64..15.0`,
//! `1usize..300`), so properties read like the inline-range style the
//! old proptest suites used. Compound values come from [`vec`], tuples of
//! strategies, and [`bools`].

use crossroads_prng::{Rng, StdRng};

/// A way to generate values of one type, plus how to shrink a failing one.
///
/// `shrink` proposes *simpler* candidates (closer to the range origin,
/// shorter vectors). The runner keeps any candidate that still fails and
/// iterates to a local minimum, so candidates must be strictly simpler
/// than the input or shrinking could loop.
pub trait Strategy {
    /// The generated value type.
    type Value: Clone + std::fmt::Debug;

    /// Draws one value from a seeded generator.
    fn generate(&self, rng: &mut StdRng) -> Self::Value;

    /// Proposes simpler candidates for a failing value (simplest first).
    fn shrink(&self, _value: &Self::Value) -> Vec<Self::Value> {
        Vec::new()
    }
}

impl Strategy for std::ops::Range<f64> {
    type Value = f64;

    fn generate(&self, rng: &mut StdRng) -> f64 {
        rng.gen_range(self.clone())
    }

    fn shrink(&self, value: &f64) -> Vec<f64> {
        let origin = if self.start <= 0.0 && self.end > 0.0 {
            0.0
        } else {
            self.start
        };
        let v = *value;
        if v == origin || !v.is_finite() {
            return Vec::new();
        }
        let mut out = vec![origin];
        // A bisection ladder from the midpoint toward the failing value,
        // so greedy descent converges on a pass/fail boundary anywhere in
        // the interval instead of stalling once the midpoint passes.
        let span = v - origin;
        for k in 1..=8u32 {
            let cand = v - span / f64::from(1u32 << k);
            if cand != v && cand != origin {
                out.push(cand);
            }
        }
        // A round number frequently makes the minimal example readable.
        let t = v.trunc();
        if t != v && t != origin && (t - origin).abs() < (v - origin).abs() && self.contains(&t) {
            out.push(t);
        }
        out
    }
}

macro_rules! impl_int_strategy {
    ($($t:ty),+) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }

            fn shrink(&self, value: &$t) -> Vec<$t> {
                let origin = self.start;
                let v = *value;
                if v <= origin {
                    return Vec::new();
                }
                let mut out = vec![origin];
                // Bisection ladder (midpoint, then points progressively
                // nearer the failing value), finishing with the immediate
                // predecessor so descent can always reach the boundary.
                let span = v as i128 - origin as i128;
                for shift in 1..4u32 {
                    #[allow(clippy::cast_possible_truncation, clippy::cast_possible_wrap)]
                    let cand = (v as i128 - (span >> shift)) as $t;
                    if cand != v && cand != origin && !out.contains(&cand) {
                        out.push(cand);
                    }
                }
                if !out.contains(&(v - 1)) {
                    out.push(v - 1);
                }
                out
            }
        }
    )+};
}

impl_int_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Strategy for `bool` (shrinks `true` to `false`).
#[derive(Debug, Clone, Copy)]
pub struct Bools;

/// Any boolean, fair coin.
#[must_use]
pub fn bools() -> Bools {
    Bools
}

impl Strategy for Bools {
    type Value = bool;

    fn generate(&self, rng: &mut StdRng) -> bool {
        rng.gen_bool(0.5)
    }

    fn shrink(&self, value: &bool) -> Vec<bool> {
        if *value {
            vec![false]
        } else {
            Vec::new()
        }
    }
}

/// A vector of values from `elem`, with length drawn uniformly from
/// `len` (half-open, like the collection strategies it replaces).
#[must_use]
pub fn vec<S: Strategy>(elem: S, len: std::ops::Range<usize>) -> VecStrategy<S> {
    assert!(len.start < len.end, "empty length range {len:?}");
    VecStrategy {
        elem,
        min_len: len.start,
        max_len: len.end,
    }
}

/// See [`vec()`].
#[derive(Debug, Clone)]
pub struct VecStrategy<S> {
    elem: S,
    min_len: usize,
    max_len: usize,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut StdRng) -> Vec<S::Value> {
        let len = rng.gen_range(self.min_len..self.max_len);
        (0..len).map(|_| self.elem.generate(rng)).collect()
    }

    fn shrink(&self, value: &Vec<S::Value>) -> Vec<Vec<S::Value>> {
        let n = value.len();
        let mut out = Vec::new();
        // Structural shrinks first: shorter vectors are always simpler.
        if n > self.min_len {
            let half = (n / 2).max(self.min_len);
            if half < n {
                out.push(value[..half].to_vec());
            }
            out.push(value[..n - 1].to_vec());
            out.push(value[1..].to_vec());
        }
        // Then element-wise shrinks, every candidate per slot (candidate
        // lists are small, and truncating them can strand the descent
        // short of the minimal element values).
        for (i, item) in value.iter().enumerate() {
            for cand in self.elem.shrink(item) {
                let mut next = value.clone();
                next[i] = cand;
                out.push(next);
            }
        }
        out
    }
}

macro_rules! impl_tuple_strategy {
    ($(($($s:ident / $v:ident / $idx:tt),+))+) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);

            fn generate(&self, rng: &mut StdRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }

            fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
                let mut out = Vec::new();
                $(
                    for cand in self.$idx.shrink(&value.$idx) {
                        let mut next = value.clone();
                        next.$idx = cand;
                        out.push(next);
                    }
                )+
                out
            }
        }
    )+};
}

impl_tuple_strategy! {
    (S0 / V0 / 0)
    (S0 / V0 / 0, S1 / V1 / 1)
    (S0 / V0 / 0, S1 / V1 / 1, S2 / V2 / 2)
    (S0 / V0 / 0, S1 / V1 / 1, S2 / V2 / 2, S3 / V3 / 3)
    (S0 / V0 / 0, S1 / V1 / 1, S2 / V2 / 2, S3 / V3 / 3, S4 / V4 / 4)
    (S0 / V0 / 0, S1 / V1 / 1, S2 / V2 / 2, S3 / V3 / 3, S4 / V4 / 4, S5 / V5 / 5)
    (S0 / V0 / 0, S1 / V1 / 1, S2 / V2 / 2, S3 / V3 / 3, S4 / V4 / 4, S5 / V5 / 5, S6 / V6 / 6)
    (S0 / V0 / 0, S1 / V1 / 1, S2 / V2 / 2, S3 / V3 / 3, S4 / V4 / 4, S5 / V5 / 5, S6 / V6 / 6, S7 / V7 / 7)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossroads_prng::SeedableRng;

    #[test]
    fn ranges_generate_inside_bounds() {
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..1000 {
            let f = (0.5f64..3.0).generate(&mut rng);
            assert!((0.5..3.0).contains(&f));
            let i = (3usize..17).generate(&mut rng);
            assert!((3..17).contains(&i));
        }
    }

    #[test]
    fn shrink_candidates_are_strictly_simpler() {
        for v in [199.0f64, -150.0, 0.25] {
            for c in (-200.0f64..200.0).shrink(&v) {
                assert!(c.abs() < v.abs(), "candidate {c} not simpler than {v}");
            }
        }
        for c in (1usize..300).shrink(&250) {
            assert!(c < 250);
            assert!(c >= 1);
        }
        assert!((1usize..300).shrink(&1).is_empty());
    }

    #[test]
    fn vec_shrink_respects_min_len() {
        let s = vec(0u64..100, 2..10);
        let v = std::vec![5, 6, 7];
        for cand in s.shrink(&v) {
            assert!(cand.len() >= 2, "shrunk below min length: {cand:?}");
        }
    }

    #[test]
    fn tuple_shrink_moves_one_component_at_a_time() {
        let s = (0u64..10, 0u64..10);
        for (a, b) in s.shrink(&(4, 7)) {
            assert!(
                (a == 4) != (b == 7),
                "candidate ({a}, {b}) changed both or neither"
            );
        }
    }
}
