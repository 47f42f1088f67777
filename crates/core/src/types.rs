//! Elementary identifiers and weight arithmetic shared by every crate.

use serde::Serialize;

/// Index of a page, `0..n`.
pub type PageId = u32;

/// Level of a copy of a page, **1-based** as in the paper: level 1 is the
/// highest (most expensive) copy, level `ℓ` the lowest. `0` is reserved as
/// the "absent" sentinel inside [`crate::cache::CacheState`].
pub type Level = u8;

/// Eviction (equivalently fetch) cost of a copy. The paper assumes
/// `w ≥ 1`; we use integer weights, which every experiment in the
/// evaluation suite satisfies. Fractional computations convert to `f64`.
pub type Weight = u64;

/// A concrete copy `(p, i)` of a page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct CopyRef {
    /// The page.
    pub page: PageId,
    /// The level of the copy, 1-based.
    pub level: Level,
}

impl CopyRef {
    /// Construct a copy reference.
    #[inline]
    pub fn new(page: PageId, level: Level) -> Self {
        debug_assert!(level >= 1, "levels are 1-based");
        CopyRef { page, level }
    }
}

impl std::fmt::Display for CopyRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({},{})", self.page, self.level)
    }
}

/// The weight class of a copy, following Section 4.3.1 of the paper:
/// class `i` holds weights in `(2^{i-1}, 2^i]`, so `class(1) = 0`,
/// `class(2) = 1`, `class(3) = class(4) = 2`, and in general
/// `class(w) = ⌈log₂ w⌉`.
///
/// `P_{≥ i}` (pages of weight `> 2^{i-1}`) is exactly the set of copies with
/// `weight_class(w) ≥ i`.
#[inline]
pub fn weight_class(w: Weight) -> u32 {
    assert!(w >= 1, "weights must be at least 1");
    // ceil(log2(w)) for integers: number of bits of (w - 1).
    u64::BITS - (w - 1).leading_zeros()
}

/// Number of distinct weight classes needed to cover weights up to `w_max`,
/// i.e. `weight_class(w_max) + 1` (classes are `0..=weight_class(w_max)`).
#[inline]
pub fn num_weight_classes(w_max: Weight) -> usize {
    weight_class(w_max.max(1)) as usize + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weight_class_boundaries() {
        assert_eq!(weight_class(1), 0);
        assert_eq!(weight_class(2), 1);
        assert_eq!(weight_class(3), 2);
        assert_eq!(weight_class(4), 2);
        assert_eq!(weight_class(5), 3);
        assert_eq!(weight_class(8), 3);
        assert_eq!(weight_class(9), 4);
        assert_eq!(weight_class(1 << 20), 20);
        assert_eq!(weight_class((1 << 20) + 1), 21);
    }

    #[test]
    fn class_is_ceil_log2() {
        for w in 1u64..4096 {
            let c = weight_class(w);
            // 2^{c-1} < w <= 2^c, with the c = 0 case meaning w = 1.
            if c == 0 {
                assert_eq!(w, 1);
            } else {
                assert!(1u64 << (c - 1) < w && w <= 1u64 << c, "w={w} c={c}");
            }
        }
    }

    #[test]
    fn num_classes() {
        assert_eq!(num_weight_classes(1), 1);
        assert_eq!(num_weight_classes(2), 2);
        assert_eq!(num_weight_classes(1024), 11);
    }

    #[test]
    fn copy_ref_display() {
        assert_eq!(CopyRef::new(3, 2).to_string(), "(3,2)");
    }
}
