//! Set systems and offline covers.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A set system `(U, F)` with `U = {0, …, n−1}` and `F` a family of
/// subsets of `U`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SetSystem {
    num_elements: usize,
    sets: Vec<Vec<usize>>,
    /// For each element, the sets containing it.
    containing: Vec<Vec<usize>>,
}

impl SetSystem {
    /// Build a set system; element ids must be `< num_elements`.
    pub fn new(num_elements: usize, sets: Vec<Vec<usize>>) -> Self {
        let mut containing = vec![Vec::new(); num_elements];
        for (s, elems) in sets.iter().enumerate() {
            for &e in elems {
                assert!(e < num_elements, "element {e} out of range");
                containing[e].push(s);
            }
        }
        SetSystem {
            num_elements,
            sets,
            containing,
        }
    }

    /// A random set system where each of `m` sets contains each element
    /// independently with probability `p` (resampled until every element
    /// is covered by at least one set).
    pub fn random(num_elements: usize, m: usize, p: f64, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        loop {
            let sets: Vec<Vec<usize>> = (0..m)
                .map(|_| (0..num_elements).filter(|_| rng.gen_bool(p)).collect())
                .collect();
            let sys = SetSystem::new(num_elements, sets);
            if (0..num_elements).all(|e| !sys.containing(e).is_empty()) {
                return sys;
            }
        }
    }

    /// Number of elements `n`.
    pub fn num_elements(&self) -> usize {
        self.num_elements
    }

    /// Number of sets `m`.
    pub fn num_sets(&self) -> usize {
        self.sets.len()
    }

    /// Elements of set `s`.
    pub fn set(&self, s: usize) -> &[usize] {
        &self.sets[s]
    }

    /// Sets containing element `e`.
    pub fn containing(&self, e: usize) -> &[usize] {
        &self.containing[e]
    }

    /// Sets **not** containing element `e` (the paper's `F̄_e`), in index
    /// order.
    pub fn not_containing(&self, e: usize) -> Vec<usize> {
        let mut mark = vec![false; self.num_sets()];
        for &s in &self.containing[e] {
            mark[s] = true;
        }
        (0..self.num_sets()).filter(|&s| !mark[s]).collect()
    }

    /// Does `chosen` cover all of `requested`?
    pub fn is_cover(&self, chosen: &[usize], requested: &[usize]) -> bool {
        let mut covered = vec![false; self.num_elements];
        for &s in chosen {
            for &e in &self.sets[s] {
                covered[e] = true;
            }
        }
        requested.iter().all(|&e| covered[e])
    }

    /// Exact minimum cover of `requested` by exhaustive search over subset
    /// sizes (only for small families, `m ≤ 20`).
    pub fn min_cover(&self, requested: &[usize]) -> Vec<usize> {
        let m = self.num_sets();
        assert!(m <= 20, "exhaustive cover limited to 20 sets");
        // Bitmask over requested elements (deduplicated).
        let mut ids = vec![usize::MAX; self.num_elements];
        let mut distinct = 0usize;
        for &e in requested {
            if ids[e] == usize::MAX {
                ids[e] = distinct;
                distinct += 1;
            }
        }
        assert!(distinct <= 63);
        let full: u64 = if distinct == 0 {
            0
        } else {
            (1 << distinct) - 1
        };
        let masks: Vec<u64> = (0..m)
            .map(|s| {
                self.sets[s]
                    .iter()
                    .filter(|&&e| ids[e] != usize::MAX)
                    .fold(0u64, |acc, &e| acc | 1 << ids[e])
            })
            .collect();
        let mut best: Option<Vec<usize>> = None;
        for subset in 0u32..(1 << m) {
            if let Some(b) = &best {
                if subset.count_ones() as usize >= b.len() {
                    continue;
                }
            }
            let mut acc = 0u64;
            for (s, &mask) in masks.iter().enumerate() {
                if subset & (1 << s) != 0 {
                    acc |= mask;
                }
            }
            if acc & full == full {
                best = Some((0..m).filter(|&s| subset & (1 << s) != 0).collect());
            }
        }
        best.expect("requested elements not coverable")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys() -> SetSystem {
        SetSystem::new(4, vec![vec![0, 1], vec![1, 2], vec![2, 3], vec![0, 3]])
    }

    #[test]
    fn containment_structures() {
        let s = sys();
        assert_eq!(s.containing(1), &[0, 1]);
        assert_eq!(s.not_containing(1), vec![2, 3]);
    }

    #[test]
    fn cover_validation() {
        let s = sys();
        assert!(s.is_cover(&[0, 2], &[0, 1, 2, 3]));
        assert!(!s.is_cover(&[0], &[0, 1, 2]));
        assert!(s.is_cover(&[], &[]));
    }

    #[test]
    fn min_cover_is_exact() {
        let s = sys();
        let c = s.min_cover(&[0, 1, 2, 3]);
        assert_eq!(c.len(), 2);
        assert!(s.is_cover(&c, &[0, 1, 2, 3]));
    }

    #[test]
    fn random_systems_cover_everything() {
        let s = SetSystem::random(12, 8, 0.3, 5);
        for e in 0..12 {
            assert!(!s.containing(e).is_empty());
        }
    }
}
