//! Minterm alphabets: partitioning the Unicode scalar space into the
//! equivalence classes induced by a set of [`CharSet`]s.
//!
//! DFAs over raw Unicode would need 0x110000-ary transition tables. All
//! automata in a constraint problem instead share one [`Alphabet`]: the
//! coarsest partition such that every `CharSet` appearing in the problem
//! is a union of classes. Typical problems produce a handful of classes.

use std::borrow::Borrow;
use std::sync::Arc;

use crate::charset::CharSet;
use crate::fxhash::FxHashMap;

/// The surrogate block `[SURROGATE_LO, SURROGATE_END)`, and one past the
/// last scalar value: fixed boundaries of every alphabet.
const SURROGATE_LO: u32 = 0xD800;
const SURROGATE_END: u32 = 0xE000;
const SCALAR_END: u32 = 0x110000;

/// True when the interval `[lo, end)` lies in the surrogate block. An
/// interval is either inside the block or disjoint from it, since the
/// block's ends are boundaries.
fn is_gap(lo: u32, end: u32) -> bool {
    lo >= SURROGATE_LO && end <= SURROGATE_END
}

/// Identifier of an alphabet class (a "minterm").
pub type ClassId = u16;

/// A partition of the scalar-value space into disjoint classes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Alphabet {
    /// Sorted interval boundaries: interval `i` is
    /// `[boundaries[i], boundaries[i+1])`.
    boundaries: Vec<u32>,
    /// Class of each interval.
    interval_class: Vec<ClassId>,
    /// The character set of each class.
    classes: Vec<CharSet>,
    /// Content hash, precomputed at construction: alphabets are hashed
    /// on every solver DFA-cache lookup, and hashing the boundary and
    /// class vectors each time dominated cache-hit cost.
    fingerprint: u64,
}

impl std::hash::Hash for Alphabet {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // Consistent with `PartialEq`: the fingerprint is a pure
        // function of the compared content, so equal alphabets hash
        // equally (unequal ones may collide, which `Hash` permits).
        state.write_u64(self.fingerprint);
    }
}

impl Alphabet {
    /// Builds the minterm partition for a collection of character sets.
    ///
    /// Every input set is exactly a union of the resulting classes.
    /// Characters not covered by any input set fall into "rest" classes.
    ///
    /// # Examples
    ///
    /// ```
    /// use automata::{Alphabet, CharSet};
    ///
    /// let alpha = Alphabet::from_sets(&[
    ///     CharSet::range('a', 'z'),
    ///     CharSet::range('m', 'p'), // overlaps [a-z]: refines it
    /// ]);
    /// // Characters inside one minterm share a class…
    /// assert_eq!(alpha.classify('b'), alpha.classify('c')); // both in [a-l] only
    /// assert_eq!(alpha.classify('m'), alpha.classify('p')); // both in [m-p] too
    /// // …while the overlap splits [a-z] into distinguishable classes.
    /// assert_ne!(alpha.classify('b'), alpha.classify('m'));
    /// assert_ne!(alpha.classify('m'), alpha.classify('q'));
    /// ```
    pub fn from_sets<S: Borrow<CharSet>>(sets: &[S]) -> Alphabet {
        // Collect boundaries: starts and one-past-ends of every range.
        // The surrogate block D800–DFFF is carved out: `char` cannot
        // represent it, and complements exclude it, so no class may
        // contain it.
        let mut bounds: Vec<u32> = vec![0, SURROGATE_LO, SURROGATE_END, SCALAR_END];
        for set in sets {
            for &(lo, hi) in set.borrow().ranges() {
                bounds.push(lo);
                bounds.push(hi + 1);
            }
        }
        bounds.sort_unstable();
        bounds.dedup();
        let intervals = bounds.len() - 1;

        // Signature per interval: a bitset of the sets that cover it.
        // Every range starts and ends on a boundary, so each range marks
        // a run of whole intervals.
        let words = sets.len().div_ceil(64);
        let mut signatures = vec![0u64; intervals * words];
        for (i, set) in sets.iter().enumerate() {
            let (word, bit) = (i / 64, 1u64 << (i % 64));
            for &(lo, hi) in set.borrow().ranges() {
                let mut k = bounds.partition_point(|&b| b < lo);
                while bounds[k] <= hi {
                    signatures[k * words + word] |= bit;
                    k += 1;
                }
            }
        }
        // The gap is in no class's set.
        for k in 0..intervals {
            if is_gap(bounds[k], bounds[k + 1]) {
                signatures[k * words..(k + 1) * words].fill(0);
            }
        }

        // Classes in order of their first interval. Intervals ascend,
        // so each class's ranges append in order and only a range that
        // touches the previous one merges into it.
        let mut interval_class = Vec::with_capacity(intervals);
        let mut ranges: Vec<Vec<(u32, u32)>> = Vec::new();
        let mut signature_to_class: FxHashMap<&[u64], ClassId> = FxHashMap::default();
        for k in 0..intervals {
            let signature = &signatures[k * words..(k + 1) * words];
            let class = *signature_to_class.entry(signature).or_insert_with(|| {
                ranges.push(Vec::new());
                (ranges.len() - 1) as ClassId
            });
            let (lo, hi) = (bounds[k], bounds[k + 1] - 1);
            if !is_gap(lo, hi + 1) {
                let class_ranges = &mut ranges[class as usize];
                match class_ranges.last_mut() {
                    Some((_, last)) if *last + 1 == lo => *last = hi,
                    _ => class_ranges.push((lo, hi)),
                }
            }
            interval_class.push(class);
        }
        let classes: Vec<CharSet> = ranges.into_iter().map(CharSet::from_sorted).collect();
        Alphabet::assemble(bounds, interval_class, classes)
    }

    /// Wraps the tables and hashes their content into the fingerprint.
    pub(crate) fn assemble(
        boundaries: Vec<u32>,
        interval_class: Vec<ClassId>,
        classes: Vec<CharSet>,
    ) -> Alphabet {
        let fingerprint = {
            use std::hash::{Hash, Hasher};
            let mut hasher = std::collections::hash_map::DefaultHasher::new();
            boundaries.hash(&mut hasher);
            interval_class.hash(&mut hasher);
            classes.hash(&mut hasher);
            hasher.finish()
        };
        Alphabet {
            boundaries,
            interval_class,
            classes,
            fingerprint,
        }
    }

    /// Builds an alphabet shared across regexes and literal strings.
    pub fn for_problem(regex_sets: &[CharSet], literals: &[&str]) -> Arc<Alphabet> {
        let mut sets = regex_sets.to_vec();
        for lit in literals {
            for c in lit.chars() {
                sets.push(CharSet::single(c));
            }
        }
        Arc::new(Alphabet::from_sets(&sets))
    }

    /// Number of classes.
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// Maps a character to its class.
    pub fn classify(&self, c: char) -> ClassId {
        let v = c as u32;
        // Find the interval via binary search: last boundary ≤ v.
        let idx = match self.boundaries.binary_search(&v) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        self.interval_class[idx.min(self.interval_class.len() - 1)]
    }

    /// The character set of a class.
    pub fn class_set(&self, class: ClassId) -> &CharSet {
        &self.classes[class as usize]
    }

    /// A readable representative character of a class.
    pub fn representative(&self, class: ClassId) -> char {
        self.classes[class as usize]
            .pick()
            .expect("classes are nonempty")
    }

    /// Decomposes a set into the classes it covers, in class order.
    ///
    /// # Panics
    ///
    /// Debug-asserts that the set is a union of classes, which holds
    /// whenever the set participated in [`Alphabet::from_sets`].
    pub fn classes_of(&self, set: &CharSet) -> Vec<ClassId> {
        let mut out = Vec::new();
        self.classes_into(set, &mut out);
        out
    }

    /// [`Alphabet::classes_of`] into a reused buffer, read off the
    /// interval tables: the classes of the intervals the set's ranges
    /// overlap, the surrogate gap excepted.
    pub(crate) fn classes_into(&self, set: &CharSet, out: &mut Vec<ClassId>) {
        out.clear();
        let bounds = &self.boundaries;
        for &(lo, hi) in set.ranges() {
            let mut k = bounds.partition_point(|&b| b <= lo) - 1;
            while k < self.interval_class.len() && bounds[k] <= hi {
                if !is_gap(bounds[k], bounds[k + 1]) {
                    out.push(self.interval_class[k]);
                }
                k += 1;
            }
        }
        out.sort_unstable();
        out.dedup();
        debug_assert!(
            out.iter().all(|&c| self.classes[c as usize].is_subset(set)),
            "set must be a union of alphabet classes"
        );
    }

    /// When this alphabet refines `coarser` — every class of `self`
    /// lies inside one class of `coarser` — the coarser class of each
    /// class of `self`, indexed by class id; `None` otherwise.
    ///
    /// Classes are matched through the interval tables, not through
    /// representative characters, so a class that holds only the
    /// surrogate gap (an empty [`CharSet`]) maps to the coarser class
    /// that holds the gap: both stand for "in no set of the problem".
    ///
    /// ```
    /// use automata::{Alphabet, CharSet};
    ///
    /// let coarse = Alphabet::from_sets(&[CharSet::range('a', 'z')]);
    /// let fine = Alphabet::from_sets(&[CharSet::range('a', 'z'), CharSet::single('q')]);
    /// let map = fine.refinement_map(&coarse).expect("fine refines coarse");
    /// assert_eq!(map[fine.classify('q') as usize], coarse.classify('q'));
    /// assert_eq!(map[fine.classify('b') as usize], coarse.classify('b'));
    /// assert!(coarse.refinement_map(&fine).is_none());
    /// ```
    pub fn refinement_map(&self, coarser: &Alphabet) -> Option<Vec<ClassId>> {
        let mut map = Vec::new();
        self.refinement_into(coarser, &mut map).then_some(map)
    }

    /// [`Alphabet::refinement_map`] into a reused buffer; false when
    /// `self` does not refine `coarser`.
    pub(crate) fn refinement_into(&self, coarser: &Alphabet, map: &mut Vec<ClassId>) -> bool {
        // `ClassId::MAX` marks a class not yet mapped; no alphabet comes
        // near 65,535 classes.
        map.clear();
        map.resize(self.class_count(), ClassId::MAX);
        // Both boundary lists start at 0 and end at 0x110000; walk the
        // coarser intervals that overlap each interval of `self`.
        let mut j = 0;
        for (i, &class) in self.interval_class.iter().enumerate() {
            let (lo, hi) = (self.boundaries[i], self.boundaries[i + 1]);
            while coarser.boundaries[j + 1] <= lo {
                j += 1;
            }
            let mut k = j;
            while coarser.boundaries[k] < hi {
                let target = coarser.interval_class[k];
                match map[class as usize] {
                    ClassId::MAX => map[class as usize] = target,
                    mapped if mapped != target => return false,
                    _ => {}
                }
                k += 1;
            }
        }
        !map.contains(&ClassId::MAX)
    }

    /// Converts a word of class ids into a concrete string of
    /// representatives.
    pub fn realize(&self, word: &[ClassId]) -> String {
        word.iter().map(|&c| self.representative(c)).collect()
    }

    /// Converts a string into class ids.
    pub fn abstract_word(&self, word: &str) -> Vec<ClassId> {
        word.chars().map(|c| self.classify(c)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_set_two_classes() {
        let alpha = Alphabet::from_sets(&[CharSet::range('a', 'z')]);
        assert_eq!(alpha.class_count(), 2);
        assert_eq!(alpha.classify('m'), alpha.classify('q'));
        assert_ne!(alpha.classify('m'), alpha.classify('9'));
    }

    #[test]
    fn overlapping_sets_refine() {
        let alpha = Alphabet::from_sets(&[CharSet::range('a', 'm'), CharSet::range('g', 'z')]);
        // Classes: [a-f], [g-m], [n-z], rest.
        assert_eq!(alpha.class_count(), 4);
        assert_ne!(alpha.classify('a'), alpha.classify('h'));
        assert_ne!(alpha.classify('h'), alpha.classify('p'));
    }

    #[test]
    fn sets_are_unions_of_classes() {
        let set = CharSet::range('0', '9');
        let alpha = Alphabet::from_sets(&[set.clone(), CharSet::range('5', 'k')]);
        let classes = alpha.classes_of(&set);
        let mut union = CharSet::empty();
        for c in classes {
            union = union.union(alpha.class_set(c));
        }
        assert_eq!(union, set);
    }

    #[test]
    fn realize_round_trip() {
        let alpha = Alphabet::from_sets(&[CharSet::single('x'), CharSet::single('y')]);
        let word = alpha.abstract_word("xyx");
        let back = alpha.realize(&word);
        assert_eq!(back, "xyx");
    }

    #[test]
    fn empty_sets_one_class() {
        let alpha = Alphabet::from_sets::<CharSet>(&[]);
        assert_eq!(alpha.class_count(), 1);
    }

    #[test]
    fn refinement_maps_the_surrogate_only_class_through_the_gap() {
        let az = CharSet::range('a', 'z');
        // `coarse` has a rest class: everything outside [a-z], gap
        // included. `fine` covers every scalar value, so its gap class
        // holds no character at all.
        let coarse = Alphabet::from_sets(std::slice::from_ref(&az));
        let fine = Alphabet::from_sets(&[az.clone(), az.complement()]);
        assert_eq!(fine.class_count(), 3);
        let gap = fine.interval_class[fine.boundaries.binary_search(&0xD800).expect("gap bound")];
        assert!(fine.class_set(gap).is_empty());
        let map = fine.refinement_map(&coarse).expect("fine refines coarse");
        let rest = coarse.classify('0');
        assert_eq!(map[gap as usize], rest);
        assert_eq!(map[fine.classify('0') as usize], rest);
        assert_eq!(map[fine.classify('m') as usize], coarse.classify('m'));

        // Both sides surrogate-only: the gap classes map onto each other.
        let coarse = Alphabet::from_sets(&[CharSet::any()]);
        let fine = Alphabet::from_sets(&[CharSet::any(), CharSet::single('x')]);
        let map = fine.refinement_map(&coarse).expect("fine refines coarse");
        let gap_of = |a: &Alphabet| a.interval_class[a.boundaries.binary_search(&0xD800).unwrap()];
        assert_eq!(map[gap_of(&fine) as usize], gap_of(&coarse));
        assert_eq!(map[fine.classify('x') as usize], coarse.classify('x'));
    }

    #[test]
    fn refinement_map_rejects_crossing_partitions() {
        let left = Alphabet::from_sets(&[CharSet::range('a', 'm')]);
        let right = Alphabet::from_sets(&[CharSet::range('g', 'z')]);
        assert!(left.refinement_map(&right).is_none());
        assert!(right.refinement_map(&left).is_none());
        let identity = left.refinement_map(&left).expect("reflexive");
        assert_eq!(
            identity,
            (0..left.class_count() as ClassId).collect::<Vec<_>>()
        );
    }

    #[test]
    fn a_set_reaching_the_last_scalar_is_a_union_of_classes() {
        let set = CharSet::from_ranges(vec![(0x10FFF0, 0x110010)]);
        let alpha = Alphabet::from_sets(std::slice::from_ref(&set));
        let classes = alpha.classes_of(&set);
        assert_eq!(classes.len(), 1);
        assert_eq!(alpha.class_set(classes[0]), &set);
    }

    #[test]
    fn classify_extremes() {
        let alpha = Alphabet::from_sets(&[CharSet::single('a')]);
        let _ = alpha.classify('\0');
        let _ = alpha.classify(char::MAX);
    }
}
