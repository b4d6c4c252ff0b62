//! Sets of Unicode scalar values as sorted disjoint ranges.

use regex_syntax_es6::class::{complement_ranges, normalize_ranges, ClassSet, MAX_CHAR};

/// A set of characters, stored as sorted, disjoint, inclusive ranges of
/// scalar values.
///
/// `CharSet` is the transition label alphabet of the NFA layer and the
/// building block of [minterm alphabets](crate::alphabet::Alphabet).
///
/// # Examples
///
/// ```
/// use automata::CharSet;
///
/// let digits = CharSet::range('0', '9');
/// let letters = CharSet::range('a', 'z');
/// let both = digits.union(&letters);
/// assert!(both.contains('5') && both.contains('q'));
/// assert!(!both.intersect(&CharSet::single(' ')).contains(' '));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CharSet {
    ranges: Vec<(u32, u32)>,
}

impl CharSet {
    /// The empty set.
    pub fn empty() -> CharSet {
        CharSet { ranges: Vec::new() }
    }

    /// Every Unicode scalar value (excluding surrogates).
    pub fn any() -> CharSet {
        CharSet {
            ranges: complement_ranges(&[]),
        }
    }

    /// A single character.
    pub fn single(c: char) -> CharSet {
        CharSet {
            ranges: vec![(c as u32, c as u32)],
        }
    }

    /// An inclusive range.
    pub fn range(lo: char, hi: char) -> CharSet {
        CharSet {
            ranges: normalize_ranges(vec![(lo as u32, hi as u32)]),
        }
    }

    /// Builds a set from raw inclusive ranges, clamped at U+10FFFF: a
    /// range that starts past it is dropped.
    pub fn from_ranges(mut ranges: Vec<(u32, u32)>) -> CharSet {
        // Normalizing drops the ranges whose clamped end falls below
        // their start.
        for (_, hi) in &mut ranges {
            *hi = (*hi).min(MAX_CHAR);
        }
        CharSet {
            ranges: normalize_ranges(ranges),
        }
    }

    /// Wraps ranges that are already sorted, disjoint and non-adjacent.
    pub(crate) fn from_sorted(ranges: Vec<(u32, u32)>) -> CharSet {
        debug_assert!(ranges.windows(2).all(|w| w[0].1.saturating_add(1) < w[1].0));
        CharSet { ranges }
    }

    /// Converts a parsed character class (resolving negation, predefined
    /// escapes and ranges).
    pub fn from_class(class: &ClassSet) -> CharSet {
        CharSet {
            ranges: class.ranges(),
        }
    }

    /// The underlying ranges.
    pub fn ranges(&self) -> &[(u32, u32)] {
        &self.ranges
    }

    /// Membership test.
    pub fn contains(&self, c: char) -> bool {
        let v = c as u32;
        self.ranges
            .binary_search_by(|&(lo, hi)| {
                if v < lo {
                    std::cmp::Ordering::Greater
                } else if v > hi {
                    std::cmp::Ordering::Less
                } else {
                    std::cmp::Ordering::Equal
                }
            })
            .is_ok()
    }

    /// True when the set has no members.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// Number of scalar values in the set.
    pub fn len(&self) -> u64 {
        self.ranges
            .iter()
            .map(|&(lo, hi)| u64::from(hi - lo) + 1)
            .sum()
    }

    /// Set union.
    pub fn union(&self, other: &CharSet) -> CharSet {
        let mut ranges = self.ranges.clone();
        ranges.extend_from_slice(&other.ranges);
        CharSet {
            ranges: normalize_ranges(ranges),
        }
    }

    /// Set intersection.
    pub fn intersect(&self, other: &CharSet) -> CharSet {
        let mut out = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < self.ranges.len() && j < other.ranges.len() {
            let (alo, ahi) = self.ranges[i];
            let (blo, bhi) = other.ranges[j];
            let lo = alo.max(blo);
            let hi = ahi.min(bhi);
            if lo <= hi {
                out.push((lo, hi));
            }
            if ahi < bhi {
                i += 1;
            } else {
                j += 1;
            }
        }
        CharSet { ranges: out }
    }

    /// True when every member of `self` is in `other`.
    pub(crate) fn is_subset(&self, other: &CharSet) -> bool {
        let mut j = 0;
        self.ranges.iter().all(|&(lo, hi)| {
            while j < other.ranges.len() && other.ranges[j].1 < lo {
                j += 1;
            }
            j < other.ranges.len() && other.ranges[j].0 <= lo && hi <= other.ranges[j].1
        })
    }

    /// Complement over the scalar-value space.
    pub fn complement(&self) -> CharSet {
        CharSet {
            ranges: complement_ranges(&self.ranges),
        }
    }

    /// Set difference `self \ other`.
    pub fn difference(&self, other: &CharSet) -> CharSet {
        self.intersect(&other.complement())
    }

    /// Picks a *readable* representative character, preferring lowercase
    /// letters, then digits, then uppercase, then printable ASCII, then
    /// the lowest member. Used to turn DFA words into human-friendly
    /// witness strings.
    pub fn pick(&self) -> Option<char> {
        const PREFERRED: &[(u32, u32)] = &[
            ('a' as u32, 'z' as u32),
            ('0' as u32, '9' as u32),
            ('A' as u32, 'Z' as u32),
            (' ' as u32, '~' as u32),
        ];
        for &(plo, phi) in PREFERRED {
            for &(lo, hi) in &self.ranges {
                let start = lo.max(plo);
                let end = hi.min(phi);
                if start <= end {
                    return char::from_u32(start);
                }
            }
        }
        self.ranges.first().and_then(|&(lo, _)| char::from_u32(lo))
    }

    /// Iterates all members (use only on small sets).
    pub fn iter(&self) -> impl Iterator<Item = char> + '_ {
        self.ranges
            .iter()
            .flat_map(|&(lo, hi)| (lo..=hi).filter_map(char::from_u32))
    }

    /// The full scalar range, for assertions in tests.
    pub fn universe_len() -> u64 {
        u64::from(MAX_CHAR) + 1 - 0x800 // minus surrogate block
    }
}

impl FromIterator<char> for CharSet {
    fn from_iter<T: IntoIterator<Item = char>>(iter: T) -> CharSet {
        CharSet::from_ranges(iter.into_iter().map(|c| (c as u32, c as u32)).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_and_intersect() {
        let a = CharSet::range('a', 'm');
        let b = CharSet::range('g', 'z');
        assert_eq!(a.union(&b), CharSet::range('a', 'z'));
        assert_eq!(a.intersect(&b), CharSet::range('g', 'm'));
    }

    #[test]
    fn subsets() {
        let az = CharSet::range('a', 'z');
        assert!(CharSet::range('c', 'f').is_subset(&az));
        assert!(CharSet::empty().is_subset(&az));
        assert!(!CharSet::range('Z', 'b').is_subset(&az));
        let gapped = CharSet::from_ranges(vec![(0x61, 0x63), (0x70, 0x72)]);
        assert!(gapped.is_subset(&az));
        assert!(!az.is_subset(&gapped));
        assert!(!CharSet::range('b', 'q').is_subset(&gapped));
    }

    #[test]
    fn complement_round_trip() {
        let a = CharSet::range('0', '9');
        assert_eq!(a.complement().complement(), a);
    }

    #[test]
    fn complement_excludes_members() {
        let a = CharSet::single('x');
        let c = a.complement();
        assert!(!c.contains('x'));
        assert!(c.contains('y'));
    }

    #[test]
    fn difference() {
        let a = CharSet::range('a', 'f');
        let b = CharSet::range('c', 'd');
        let d = a.difference(&b);
        assert!(d.contains('a') && d.contains('f'));
        assert!(!d.contains('c') && !d.contains('d'));
    }

    #[test]
    fn any_covers_universe() {
        assert_eq!(CharSet::any().len(), CharSet::universe_len());
    }

    #[test]
    fn pick_prefers_readable() {
        let set = CharSet::from_ranges(vec![(0, 0x10FFFF)]);
        assert_eq!(set.pick(), Some('a'));
        let control = CharSet::range('\x00', '\x1f');
        assert_eq!(control.pick(), Some('\x00'));
    }

    #[test]
    fn binary_search_membership() {
        let set = CharSet::from_ranges(vec![(10, 20), (30, 40), (50, 60)]);
        assert!(set.contains(char::from_u32(35).unwrap()));
        assert!(!set.contains(char::from_u32(45).unwrap()));
    }

    #[test]
    fn from_ranges_clamps_at_the_last_scalar() {
        let set = CharSet::from_ranges(vec![(0x10FFF0, 0x110010)]);
        assert_eq!(set.ranges(), &[(0x10FFF0, MAX_CHAR)]);
        assert!(CharSet::from_ranges(vec![(0x110000, 0x110005)]).is_empty());
    }

    #[test]
    fn from_iterator_collects() {
        let set: CharSet = "abcx".chars().collect();
        assert!(set.contains('b'));
        assert!(set.contains('x'));
        assert!(!set.contains('d'));
        assert_eq!(set.len(), 4);
    }
}
