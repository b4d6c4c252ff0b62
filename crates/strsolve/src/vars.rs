//! Variables and terms of the string constraint language.

use std::fmt;

/// A string variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StrVar(pub(crate) u32);

/// A boolean variable (used for capture-definedness flags, the paper's
/// `C ≠ ⊥` tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BoolVar(pub(crate) u32);

impl StrVar {
    /// Raw index (stable within one [`VarPool`]).
    pub fn index(self) -> u32 {
        self.0
    }

    /// The variable shifted by `by` indices — the pool-rebasing
    /// primitive used when a formula built against one pool is grafted
    /// onto another (see [`VarPool::absorb`]).
    pub fn offset_by(self, by: u32) -> StrVar {
        StrVar(self.0 + by)
    }
}

impl BoolVar {
    /// Raw index (stable within one [`VarPool`]).
    pub fn index(self) -> u32 {
        self.0
    }

    /// The variable shifted by `by` indices (see [`StrVar::offset_by`]).
    pub fn offset_by(self, by: u32) -> BoolVar {
        BoolVar(self.0 + by)
    }
}

impl fmt::Display for StrVar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

impl fmt::Display for BoolVar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}", self.0)
    }
}

/// One element of a concatenation: a variable or a literal string.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Term {
    /// A string variable.
    Var(StrVar),
    /// A constant string.
    Lit(String),
}

impl Term {
    /// Convenience constructor for literal terms.
    pub fn lit(s: impl Into<String>) -> Term {
        Term::Lit(s.into())
    }
}

impl From<StrVar> for Term {
    fn from(v: StrVar) -> Term {
        Term::Var(v)
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => write!(f, "{v}"),
            Term::Lit(s) => write!(f, "{s:?}"),
        }
    }
}

/// Allocator for fresh variables: two counters, one per sort.
///
/// # Examples
///
/// ```
/// use strsolve::VarPool;
///
/// let mut pool = VarPool::new();
/// let w = pool.fresh_str();
/// let c1 = pool.fresh_str();
/// assert_ne!(w, c1);
/// assert_eq!(pool.str_count(), 2);
/// ```
#[derive(Debug, Default, Clone)]
pub struct VarPool {
    strs: u32,
    bools: u32,
}

impl VarPool {
    /// Creates an empty pool.
    pub fn new() -> VarPool {
        VarPool::default()
    }

    /// Allocates a fresh string variable.
    pub fn fresh_str(&mut self) -> StrVar {
        self.strs += 1;
        StrVar(self.strs - 1)
    }

    /// Allocates a fresh boolean variable.
    pub fn fresh_bool(&mut self) -> BoolVar {
        self.bools += 1;
        BoolVar(self.bools - 1)
    }

    /// Number of string variables allocated.
    pub fn str_count(&self) -> usize {
        self.strs as usize
    }

    /// Number of boolean variables allocated.
    pub fn bool_count(&self) -> usize {
        self.bools as usize
    }

    /// Appends every variable of `other` to this pool, returning the
    /// `(string, boolean)` index offsets at which they were grafted.
    ///
    /// A formula built against `other` refers to this pool's copies
    /// after [`crate::Formula::offset_vars`] with the same offsets —
    /// this is how cached models built in a private pool are rebased
    /// into a query's pool.
    pub fn absorb(&mut self, other: &VarPool) -> (u32, u32) {
        let offsets = (self.strs, self.bools);
        self.strs += other.strs;
        self.bools += other.bools;
        offsets
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_vars_are_distinct() {
        let mut pool = VarPool::new();
        let a = pool.fresh_str();
        let b = pool.fresh_str();
        assert_ne!(a, b);
        assert_eq!(pool.str_count(), 2);
    }

    #[test]
    fn absorb_rebases_offsets() {
        let mut a = VarPool::new();
        let x = a.fresh_str();
        let mut b = VarPool::new();
        let y = b.fresh_str();
        let flag = b.fresh_bool();
        let (s, bo) = a.absorb(&b);
        assert_eq!((s, bo), (1, 0));
        // The grafted variables follow the pool's own, in order.
        assert_ne!(y.offset_by(s), x);
        assert_eq!(y.offset_by(s).index(), 1);
        assert_eq!(flag.offset_by(bo).index(), 0);
        assert_eq!((a.str_count(), a.bool_count()), (2, 1));
        // The next fresh variables come after the grafted ones.
        assert_eq!(a.fresh_str().index(), 2);
        assert_eq!(a.fresh_bool().index(), 1);
    }

    #[test]
    fn term_display() {
        assert_eq!(Term::lit("ab").to_string(), "\"ab\"");
        assert_eq!(Term::Var(StrVar(3)).to_string(), "s3");
    }
}
