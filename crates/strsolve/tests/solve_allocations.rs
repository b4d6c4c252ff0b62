//! A solve's bookkeeping allocates a bounded number of blocks, and that
//! number depends neither on the magnitude nor on the spacing of the
//! variable ids: the search numbers the formula's variables by rank and
//! keeps each conjunction's state in tables as long as the formula has
//! variables. Counted with a thread-local counting allocator, so the
//! count is exact and machine-independent.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use automata::{CRegex, CharSet};
use strsolve::{BoolVar, Formula, Solver, StrVar, Term, VarPool};

/// Counts the blocks the current thread allocates (including
/// reallocations) and forwards every request to the system allocator.
struct Counting;

thread_local! {
    static BLOCKS: Cell<u64> = const { Cell::new(0) };
}

fn count_block() {
    // `try_with`: the slot may already be gone while a thread exits.
    let _ = BLOCKS.try_with(|blocks| blocks.set(blocks.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_block();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_block();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_block();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Blocks allocated by this thread while `f` runs.
fn blocks_during(f: impl FnOnce()) -> u64 {
    let before = BLOCKS.with(Cell::get);
    f();
    BLOCKS.with(Cell::get) - before
}

/// The most blocks one warm solve of [`four_branches`] may allocate:
/// the count of the rank-table search. The search it replaced, over
/// hashed maps keyed by variable with per-branch copies of the pending
/// formulas and atoms, allocated 713.
const BLOCK_BOUND: u64 = 270;

/// A 4-branch disjunction over 3 word equations,
/// `w = "<" ++ x ++ ">"`, `x = y ++ z` and `z = "-" ++ d`: the first
/// three branches are refuted by search, the last one is satisfiable.
/// The `i`-th string variable is `str_var(i)`.
fn four_branches(str_var: impl Fn(u32) -> StrVar, flag: BoolVar) -> Formula {
    let (w, x, y, z, d) = (str_var(0), str_var(1), str_var(2), str_var(3), str_var(4));
    let lower = CRegex::plus(CRegex::set(CharSet::range('a', 'z')));
    let digits = CRegex::plus(CRegex::set(CharSet::range('0', '9')));
    Formula::and(vec![
        Formula::eq_concat(w, vec![Term::lit("<"), Term::Var(x), Term::lit(">")]),
        Formula::eq_concat(x, vec![Term::Var(y), Term::Var(z)]),
        Formula::eq_concat(z, vec![Term::lit("-"), Term::Var(d)]),
        Formula::in_re(y, lower),
        Formula::in_re(d, digits),
        Formula::or(vec![
            Formula::and(vec![Formula::eq_lit(w, "<ab-1>"), Formula::ne_lit(y, "ab")]),
            Formula::and(vec![
                Formula::eq_lit(x, "a-b"),
                Formula::bool_is(flag, true),
            ]),
            Formula::and(vec![Formula::ne_var(y, d), Formula::eq_lit(d, "")]),
            Formula::and(vec![Formula::ne_lit(d, "0"), Formula::bool_is(flag, false)]),
        ]),
    ])
}

/// Blocks of one solve on a solver whose DFA tables are already warm
/// with the same formula, so only the search's own bookkeeping counts.
fn warm_solve_blocks(formula: &Formula) -> u64 {
    let solver = Solver::default();
    let (cold, _) = solver.solve(formula);
    let mut warm = None;
    let blocks = blocks_during(|| warm = Some(solver.solve(formula)));
    let (outcome, stats) = warm.expect("solved");
    assert!(outcome.is_sat() && outcome == cold);
    assert_eq!(stats.bool_branches, 4, "every branch is searched");
    blocks
}

#[test]
fn solve_blocks_are_bounded_and_independent_of_variable_ids() {
    let mut pool = VarPool::new();
    let (first, flag) = (pool.fresh_str(), pool.fresh_bool());
    let low = four_branches(|i| first.offset_by(i), flag);
    let high = low.offset_vars(1_000_000, 1_000_000);
    let sparse = four_branches(|i| first.offset_by(1_000_000 + 7_919 * i), flag);

    // Warm any lazily initialised per-thread state first.
    warm_solve_blocks(&low);
    let low_blocks = warm_solve_blocks(&low);
    let high_blocks = warm_solve_blocks(&high);
    let sparse_blocks = warm_solve_blocks(&sparse);
    assert_eq!(
        low_blocks, high_blocks,
        "ids from 0 allocated {low_blocks} blocks, ids from 1,000,000 {high_blocks}"
    );
    assert_eq!(
        low_blocks, sparse_blocks,
        "ids from 0 allocated {low_blocks} blocks, ids 7,919 apart {sparse_blocks}"
    );
    assert!(
        low_blocks <= BLOCK_BOUND,
        "a warm solve allocated {low_blocks} blocks, over the recorded {BLOCK_BOUND}"
    );
}
