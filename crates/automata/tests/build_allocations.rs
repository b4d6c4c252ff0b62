//! Building a base DFA allocates a number of blocks that does not grow
//! with the automaton: the Thompson NFA, the subset states, the
//! partition and the distance labelling live in scratch a thread keeps
//! between builds, so a warm build allocates only the automata it
//! returns. Counted with a thread-local counting allocator, so the
//! count is exact and machine-independent.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use automata::{Alphabet, BuildMetrics, CRegex, CharSet, Dfa};

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

/// An `n`-character word over `a`–`d`, then `(a|b)*`: a minimal DFA
/// of `n + 2` states (the word's positions, the loop, a dead state).
fn regex(n: usize) -> CRegex {
    let word: String = "abcd".chars().cycle().take(n).collect();
    CRegex::concat(vec![
        CRegex::lit(&word),
        CRegex::star(CRegex::alt(vec![CRegex::lit("a"), CRegex::lit("b")])),
    ])
}

#[test]
fn base_builds_allocate_the_same_blocks_for_4_and_40_states() {
    let alphabet = Arc::new(Alphabet::from_sets(&[
        CharSet::single('a'),
        CharSet::single('b'),
        CharSet::range('a', 'c'),
        CharSet::single('d'),
    ]));
    let (small, large) = (regex(2), regex(38));
    let build = |re: &CRegex| {
        let mut metrics = BuildMetrics::default();
        let dfa = Dfa::minimal_from_cregex(re, &alphabet, &mut metrics);
        (dfa.state_count(), metrics.states_built)
    };
    // Warm the thread's scratch with the larger build first.
    let (large_states, large_built) = build(&large);
    let (small_states, small_built) = build(&small);
    assert!(
        (small_states, large_states) == (4, 40),
        "{small_states} and {large_states} states"
    );
    assert!(large_built > small_built);

    let small_blocks = blocks_during(|| {
        build(&small);
    });
    let large_blocks = blocks_during(|| {
        build(&large);
    });
    assert_eq!(
        small_blocks, large_blocks,
        "a {small_states}-state build allocated {small_blocks} blocks, \
         a {large_states}-state build {large_blocks}"
    );
}
