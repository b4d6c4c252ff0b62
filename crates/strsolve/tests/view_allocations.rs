//! Posing a constraint model through its shape costs the same
//! allocations whatever the model's size: the view maps the shape's
//! variables into the query's numbering and neither copies nor
//! renumbers the model's formula. Counted with a thread-local counting
//! allocator, so the count is exact and machine-independent.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use automata::{CRegex, CharSet};
use strsolve::{Formula, Group, Shape, SolveSession, Solver, StrVar, Term, VarPool};

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

/// A model-like formula with `atoms` conjuncts over `input` and
/// `part`, mentioning them first in that order.
fn model(input: StrVar, part: StrVar, atoms: usize) -> Formula {
    let mut conjuncts = vec![Formula::eq_concat(
        input,
        vec![Term::lit("<"), Term::Var(part), Term::lit(">")],
    )];
    for i in 1..atoms {
        conjuncts.push(match i % 3 {
            0 => Formula::ne_lit(part, format!("word{i}")),
            1 => Formula::in_re(part, CRegex::plus(CRegex::set(CharSet::range('a', 'z')))),
            _ => Formula::eq_concat(input, vec![Term::Var(part), Term::lit(format!("{i}"))]),
        });
    }
    Formula::and(conjuncts)
}

/// Poses the flip "prefix ∧ tie ∧ model" and looks its key up, the
/// way a verdict-cache probe does; returns the blocks it allocated.
fn pose_blocks(session: &SolveSession, tie: &[Formula], formula: &Formula) -> u64 {
    let shape = Arc::new(Shape::of(formula));
    let group = Group {
        formula,
        shape: &shape,
        str_offset: 0,
        bool_offset: 0,
    };
    blocks_during(|| {
        let view = session.view_with(session.depth(), tie, &[group]);
        let key = view.key();
        assert!(view.matches(&key));
        std::hint::black_box(view.digest());
    })
}

#[test]
fn posing_a_group_allocates_independently_of_its_formula_size() {
    let mut pool = VarPool::new();
    let guard = pool.fresh_str();
    let input = pool.fresh_str();
    let part = pool.fresh_str();
    let mut session = SolveSession::new(Solver::default());
    session.push(vec![Formula::ne_lit(guard, "off")]);
    session.push(vec![Formula::eq_var(guard, input)]);
    let tie = [Formula::ne_lit(input, "zzz")];

    let small = model(input, part, 1);
    let large = model(input, part, 200);
    assert_eq!(small.atom_count(), 1);
    assert_eq!(large.atom_count(), 200);

    // Warm any lazily initialised per-thread state first.
    pose_blocks(&session, &tie, &small);
    let small_blocks = pose_blocks(&session, &tie, &small);
    let large_blocks = pose_blocks(&session, &tie, &large);
    assert!(small_blocks > 0, "the counter must see the view's buffers");
    assert_eq!(
        small_blocks, large_blocks,
        "posing a 200-atom model allocated {large_blocks} blocks, a 1-atom one {small_blocks}"
    );
}
