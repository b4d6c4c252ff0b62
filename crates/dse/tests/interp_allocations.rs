//! One more execution of a program allocates the same number of blocks
//! whatever the size of its regex literals and function bodies: an
//! execution borrows declared functions and shares literals, and a run's
//! [`MatcherMemo`] holds each literal's compiled matcher, so nothing is
//! copied or compiled per execution in proportion to the program.
//! Counted with a thread-local counting allocator, so the count is exact
//! and machine-independent.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use expose_dse::ast::Program;
use expose_dse::parser::parse_program;
use expose_dse::{execute_with, Harness, InterpConfig, MatcherMemo};

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

/// A program whose entry `search`es, `split`s and `replace`s with a
/// literal of `atoms` atoms, then applies it to its symbolic input
/// (recording a regex event), next to an uncalled function of `body`
/// statements that the top level declares. Every subject fails on its
/// first character, so the matcher's own working memory is the same for
/// every literal size.
fn program(atoms: usize, body: usize) -> Program {
    let pattern = "[a-z]".repeat(atoms);
    let filler: String = (0..body).map(|i| format!("let v{i} = \"{i}\"; ")).collect();
    let source = format!(
        r#"
        function unused(y) {{ {filler}return y; }}
        function f(x) {{
            let re = /^{pattern}$/;
            let at = "9".search(re);
            let parts = "9".split(re);
            let out = "9".replace(re, "r");
            if (re.test(x)) {{ return 1; }}
            return 0;
        }}
        "#
    );
    parse_program(&source).expect("the test program parses")
}

/// Blocks allocated by one more execution of `program` once its run's
/// matchers are warm.
fn warm_execution_blocks(program: &Program) -> u64 {
    let harness = Harness::strings("f", 1);
    let inputs = vec!["9".to_string()];
    let config = InterpConfig::default();
    let mut matchers = MatcherMemo::default();
    for _ in 0..2 {
        let trace = execute_with(program, &harness, &inputs, &config, &mut matchers);
        assert_eq!(trace.events.len(), 1, "the test call records an event");
        assert_eq!(trace.matcher_fast_path, 4, "four calls, one literal");
    }
    blocks_during(|| {
        let trace = execute_with(program, &harness, &inputs, &config, &mut matchers);
        std::hint::black_box(trace);
    })
}

#[test]
fn a_warm_execution_allocates_independently_of_the_literal_size() {
    let small = warm_execution_blocks(&program(1, 1));
    let large = warm_execution_blocks(&program(200, 1));
    assert!(small > 0, "the counter must see the trace's buffers");
    assert_eq!(
        small, large,
        "a 200-atom literal allocated {large} blocks per execution, a 1-atom one {small}"
    );
}

#[test]
fn a_warm_execution_allocates_independently_of_the_function_size() {
    let small = warm_execution_blocks(&program(1, 1));
    let large = warm_execution_blocks(&program(1, 200));
    assert_eq!(
        small, large,
        "declaring a 200-statement function allocated {large} blocks per execution, \
         a 1-statement one {small}"
    );
}
