//! The assembler's common path allocates almost nothing.
//!
//! A counting global allocator sees every allocation the test thread makes
//! while one generated 2000-instruction program per ISA assembles. What is
//! left is the image itself (its sections and a string per symbol) and the
//! statement, symbol and operand buffers: fewer than one allocation per
//! four source lines.

use lis_workloads::{assemble_source, gen, ISAS};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, counting the calling thread's allocations.
struct Counting;

fn count() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call goes unchanged to the system allocator; the count is a
// const-initialized thread-local, so counting never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

#[test]
fn assembling_allocates_less_than_once_per_four_lines() {
    for isa in ISAS {
        for seed in 1..=5 {
            let src = gen::random_program(isa, seed, 2000);
            let lines = src.lines().count();
            // The first assembly builds the instruction table's index.
            assemble_source(isa, &src).expect("generated program assembles");
            let before = ALLOCS.with(Cell::get);
            let image = assemble_source(isa, &src).expect("generated program assembles");
            let allocs = ALLOCS.with(Cell::get) - before;
            drop(image);
            assert!(
                allocs * 4 < lines,
                "{isa} seed {seed}: {allocs} allocations for {lines} lines"
            );
        }
    }
}
