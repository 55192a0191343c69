//! Test-only counting global allocator.
//!
//! The unit-test binary installs [`CountingAllocator`] as its
//! `#[global_allocator]` (see `lib.rs`) so the steady-state tests in
//! [`crate::exec`] and [`crate::sweep`] can assert that a cohort's round —
//! a scalar launch's at one slot — performs **zero** heap allocations
//! after warm-up, the invariant of the scratch-arena design.
//!
//! The counter is thread-local so proptest/libtest running suites in
//! parallel cannot pollute another test's window, and `const`-initialized
//! so reading it never allocates (which would recurse into the
//! allocator). Only allocation-side entry points count; `dealloc` is
//! pass-through — freeing recycled buffers is not what the invariant
//! guards.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Wraps [`System`], counting `alloc`/`realloc`/`alloc_zeroed` calls per
/// thread.
pub(crate) struct CountingAllocator;

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        unsafe { System.alloc_zeroed(layout) }
    }
}

/// Number of heap allocations the current thread performed while `f`
/// ran.
pub(crate) fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_allocations_and_ignores_frees() {
        let existing: Vec<u64> = (0..4).collect();
        let n = allocations_during(|| {
            let v: Vec<u64> = vec![1, 2, 3];
            drop(v); // dealloc is not counted
            drop(existing);
        });
        assert!(n >= 1, "the vec! above must have been counted");
        let quiet = allocations_during(|| {
            let mut x = 0u64;
            for i in 0..8u64 {
                x = x.wrapping_add(i);
            }
            std::hint::black_box(x);
        });
        assert_eq!(quiet, 0, "pure arithmetic must not count");
    }
}
