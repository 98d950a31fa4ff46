//! A global allocator that counts allocations only on the thread that
//! asks it to, for tests that pin how much a parse allocates. A test
//! binary that declares this module counts with [`counting`].

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting allocations on threads that turned
/// counting on.
struct Counting;

thread_local! {
    /// Allocations so far on this thread, or `None` while not counting.
    /// A `const` initialiser needs no allocation and no destructor, so the
    /// allocator may read it.
    static ALLOCATIONS: Cell<Option<usize>> = const { Cell::new(None) };
}

// SAFETY: every call is forwarded unchanged to `System`; counting only
// touches a thread-local `Cell`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|count| count.set(count.get().map(|n| n + 1)));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `f`'s result and the allocations it made on this thread.
pub fn counting<T>(f: impl FnOnce() -> T) -> (T, usize) {
    ALLOCATIONS.with(|count| count.set(Some(0)));
    let value = f();
    let allocations = ALLOCATIONS.with(|count| count.replace(None));
    (value, allocations.expect("counting was on"))
}
