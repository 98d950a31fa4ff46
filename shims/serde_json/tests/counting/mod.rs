//! A global allocator that counts allocations, and the bytes they leave
//! live, only on the thread that asks it to, for tests that pin how much
//! a call allocates or retains. A test binary that declares this module
//! counts with [`counting`].

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting on threads that turned counting on.
struct Counting;

/// What a closure allocated on the counting thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Allocations made, a reallocation counting as one.
    pub allocations: usize,
    /// Bytes allocated minus bytes freed: what the closure left live.
    /// Freeing memory allocated before counting began lowers it, so it
    /// can be negative.
    pub live_bytes: isize,
}

thread_local! {
    /// The tally so far on this thread, or `None` while not counting. A
    /// `const` initialiser needs no allocation and no destructor, so the
    /// allocator may read it.
    static TALLY: Cell<Option<Tally>> = const { Cell::new(None) };
}

/// Adds one allocation of `added` bytes, or a free of `-added`, to this
/// thread's tally if it is counting.
fn record(allocations: usize, added: isize) {
    let _ = TALLY.try_with(|tally| {
        tally.set(tally.get().map(|t| Tally {
            allocations: t.allocations + allocations,
            live_bytes: t.live_bytes + added,
        }))
    });
}

// SAFETY: every call is forwarded unchanged to `System`; counting only
// touches a thread-local `Cell`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(1, layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        record(0, -(layout.size() as isize));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `f`'s result and what it allocated on this thread.
pub fn counting<T>(f: impl FnOnce() -> T) -> (T, Tally) {
    TALLY.with(|tally| {
        tally.set(Some(Tally {
            allocations: 0,
            live_bytes: 0,
        }))
    });
    let value = f();
    let tally = TALLY.with(|tally| tally.replace(None));
    (value, tally.expect("counting was on"))
}
