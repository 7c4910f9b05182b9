//! A counting global allocator that attributes every allocation to the
//! layer whose call is open on the allocating thread.
//!
//! Counting is off unless the thread enabled it ([`enable_counting`]), so
//! the end-to-end passes and the sweep's worker threads pay one
//! thread-local flag read per allocation and nothing else.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use crate::layers::{Layer, LAYERS};

struct Counting;

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static CURRENT: Cell<u8> = const { Cell::new(0) };
    static COUNTS: [Cell<u64>; LAYERS] = const { [const { Cell::new(0) }; LAYERS] };
    static BYTES: [Cell<u64>; LAYERS] = const { [const { Cell::new(0) }; LAYERS] };
}

#[inline]
fn note(size: usize) {
    // `try_with`: allocations during thread teardown must not panic.
    let _ = ENABLED.try_with(|on| {
        if on.get() {
            let layer = usize::from(CURRENT.with(Cell::get));
            COUNTS.with(|c| c[layer].set(c[layer].get() + 1));
            BYTES.with(|b| b[layer].set(b[layer].get() + size as u64));
        }
    });
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the bookkeeping touches only const-initialised thread-locals
// and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: forwarded verbatim.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; `ptr` came from `System` via this
        // allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: forwarded verbatim.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Starts attributing this thread's allocations to layers.
pub fn enable_counting() {
    ENABLED.with(|on| on.set(true));
}

/// Makes `layer` the owner of this thread's allocations until the next
/// call; returns the previous owner so spans can nest.
#[inline]
pub fn set_owner(layer: Layer) -> Layer {
    Layer::ALL[usize::from(CURRENT.with(|c| c.replace(layer as u8)))]
}

/// Allocation count and bytes attributed so far, per layer.
pub fn snapshot() -> ([u64; LAYERS], [u64; LAYERS]) {
    let counts = COUNTS.with(|c| std::array::from_fn(|i| c[i].get()));
    let bytes = BYTES.with(|b| std::array::from_fn(|i| b[i].get()));
    (counts, bytes)
}
