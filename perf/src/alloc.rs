//! A counting global allocator: the system allocator plus one relaxed
//! counter of allocation calls. It is installed only in this binary,
//! so the library crates never pay for it, and it counts in every run
//! (traced or not) so parent and change always carry the same cost.
//!
//! The binary also keeps freed heap memory instead of returning it to
//! the kernel ([`retain_freed_memory`]).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static CALLS: AtomicU64 = AtomicU64::new(0);

/// Makes glibc malloc keep freed memory in the process: no trimming of
/// the heap top, and no `mmap` of its own for blocks under 32 MiB.
///
/// By default a `simthm_grid` pass hands about 17 MB back to the kernel
/// and faults it in again on the next pass (some 4 400 page faults a
/// pass). On a virtual machine what those faults cost depends on the
/// host: passes ran at about 370 ms or about 520 ms in stretches of
/// seconds, and the slow time showed up as user time that no probe
/// with memory of its own reproduced. With the memory kept, the pass
/// runs at about 340 ms and the slow stretches mostly vanish. Call it
/// first thing in `main`, before any other thread exists.
pub fn retain_freed_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_MMAP_THRESHOLD: i32 = -3;
        // SAFETY: `mallopt` only sets malloc tunables, and no other
        // thread is allocating while it runs.
        unsafe {
            mallopt(M_TRIM_THRESHOLD, i32::MAX);
            mallopt(M_MMAP_THRESHOLD, 32 << 20);
        }
    }
}

/// Allocation calls (`alloc`, `alloc_zeroed` and `realloc`) made by
/// every thread of the process so far.
pub fn calls() -> u64 {
    // Relaxed: a statistic that publishes no other data.
    CALLS.load(Ordering::Relaxed)
}

/// [`System`] with every allocation call counted.
pub struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter has no effect
// on the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller guarantees `layout` has non-zero size, as
        // `System.alloc` requires.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // (hence from `System`) with `layout`, and that `new_size` is
        // valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // (hence from `System`) with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}
