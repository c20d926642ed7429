//! Pooled, page-aligned task stacks.
//!
//! A green task's dominant fixed cost is its stack. Two mechanisms keep
//! that cost off the scaling path:
//!
//! 1. **Lazy allocation** — `spawn` does not allocate; a task gets its
//!    stack at first *activation* (see `run_task` in `lib.rs`). A batch
//!    of 100k spawned-but-not-yet-started tasks costs 100k queue entries,
//!    not 100k stacks.
//! 2. **Pooling** — a finished task returns its stack to a process-wide
//!    free list keyed by size class instead of freeing it. In steady
//!    state the number of live stacks tracks the number of *in-flight*
//!    tasks (roughly the worker count plus parked tasks), not the number
//!    of tasks ever spawned, and the reuse rate approaches 100%.
//!
//! Pooled stacks beyond a per-size-class *warm limit* are kept but their
//! pages are released back to the kernel with `madvise(MADV_FREE)` (a
//! best-effort raw syscall — this crate is dependency-free), so a burst
//! of concurrency does not pin its high-water mark in RSS forever.
//!
//! Stacks are allocated page-aligned directly from the global allocator;
//! they are deliberately never zeroed, so only touched pages become
//! resident.

use std::alloc::{alloc, dealloc, handle_alloc_error, Layout};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Stack sizes must be multiples of this (and the allocation is aligned
/// to it, so `madvise` ranges are always page-granular).
pub const PAGE: usize = 4096;

/// A page-aligned, uninitialized task stack.
pub struct Stack {
    base: *mut u8,
    size: usize,
}

// SAFETY: the raw pointer is an exclusively-owned heap allocation; a
// `Stack` moves between threads only through the pool mutex or inside a
// `TaskCore` (whose cross-worker hand-off is synchronized by the run
// queue).
unsafe impl Send for Stack {}

impl Stack {
    fn layout(size: usize) -> Layout {
        debug_assert!(size > 0 && size.is_multiple_of(PAGE));
        Layout::from_size_align(size, PAGE).expect("stack layout")
    }

    fn alloc(size: usize) -> Stack {
        let layout = Self::layout(size);
        // SAFETY: non-zero, page-aligned layout. Deliberately
        // uninitialized — zeroing would commit every page up front.
        let base = unsafe { alloc(layout) };
        if base.is_null() {
            handle_alloc_error(layout);
        }
        Stack { base, size }
    }

    /// One past the highest usable byte (x86-64 stacks grow down).
    pub fn top(&self) -> *mut u8 {
        // SAFETY: one-past-the-end of the owned allocation.
        unsafe { self.base.add(self.size) }
    }

    pub fn size(&self) -> usize {
        self.size
    }

    /// Release the physical pages behind a cold pooled stack, keeping the
    /// virtual range valid for reuse (`MADV_FREE`: contents become
    /// undefined, which is fine — stacks are re-bootstrapped on reuse).
    /// Best-effort and Linux-only; elsewhere this is a no-op and "cold"
    /// only means "beyond the warm limit".
    fn release_pages(&self) {
        #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
        {
            const SYS_MADVISE: usize = 28;
            const MADV_FREE: usize = 8;
            let ret: isize;
            // SAFETY: `base..base+size` is an owned, page-aligned mapping;
            // MADV_FREE never unmaps, it only lets the kernel reclaim the
            // pages lazily (refaulting as zero pages).
            unsafe {
                std::arch::asm!(
                    "syscall",
                    inlateout("rax") SYS_MADVISE => ret,
                    in("rdi") self.base,
                    in("rsi") self.size,
                    in("rdx") MADV_FREE,
                    lateout("rcx") _,
                    lateout("r11") _,
                    options(nostack),
                );
            }
            let _ = ret; // best-effort: an old kernel failing is harmless
        }
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        // SAFETY: allocated in `Stack::alloc` with the identical layout.
        unsafe { dealloc(self.base, Self::layout(self.size)) };
    }
}

/// Cumulative pool counters (surfaced through `SchedStats`).
#[derive(Default)]
pub struct PoolStats {
    /// Stacks allocated fresh because the pool had none of the size.
    pub allocated: AtomicU64,
    /// Stacks returned to the pool by finished tasks.
    pub pooled: AtomicU64,
    /// Acquisitions served from the pool instead of the allocator.
    pub reused: AtomicU64,
    /// Pooled stacks trimmed past the warm limit (`madvise(MADV_FREE)`).
    pub madvised: AtomicU64,
}

/// One size class: warm stacks are fully resident, cold ones have had
/// their pages released. Acquire prefers warm.
#[derive(Default)]
struct Class {
    warm: Vec<Stack>,
    cold: Vec<Stack>,
}

/// A free list of task stacks keyed by size class.
pub struct StackPool {
    classes: Mutex<HashMap<usize, Class>>,
    /// Per-size-class count of pooled stacks kept fully resident.
    warm_limit: usize,
    pub stats: PoolStats,
}

impl StackPool {
    pub const DEFAULT_WARM_LIMIT: usize = 128;

    pub fn new(warm_limit: usize) -> StackPool {
        StackPool {
            classes: Mutex::new(HashMap::new()),
            warm_limit,
            stats: PoolStats::default(),
        }
    }

    /// A stack of exactly `size` bytes: pooled (warm preferred) or fresh.
    pub fn acquire(&self, size: usize) -> Stack {
        let pooled = {
            let mut classes = self.classes.lock().unwrap();
            classes
                .get_mut(&size)
                .and_then(|c| c.warm.pop().or_else(|| c.cold.pop()))
        };
        match pooled {
            Some(stack) => {
                self.stats.reused.fetch_add(1, Ordering::Relaxed);
                stack
            }
            None => {
                self.stats.allocated.fetch_add(1, Ordering::Relaxed);
                Stack::alloc(size)
            }
        }
    }

    /// Return a finished task's stack. Beyond the warm limit its pages
    /// are released to the kernel but the stack stays reusable.
    pub fn release(&self, stack: Stack) {
        self.stats.pooled.fetch_add(1, Ordering::Relaxed);
        let limit = self.warm_limit;
        let mut classes = self.classes.lock().unwrap();
        let class = classes.entry(stack.size()).or_default();
        if class.warm.len() < limit {
            class.warm.push(stack);
        } else {
            stack.release_pages();
            self.stats.madvised.fetch_add(1, Ordering::Relaxed);
            class.cold.push(stack);
        }
    }

    /// Pooled stacks currently held for `size` (warm + cold).
    #[cfg(test)]
    fn pooled_of(&self, size: usize) -> (usize, usize) {
        let classes = self.classes.lock().unwrap();
        classes
            .get(&size)
            .map(|c| (c.warm.len(), c.cold.len()))
            .unwrap_or((0, 0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Each test uses its own pool instance (and distinctive sizes), so
    // nothing here races the process-wide pool used by scheduler tests.

    #[test]
    fn reuse_across_task_generations() {
        let pool = StackPool::new(StackPool::DEFAULT_WARM_LIMIT);
        let size = 13 * PAGE;
        // Generation 1: nothing pooled, both acquisitions allocate.
        let a = pool.acquire(size);
        let b = pool.acquire(size);
        assert_eq!(pool.stats.allocated.load(Ordering::Relaxed), 2);
        let (a_base, b_base) = (a.top(), b.top());
        pool.release(a);
        pool.release(b);
        // Generations 2..n: every acquisition is served from the pool.
        for _ in 0..10 {
            let s = pool.acquire(size);
            assert!(s.top() == a_base || s.top() == b_base, "recycled stack");
            pool.release(s);
        }
        assert_eq!(pool.stats.allocated.load(Ordering::Relaxed), 2);
        assert_eq!(pool.stats.reused.load(Ordering::Relaxed), 10);
        assert_eq!(pool.stats.pooled.load(Ordering::Relaxed), 12);
    }

    #[test]
    fn size_classes_do_not_mix() {
        let pool = StackPool::new(StackPool::DEFAULT_WARM_LIMIT);
        let small = 9 * PAGE;
        let big = 17 * PAGE;
        pool.release(Stack::alloc(small));
        // A request for `big` must not be served by the pooled `small`.
        let s = pool.acquire(big);
        assert_eq!(s.size(), big);
        assert_eq!(pool.stats.reused.load(Ordering::Relaxed), 0);
        assert_eq!(pool.stats.allocated.load(Ordering::Relaxed), 1);
        // And the pooled small stack is still there for its own class.
        let s2 = pool.acquire(small);
        assert_eq!(s2.size(), small);
        assert_eq!(pool.stats.reused.load(Ordering::Relaxed), 1);
        drop((s, s2));
    }

    #[test]
    fn high_water_trimming_marks_cold_stacks() {
        let pool = StackPool::new(2);
        let size = 11 * PAGE;
        let stacks: Vec<Stack> = (0..5).map(|_| pool.acquire(size)).collect();
        for s in stacks {
            pool.release(s);
        }
        // Warm limit 2: three of the five went cold and were madvised.
        assert_eq!(pool.pooled_of(size), (2, 3));
        assert_eq!(pool.stats.madvised.load(Ordering::Relaxed), 3);
        // Cold stacks are still valid to reuse (MADV_FREE keeps the
        // mapping; pages refault as zeros) — and warm ones go first.
        for _ in 0..5 {
            let mut s = pool.acquire(size);
            // Touch the whole range through the raw pointer to prove the
            // mapping survived the trim.
            // SAFETY: freshly acquired, exclusively owned stack memory.
            unsafe {
                let base = s.top().sub(s.size());
                std::ptr::write_bytes(base, 0xAB, s.size());
            }
            let _ = &mut s;
        }
        assert_eq!(pool.stats.allocated.load(Ordering::Relaxed), 5);
        assert_eq!(pool.stats.reused.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn stacks_are_page_aligned() {
        let s = Stack::alloc(8 * PAGE);
        assert_eq!(s.top() as usize % PAGE, 0);
        assert_eq!((s.top() as usize - s.size()) % PAGE, 0);
    }
}
