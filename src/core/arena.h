// Pooled small-object arena for the state-engine hot path.
//
// Fork-heavy synthesis churns a few allocation shapes at enormous rates:
// ExecutionState clones and every container a state owns (thread, frame,
// register, alloca, store-buffer, sync-object, sleep-set and snapshot
// containers, the address space's object and page tables, memory objects,
// schedule-trace chunks), Expr nodes, COW memory pages, and the searchers'
// per-state maps. All are small and die in bursts — a fork copies them all
// and a disposal frees them all — which makes the general-purpose
// allocator (with its size-class search, locking, and a thread cache that a
// disposal burst overflows) the dominant cost of fork/destroy. This arena
// replaces it for those types:
//
//   - blocks are rounded to 16-byte size classes up to 1 KiB; larger
//     requests fall through to ::operator new;
//   - each thread keeps a magazine of per-class free lists, so alloc/free
//     on the hot path is a pointer pop/push with no locking; a class's
//     refills start small and grow, so a short-lived thread takes about
//     what it uses;
//   - magazines refill from (and overflow to) a central, mutex-protected
//     pool that carves blocks out of slabs that are never returned to the
//     OS — a leaky singleton, so frees that arrive during static
//     destruction or after a portfolio worker thread has exited remain
//     safe (they take the locked central path). The process's footprint
//     therefore stays at the sum of each size class's peak.
//
// Cross-thread contract (the cooperative portfolio moves states between
// worker threads, so thread B routinely frees blocks thread A allocated):
// a free always lands in the *freeing* thread's magazine — blocks carry no
// owner, and a magazine is just a cache of interchangeable same-class
// blocks. Imbalance is self-correcting: a magazine that accumulates past
// the flush threshold recirculates a batch to the central pool, where
// allocation-heavy threads refill. ArenaCentralReturns() observes that
// recirculation; tests/memory_cow_test.cc exercises the
// allocate-on-A/free-on-B pattern under ASan.
//
// Under AddressSanitizer a pooled block is poisoned while it is free (all
// but its free-list link word), so a use-after-free of pooled memory still
// reports, as use-after-poison; outside ASan the poisoning compiles away.
//
// ArenaAllocator<T> adapts the arena to the standard allocator interface,
// for containers (std::vector, std::map, ...) and for shared_ptr-managed
// objects via std::allocate_shared (the control block and payload share one
// pooled allocation). Any request of at most 1 KiB is pooled.
#ifndef ESD_SRC_CORE_ARENA_H_
#define ESD_SRC_CORE_ARENA_H_

#include <cstddef>
#include <new>

namespace esd::core {

// Allocates a block of at least `size` bytes (16-byte aligned).
void* ArenaAlloc(std::size_t size);
// Returns a block obtained from ArenaAlloc(size). `size` must match.
void ArenaFree(void* p, std::size_t size) noexcept;

// Arena occupancy, for tests: total bytes carved into slabs on this
// process so far (monotone; the arena never shrinks).
std::size_t ArenaSlabBytes();

// Magazine-to-central return operations so far (monotone): kFlushAt
// overflows, frees on threads past magazine teardown, and magazine
// destructor flushes. Observability for cross-thread free imbalance — a
// thread that mostly frees blocks other threads allocated shows up here.
std::size_t ArenaCentralReturns();

template <typename T>
struct ArenaAllocator {
  using value_type = T;

  ArenaAllocator() noexcept = default;
  template <typename U>
  ArenaAllocator(const ArenaAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    static_assert(alignof(T) <= 16, "arena blocks are 16-byte aligned");
    return static_cast<T*>(ArenaAlloc(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept { ArenaFree(p, n * sizeof(T)); }

  template <typename U>
  bool operator==(const ArenaAllocator<U>&) const noexcept {
    return true;
  }
};

}  // namespace esd::core

#endif  // ESD_SRC_CORE_ARENA_H_
