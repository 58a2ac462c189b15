#include "src/core/arena.h"

#include <sanitizer/asan_interface.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <mutex>

namespace esd::core {
namespace {

constexpr std::size_t kGranule = 16;
constexpr std::size_t kMaxSmall = 1024;
constexpr std::size_t kNumClasses = kMaxSmall / kGranule;
constexpr std::size_t kSlabBytes = 16 * 1024;
// Magazine tuning: a refill grabs up to kBatch blocks; a magazine that
// grows past kFlushAt returns kBatch blocks to the central pool. Refills of
// a class start at kFirstBatch blocks and double up to kBatch, so a
// short-lived thread (a portfolio helper lives for one synthesis, and a
// state's containers span dozens of classes) takes about what it uses
// instead of a full batch of every class it touches.
constexpr std::size_t kBatch = 256;
constexpr std::size_t kFlushAt = 1024;
constexpr std::size_t kFirstBatch = 16;

struct Node {
  Node* next;
};

constexpr std::size_t ClassIndex(std::size_t size) {
  return (size + kGranule - 1) / kGranule - 1;
}
constexpr std::size_t ClassSize(std::size_t cls) { return (cls + 1) * kGranule; }

// A free block keeps only its link word addressable, so ASan reports a read
// or write of pooled memory between ArenaFree and the next ArenaAlloc of the
// block. No-ops outside ASan.
void PoisonFreeBlock(Node* node, std::size_t cls) {
  ASAN_POISON_MEMORY_REGION(reinterpret_cast<char*>(node) + sizeof(Node),
                            ClassSize(cls) - sizeof(Node));
}

std::atomic<std::size_t> g_slab_bytes{0};
// Magazine-to-central return operations (kFlushAt overflows, dead-thread
// frees, magazine teardown): the paths a cross-thread free pattern drives.
std::atomic<std::size_t> g_central_returns{0};

// Central pool: per-class free lists fed by slab carving. Leaky by design —
// slabs are never freed, so blocks stay valid for the process lifetime and
// the pool itself (a function-local `new`) survives static destruction.
class CentralPool {
 public:
  static CentralPool& Get() {
    static CentralPool* pool = new CentralPool();
    return *pool;
  }

  // Pops up to `want` blocks of class `cls` into a chain; carves a fresh
  // slab when the list is empty. Returns the chain head (never null) and
  // writes the chain length to `*got` and its last node to `*last`, so
  // callers need not re-walk it.
  Node* PopBatch(std::size_t cls, std::size_t want, std::size_t* got, Node** last) {
    std::lock_guard<std::mutex> lock(mu_);
    if (lists_[cls] == nullptr) {
      CarveSlabLocked(cls);
    }
    Node* head = lists_[cls];
    Node* tail = head;
    std::size_t taken = 1;
    while (taken < want && tail->next != nullptr) {
      tail = tail->next;
      ++taken;
    }
    lists_[cls] = tail->next;
    tail->next = nullptr;
    *got = taken;
    *last = tail;
    return head;
  }

  // Pushes a chain of blocks back onto the class list.
  void PushChain(std::size_t cls, Node* head, Node* tail) {
    g_central_returns.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(mu_);
    tail->next = lists_[cls];
    lists_[cls] = head;
  }

  void PushOne(std::size_t cls, Node* node) { PushChain(cls, node, node); }

 private:
  void CarveSlabLocked(std::size_t cls) {
    std::size_t block = ClassSize(cls);
    std::size_t count = kSlabBytes / block;
    auto* base = static_cast<char*>(::operator new(kSlabBytes));
    g_slab_bytes.fetch_add(kSlabBytes, std::memory_order_relaxed);
    Node* head = nullptr;
    for (std::size_t i = count; i > 0; --i) {
      auto* node = reinterpret_cast<Node*>(base + (i - 1) * block);
      node->next = head;
      PoisonFreeBlock(node, cls);
      head = node;
    }
    lists_[cls] = head;
  }

  std::mutex mu_;
  Node* lists_[kNumClasses] = {};
};

// Per-thread magazine. The raw-pointer mirror (g_magazine) lets the hot
// path test liveness without touching the function-local thread_local
// after its destructor has run (worker-thread exit, process teardown);
// once dead, alloc/free fall through to the locked central pool.
struct Magazine {
  Node* head[kNumClasses] = {};
  // Last node of each non-empty list, so teardown returns a list without
  // walking it.
  Node* tail[kNumClasses] = {};
  std::uint32_t count[kNumClasses] = {};
  std::uint8_t refills[kNumClasses] = {};  // Doublings of kFirstBatch so far.

  ~Magazine();
};

thread_local Magazine* g_magazine = nullptr;
thread_local bool g_magazine_dead = false;

Magazine* EnsureMagazine() {
  if (g_magazine_dead) {
    return nullptr;
  }
  static thread_local Magazine magazine;
  g_magazine = &magazine;
  return g_magazine;
}

Magazine::~Magazine() {
  CentralPool& central = CentralPool::Get();
  for (std::size_t cls = 0; cls < kNumClasses; ++cls) {
    if (head[cls] != nullptr) {
      central.PushChain(cls, head[cls], tail[cls]);
      head[cls] = nullptr;
    }
  }
  g_magazine = nullptr;
  g_magazine_dead = true;
}

}  // namespace

void* ArenaAlloc(std::size_t size) {
  if (size == 0) {
    size = 1;
  }
  if (size > kMaxSmall) {
    return ::operator new(size);
  }
  std::size_t cls = ClassIndex(size);
  Magazine* m = g_magazine != nullptr ? g_magazine : EnsureMagazine();
  std::size_t got = 0;
  Node* node;
  if (m == nullptr) {  // Thread is past magazine teardown.
    Node* last;
    node = CentralPool::Get().PopBatch(cls, 1, &got, &last);
  } else {
    node = m->head[cls];
    if (node == nullptr) {
      std::size_t want = std::min(kFirstBatch << m->refills[cls], kBatch);
      node = CentralPool::Get().PopBatch(cls, want, &got, &m->tail[cls]);
      m->count[cls] = static_cast<std::uint32_t>(got);
      if (want < kBatch) {
        ++m->refills[cls];
      }
    }
    m->head[cls] = node->next;
    --m->count[cls];
  }
  ASAN_UNPOISON_MEMORY_REGION(node, size);
  return node;
}

void ArenaFree(void* p, std::size_t size) noexcept {
  if (p == nullptr) {
    return;
  }
  if (size == 0) {
    size = 1;
  }
  if (size > kMaxSmall) {
    ::operator delete(p);
    return;
  }
  std::size_t cls = ClassIndex(size);
  auto* node = static_cast<Node*>(p);
  // A request under 8 bytes left part of the link word poisoned.
  ASAN_UNPOISON_MEMORY_REGION(node, sizeof(Node));
  PoisonFreeBlock(node, cls);
  Magazine* m = g_magazine != nullptr ? g_magazine : EnsureMagazine();
  if (m == nullptr) {
    CentralPool::Get().PushOne(cls, node);
    return;
  }
  if (m->head[cls] == nullptr) {
    m->tail[cls] = node;
  }
  node->next = m->head[cls];
  m->head[cls] = node;
  if (++m->count[cls] >= kFlushAt) {
    Node* head = m->head[cls];
    Node* tail = head;
    for (std::size_t i = 1; i < kBatch; ++i) {
      tail = tail->next;
    }
    m->head[cls] = tail->next;
    m->count[cls] -= kBatch;
    CentralPool::Get().PushChain(cls, head, tail);
  }
}

std::size_t ArenaSlabBytes() {
  return g_slab_bytes.load(std::memory_order_relaxed);
}

std::size_t ArenaCentralReturns() {
  return g_central_returns.load(std::memory_order_relaxed);
}

}  // namespace esd::core
