// Property tests for the page-granular copy-on-write address space
// (src/vm/memory.h): random allocate/write/fork/free interleavings are run
// in lockstep against a flat reference model that deep-copies every byte on
// fork, and the two must agree on every byte of every space. The
// incremental content hash must additionally be write-order independent:
// rebuilding only the *final* contents in any order lands on the same hash
// the evolved space maintained store by store.
#include <gtest/gtest.h>
#include <sanitizer/asan_interface.h>

#include <cstdint>
#include <cstring>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/arena.h"
#include "src/solver/expr.h"
#include "src/solver/solver.h"
#include "src/vm/interpreter.h"
#include "src/vm/memory.h"
#include "src/workloads/workloads.h"

namespace esd::vm {
namespace {

// Flat reference model: no sharing anywhere. A fork copies the full
// per-byte expression vectors, so COW bugs (a child write bleeding into a
// parent, a stale shared page) show up as a byte mismatch.
struct FlatObject {
  uint32_t size = 0;
  ObjectKind kind = ObjectKind::kHeap;
  bool freed = false;
  std::vector<solver::ExprRef> bytes;  // null entry = never-written zero.
};

struct FlatSpace {
  std::vector<FlatObject> objects;  // Indexed by id - 1, like AddressSpace.
};

// Byte equality via the structural expression hash: the canonical
// ZeroByte(), an explicit zero constant, and a model null all denote the
// same content.
uint64_t ByteHash(const solver::ExprRef& e) {
  return (e == nullptr ? ZeroByte() : e)->hash();
}

void ExpectSpacesEqual(const AddressSpace& cow, const FlatSpace& flat) {
  ASSERT_EQ(cow.NumObjects(), flat.objects.size());
  for (size_t i = 0; i < flat.objects.size(); ++i) {
    const uint32_t id = static_cast<uint32_t>(i) + 1;
    const MemoryObject* obj = cow.Find(id);
    ASSERT_NE(obj, nullptr) << "object " << id;
    const FlatObject& ref = flat.objects[i];
    ASSERT_EQ(obj->size, ref.size) << "object " << id;
    EXPECT_EQ(obj->freed, ref.freed) << "object " << id;
    for (uint32_t off = 0; off < ref.size; ++off) {
      ASSERT_EQ(ByteHash(obj->ByteAt(off)), ByteHash(ref.bytes[off]))
          << "object " << id << " byte " << off;
    }
  }
}

// Replays only the model's *final* contents into a fresh space, touching
// offsets in ascending or descending order. Skips null (never-written)
// bytes; writes everything else, including explicit zeros.
AddressSpace RebuildFromModel(const FlatSpace& flat, bool descending) {
  AddressSpace space;
  for (const FlatObject& ref : flat.objects) {
    uint32_t id = space.Allocate(ref.size, ref.kind, "rebuilt");
    for (uint32_t n = 0; n < ref.size; ++n) {
      uint32_t off = descending ? ref.size - 1 - n : n;
      if (ref.bytes[off] != nullptr) {
        space.WriteByte(space.FindWritable(id), off, ref.bytes[off]);
      }
    }
    if (ref.freed) {
      space.Free(id);
    }
  }
  return space;
}

TEST(MemoryCow, RandomOpsMatchFlatCopyReferenceModel) {
  std::mt19937_64 rng(20260808);
  std::vector<std::pair<AddressSpace, FlatSpace>> spaces(1);
  constexpr size_t kMaxSpaces = 12;

  for (int op = 0; op < 6000; ++op) {
    size_t idx = rng() % spaces.size();
    auto& [cow, flat] = spaces[idx];
    uint64_t what = rng() % 100;
    if (what < 10 || flat.objects.empty()) {
      // Allocate. Sizes straddle the 16-byte page boundary on purpose.
      uint32_t size = 1 + static_cast<uint32_t>(rng() % 100);
      ObjectKind kind = static_cast<ObjectKind>(rng() % 3);
      uint32_t id = cow.Allocate(size, kind, "obj");
      ASSERT_EQ(id, flat.objects.size() + 1) << "ids must stay dense";
      FlatObject ref;
      ref.size = size;
      ref.kind = kind;
      ref.bytes.resize(size);
      flat.objects.push_back(std::move(ref));
    } else if (what < 75) {
      // Write one byte of a live object (freed objects are out of
      // contract for stores; the VM diagnoses those separately).
      uint32_t id = 0;
      for (int tries = 0; tries < 8 && id == 0; ++tries) {
        uint32_t candidate = 1 + static_cast<uint32_t>(rng() % flat.objects.size());
        if (!flat.objects[candidate - 1].freed) {
          id = candidate;
        }
      }
      if (id == 0) {
        continue;
      }
      FlatObject& ref = flat.objects[id - 1];
      uint32_t off = static_cast<uint32_t>(rng() % ref.size);
      // Mostly constants (including zero, which is hash-neutral), sometimes
      // a symbolic byte so shared pages carry non-constant expressions too.
      solver::ExprRef value =
          rng() % 10 == 0
              ? solver::MakeVar(1000 + static_cast<uint32_t>(rng() % 8), 8, "sym")
              : solver::MakeConst(8, rng() % 256);
      cow.WriteByte(cow.FindWritable(id), off, value);
      ref.bytes[off] = value;
    } else if (what < 85 && spaces.size() < kMaxSpaces) {
      // Fork: COW copy of the space vs. deep copy of the model. (ExprRefs
      // are shared but immutable, so copying the vectors is a deep copy of
      // the content.)
      spaces.emplace_back(spaces[idx]);
    } else if (what < 90) {
      uint32_t id = 1 + static_cast<uint32_t>(rng() % flat.objects.size());
      bool was_live = !flat.objects[id - 1].freed;
      EXPECT_EQ(cow.Free(id), was_live);
      flat.objects[id - 1].freed = true;
    } else {
      // Spot-check one whole object right now, mid-history.
      uint32_t id = 1 + static_cast<uint32_t>(rng() % flat.objects.size());
      const MemoryObject* obj = cow.Find(id);
      ASSERT_NE(obj, nullptr);
      const FlatObject& ref = flat.objects[id - 1];
      for (uint32_t off = 0; off < ref.size; ++off) {
        ASSERT_EQ(ByteHash(obj->ByteAt(off)), ByteHash(ref.bytes[off]))
            << "object " << id << " byte " << off << " after op " << op;
      }
    }
  }

  // Every space — original and every fork, however the ops interleaved —
  // must agree with its own model on every byte, and its incrementally
  // maintained content hash must equal the hash of its final contents
  // rebuilt fresh in either direction.
  for (auto& [cow, flat] : spaces) {
    ExpectSpacesEqual(cow, flat);
    EXPECT_EQ(cow.content_hash(),
              RebuildFromModel(flat, /*descending=*/false).content_hash());
    EXPECT_EQ(cow.content_hash(),
              RebuildFromModel(flat, /*descending=*/true).content_hash());
  }
}

TEST(MemoryCow, ChildWriteLeavesParentUntouched) {
  AddressSpace parent;
  uint32_t id = parent.Allocate(64, ObjectKind::kHeap, "shared");
  parent.WriteByte(parent.FindWritable(id), 3, solver::MakeConst(8, 17));
  parent.WriteByte(parent.FindWritable(id), 40, solver::MakeConst(8, 99));
  uint64_t parent_hash = parent.content_hash();

  AddressSpace child = parent;  // Shares both pages.
  ASSERT_EQ(child.content_hash(), parent_hash);

  // Overwrite one byte and touch a fresh page in the child only.
  child.WriteByte(child.FindWritable(id), 3, solver::MakeConst(8, 18));
  child.WriteByte(child.FindWritable(id), 20, solver::MakeConst(8, 1));
  EXPECT_NE(child.content_hash(), parent_hash);

  EXPECT_EQ(parent.content_hash(), parent_hash) << "child wrote through COW";
  const MemoryObject* pobj = parent.Find(id);
  EXPECT_EQ(ByteHash(pobj->ByteAt(3)), solver::MakeConst(8, 17)->hash());
  EXPECT_EQ(ByteHash(pobj->ByteAt(20)), ZeroByte()->hash());
  EXPECT_EQ(ByteHash(pobj->ByteAt(40)), solver::MakeConst(8, 99)->hash());

  // Undoing the child's edits restores the byte-content hash exactly (XOR
  // in/out is lossless), even though the pages are no longer shared.
  child.WriteByte(child.FindWritable(id), 3, solver::MakeConst(8, 17));
  child.WriteByte(child.FindWritable(id), 20, solver::MakeConst(8, 0));
  EXPECT_EQ(child.content_hash(), parent_hash);
}

TEST(MemoryCow, UntouchedSlotsReadAsCanonicalZero) {
  AddressSpace space;
  uint32_t id = space.Allocate(33, ObjectKind::kStack, "zeros");
  const MemoryObject* obj = space.Find(id);
  for (uint32_t off = 0; off < 33; ++off) {
    EXPECT_EQ(obj->ByteAt(off)->hash(), solver::MakeConst(8, 0)->hash());
  }
  // All-zero allocation is hash-neutral; so is explicitly storing zero.
  EXPECT_EQ(space.content_hash(), AddressSpace().content_hash());
  space.WriteByte(space.FindWritable(id), 5, solver::MakeConst(8, 0));
  EXPECT_EQ(space.content_hash(), AddressSpace().content_hash());
}

TEST(MemoryCow, AllocateInitMatchesExplicitStores) {
  std::vector<uint8_t> init = {0, 7, 0, 255, 1, 0, 42};
  AddressSpace a;
  uint32_t ia = a.AllocateInit(16, ObjectKind::kGlobal, "g", init);

  AddressSpace b;
  uint32_t ib = b.Allocate(16, ObjectKind::kGlobal, "g");
  for (size_t i = 0; i < init.size(); ++i) {
    b.WriteByte(b.FindWritable(ib), static_cast<uint32_t>(i),
                solver::MakeConst(8, init[i]));
  }

  EXPECT_EQ(a.content_hash(), b.content_hash());
  const MemoryObject* oa = a.Find(ia);
  const MemoryObject* ob = b.Find(ib);
  for (uint32_t off = 0; off < 16; ++off) {
    EXPECT_EQ(ByteHash(oa->ByteAt(off)), ByteHash(ob->ByteAt(off))) << off;
  }
}

// ---- Cross-thread state transfer (the cooperative-portfolio pattern) -------
//
// The work-stealing frontier hands COW forks between worker threads: pages,
// Expr nodes, and MemoryObjects allocated on one thread's arena magazine are
// then written and destroyed on another thread. These tests drive exactly
// that pattern so ASan/TSan CI jobs can vouch for it.

TEST(MemoryCowCrossThread, ForkedSpaceMutatedAndDestroyedOnOtherThread) {
  AddressSpace parent;
  uint32_t id = parent.Allocate(256, ObjectKind::kHeap, "shared");
  for (uint32_t off = 0; off < 256; off += 7) {
    parent.WriteByte(parent.FindWritable(id), off,
                     solver::MakeConst(8, off & 0xff));
  }
  uint64_t parent_hash = parent.content_hash();

  // Fork on this thread, then move the child to another thread, write to it
  // there (materializing COW pages on the other thread's arena), and
  // destroy it there (freeing pages this thread allocated).
  auto child = std::make_unique<AddressSpace>(parent);
  std::thread mover([child = std::move(child)]() mutable {
    for (uint32_t off = 0; off < 256; off += 3) {
      child->WriteByte(child->FindWritable(1), off,
                       solver::MakeConst(8, (off * 5) & 0xff));
    }
    uint32_t fresh = child->Allocate(128, ObjectKind::kHeap, "remote");
    child->WriteByte(child->FindWritable(fresh), 0, solver::MakeConst(8, 1));
    child.reset();
  });
  mover.join();

  EXPECT_EQ(parent.content_hash(), parent_hash)
      << "remote child writes must not bleed through COW";
  const MemoryObject* obj = parent.Find(id);
  for (uint32_t off = 0; off < 256; ++off) {
    uint64_t expect = off % 7 == 0 ? solver::MakeConst(8, off & 0xff)->hash()
                                   : ZeroByte()->hash();
    ASSERT_EQ(ByteHash(obj->ByteAt(off)), expect) << off;
  }
}

TEST(MemoryCowCrossThread, ExecutionStateForkMovedMutatedDestroyedRemotely) {
  workloads::Workload w = workloads::MakeWorkload("listing1");
  solver::ConstraintSolver solver;
  Interpreter interp(w.module.get(), &solver, {});
  auto main_fn = w.module->FindFunction("main");
  ASSERT_TRUE(main_fn.has_value());
  StatePtr root = interp.MakeInitialState(*main_fn, interp.AllocStateId());

  // Advance the root until it owns real COW pages, stacks, and constraints.
  for (int i = 0; i < 200; ++i) {
    StepResult step = interp.Step(*root);
    if (step.state_done) {
      break;
    }
  }
  const uint64_t root_fp = root->Fingerprint();

  // Hand a fork to another thread (the handoff join is the happens-before
  // edge the frontier's partition mutex provides in production), step it
  // there, and destroy it there — along with any forks it spawns.
  StatePtr child = root->Fork(interp.AllocStateId());
  std::thread mover([child = std::move(child), &interp]() mutable {
    std::vector<StatePtr> spawned;
    for (int i = 0; i < 100; ++i) {
      StepResult step = interp.Step(*child);
      for (StatePtr& fork : step.forks) {
        spawned.push_back(std::move(fork));
      }
      if (step.state_done) {
        break;
      }
    }
    spawned.clear();
    child.reset();
  });
  mover.join();

  EXPECT_EQ(root->Fingerprint(), root_fp)
      << "remote stepping of a fork must leave the parent untouched";
}

TEST(MemoryCowCrossThread, ArenaRecirculatesCrossThreadFrees) {
  // Allocate a batch on this thread, free it on another: the blocks land in
  // the *freeing* thread's magazine, and past the flush threshold they
  // recirculate to the central pool, observable via ArenaCentralReturns().
  constexpr size_t kBlocks = 4096;
  constexpr size_t kSize = 64;
  std::vector<void*> blocks;
  blocks.reserve(kBlocks);
  for (size_t i = 0; i < kBlocks; ++i) {
    void* p = core::ArenaAlloc(kSize);
    std::memset(p, 0xab, kSize);  // ASan: the block must be fully usable.
    blocks.push_back(p);
  }
  const size_t returns_before = core::ArenaCentralReturns();
  std::thread freer([&blocks] {
    for (void* p : blocks) {
      core::ArenaFree(p, kSize);
    }
  });
  freer.join();
  EXPECT_GT(core::ArenaCentralReturns(), returns_before)
      << "cross-thread frees past the flush threshold must recirculate";
}

#if defined(__SANITIZE_ADDRESS__)
#define ESD_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define ESD_TEST_ASAN 1
#endif
#endif

TEST(MemoryCow, FreedArenaBlocksArePoisonedPastTheirLinkWord) {
#ifndef ESD_TEST_ASAN
  GTEST_SKIP() << "needs AddressSanitizer";
#else
  // Pooled memory is invisible to ASan's own allocator, so the arena
  // poisons a free block itself: everything but the link word, which the
  // free lists use. Handing the block out again clears it.
  constexpr size_t kSize = 96;
  auto* p = static_cast<char*>(core::ArenaAlloc(kSize));
  std::memset(p, 0xcd, kSize);
  for (size_t i = 0; i < kSize; ++i) {
    ASSERT_FALSE(__asan_address_is_poisoned(p + i)) << "live byte " << i;
  }
  core::ArenaFree(p, kSize);
  for (size_t i = 0; i < sizeof(void*); ++i) {
    EXPECT_FALSE(__asan_address_is_poisoned(p + i)) << "link byte " << i;
  }
  for (size_t i = sizeof(void*); i < kSize; ++i) {
    EXPECT_TRUE(__asan_address_is_poisoned(p + i)) << "freed byte " << i;
  }
  // This thread's magazine is LIFO: the same block comes back.
  auto* q = static_cast<char*>(core::ArenaAlloc(kSize));
  ASSERT_EQ(q, p);
  for (size_t i = 0; i < kSize; ++i) {
    EXPECT_FALSE(__asan_address_is_poisoned(q + i)) << "reused byte " << i;
  }
  core::ArenaFree(q, kSize);
#endif
}

}  // namespace
}  // namespace esd::vm
