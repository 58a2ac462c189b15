// ESD VM: copy-on-write symbolic memory, page-granular.
//
// The address space maps object ids to memory objects whose contents are
// split into fixed kPageSize-byte pages, each holding one width-8 Expr per
// byte. Pointers pack (object id, offset) into 64 bits: id in the high 32
// bits (id 0 is the null object), offset in the low 32. Forked execution
// states share objects — and, transitively, pages — until one of them
// writes: the copy-on-write scheme §6.1 of the paper credits for ESD's
// scalability. Cloning an object on first write copies page *references*
// (O(size / kPageSize)); the write itself materializes or clones exactly
// one page (O(kPageSize)). A null page reference denotes an all-zero page,
// so zero-fill allocation is O(size / kPageSize) null pointers and
// untouched pages cost nothing to share. Pages are deliberately small (16
// bytes): most objects in the workloads are sync words and counters of at
// most a few words, so a small page keeps the clone-one-page cost of a
// write comparable to the old whole-object clone even for them, while
// large buffers still fork by reference.
//
// The address space also maintains an incremental 64-bit content hash for
// the state-deduplication layer, recombined from per-page hashes: every
// byte written through WriteByte XORs the old byte's contribution out of
// and the new one into both its page hash and the space hash, so the hash
// of the whole address space stays current at O(1) per store and a page
// clone inherits its hash without any re-walk. Zero-valued constant bytes
// contribute nothing, which keeps freshly allocated (zero-filled) objects
// hash-neutral. Byte contributions use the expression's structural hash, so
// two states that store equal values through different execution orders
// converge to the same content hash.
#ifndef ESD_SRC_VM_MEMORY_H_
#define ESD_SRC_VM_MEMORY_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/arena.h"
#include "src/solver/expr.h"

namespace esd::vm {

enum class ObjectKind : uint8_t { kGlobal, kStack, kHeap };

constexpr uint32_t kPageSizeLog2 = 4;
constexpr uint32_t kPageSize = 1u << kPageSizeLog2;  // 16 bytes.

// One COW unit of object contents. A null byte slot means a zero constant;
// `hash` is the XOR of this page's byte contributions to the space hash.
struct MemoryPage {
  std::array<solver::ExprRef, kPageSize> bytes;
  uint64_t hash = 0;
};
using PageRef = std::shared_ptr<MemoryPage>;

// The canonical zero byte returned for never-written slots.
const solver::ExprRef& ZeroByte();

struct MemoryObject {
  uint32_t id = 0;
  uint32_t size = 0;
  ObjectKind kind = ObjectKind::kGlobal;
  bool freed = false;
  std::string name;  // Global name or allocation-site label, for diagnostics.
  // ceil(size / kPageSize) entries; a null entry is an all-zero page.
  std::vector<PageRef, core::ArenaAllocator<PageRef>> pages;

  // The byte at `offset` (must be < size); ZeroByte() for untouched slots.
  const solver::ExprRef& ByteAt(uint32_t offset) const {
    const PageRef& page = pages[offset >> kPageSizeLog2];
    if (page == nullptr) {
      return ZeroByte();
    }
    const solver::ExprRef& b = page->bytes[offset & (kPageSize - 1)];
    return b == nullptr ? ZeroByte() : b;
  }
};

constexpr uint64_t MakePointer(uint32_t object_id, uint32_t offset) {
  return (uint64_t{object_id} << 32) | offset;
}
constexpr uint32_t PointerObject(uint64_t ptr) { return static_cast<uint32_t>(ptr >> 32); }
constexpr uint32_t PointerOffset(uint64_t ptr) { return static_cast<uint32_t>(ptr); }

class AddressSpace {
 public:
  AddressSpace() = default;
  // Copying shares all objects (copy-on-write) and inherits the content hash.
  AddressSpace(const AddressSpace&) = default;
  AddressSpace& operator=(const AddressSpace&) = default;

  // Allocates a zero-filled object; returns its id. Ids are dense and
  // sequential from 1, so lookup is an index into objects_.
  uint32_t Allocate(uint32_t size, ObjectKind kind, std::string name);
  // Allocates and initializes from raw bytes (zero-filled beyond init).
  uint32_t AllocateInit(uint32_t size, ObjectKind kind, std::string name,
                        const std::vector<uint8_t>& init);

  // Marks an object freed. The object is retained so later accesses can be
  // diagnosed as use-after-free. Returns false if already freed or unknown.
  bool Free(uint32_t id);

  const MemoryObject* Find(uint32_t id) const;
  // Returns a uniquely-owned object for writing, cloning if shared. The
  // clone copies page references only; pages stay shared until WriteByte.
  MemoryObject* FindWritable(uint32_t id);

  // Writes one byte, keeping the page and content hashes current. `obj`
  // must belong to this address space (come from FindWritable) and
  // `offset` be in bounds. Materializes or clones the touched page.
  void WriteByte(MemoryObject* obj, uint32_t offset, solver::ExprRef value);

  size_t NumObjects() const { return objects_.size(); }
  uint64_t content_hash() const { return content_hash_; }

 private:
  // Indexed by id - 1; ids are allocated densely. Objects, their page
  // tables and this table are arena blocks: a fork copies the table and a
  // first write clones an object.
  std::vector<std::shared_ptr<MemoryObject>,
              core::ArenaAllocator<std::shared_ptr<MemoryObject>>>
      objects_;
  uint64_t content_hash_ = 0;
};

}  // namespace esd::vm

#endif  // ESD_SRC_VM_MEMORY_H_
