#include "src/vm/memory.h"

#include "src/core/arena.h"
#include "src/core/event_counters.h"
#include "src/vm/fingerprint.h"

namespace esd::vm {
namespace {

constexpr auto Mix64 = FingerprintMix64;

// Contribution of one byte to the page and address-space content hashes. A
// zero constant (or a never-written null slot) contributes nothing, so
// untouched bytes are free.
uint64_t ByteHash(uint32_t obj_id, uint32_t offset, const solver::ExprRef& v) {
  if (v == nullptr || v->IsConstValue(0)) {
    return 0;
  }
  return Mix64((uint64_t{obj_id} << 32 | offset) ^
               Mix64(static_cast<uint64_t>(v->hash())));
}

constexpr uint64_t kFreedSalt = 0x9e3779b97f4a7c15ull;

}  // namespace

const solver::ExprRef& ZeroByte() {
  static const solver::ExprRef kZero = solver::MakeConst(8, 0);
  return kZero;
}

uint32_t AddressSpace::Allocate(uint32_t size, ObjectKind kind, std::string name) {
  auto obj = std::allocate_shared<MemoryObject>(core::ArenaAllocator<MemoryObject>());
  obj->id = static_cast<uint32_t>(objects_.size()) + 1;
  obj->size = size;
  obj->kind = kind;
  obj->name = std::move(name);
  obj->pages.resize((size + kPageSize - 1) >> kPageSizeLog2);  // All zero pages.
  uint32_t id = obj->id;
  objects_.push_back(std::move(obj));
  return id;
}

uint32_t AddressSpace::AllocateInit(uint32_t size, ObjectKind kind, std::string name,
                                    const std::vector<uint8_t>& init) {
  uint32_t id = Allocate(size, kind, std::move(name));
  MemoryObject* obj = FindWritable(id);
  for (size_t i = 0; i < init.size() && i < size; ++i) {
    WriteByte(obj, static_cast<uint32_t>(i), solver::MakeConst(8, init[i]));
  }
  return id;
}

bool AddressSpace::Free(uint32_t id) {
  const MemoryObject* obj = Find(id);
  if (obj == nullptr || obj->freed) {
    return false;
  }
  MemoryObject* writable = FindWritable(id);
  writable->freed = true;
  content_hash_ ^= Mix64(uint64_t{id} ^ kFreedSalt);
  return true;
}

const MemoryObject* AddressSpace::Find(uint32_t id) const {
  if (id == 0 || id > objects_.size()) {
    return nullptr;
  }
  return objects_[id - 1].get();
}

MemoryObject* AddressSpace::FindWritable(uint32_t id) {
  if (id == 0 || id > objects_.size()) {
    return nullptr;
  }
  std::shared_ptr<MemoryObject>& slot = objects_[id - 1];
  if (slot.use_count() > 1) {
    // Pages stay shared.
    slot = std::allocate_shared<MemoryObject>(core::ArenaAllocator<MemoryObject>(), *slot);
  }
  return slot.get();
}

void AddressSpace::WriteByte(MemoryObject* obj, uint32_t offset,
                             solver::ExprRef value) {
  PageRef& page = obj->pages[offset >> kPageSizeLog2];
  if (page == nullptr) {
    page = std::allocate_shared<MemoryPage>(core::ArenaAllocator<MemoryPage>());
    CountEvent(&EventCounters::pages_copied);
  } else if (page.use_count() > 1) {
    // Hash carried over by the copy, no re-walk.
    page = std::allocate_shared<MemoryPage>(core::ArenaAllocator<MemoryPage>(), *page);
    CountEvent(&EventCounters::pages_copied);
  }
  solver::ExprRef& slot = page->bytes[offset & (kPageSize - 1)];
  uint64_t delta = ByteHash(obj->id, offset, slot) ^ ByteHash(obj->id, offset, value);
  page->hash ^= delta;
  content_hash_ ^= delta;
  CountEvent(&EventCounters::bytes_hashed);
  slot = std::move(value);
}

}  // namespace esd::vm
