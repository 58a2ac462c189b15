// Seeded family of search-bound concurrency reports: the `interleavings`
// workload, built like bench/scaling_workloads.h.
//
// Threads A and B each apply affine updates acc = acc * mul + add to one
// shared accumulator, each update a critical section under one mutex with
// a short busy loop inside. The two maps do not commute, and the generator
// checks by enumeration that the ordering it plants is the only one that
// produces its accumulator value. So dedup and sleep sets cannot merge the
// interleaving prefixes on the way, and the search has to find that one
// ordering among all of them.
//
//   race      main asserts, after joining both threads, that the
//             accumulator differs from the planted complete ordering's
//             value (the report is main's assertion failure).
//   deadlock  B reads the accumulator after its own updates and takes its
//             two locks in inverted order only if it reads the planted
//             prefix's value; A takes them in the usual order after its
//             remaining updates (the report is the circular wait).
#ifndef ESD_PERFBENCH_INTERLEAVINGS_H_
#define ESD_PERFBENCH_INTERLEAVINGS_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "src/ir/module.h"
#include "src/report/coredump.h"

namespace perfbench {

struct InterleavingParams {
  bool deadlock = false;   // Shape: deadlock, else race.
  uint32_t updates_a = 4;  // Critical sections of thread A ...
  uint32_t updates_b = 4;  // ... and of thread B.
  uint32_t switches = 3;   // Context switches in the planted ordering.
  uint32_t spin = 4;       // Busy-loop iterations per critical section.
  uint64_t seed = 1;
};

struct InterleavingProgram {
  std::shared_ptr<esd::ir::Module> module;
  esd::report::CoreDump report;  // Captured from a run of the planted order.
};

// Expands `params` into a program and its report. Returns nullopt when the
// seed's constants admit no planted ordering with the requested switch
// count and a unique value; callers then try another seed.
std::optional<InterleavingProgram> GenerateInterleaving(
    const InterleavingParams& params);

}  // namespace perfbench

#endif  // ESD_PERFBENCH_INTERLEAVINGS_H_
