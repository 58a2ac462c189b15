// Seeded inputs of the time-to-reproduce benchmark: the reports each
// workload runs, as the texts a user hands to esdsynth or esdserved (the
// module text and the coredump text), with the bug each must reproduce.
#ifndef ESD_PERFBENCH_INPUTS_H_
#define ESD_PERFBENCH_INPUTS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/vm/interpreter.h"

namespace perfbench {

struct ReportInput {
  std::string name;         // e.g. "paper/sqlite", "fuzz/race/s12/n8".
  std::string module_text;  // Complete module text, externs included.
  std::string report_text;  // report::CoreDumpToText of the field report.
  esd::vm::BugInfo::Kind expected = esd::vm::BugInfo::Kind::kNone;
};

struct WorkloadInputs {
  size_t jobs = 1;                   // SynthesisOptions::jobs.
  bool service = false;              // Submit through one serve::Server.
  std::vector<ReportInput> reports;  // Distinct (module, report) pairs.
  // The order one pass submits the reports in, as indices into `reports`:
  // each report once, except in the service stream, which repeats some.
  std::vector<size_t> stream;
  // Service only: the Server is destroyed (which flushes its caches) and
  // rebuilt over the same cache directory before stream[restart_at].
  size_t restart_at = 0;
};

// Builds the inputs of `workload` ("oneshot", "interleavings" or
// "service") from `seed`. Returns false for any other workload name.
bool MakeInputs(const std::string& workload, uint64_t seed,
                WorkloadInputs* out);

}  // namespace perfbench

#endif  // ESD_PERFBENCH_INPUTS_H_
