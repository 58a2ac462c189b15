#include "inputs.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <optional>
#include <random>

#include "interleavings.h"
#include "src/bpf/generator.h"
#include "src/fuzz/generator.h"
#include "src/fuzz/oracle.h"
#include "src/ir/printer.h"
#include "src/report/coredump.h"
#include "src/workloads/workloads.h"

namespace perfbench {
namespace {

using esd::vm::BugInfo;

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "esdbench: cannot build inputs: %s\n", what.c_str());
  std::exit(2);
}

// One independent random stream per workload.
std::mt19937_64 Rng(uint64_t seed, uint64_t stream) {
  return std::mt19937_64(seed * 0x9e3779b97f4a7c15ull + stream);
}

ReportInput Texts(std::string name, const esd::ir::Module& module,
                  const esd::report::CoreDump& dump, BugInfo::Kind expected) {
  ReportInput in;
  in.name = std::move(name);
  in.module_text = esd::ir::PrintModule(module);
  in.report_text = esd::report::CoreDumpToText(module, dump);
  in.expected = expected;
  return in;
}

// The 19 fixed paper reports: listing1, Table 1, ls1-4, and the sync and
// atomics additions.
void AddPaperReports(std::vector<ReportInput>* out) {
  std::vector<std::string> names = {"listing1"};
  for (const std::vector<std::string>& group :
       {esd::workloads::Table1Names(), esd::workloads::LsNames(),
        esd::workloads::SyncNames(), esd::workloads::AtomicNames()}) {
    names.insert(names.end(), group.begin(), group.end());
  }
  for (const std::string& name : names) {
    esd::workloads::Workload w = esd::workloads::MakeWorkload(name);
    std::optional<esd::report::CoreDump> dump =
        w.assert_site_report
            ? std::optional(esd::workloads::AssertSiteDump(*w.module))
            : esd::workloads::CaptureDump(*w.module, w.trigger);
    if (!dump.has_value()) {
      Die("paper workload " + name + " did not manifest its bug");
    }
    out->push_back(Texts("paper/" + name, *w.module, *dump, w.expected_kind));
  }
}

ReportInput FuzzReport(esd::fuzz::BugKind kind, uint64_t seed,
                       uint32_t noise) {
  esd::fuzz::GeneratorParams params;
  params.kind = kind;
  params.seed = seed;
  params.noise_per_thread = noise;
  // Pinned so that a report's cost depends on its kind and noise level
  // more than on its seed, which keeps pass-to-pass mixes comparable.
  params.num_locks = 2;
  params.guard_depth = 2;
  esd::fuzz::GeneratedProgram program = esd::fuzz::Generate(params);
  std::string name = "fuzz/" + std::string(esd::fuzz::BugKindName(kind)) +
                     "/s" + std::to_string(seed) + "/n" + std::to_string(noise);
  std::optional<esd::report::CoreDump> dump = esd::fuzz::MakeReport(program);
  if (!dump.has_value()) {
    Die(name + " did not manifest its bug");
  }
  return Texts(std::move(name), *program.module, *dump, program.expected_kind);
}

// A Fig. 3/4 BPF program: two workers, every branch input-dependent, one
// planted deadlock.
ReportInput BpfReport(uint32_t branches, uint64_t seed) {
  esd::bpf::BpfParams params;
  params.num_branches = branches;
  params.input_dependent = branches;
  params.num_inputs = std::max<uint32_t>(4, branches / 16);
  params.seed = seed;
  esd::bpf::BpfProgram program = esd::bpf::Generate(params);
  std::string name = "bpf/b" + std::to_string(branches);
  std::optional<esd::report::CoreDump> dump =
      esd::workloads::CaptureDump(*program.module, program.trigger);
  if (!dump.has_value()) {
    Die(name + " did not manifest its bug");
  }
  return Texts(std::move(name), *program.module, *dump,
               BugInfo::Kind::kDeadlock);
}

// Noise statements per fuzz worker thread. Synthesis time grows with noise
// much faster for the kinds whose search forks at every shared access or
// store-buffer flush (race, sem-lost-signal, treiber-aba, spsc-fence: at 12
// statements their slowest reports take over a second) than for the rest
// (under 15 ms at 24), so those kinds stop at kHeavyNoiseCap. That keeps
// reports between about a millisecond and about a hundred, and keeps one
// pathological report from deciding a run.
constexpr uint32_t kOneshotNoise[] = {1, 2, 3, 4, 6, 8, 12, 16, 20, 24};
constexpr uint32_t kHeavyNoiseCap = 3;
// Fuzz reports per (noise level, kind) in a oneshot pass.
constexpr int kOneshotFuzzReps = 6;

uint32_t NoiseFor(esd::fuzz::BugKind kind, uint32_t noise) {
  switch (kind) {
    case esd::fuzz::BugKind::kRace:
    case esd::fuzz::BugKind::kSemLostSignal:
    case esd::fuzz::BugKind::kTreiberAba:
    case esd::fuzz::BugKind::kSpscFence:
      return std::min(noise, kHeavyNoiseCap);
    default:
      return noise;
  }
}

void MakeOneshot(uint64_t seed, WorkloadInputs* out) {
  std::mt19937_64 rng = Rng(seed, 1);
  AddPaperReports(&out->reports);
  for (uint32_t noise : kOneshotNoise) {
    for (int rep = 0; rep < kOneshotFuzzReps; ++rep) {
      for (uint32_t k = 0; k < esd::fuzz::kNumBugKinds; ++k) {
        const auto kind = static_cast<esd::fuzz::BugKind>(k);
        out->reports.push_back(
            FuzzReport(kind, 1 + rng() % 1'000'000, NoiseFor(kind, noise)));
      }
    }
  }
  for (uint32_t branches = 256; branches <= 8192; branches *= 2) {
    out->reports.push_back(BpfReport(branches, 1 + rng() % 1'000'000));
  }
}

// The interleavings grid: both shapes at every (updates of A, updates of
// B) size and planted switch count, kInterleavingReps times with fresh
// constants and orderings. A deadlock ordering starts and ends with A, so
// its switch counts are even.
struct InterleavingSize {
  uint32_t a;
  uint32_t b;
};
constexpr InterleavingSize kInterleavingSizes[] = {
    {4, 5}, {5, 5}, {5, 6}, {6, 6}};
constexpr std::array<uint32_t, 3> kRaceSwitches = {2, 3, 4};
constexpr std::array<uint32_t, 3> kDeadlockSwitches = {2, 4, 4};
constexpr int kInterleavingReps = 8;

void MakeInterleavings(uint64_t seed, WorkloadInputs* out) {
  std::mt19937_64 rng = Rng(seed, 2);
  out->jobs = 4;
  for (int rep = 0; rep < kInterleavingReps; ++rep) {
    for (bool deadlock : {false, true}) {
      for (InterleavingSize size : kInterleavingSizes) {
        for (uint32_t switches :
             deadlock ? kDeadlockSwitches : kRaceSwitches) {
          InterleavingParams params;
          params.deadlock = deadlock;
          params.updates_a = size.a;
          params.updates_b = size.b;
          params.switches = switches;
          params.spin = 4 + static_cast<uint32_t>(rng() % 7);
          std::optional<InterleavingProgram> program;
          for (int attempt = 0; attempt < 64 && !program.has_value();
               ++attempt) {
            params.seed = 1 + rng() % 1'000'000'000;
            program = GenerateInterleaving(params);
          }
          std::string name = std::string("ilv/") +
                             (deadlock ? "deadlock" : "race") + "/a" +
                             std::to_string(size.a) + "b" +
                             std::to_string(size.b) + "/k" +
                             std::to_string(switches) + "/s" +
                             std::to_string(params.seed);
          if (!program.has_value()) {
            Die(name + ": no plantable ordering in 64 seeds");
          }
          out->reports.push_back(Texts(std::move(name), *program->module,
                                       program->report,
                                       program->report.kind));
        }
      }
    }
  }
}

// The service pool: generated programs with heavier noise (as in
// bench_served) and two BPF programs. Only the kinds whose synthesis stays
// within a few milliseconds at this noise: the workload measures reuse
// across jobs, and with the heavy-tailed kinds a handful of slow searches
// would decide its percentiles instead.
constexpr uint32_t kServiceFuzzReports = 128;
constexpr uint32_t kServiceNoise = 8;
constexpr esd::fuzz::BugKind kServiceKinds[] = {
    esd::fuzz::BugKind::kDeadlock, esd::fuzz::BugKind::kCrash,
    esd::fuzz::BugKind::kRwUpgrade, esd::fuzz::BugKind::kBarrierMismatch};
constexpr uint32_t kServiceBpfBranches[] = {512, 2048};
// First submissions between a report's cold job and its follow-up.
constexpr size_t kServiceFollowUpLag = 8;

// A patched copy of a module: one padding function appended, the way a
// fix changes the program without touching the buggy code. Each patch has
// its own function name, hence its own module digest.
std::string Patched(const std::string& module_text, size_t patch) {
  return module_text + "\nfunc @esd_bench_pad_" + std::to_string(patch) +
         "() : i32 {\nentry:\n  ret i32 0\n}\n";
}

void MakeService(uint64_t seed, WorkloadInputs* out) {
  std::mt19937_64 rng = Rng(seed, 3);
  out->service = true;
  for (uint32_t i = 0; i < kServiceFuzzReports; ++i) {
    const esd::fuzz::BugKind kind = kServiceKinds[i % std::size(kServiceKinds)];
    out->reports.push_back(
        FuzzReport(kind, 1 + rng() % 1'000'000, kServiceNoise));
  }
  for (uint32_t branches : kServiceBpfBranches) {
    out->reports.push_back(BpfReport(branches, 1 + rng() % 1'000'000));
  }
  // Every report is submitted twice: first cold, then kServiceFollowUpLag
  // first submissions later once more, as an exact repeat (answered from
  // the stored verdict) if its pool index is even, else as a patched copy
  // of its module (re-synthesized incrementally from the stored
  // execution). The seed shuffles the order; the mix is the same in every
  // stream.
  const size_t pool = out->reports.size();
  std::vector<size_t> order(pool);
  for (size_t i = 0; i < pool; ++i) {
    order[i] = i;
  }
  for (size_t i = pool; i > 1; --i) {
    std::swap(order[i - 1], order[rng() % i]);
  }
  auto follow_up = [out](size_t report) {
    if (report % 2 == 0) {
      out->stream.push_back(report);
      return;
    }
    ReportInput patched = out->reports[report];
    patched.name += "+pad";
    patched.module_text = Patched(patched.module_text, report);
    out->reports.push_back(std::move(patched));
    out->stream.push_back(out->reports.size() - 1);
  };
  for (size_t i = 0; i < pool + kServiceFollowUpLag; ++i) {
    if (i < pool) {
      out->stream.push_back(order[i]);
    }
    if (i >= kServiceFollowUpLag) {
      follow_up(order[i - kServiceFollowUpLag]);
    }
  }
  out->restart_at = out->stream.size() / 2;
}

}  // namespace

bool MakeInputs(const std::string& workload, uint64_t seed,
                WorkloadInputs* out) {
  *out = WorkloadInputs();
  if (workload == "oneshot") {
    MakeOneshot(seed, out);
  } else if (workload == "interleavings") {
    MakeInterleavings(seed, out);
  } else if (workload == "service") {
    MakeService(seed, out);
  } else {
    return false;
  }
  if (out->stream.empty()) {
    for (size_t i = 0; i < out->reports.size(); ++i) {
      out->stream.push_back(i);
    }
  }
  return true;
}

}  // namespace perfbench
