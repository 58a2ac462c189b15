// esdcheck: static lock-order analysis with ESD-backed validation (§8).
//
//   esdcheck <program.esd> [--time-cap SECONDS] [--static-only]
//
// Runs the RacerX-style lock-order checker, then validates each warning by
// asking ESD to synthesize an execution that actually deadlocks at the two
// reported acquisition sites. Warnings whose search space ESD exhausts are
// reported as probable false positives; a search that runs out of budget
// leaves its warning undecided.
#include <iostream>
#include <string>

#include "src/analysis/lock_order.h"
#include "src/core/warning_validation.h"
#include "tools/tool_common.h"

namespace {

void Usage(std::ostream& os = std::cerr) {
  os << "usage: esdcheck <program.esd> [options]\n"
     << "\n"
     << "Runs the RacerX-style static lock-order checker, then validates\n"
     << "each warning by asking ESD to synthesize an execution that actually\n"
     << "deadlocks at the reported acquisition sites. Warnings whose search\n"
     << "space ESD exhausts are reported as probable false positives; a\n"
     << "search that runs out of budget leaves its warning undecided.\n"
     << "\n"
     << "options:\n"
     << "  --time-cap SECONDS  synthesis budget per warning (default 30)\n"
     << "  --static-only       report the static warnings without ESD\n"
     << "                      validation\n"
     << "  -h, --help          show this help\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace esd;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "-h" || arg == "--help") {
      Usage(std::cout);
      return 0;
    }
  }
  if (argc < 2) {
    Usage();
    return 2;
  }
  std::string program_path = argv[1];
  bool static_only = false;
  core::SynthesisOptions options;
  options.time_cap_seconds = 30.0;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--time-cap" && i + 1 < argc) {
      if (!tools::ParseSeconds(arg, argv[++i], &options.time_cap_seconds)) {
        return 2;
      }
    } else if (arg == "--static-only") {
      static_only = true;
    } else {
      std::cerr << "error: unknown option or missing argument: '" << arg << "' (try --help)\n";
      return 2;
    }
  }

  auto module = tools::LoadProgram(program_path);
  if (module == nullptr) {
    return 1;
  }

  auto warnings = analysis::FindLockOrderWarnings(*module);
  std::cout << "esdcheck: static analysis found " << warnings.size()
            << " potential lock-order inversion(s)\n";
  for (size_t i = 0; i < warnings.size(); ++i) {
    const analysis::LockOrderWarning& w = warnings[i];
    std::cout << "  [" << i << "] " << module->GlobalAt(w.ab.first_mutex_global).name
              << " -> " << module->GlobalAt(w.ab.second_mutex_global).name << " at "
              << module->Describe(w.ab.acquire_site) << "  vs  "
              << module->GlobalAt(w.ba.first_mutex_global).name << " -> "
              << module->GlobalAt(w.ba.second_mutex_global).name << " at "
              << module->Describe(w.ba.acquire_site) << "\n";
  }
  if (static_only || warnings.empty()) {
    return 0;
  }

  std::cout << "\nesdcheck: validating each warning with execution synthesis...\n";
  auto validated = core::ValidateLockOrderWarnings(*module, options);
  int confirmed = 0;
  for (size_t i = 0; i < validated.size(); ++i) {
    const core::ValidatedWarning& v = validated[i];
    if (v.confirmed) {
      ++confirmed;
      std::cout << "  [" << i << "] TRUE POSITIVE: deadlock synthesized in "
                << v.synthesis.seconds << "s (fingerprint "
                << replay::Fingerprint(v.synthesis.file) << ")\n";
    } else if (v.synthesis.stop == core::SynthesisResult::Stop::kExhausted) {
      std::cout << "  [" << i << "] probable false positive: no execution found ("
                << v.synthesis.failure_reason << ")\n";
    } else if (v.synthesis.stop == core::SynthesisResult::Stop::kBudget) {
      std::cout << "  [" << i << "] undecided: search budget exhausted\n";
    } else {
      std::cout << "  [" << i << "] undecided: " << v.synthesis.failure_reason << "\n";
    }
  }
  std::cout << "\nesdcheck: " << confirmed << "/" << validated.size()
            << " warnings confirmed as real deadlocks\n";
  return 0;
}
