// esdfuzz: scenario fuzzing for the synthesis engine.
//
//   esdfuzz [--seeds N] [--seed-base S] [--kind deadlock|race|crash|mixed]
//           [--jobs N] [--cooperative | --race-portfolio]
//           [--time-cap SECONDS] [--no-ablations] [--no-ir-opt]
//           [--no-store-buffer] [--shrink] [--out-dir DIR]
//           [--inject-kind-mismatch] [--emit-corpus DIR]
//
// Expands each seed into a random concurrent program with a planted bug
// (src/fuzz/generator.h), then runs the differential oracle: full-engine
// synthesis must find the planted bug, the execution file must replay
// deterministically, and the pruning/solver ablations must agree on
// feasibility. Any failing scenario is a real engine (or generator) bug;
// its self-contained repro is written to --out-dir, delta-debugged to a
// near-minimal program first when --shrink is given.
#include <iostream>
#include <string>
#include <vector>

#include "src/fuzz/generator.h"
#include "src/fuzz/oracle.h"
#include "src/fuzz/shrinker.h"
#include "src/replay/execution_file.h"
#include "src/report/coredump.h"
#include "tools/tool_common.h"

namespace {

void Usage(std::ostream& os = std::cerr) {
  os << "usage: esdfuzz [options]\n"
     << "\n"
     << "Sweeps randomly generated concurrent programs with planted bugs\n"
     << "through the full synthesis engine and checks the oracle\n"
     << "invariants: planted bug found, execution file replays\n"
     << "deterministically, pruning/solver ablations agree.\n"
     << "\n"
     << "options:\n"
     << "  --seeds N          scenarios to run (default 20)\n"
     << "  --seed-base S      first seed; scenario i uses seed S+i\n"
     << "                     (default 1)\n"
     << "  --kind K           deadlock | race | crash | rwlock-upgrade |\n"
     << "                     sem-lost-signal | barrier-mismatch |\n"
     << "                     treiber-aba | spsc-fence | mixed\n"
     << "                     (default mixed: kind cycles with the seed)\n"
     << "  --jobs N           portfolio width for each synthesis run\n"
     << "                     (default 1)\n"
     << "  --cooperative      with --jobs N: cooperative work-stealing\n"
     << "                     portfolio (default for N > 1)\n"
     << "  --race-portfolio   with --jobs N: racing portfolio instead\n"
     << "  --time-cap SECONDS per-synthesis budget (default 30)\n"
     << "  --no-ablations     skip the pruning-off / solver-pipeline-off /\n"
     << "                     ir-opt-off agreement runs\n"
     << "  --no-ir-opt        run the whole sweep without the pre-synthesis\n"
     << "                     IR pass pipeline (the CI ablation job runs the\n"
     << "                     corpus both ways and diffs the verdicts)\n"
     << "  --no-store-buffer  sequentially consistent atomics: no TSO\n"
     << "                     store-buffer reordering (the spsc-fence kind's\n"
     << "                     planted bug becomes unreachable)\n"
     << "  --shrink           delta-debug failing scenarios to a minimal\n"
     << "                     repro before writing it\n"
     << "  --out-dir DIR      where failure repros are written (default .)\n"
     << "  --inject-kind-mismatch\n"
     << "                     fault injection: expect the wrong bug kind,\n"
     << "                     so every scenario fails (exercises the\n"
     << "                     failure path and --shrink)\n"
     << "  --emit-corpus DIR  do not run the oracle; write each scenario's\n"
     << "                     program (.esd) + coredump (.core) to DIR along\n"
     << "                     with a corpus.jobs manifest for esdserved\n"
     << "  -h, --help         show this help\n";
}

// A wrong-but-valid kind for fault injection: anything differing from the
// planted kind fails the oracle's kind check.
esd::vm::BugInfo::Kind MismatchedKind(esd::vm::BugInfo::Kind planted) {
  return planted == esd::vm::BugInfo::Kind::kDeadlock
             ? esd::vm::BugInfo::Kind::kAssertFail
             : esd::vm::BugInfo::Kind::kDeadlock;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace esd;
  uint64_t seeds = 20;
  uint64_t seed_base = 1;
  std::string kind_arg = "mixed";
  bool shrink = false;
  bool inject_mismatch = false;
  std::string out_dir = ".";
  std::string emit_corpus_dir;
  fuzz::OracleOptions oracle;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "-h" || arg == "--help") {
      Usage(std::cout);
      return 0;
    } else if (arg == "--seeds" && i + 1 < argc) {
      if (!tools::ParseUnsigned(arg, argv[++i], &seeds)) {
        return 2;
      }
    } else if (arg == "--seed-base" && i + 1 < argc) {
      if (!tools::ParseUnsigned(arg, argv[++i], &seed_base)) {
        return 2;
      }
    } else if (arg == "--kind" && i + 1 < argc) {
      kind_arg = argv[++i];
      if (kind_arg != "mixed" && !fuzz::ParseBugKindName(kind_arg).has_value()) {
        std::cerr << "error: --kind must be deadlock, race, crash, "
                  << "rwlock-upgrade, sem-lost-signal, barrier-mismatch, "
                  << "treiber-aba, spsc-fence or mixed, got '" << kind_arg
                  << "'\n";
        return 2;
      }
    } else if (arg == "--jobs" && i + 1 < argc) {
      if (!tools::ParseUnsigned(arg, argv[++i], &oracle.jobs, 1,
                                tools::kMaxJobs)) {
        return 2;
      }
    } else if (arg == "--cooperative") {
      oracle.cooperative = true;
    } else if (arg == "--race-portfolio") {
      oracle.cooperative = false;
    } else if (arg == "--time-cap" && i + 1 < argc) {
      if (!tools::ParseSeconds(arg, argv[++i], &oracle.time_cap_seconds)) {
        return 2;
      }
    } else if (arg == "--no-ablations") {
      oracle.check_ablations = false;
    } else if (arg == "--no-ir-opt") {
      oracle.ir_opt = false;
    } else if (arg == "--no-store-buffer") {
      oracle.store_buffer = false;
    } else if (arg == "--shrink") {
      shrink = true;
    } else if (arg == "--out-dir" && i + 1 < argc) {
      out_dir = argv[++i];
    } else if (arg == "--inject-kind-mismatch") {
      inject_mismatch = true;
    } else if (arg == "--emit-corpus" && i + 1 < argc) {
      emit_corpus_dir = argv[++i];
    } else {
      std::cerr << "error: unknown option or missing argument: '" << arg << "' (try --help)\n";
      return 2;
    }
  }

  // Corpus emission: generate the scenarios and write each as a synthesis
  // job (program + coredump) plus a manifest esdserved consumes directly —
  // the input set for the daemon smoke test and bench_served.
  if (!emit_corpus_dir.empty()) {
    std::string manifest;
    uint64_t emitted = 0;
    for (uint64_t i = 0; i < seeds; ++i) {
      uint64_t seed = seed_base + i;
      fuzz::GeneratorParams params;
      params.seed = seed;
      if (kind_arg == "mixed") {
        params.kind = static_cast<fuzz::BugKind>(seed % fuzz::kNumBugKinds);
      } else {
        params.kind = *fuzz::ParseBugKindName(kind_arg);
      }
      fuzz::GeneratedProgram program = fuzz::Generate(params);
      auto dump = fuzz::MakeReport(program);
      if (!dump.has_value()) {
        std::cerr << "esdfuzz: seed " << seed
                  << ": planted bug did not manifest concretely; skipped\n";
        continue;
      }
      std::string prefix = emit_corpus_dir + "/seed" + std::to_string(seed);
      if (!tools::WriteFile(prefix + ".esd", fuzz::ReproText(program)) ||
          !tools::WriteFile(prefix + ".core",
                            report::CoreDumpToText(*program.module, *dump))) {
        std::cerr << "error: cannot write corpus files '" << prefix << ".*'\n";
        return 1;
      }
      manifest += prefix + ".esd " + prefix + ".core\n";
      ++emitted;
    }
    if (!tools::WriteFile(emit_corpus_dir + "/corpus.jobs", manifest)) {
      std::cerr << "error: cannot write '" << emit_corpus_dir
                << "/corpus.jobs'\n";
      return 1;
    }
    std::cout << "esdfuzz: corpus of " << emitted << " jobs written to "
              << emit_corpus_dir << "/corpus.jobs\n";
    return 0;
  }

  uint64_t failures = 0;
  uint64_t passed = 0;
  for (uint64_t i = 0; i < seeds; ++i) {
    uint64_t seed = seed_base + i;
    fuzz::GeneratorParams params;
    params.seed = seed;
    if (kind_arg == "mixed") {
      params.kind = static_cast<fuzz::BugKind>(seed % fuzz::kNumBugKinds);
    } else {
      params.kind = *fuzz::ParseBugKindName(kind_arg);
    }
    fuzz::GeneratedProgram program = fuzz::Generate(params);
    fuzz::OracleOptions options = oracle;
    if (inject_mismatch) {
      options.expect_kind_override = MismatchedKind(program.expected_kind);
    }
    fuzz::OracleVerdict verdict = fuzz::CheckScenario(program, options);
    if (verdict.ok) {
      ++passed;
      std::cout << "esdfuzz: seed " << seed << " ["
                << fuzz::BugKindName(params.kind) << "] ok: "
                << verdict.result.states_created << " states, "
                << verdict.result.solver.queries << " solver queries, "
                << "fingerprint " << replay::Fingerprint(verdict.result.file)
                << "\n";
      continue;
    }
    ++failures;
    std::cout << "esdfuzz: seed " << seed << " ["
              << fuzz::BugKindName(params.kind) << "] FAIL at stage '"
              << verdict.stage << "': " << verdict.failure << "\n";
    fuzz::GeneratedProgram repro = program;
    if (shrink) {
      fuzz::ShrinkStats stats;
      repro = fuzz::ShrinkFailingScenario(program, options, &stats);
      std::cout << "esdfuzz: shrunk seed " << seed << " from "
                << stats.stmts_before << " to " << stats.stmts_after
                << " statements (" << stats.attempts << " attempts, "
                << stats.rounds << " rounds)\n";
    }
    std::string prefix = out_dir + "/esdfuzz_seed" + std::to_string(seed);
    if (!tools::WriteFile(prefix + ".esd", fuzz::ReproText(repro))) {
      std::cerr << "error: cannot write '" << prefix << ".esd'\n";
      return 1;
    }
    std::cout << "esdfuzz: repro written to " << prefix << ".esd";
    auto dump = fuzz::MakeReport(repro);
    if (dump.has_value() &&
        tools::WriteFile(prefix + ".core",
                         report::CoreDumpToText(*repro.module, *dump))) {
      std::cout << " (+ " << prefix << ".core for esdsynth)";
    }
    std::cout << "\n";
  }
  std::cout << "esdfuzz: " << passed << "/" << seeds << " scenarios passed, "
            << failures << " failed\n";
  return failures == 0 ? 0 : 1;
}
