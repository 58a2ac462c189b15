// esdsynth: synthesize a bug-bound execution from a coredump (§8).
//
//   esdsynth <program.esd> <coredump> [-o exec.out] [--time-cap SECONDS]
//            [--jobs N] [--cooperative | --race-portfolio]
//            [--with-race-det] [--no-proximity]
//            [--no-intermediate-goals] [--no-critical-edges] [--seed N]
//            [--dedup | --no-dedup] [--dedup-private] [--no-sleep-sets]
//            [--no-store-buffer]
//            [--no-solver-slice] [--no-solver-range]
//            [--no-solver-incremental] [--no-solver-pipeline]
//            [--solver-cache-shared | --solver-cache-private] [--counters]
//            [--no-ir-opt]
//
// Reads the program and the coredump, synthesizes an execution that
// reproduces the reported bug, and writes the execution file for esdplay.
#include <iostream>
#include <string>

#include "src/core/synthesizer.h"
#include "src/replay/execution_file.h"
#include "src/report/coredump.h"
#include "tools/tool_common.h"

namespace {

void Usage(std::ostream& os = std::cerr) {
  os << "usage: esdsynth <program.esd> <coredump> [options]\n"
     << "\n"
     << "Synthesizes an execution that reproduces the bug reported in the\n"
     << "coredump and writes an execution file for esdplay.\n"
     << "\n"
     << "options:\n"
     << "  -o FILE                 output execution file"
     << " (default execution.esdx)\n"
     << "  --time-cap SECONDS      give up after this much wall-clock time"
     << " (default 180)\n"
     << "  --jobs N                run N parallel search workers.\n"
     << "                          1 = classic single-threaded engine\n"
     << "  --cooperative           with --jobs N: all workers drain one\n"
     << "                          work-stealing frontier — forks are routed\n"
     << "                          by fingerprint ownership, idle workers\n"
     << "                          steal from busy peers (default for N > 1)\n"
     << "  --race-portfolio        with --jobs N: race N independent\n"
     << "                          frontiers with diversified strategies;\n"
     << "                          first to the goal wins\n"
     << "  --seed N                search RNG seed (default 1)\n"
     << "  --with-race-det         run the lockset race detector even for\n"
     << "                          non-race bug classes\n"
     << "  --dedup / --no-dedup    state deduplication: drop schedule forks\n"
     << "                          whose fingerprint (pcs, memory, sync\n"
     << "                          state, constraints) was already explored\n"
     << "                          (default on)\n"
     << "  --dedup-private         with --jobs N: per-worker fingerprint\n"
     << "                          tables instead of one shared table\n"
     << "                          (race-portfolio mode only; cooperative\n"
     << "                          mode always shares the table)\n"
     << "  --no-store-buffer       ablation: commit atomic stores in program\n"
     << "                          order instead of buffering relaxed stores\n"
     << "                          per thread (TSO store-buffer reordering,\n"
     << "                          default on)\n"
     << "  --no-sleep-sets         disable sleep-set pruning of redundant\n"
     << "                          schedule forks (default on)\n"
     << "  --no-solver-slice       disable independence partitioning of\n"
     << "                          queries into components (solver\n"
     << "                          pipeline stage 1)\n"
     << "  --no-solver-range       disable the interval value-range\n"
     << "                          discharge of guard constraints (stage 3)\n"
     << "  --no-solver-incremental disable the assumption-based incremental\n"
     << "                          SAT session (stage 4)\n"
     << "  --no-solver-pipeline    disable all of the above and the\n"
     << "                          shared solver cache\n"
     << "  --no-ir-opt             search the original module instead of a\n"
     << "                          pre-optimized copy (branch elision, then\n"
     << "                          dead-arithmetic neutralization; default\n"
     << "                          on)\n"
     << "  --solver-cache-shared / --solver-cache-private\n"
     << "                          with --jobs N: one solver query cache\n"
     << "                          (stage 2) shared by all workers\n"
     << "                          (default) or per-worker caches only\n"
     << "  --counters              print the hot-path event counters (state\n"
     << "                          forks, COW page copies, frontier traffic,\n"
     << "                          solver calls; summed across workers)\n"
     << "  --no-proximity          ablation: disable proximity-guided search\n"
     << "  --no-intermediate-goals ablation: disable static anchor points\n"
     << "  --no-critical-edges     ablation: disable path abandonment\n"
     << "  -h, --help              show this help\n";
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
  if (argc < 3) {
    Usage();
    return 2;
  }
  std::string program_path = argv[1];
  std::string dump_path = argv[2];
  std::string out_path = "execution.esdx";
  bool print_counters = false;
  core::SynthesisOptions options;
  for (int i = 3; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "-o" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--time-cap" && i + 1 < argc) {
      if (!tools::ParseSeconds(arg, argv[++i], &options.time_cap_seconds)) {
        return 2;
      }
    } else if (arg == "--seed" && i + 1 < argc) {
      if (!tools::ParseUnsigned(arg, argv[++i], &options.seed)) {
        return 2;
      }
    } else if (arg == "--jobs" && i + 1 < argc) {
      if (!tools::ParseUnsigned(arg, argv[++i], &options.jobs, 1,
                                tools::kMaxJobs)) {
        return 2;
      }
    } else if (arg == "--cooperative") {
      options.cooperative = true;
    } else if (arg == "--race-portfolio") {
      options.cooperative = false;
    } else if (arg == "--with-race-det") {
      options.enable_race_detection = true;
    } else if (arg == "--dedup") {
      options.dedup = true;
    } else if (arg == "--no-dedup") {
      options.dedup = false;
    } else if (arg == "--dedup-private") {
      options.dedup_shared = false;
    } else if (arg == "--no-store-buffer") {
      options.store_buffer = false;
    } else if (arg == "--no-sleep-sets") {
      options.sleep_sets = false;
    } else if (arg == "--no-solver-slice") {
      options.solver_slice = false;
    } else if (arg == "--no-solver-range") {
      options.solver_range = false;
    } else if (arg == "--no-solver-incremental") {
      options.solver_incremental = false;
    } else if (arg == "--no-solver-pipeline") {
      options.solver_slice = false;
      options.solver_range = false;
      options.solver_incremental = false;
      options.solver_cache_shared = false;
    } else if (arg == "--no-ir-opt") {
      options.ir_opt = false;
    } else if (arg == "--solver-cache-shared") {
      options.solver_cache_shared = true;
    } else if (arg == "--solver-cache-private") {
      options.solver_cache_shared = false;
    } else if (arg == "--counters") {
      print_counters = true;
    } else if (arg == "--no-proximity") {
      options.use_proximity = false;
    } else if (arg == "--no-intermediate-goals") {
      options.use_intermediate_goals = false;
    } else if (arg == "--no-critical-edges") {
      options.use_critical_edges = false;
    } else {
      std::cerr << "error: unknown option or missing argument: '" << arg << "' (try --help)\n";
      return 2;
    }
  }

  if (!options.dedup_shared && options.jobs > 1 && options.cooperative) {
    std::cerr << "esdsynth: warning: --dedup-private is ignored in cooperative "
                 "mode (the work-stealing frontier shares one fingerprint "
                 "table); combine it with --race-portfolio to take effect\n";
  }

  auto module = tools::LoadProgram(program_path);
  if (module == nullptr) {
    return 1;
  }
  auto dump_text = tools::ReadFile(dump_path);
  if (!dump_text.has_value()) {
    std::cerr << "error: cannot read '" << dump_path << "'\n";
    return 1;
  }
  std::string error;
  auto dump = report::ParseCoreDump(*module, *dump_text, &error);
  if (!dump.has_value()) {
    std::cerr << "error: " << dump_path << ": " << error << "\n";
    return 1;
  }

  std::cout << "esdsynth: goal class '" << vm::BugKindName(dump->kind) << "' at "
            << module->Describe(dump->fault_pc) << "\n";
  core::Synthesizer synthesizer(module.get(), options);
  core::SynthesisResult result = synthesizer.Synthesize(*dump);
  for (const std::string& other : result.other_bugs) {
    std::cout << "esdsynth: note: discovered a different bug on the way: " << other
              << "\n";
  }
  if (!result.success) {
    std::cerr << "esdsynth: synthesis failed: " << result.failure_reason << "\n";
    return 1;
  }
  std::cout << "esdsynth: synthesized in " << result.seconds << "s ("
            << result.instructions << " instructions, " << result.states_created
            << " states, " << result.states_deduped << " deduped, "
            << result.sleep_set_skips << " sleep-set skips, "
            << result.intermediate_goals << " intermediate goals)\n";
  const auto& ss = result.solver;
  std::cout << "esdsynth: solver: " << ss.queries << " queries, "
            << ss.cache_hits << " cache hits, " << ss.cex_hits << " cex hits, "
            << ss.shared_hits << " shared hits, " << ss.sat_calls
            << " SAT calls over " << ss.components << " components\n"
            << "esdsynth: solver: SAT effort: " << ss.sat_conflicts
            << " conflicts, " << ss.sat_decisions << " decisions, "
            << ss.sat_propagations << " propagations, " << ss.sat_learned
            << " learned clauses\n"
            << "esdsynth: solver: range stage: " << ss.range_discharged
            << "/" << ss.range_checked << " components discharged ("
            << ss.range_unsat << " unsat)\n";
  if (options.ir_opt) {
    const auto& ps = result.pass_stats;
    std::cout << "esdsynth: ir-opt: " << ps.elided_branches
              << " branch elisions, " << ps.neutralized_insts
              << " neutralized\n";
  }
  if (print_counters) {
    std::cout << "esdsynth: counters:";
    EventCounters::ForEachField(
        [&](std::string_view name, uint64_t EventCounters::*field) {
          std::cout << " " << name << "=" << result.counters.*field;
        });
    std::cout << "\n";
  }
  for (size_t w = 0; w < result.workers.size(); ++w) {
    const core::WorkerReport& wr = result.workers[w];
    std::cout << "esdsynth:   worker " << w << " [" << wr.strategy << "] "
              << wr.status << (wr.winner ? " *winner*" : "") << ": "
              << wr.instructions << " instructions, " << wr.states_created
              << " states (" << wr.states_deduped << " deduped, "
              << wr.sleep_set_skips << " sleep-set skips), "
              << wr.solver_queries << " solver queries ("
              << wr.solver_shared_hits << " shared hits, " << wr.sat_conflicts
              << " conflicts) in " << wr.seconds << "s";
    if (wr.counters.states_handed_off != 0 || wr.counters.steals != 0) {
      std::cout << " [coop: " << wr.counters.states_handed_off << " handed off, "
                << wr.counters.steals << " steals]";
    }
    std::cout << "\n";
  }
  std::cout << "esdsynth: inferred " << result.file.inputs.size()
            << " program inputs and a schedule with " << result.file.strict.size()
            << " switch points\n";
  if (!tools::WriteFile(out_path, replay::ExecutionFileToText(result.file))) {
    std::cerr << "error: cannot write '" << out_path << "'\n";
    return 1;
  }
  std::cout << "esdsynth: wrote " << out_path << "\n";
  return 0;
}
