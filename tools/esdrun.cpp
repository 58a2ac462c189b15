// esdrun: run a program concretely and capture a coredump on failure.
//
//   esdrun <program.esd> [--input name=value]... [--seed N] [--dump out.core]
//          [--max-steps N]
//
// This is the "end user side" of the paper's workflow: the program runs
// normally (no tracing, no instrumentation); if it fails, the coredump that
// a production crash handler would produce is written for esdsynth.
#include <iostream>
#include <map>
#include <string>

#include "src/report/coredump.h"
#include "src/solver/solver.h"
#include "src/vm/engine.h"
#include "src/workloads/trigger.h"
#include "tools/tool_common.h"

namespace {

void Usage(std::ostream& os = std::cerr) {
  os << "usage: esdrun <program.esd> [options]\n"
     << "\n"
     << "Runs the program concretely (the \"end user side\": no tracing, no\n"
     << "instrumentation). If it fails, writes the coredump a production\n"
     << "crash handler would produce, ready for esdsynth.\n"
     << "\n"
     << "options:\n"
     << "  --input name=value  fix the program input with this name prefix\n"
     << "                      (e.g. --input getchar=109); repeatable. When\n"
     << "                      absent, inputs are drawn randomly from --seed\n"
     << "  --seed N            RNG seed for random inputs and the schedule\n"
     << "                      (default 0)\n"
     << "  --dump FILE         coredump output path (default core.txt)\n"
     << "  --max-steps N       abort after N instructions (default 5000000)\n"
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
  std::map<std::string, uint64_t> inputs;
  uint64_t seed = 0;
  bool random = true;
  std::string dump_path = "core.txt";
  uint64_t max_steps = 5'000'000;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--input" && i + 1 < argc) {
      std::string kv = argv[++i];
      size_t eq = kv.find('=');
      if (eq == std::string::npos) {
        std::cerr << "error: --input expects name=value, got '" << kv << "'\n";
        return 2;
      }
      std::string name = kv.substr(0, eq);
      if (!tools::ParseUnsigned(arg + " " + name, kv.c_str() + eq + 1,
                                &inputs[name], 0, UINT64_MAX, 0)) {
        return 2;
      }
      random = false;
    } else if (arg == "--seed" && i + 1 < argc) {
      if (!tools::ParseUnsigned(arg, argv[++i], &seed)) {
        return 2;
      }
    } else if (arg == "--dump" && i + 1 < argc) {
      dump_path = argv[++i];
    } else if (arg == "--max-steps" && i + 1 < argc) {
      if (!tools::ParseUnsigned(arg, argv[++i], &max_steps)) {
        return 2;
      }
    } else {
      std::cerr << "error: unknown option or missing argument: '" << arg << "' (try --help)\n";
      return 2;
    }
  }

  auto module = tools::LoadProgram(program_path);
  if (module == nullptr) {
    return 1;
  }

  solver::ConstraintSolver solver;
  workloads::PrefixInputProvider fixed(inputs);
  workloads::RandomInputProvider rnd(seed + 1);
  workloads::RandomSchedulePolicy sched(seed);
  vm::Interpreter::Options options;
  options.input_provider =
      random ? static_cast<vm::InputProvider*>(&rnd) : &fixed;
  options.policy = &sched;
  vm::Interpreter interpreter(module.get(), &solver, options);

  auto main_fn = module->FindFunction("main");
  if (!main_fn.has_value()) {
    std::cerr << "error: no main function\n";
    return 1;
  }
  vm::StatePtr state = interpreter.MakeInitialState(*main_fn, 0);
  vm::SingleRunResult run = vm::RunToCompletion(interpreter, *state, max_steps);
  if (!state->output.empty()) {
    std::cout << state->output << "\n";
  }
  if (!run.completed) {
    std::cerr << "esdrun: step budget exhausted\n";
    return 1;
  }
  if (!run.bug.IsBug()) {
    std::cout << "esdrun: exited normally (" << run.instructions
              << " instructions)\n";
    return 0;
  }
  report::CoreDump dump = report::CaptureCoreDump(*state, run.bug);
  std::cout << "esdrun: FAILURE: " << vm::BugKindName(run.bug.kind) << " at "
            << module->Describe(run.bug.pc) << " (" << run.bug.message << ")\n";
  if (!tools::WriteFile(dump_path, report::CoreDumpToText(*module, dump))) {
    std::cerr << "error: cannot write '" << dump_path << "'\n";
    return 1;
  }
  std::cout << "esdrun: coredump written to " << dump_path << "\n";
  return 1;
}
