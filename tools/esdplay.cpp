// esdplay: deterministically play back a synthesized execution (§8).
//
//   esdplay <program.esd> <exec file> [--hb] [--trace] [--max-steps N]
//
// Replays the execution file against the program. With --trace, prints each
// executed instruction (thread, location, text) — the "step through it in
// your debugger" experience. With --hb, uses the happens-before schedule
// instead of the strict serial one.
#include <iostream>
#include <string>

#include "src/ir/printer.h"
#include "src/replay/replayer.h"
#include "src/solver/solver.h"
#include "tools/tool_common.h"

namespace {

void Usage(std::ostream& os = std::cerr) {
  os << "usage: esdplay <program.esd> <exec file> [options]\n"
     << "\n"
     << "Deterministically plays back an execution file synthesized by\n"
     << "esdsynth, re-manifesting the recorded bug.\n"
     << "\n"
     << "options:\n"
     << "  --hb            enforce the happens-before schedule (natural\n"
     << "                  parallelism) instead of the strict serial one\n"
     << "  --trace         print every executed instruction (thread,\n"
     << "                  location, text) while replaying\n"
     << "  --max-steps N   abort after N instructions (default 10000000)\n"
     << "  -h, --help      show this help\n";
}

// A step-by-step replay that prints every executed instruction.
int TraceReplay(const esd::ir::Module& module, const esd::replay::ExecutionFile& file,
                uint64_t max_steps) {
  using namespace esd;
  solver::ConstraintSolver solver;
  replay::FileInputProvider inputs(&file);
  replay::StrictReplayPolicy policy(&file);
  vm::Interpreter::Options options;
  options.input_provider = &inputs;
  options.policy = &policy;
  vm::Interpreter interpreter(&module, &solver, options);
  auto main_fn = module.FindFunction("main");
  if (!main_fn.has_value()) {
    std::cerr << "error: no main function\n";
    return 1;
  }
  vm::StatePtr state = interpreter.MakeInitialState(*main_fn, 0);
  for (uint64_t i = 0; i < max_steps; ++i) {
    const vm::Thread& t = state->CurrentThread();
    ir::InstRef pc = t.Pc();
    const ir::Instruction* inst = module.InstAt(pc);
    if (inst != nullptr) {
      std::cout << "T" << t.id << "  " << module.Describe(pc) << "  "
                << ir::PrintInstruction(module, module.Func(pc.func), *inst) << "\n";
    }
    vm::StepResult step = interpreter.Step(*state);
    if (step.state_done) {
      if (step.bug.IsBug()) {
        std::cout << "== bug manifested: " << vm::BugKindName(step.bug.kind) << " at "
                  << module.Describe(step.bug.pc) << " (" << step.bug.message
                  << ") ==\n";
      } else {
        std::cout << "== program exited normally ==\n";
      }
      return 0;
    }
  }
  std::cout << "== trace budget exhausted ==\n";
  return 0;
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
  std::string exec_path = argv[2];
  bool hb = false;
  bool trace = false;
  uint64_t max_steps = 10'000'000;
  for (int i = 3; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--hb") {
      hb = true;
    } else if (arg == "--trace") {
      trace = true;
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
  auto exec_text = tools::ReadFile(exec_path);
  if (!exec_text.has_value()) {
    std::cerr << "error: cannot read '" << exec_path << "'\n";
    return 1;
  }
  std::string error;
  auto file = replay::ParseExecutionFile(*exec_text, &error);
  if (!file.has_value()) {
    std::cerr << "error: " << exec_path << ": " << error << "\n";
    return 1;
  }

  if (trace) {
    return TraceReplay(*module, *file, max_steps);
  }
  replay::ReplayResult result = replay::Replay(
      *module, *file, hb ? replay::ReplayMode::kHappensBefore
                         : replay::ReplayMode::kStrict,
      max_steps);
  if (!result.completed) {
    std::cerr << "esdplay: replay did not complete within the step budget\n";
    return 1;
  }
  // A schedule/flush inconsistency is a hard error, not a silent
  // misreplay: the file does not describe the program it was played
  // against (e.g. a flush step past the end of the schedule).
  if (!result.error.empty()) {
    std::cerr << "esdplay: " << exec_path << ": " << result.error << "\n";
    return 1;
  }
  if (!result.output.empty()) {
    std::cout << "-- program output --\n" << result.output << "\n--------------------\n";
  }
  if (result.bug_reproduced) {
    std::cout << "esdplay: bug reproduced deterministically: " << file->bug_kind
              << " (" << result.bug.message << ")\n";
    return 0;
  }
  std::cout << "esdplay: execution completed but the bug did not manifest ("
            << "got '" << vm::BugKindName(result.bug.kind) << "')\n";
  return 1;
}
