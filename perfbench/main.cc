// esdbench: the time-to-reproduce benchmark driver (see README.md).
//
//   esdbench --workload oneshot|interleavings|service --seed N --seconds S
//            --trace 0|1 [--out-dir DIR]
//
// A run builds its seeded inputs, times the set-up (parsing every module
// and report text) several times, makes one untimed warm-up pass over the
// reports, and then
//   --trace 0  streams whole passes, closed loop with one client, until S
//              seconds have elapsed, and prints the end-to-end metrics;
//   --trace 1  makes one untraced and one traced pass, prints the per-layer
//              metrics, and writes the traced pass's spans to
//              DIR/trace-<workload>-s<seed>.jsonl.
// Every answer is checked against the report's known bug. The last line of
// standard output is one JSON object with the keys correct, attempted,
// failed and metrics. A replay that manifests another bug than the
// report's is a hard error: the run exits 1 without a result.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "inputs.h"
#include "src/analysis/distance.h"
#include "src/core/event_counters.h"
#include "src/core/goal.h"
#include "src/core/search_setup.h"
#include "src/core/synthesizer.h"
#include "src/ir/parser.h"
#include "src/ir/passes/passes.h"
#include "src/ir/printer.h"
#include "src/ir/verifier.h"
#include "src/replay/execution_file.h"
#include "src/replay/replayer.h"
#include "src/report/coredump.h"
#include "src/serve/server.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using namespace esd;
using Clock = std::chrono::steady_clock;

// Set-ups per run: at least kMinSetups, and more until they add up to
// kSetupSeconds, so a workload whose set-up takes milliseconds still times
// enough input to repeat. setup_s is their median.
constexpr size_t kMinSetups = 5;
constexpr size_t kMaxSetups = 400;
constexpr double kSetupSeconds = 2.0;
// Per-report synthesis cap. A report that hits it is not reproduced.
constexpr double kTimeCapSeconds = 20.0;
// No pass starts after this much of a run, so a run that has slowed down
// tenfold still ends within its time limit.
constexpr double kRunDeadlineSeconds = 110.0;

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

// Where a duration of `seconds` that ends at `end` began, clamped to
// [start, end].
Clock::time_point Before(Clock::time_point start, Clock::time_point end,
                         double seconds) {
  const double clamped = std::min(std::max(seconds, 0.0), Seconds(start, end));
  return end - std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(clamped));
}

[[noreturn]] void Fail(const std::string& message) {
  std::fprintf(stderr, "esdbench: %s\n", message.c_str());
  std::exit(1);
}

uint64_t Fnv(const std::string& text) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

// Linear interpolation between the closest ranks.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Moves the calling thread over the vCPUs the process may use, one per
// call. On a shared host the vCPUs differ in speed by up to 1.5x, and
// which one is slow changes from minute to minute; a jobs=1 pass left on
// whichever vCPU it landed on measures that vCPU. Pinning each report (and
// each set-up) to the next vCPU in turn gives every pass the same even mix.
// Threads started while pinned inherit the pin, so jobs > 1 workloads pin
// only their single-threaded set-up.
class CpuRotor {
 public:
  CpuRotor() {
    CPU_ZERO(&all_);
    if (sched_getaffinity(0, sizeof(all_), &all_) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &all_)) {
          cpus_.push_back(c);
        }
      }
    }
  }

  void Next() {
    if (cpus_.size() < 2) {
      return;
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
  }

  // Lets the thread run on every usable vCPU again.
  void Release() {
    if (!cpus_.empty()) {
      sched_setaffinity(0, sizeof(all_), &all_);
    }
  }

  size_t size() const { return cpus_.size(); }

 private:
  cpu_set_t all_;
  std::vector<int> cpus_;
  size_t next_ = 0;
};

// Spans of the traced pass, kept in memory and written out when the run
// ends. They are recorded around the benchmark's own calls into each
// layer; the split of one call (vm.search inside core.synthesize) comes
// from the search time the program reports.
class Tracer {
 public:
  int Add(const std::string& name, Clock::time_point start,
          Clock::time_point end, int parent, int report) {
    spans_.push_back({name, Seconds(base_, start), Seconds(base_, end),
                      parent, report});
    return static_cast<int>(spans_.size()) - 1;
  }

  // Per span name: the sum of each span's duration minus its children's.
  std::map<std::string, double> SelfTimes() const {
    std::vector<double> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
      self[i] = spans_[i].end - spans_[i].start;
    }
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        self[s.parent] -= s.end - s.start;
      }
    }
    std::map<std::string, double> by_name;
    for (size_t i = 0; i < spans_.size(); ++i) {
      by_name[spans_[i].name] += self[i];
    }
    return by_name;
  }

  bool Write(const std::string& path) const {
    std::ofstream out(path);
    char line[256];
    for (const Span& s : spans_) {
      std::snprintf(line, sizeof(line),
                    "{\"name\": \"%s\", \"start\": %.9f, \"end\": %.9f, "
                    "\"parent\": %d, \"report\": %d}\n",
                    s.name.c_str(), s.start, s.end, s.parent, s.report);
      out << line;
    }
    return out.good();
  }

 private:
  struct Span {
    std::string name;
    double start = 0.0;  // Seconds since the tracer was created.
    double end = 0.0;
    int parent = -1;  // Index of the enclosing span; -1 for none.
    int report = -1;  // Stream position of the report the span serves.
  };
  Clock::time_point base_ = Clock::now();
  std::vector<Span> spans_;
};

// A report after set-up: the parsed module and coredump, and the goal the
// known-answer check compares replays against (extracted untimed).
struct Loaded {
  std::shared_ptr<ir::Module> module;
  report::CoreDump dump;
  core::Goal goal;
};

std::shared_ptr<ir::Module> ParseModuleText(const ReportInput& in) {
  auto module = std::make_shared<ir::Module>();
  ir::ParseResult parsed = ir::ParseModule(in.module_text, module.get());
  if (!parsed.ok) {
    Fail(in.name + ": " + parsed.error);
  }
  std::vector<std::string> errors = ir::Verify(*module);
  if (!errors.empty()) {
    Fail(in.name + ": " + errors[0]);
  }
  return module;
}

report::CoreDump ParseReportText(const ReportInput& in,
                                 const ir::Module& module) {
  std::string error;
  std::optional<report::CoreDump> dump =
      report::ParseCoreDump(module, in.report_text, &error);
  if (!dump.has_value()) {
    Fail(in.name + ": " + error);
  }
  return std::move(*dump);
}

// Everything one pass produced, for the metrics and the checks.
struct Pass {
  std::vector<double> ttr;  // Per attempted report, in stream order.
  uint64_t reproduced = 0;
  uint64_t false_claims = 0;  // Claimed reproduced; the replay disagreed.
  std::vector<std::string> counts;  // Per report: all counts it produced.
  // Layer counts, summed over the pass.
  double search_s = 0.0;
  uint64_t states = 0;
  uint64_t instructions = 0;
  uint64_t deduped = 0;
  uint64_t sleep_skips = 0;
  EventCounters counters;
  solver::ConstraintSolver::Stats solver;
  double imbalance_sum = 0.0;
  uint64_t imbalance_reports = 0;
  uint64_t replay_instructions = 0;
  // Set-up probes (traced pass only).
  uint64_t passes_run = 0;
  uint64_t rewrites = 0;
  uint64_t dataflow_iterations = 0;
  uint64_t goal_tables = 0;
  // Serve layer.
  serve::Server::Stats server_stats;
  double serve_start_s = 0.0;
  double serve_flush_s = 0.0;
  uint64_t cache_bytes = 0;
};

void AddServerStats(const serve::Server::Stats& s, serve::Server::Stats* to) {
  to->jobs += s.jobs;
  to->reproduced += s.reproduced;
  to->verdict_cache_hits += s.verdict_cache_hits;
  to->incremental += s.incremental;
  to->duplicate_bugs += s.duplicate_bugs;
  to->solver_shared_hits += s.solver_shared_hits;
  to->distance_tables_restored += s.distance_tables_restored;
  to->solver_entries_preloaded += s.solver_entries_preloaded;
  to->corpus_preloaded += s.corpus_preloaded;
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& entry : fs::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) {
      bytes += entry.file_size(ec);
    }
  }
  return bytes;
}

// Parses an emitted execution file and replays it strictly against the
// report's original module.
replay::ReplayResult Verify(const Loaded& l, const ReportInput& in,
                            const std::string& text) {
  std::string error;
  std::optional<replay::ExecutionFile> file =
      replay::ParseExecutionFile(text, &error);
  if (!file.has_value()) {
    Fail(in.name + ": emitted execution file does not parse: " + error);
  }
  return replay::Replay(*l.module, *file, replay::ReplayMode::kStrict);
}

// The known-answer check. A report is reproduced only if the strict replay
// manifests the report's generated bug kind at its goal site: the crash
// pc, or for a deadlock the blocked thread the replay names (mutex waiters
// first) sits at one of the reported threads' sites. A replay that
// manifests another bug, or this one elsewhere, is a hard error.
void Judge(const Loaded& l, const ReportInput& in, bool claimed,
           const std::optional<replay::ReplayResult>& replayed, Pass* pass) {
  if (replayed.has_value() && replayed->bug.IsBug()) {
    const vm::BugInfo& bug = replayed->bug;
    bool at_site = false;
    if (bug.kind == vm::BugInfo::Kind::kDeadlock) {
      at_site = !bug.pc.IsValid();  // Only condvar waiters: no site named.
      for (const core::ThreadGoal& tg : l.goal.threads) {
        at_site = at_site || tg.target == bug.pc;
      }
    } else if (!l.goal.threads.empty()) {
      at_site = bug.pc == l.goal.threads[0].target;
    }
    if (bug.kind != in.expected || !at_site) {
      Fail(in.name + ": WRONG BUG: replay manifested " +
           std::string(vm::BugKindName(bug.kind)) +
           (at_site ? "" : " away from the goal site") + ", expected " +
           std::string(vm::BugKindName(in.expected)) + " (" + bug.message +
           ")");
    }
  }
  const bool reproduced = replayed.has_value() && replayed->bug_reproduced &&
                          replayed->error.empty() &&
                          replayed->bug.kind == in.expected;
  if (claimed && !reproduced) {
    ++pass->false_claims;
    std::fprintf(stderr, "esdbench: %s: reproduction claimed, replay %s\n",
                 in.name.c_str(),
                 replayed.has_value() && !replayed->error.empty()
                     ? replayed->error.c_str()
                     : "manifested no bug");
  }
  pass->reproduced += reproduced ? 1 : 0;
  if (replayed.has_value()) {
    pass->replay_instructions += replayed->instructions;
  }
}

// Sibling spans outside the report span, on the same input: parsing the
// module and report texts and, for reports that were synthesized, the
// synthesizer's set-up step by step (goal, IR passes on a copy, digest,
// distance tables), which splits core.setup.
void Probes(const ReportInput& in, int report, bool synthesized,
            Tracer* tracer, Pass* pass) {
  const auto t0 = Clock::now();
  std::shared_ptr<ir::Module> module = ParseModuleText(in);
  const auto t1 = Clock::now();
  report::CoreDump dump = ParseReportText(in, *module);
  const auto t2 = Clock::now();
  tracer->Add("ir.parse", t0, t1, -1, report);
  tracer->Add("report.parse", t1, t2, -1, report);
  if (!synthesized) {
    return;
  }

  const core::Goal goal = core::ExtractGoal(*module, dump);
  const auto t3 = Clock::now();
  tracer->Add("core.goal", t2, t3, -1, report);
  ir::passes::ProtectedSites prot;  // As Synthesizer::SynthesizeGoal builds it.
  for (const core::ThreadGoal& tg : goal.threads) {
    if (tg.target.IsValid()) {
      prot.funcs.insert(tg.target.func);
      prot.sites.insert(tg.target);
    }
    for (const ir::InstRef& frame : tg.stack) {
      if (frame.IsValid()) {
        prot.funcs.insert(frame.func);
        prot.sites.insert(frame);
      }
    }
  }
  const auto t4 = Clock::now();
  ir::Module optimized = *module;
  ir::passes::PassStats pass_stats;
  EventCounters pass_events;
  bool optimized_ok = false;
  {
    ScopedEventCounters scope(&pass_events);
    optimized_ok = ir::passes::PassManager().Run(&optimized, prot, &pass_stats);
  }
  const auto t5 = Clock::now();
  const ir::Module& search = optimized_ok ? optimized : *module;
  const uint64_t digest = ir::ModuleDigest(search);
  const auto t6 = Clock::now();
  EventCounters analysis_events;
  {
    ScopedEventCounters scope(&analysis_events);
    analysis::DistanceCalculator distances(&search);
    size_t intermediate = 0;
    std::vector<core::ProximitySearcher::SearchGoal> goals =
        core::BuildSearchGoals(search, distances, goal, true, &intermediate);
    distances.Prewarm(core::GoalTargets(goals));
    pass->goal_tables += distances.stats().goal_tables.load();
    if (distances.module_digest() != digest) {
      Fail(in.name + ": distance tables keyed by another digest");
    }
  }
  const auto t7 = Clock::now();
  tracer->Add("ir.passes", t4, t5, -1, report);
  tracer->Add("ir.digest", t5, t6, -1, report);
  tracer->Add("analysis.distances", t6, t7, -1, report);
  pass->passes_run += pass_events.ir_passes_run;
  pass->rewrites += pass_stats.TotalRewrites();
  pass->dataflow_iterations +=
      pass_events.dataflow_iterations + analysis_events.dataflow_iterations;
}

class Bench {
 public:
  Bench(WorkloadInputs inputs, std::string out_dir)
      : in_(std::move(inputs)), out_dir_(std::move(out_dir)) {}

  const WorkloadInputs& inputs() const { return in_; }
  size_t usable_cpus() const { return rotor_.size(); }

  // One set-up: every module text parsed and verified, every report text
  // parsed, and for service a Server built over a fresh cache directory.
  // Returns its seconds; the last set-up's results are the ones used.
  double Setup() {
    rotor_.Next();
    std::vector<Loaded> loaded(in_.reports.size());
    const auto start = Clock::now();
    for (size_t i = 0; i < in_.reports.size(); ++i) {
      loaded[i].module = ParseModuleText(in_.reports[i]);
      loaded[i].dump = ParseReportText(in_.reports[i], *loaded[i].module);
    }
    double seconds = Seconds(start, Clock::now());
    if (in_.service) {
      const std::string dir = FreshDir("setup");
      const auto t0 = Clock::now();
      auto server = std::make_unique<serve::Server>(MakeServerOptions(dir));
      seconds += Seconds(t0, Clock::now());
      server.reset();
      fs::remove_all(dir);
    }
    for (Loaded& l : loaded) {
      l.goal = core::ExtractGoal(*l.module, l.dump);
    }
    loaded_ = std::move(loaded);
    if (in_.jobs > 1) {
      rotor_.Release();  // The portfolio's worker threads would inherit it.
    }
    return seconds;
  }

  // One pass over the stream; with `tracer`, records spans and runs the
  // per-report layer probes.
  Pass RunPass(Tracer* tracer) {
    Pass pass;
    if (in_.service) {
      ServicePass(&pass, tracer);
    } else {
      for (size_t pos = 0; pos < in_.stream.size(); ++pos) {
        SynthesizeOne(pos, &pass, tracer);
      }
    }
    return pass;
  }

  // An idle Server's start and flush (empty cache directory): the serve
  // layer's floor, on the workloads that do not use it.
  void IdleServeProbe(Pass* pass) {
    const std::string dir = FreshDir("idle");
    const auto t0 = Clock::now();
    auto server = std::make_unique<serve::Server>(MakeServerOptions(dir));
    const auto t1 = Clock::now();
    server.reset();
    const auto t2 = Clock::now();
    pass->serve_start_s += Seconds(t0, t1);
    pass->serve_flush_s += Seconds(t1, t2);
    fs::remove_all(dir);
  }

 private:
  serve::ServerOptions MakeServerOptions(const std::string& dir) const {
    serve::ServerOptions options;
    options.cache_dir = dir;
    options.synthesis.jobs = in_.jobs;
    options.synthesis.time_cap_seconds = kTimeCapSeconds;
    return options;
  }

  // A cache directory no earlier pass or run has used; callers delete it.
  std::string FreshDir(const char* tag) {
    const std::string dir = out_dir_ + "/" + tag + "-" +
                            std::to_string(getpid()) + "-" +
                            std::to_string(dirs_++);
    fs::remove_all(dir);
    return dir;
  }

  // oneshot and interleavings: Synthesize, emit the execution file, replay
  // it strictly. The time to reproduce covers all three.
  void SynthesizeOne(size_t pos, Pass* pass, Tracer* tracer) {
    const ReportInput& in = in_.reports[in_.stream[pos]];
    const Loaded& l = loaded_[in_.stream[pos]];
    if (in_.jobs == 1) {
      rotor_.Next();
    }
    core::SynthesisOptions options;
    options.jobs = in_.jobs;
    options.time_cap_seconds = kTimeCapSeconds;

    const auto t0 = Clock::now();
    core::SynthesisResult result =
        core::Synthesizer(l.module.get(), options).Synthesize(l.dump);
    const auto t1 = Clock::now();
    std::string text;
    if (result.success) {
      text = replay::ExecutionFileToText(result.file);
    }
    const auto t2 = Clock::now();
    std::optional<replay::ReplayResult> replayed;
    if (result.success) {
      replayed = Verify(l, in, text);
    }
    const auto t3 = Clock::now();
    pass->ttr.push_back(Seconds(t0, t3));
    Judge(l, in, result.success, replayed, pass);
    if (!result.success) {
      std::fprintf(stderr, "esdbench: %s: not reproduced: %s\n",
                   in.name.c_str(), result.failure_reason.c_str());
    }

    pass->search_s += result.seconds;
    pass->states += result.states_created;
    pass->instructions += result.instructions;
    pass->deduped += result.states_deduped;
    pass->sleep_skips += result.sleep_set_skips;
    pass->counters.Add(result.counters);
    pass->solver.Accumulate(result.solver);
    if (!result.workers.empty()) {
      uint64_t max = 0;
      uint64_t sum = 0;
      for (const core::WorkerReport& w : result.workers) {
        max = std::max(max, w.states_created);
        sum += w.states_created;
      }
      if (sum > 0) {
        pass->imbalance_sum += static_cast<double>(max) *
                               static_cast<double>(result.workers.size()) /
                               static_cast<double>(sum);
        ++pass->imbalance_reports;
      }
    }

    std::string counts = std::to_string(result.success) + " " +
                         std::to_string(result.states_created) + " " +
                         std::to_string(result.instructions) + " " +
                         std::to_string(result.states_deduped) + " " +
                         std::to_string(result.sleep_set_skips) + " " +
                         std::to_string(result.solver.queries) + " " +
                         std::to_string(result.solver.cache_hits) + " " +
                         std::to_string(result.solver.sat_calls) + " " +
                         std::to_string(result.solver.components) + " " +
                         std::to_string(result.pass_stats.TotalRewrites()) +
                         " " + std::to_string(Fnv(text));
    EventCounters::ForEachField(
        [&](std::string_view, uint64_t EventCounters::*field) {
          counts += " " + std::to_string(result.counters.*field);
        });
    if (replayed.has_value()) {
      counts += " " + std::to_string(replayed->instructions);
    }
    pass->counts.push_back(std::move(counts));

    if (tracer != nullptr) {
      const int report = static_cast<int>(pos);
      const int span = tracer->Add("report", t0, t3, -1, report);
      const int synth = tracer->Add("core.synthesize", t0, t1, span, report);
      const auto search_start = Before(t0, t1, result.seconds);
      tracer->Add("core.setup", t0, search_start, synth, report);
      tracer->Add("vm.search", search_start, t1, synth, report);
      tracer->Add("replay.emit", t1, t2, span, report);
      tracer->Add("replay.verify", t2, t3, span, report);
      Probes(in, report, /*synthesized=*/true, tracer, pass);
    }
  }

  // service: one job through Server::Process, then a strict replay of the
  // execution text it returned (stored verdicts included).
  void ServeOne(serve::Server& server, size_t pos, Pass* pass,
                Tracer* tracer) {
    const ReportInput& in = in_.reports[in_.stream[pos]];
    const Loaded& l = loaded_[in_.stream[pos]];
    rotor_.Next();
    serve::Job job;
    job.id = pos + 1;
    job.module_text = in.module_text;
    job.report_text = in.report_text;

    const auto t0 = Clock::now();
    serve::JobResult result = server.Process(job);
    const auto t1 = Clock::now();
    if (!result.ok) {
      Fail(in.name + ": " + result.error);
    }
    std::optional<replay::ReplayResult> replayed;
    if (result.reproduced) {
      replayed = Verify(l, in, result.exec_text);
    }
    const auto t2 = Clock::now();
    pass->ttr.push_back(Seconds(t0, t2));
    Judge(l, in, result.reproduced, replayed, pass);
    if (!result.reproduced) {
      std::fprintf(stderr, "esdbench: %s: not reproduced: %s\n",
                   in.name.c_str(), result.failure_reason.c_str());
    }

    pass->search_s += result.seconds;
    pass->solver.shared_hits += result.solver_shared_hits;
    std::string counts =
        result.source + " " + std::to_string(result.reproduced) + " " +
        result.fingerprint + " " + std::to_string(result.duplicate_bug) + " " +
        std::to_string(result.seed_switches) + " " +
        std::to_string(result.seed_best_prefix) + " " +
        std::to_string(result.distance_tables_restored) + " " +
        std::to_string(result.solver_shared_hits) + " " +
        std::to_string(Fnv(result.exec_text));
    if (replayed.has_value()) {
      counts += " " + std::to_string(replayed->instructions);
    }
    pass->counts.push_back(std::move(counts));

    if (tracer != nullptr) {
      const int report = static_cast<int>(pos);
      const int span = tracer->Add("report", t0, t2, -1, report);
      const int process = tracer->Add("serve.process", t0, t1, span, report);
      tracer->Add("vm.search", Before(t0, t1, result.seconds), t1, process,
                  report);
      tracer->Add("replay.verify", t1, t2, span, report);
      Probes(in, report, result.source != "cache", tracer, pass);
      if (replayed.has_value()) {
        // Process emitted the text inside its own span; time the emitter
        // on the same execution.
        std::string error;
        const replay::ExecutionFile file =
            *replay::ParseExecutionFile(result.exec_text, &error);
        const auto e0 = Clock::now();
        const std::string again = replay::ExecutionFileToText(file);
        tracer->Add("replay.emit", e0, Clock::now(), -1, report);
        if (again != result.exec_text) {
          Fail(in.name + ": execution file does not round-trip");
        }
      }
    }
  }

  // One pass of the job stream through a Server over a fresh cache
  // directory, restarted once mid-stream (destroyed, which flushes, and
  // rebuilt over the same directory). The directory is deleted afterwards.
  void ServicePass(Pass* pass, Tracer* tracer) {
    const std::string dir = FreshDir("service");
    auto t0 = Clock::now();
    auto server = std::make_unique<serve::Server>(MakeServerOptions(dir));
    pass->serve_start_s += Seconds(t0, Clock::now());
    for (size_t pos = 0; pos < in_.stream.size(); ++pos) {
      if (pos == in_.restart_at) {
        AddServerStats(server->stats(), &pass->server_stats);
        t0 = Clock::now();
        server.reset();
        const auto t1 = Clock::now();
        server = std::make_unique<serve::Server>(MakeServerOptions(dir));
        pass->serve_flush_s += Seconds(t0, t1);
        pass->serve_start_s += Seconds(t1, Clock::now());
      }
      ServeOne(*server, pos, pass, tracer);
    }
    AddServerStats(server->stats(), &pass->server_stats);
    t0 = Clock::now();
    server.reset();
    pass->serve_flush_s += Seconds(t0, Clock::now());
    pass->cache_bytes = DirBytes(dir);
    fs::remove_all(dir);
    const serve::Server::Stats& s = pass->server_stats;
    pass->counts.push_back(
        "server " + std::to_string(s.verdict_cache_hits) + " " +
        std::to_string(s.incremental) + " " +
        std::to_string(s.duplicate_bugs) + " " +
        std::to_string(s.solver_entries_preloaded) + " " +
        std::to_string(s.distance_tables_restored) + " " +
        std::to_string(s.solver_shared_hits) + " " +
        std::to_string(pass->cache_bytes));
  }

  WorkloadInputs in_;
  std::string out_dir_;
  CpuRotor rotor_;
  std::vector<Loaded> loaded_;
  size_t dirs_ = 0;
};

struct Metric {
  const char* name;
  double value;
  const char* unit;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-32s %.6g %s\n", m.name, m.value, m.unit);
  }
  std::string json = "{\"correct\": " +
                     std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  char value[64];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    json += std::string(i == 0 ? "" : ", ") + "\"" + metrics[i].name +
            "\": {\"value\": " + value + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// Count drift at jobs=1: every pass of this run against the first, and
// the first against the last run with the same workload and seed
// (recorded at `record_path`). Returns the number of report counts that
// differ.
uint64_t CountDrift(const std::vector<const Pass*>& passes,
                    const std::string& record_path) {
  uint64_t drift = 0;
  const std::vector<std::string>& first = passes.front()->counts;
  for (const Pass* p : passes) {
    for (size_t i = 0; i < first.size() && i < p->counts.size(); ++i) {
      drift += p->counts[i] != first[i] ? 1 : 0;
    }
  }
  {
    std::ifstream prior(record_path);
    std::string line;
    for (size_t i = 0; std::getline(prior, line); ++i) {
      drift += i < first.size() && line != first[i] ? 1 : 0;
    }
  }
  std::ofstream out(record_path);
  for (const std::string& c : first) {
    out << c << "\n";
  }
  return drift;
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

int Usage() {
  std::fprintf(stderr,
               "usage: esdbench --workload oneshot|interleavings|service "
               "--seed N --seconds S --trace 0|1 [--out-dir DIR]\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20.0;
  int trace = 0;
  std::string out_dir = ".bench_build/perfbench-out";
  if (argc % 2 != 1) {
    return Usage();
  }
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else if (flag == "--out-dir") {
      out_dir = value;
    } else {
      return Usage();
    }
  }
  if ((trace != 0 && trace != 1) || !(seconds > 0.0)) {
    return Usage();
  }
  const auto run_start = Clock::now();
  WorkloadInputs inputs;
  if (!MakeInputs(workload, seed, &inputs)) {
    return Usage();
  }
  fs::create_directories(out_dir);
  Bench bench(std::move(inputs), out_dir);
  const WorkloadInputs& in = bench.inputs();
  std::fprintf(stderr,
               "esdbench: %s seed %llu: %zu reports per pass, jobs %zu; "
               "host nproc %ld, %zu usable vCPUs, %s\n",
               workload.c_str(), static_cast<unsigned long long>(seed),
               in.stream.size(), in.jobs, sysconf(_SC_NPROCESSORS_ONLN),
               bench.usable_cpus(), CpuModel().c_str());

  std::vector<double> setups;
  for (double total = 0.0;
       setups.size() < kMinSetups ||
       (total < kSetupSeconds && setups.size() < kMaxSetups);) {
    setups.push_back(bench.Setup());
    total += setups.back();
  }
  const double setup_s = Quantile(setups, 0.5);
  const Pass warmup = bench.RunPass(nullptr);  // Untimed.

  std::vector<Pass> passes;
  std::optional<Tracer> tracer;
  if (trace == 0) {
    const auto stream_start = Clock::now();
    do {
      passes.push_back(bench.RunPass(nullptr));
    } while (Seconds(stream_start, Clock::now()) < seconds &&
             Seconds(run_start, Clock::now()) < kRunDeadlineSeconds);
  } else {
    passes.push_back(bench.RunPass(nullptr));
    tracer.emplace();
    passes.push_back(bench.RunPass(&*tracer));
    if (!in.service) {
      bench.IdleServeProbe(&passes.back());
    }
  }

  // Each report's time to reproduce is its fastest timed pass. Interference
  // from the shared host only ever adds time, and at jobs=1 every pass
  // repeats the same work; the rotor moves a report to another vCPU each
  // pass, so the fastest pass is its time on an uncontended vCPU.
  bool correct = warmup.false_claims == 0;
  uint64_t attempted = 0;
  uint64_t reproduced = 0;
  std::vector<double> ttr = passes.front().ttr;
  for (const Pass& p : passes) {
    correct = correct && p.false_claims == 0;
    attempted += p.ttr.size();
    reproduced += p.reproduced;
    for (size_t i = 0; i < ttr.size(); ++i) {
      ttr[i] = std::min(ttr[i], p.ttr[i]);
    }
  }
  double ttr_sum = 0.0;
  for (double t : ttr) {
    ttr_sum += t;
  }

  // Determinism at jobs=1: the warm-up and every measured pass must give
  // the same counts, and so must the last run with this seed.
  uint64_t drift = 0;
  if (in.jobs == 1) {
    std::vector<const Pass*> all = {&warmup};
    for (const Pass& p : passes) {
      all.push_back(&p);
    }
    drift = CountDrift(all, out_dir + "/counts-" + workload + "-s" +
                                std::to_string(seed) + ".txt");
    if (drift > 0) {
      std::fprintf(stderr,
                   "esdbench: COUNT DRIFT: %llu report counts differ between "
                   "passes or from the last run with this seed\n",
                   static_cast<unsigned long long>(drift));
    }
  }

  std::printf("%s seed %llu: %zu set-ups; %zu passes of %zu reports; ttr "
              "samples: %zu reports, each its fastest pass\n",
              workload.c_str(), static_cast<unsigned long long>(seed),
              setups.size(), passes.size(), in.stream.size(), ttr.size());
  if (trace == 0) {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    PrintResult(
        correct, attempted, attempted - reproduced,
        {{"ttr_p50_s", Quantile(ttr, 0.5), "s"},
         {"ttr_p90_s", Quantile(ttr, 0.9), "s"},
         {"reports_per_s", Ratio(static_cast<double>(ttr.size()), ttr_sum),
          "1/s"},
         {"reproduced_frac",
          Ratio(static_cast<double>(reproduced),
                static_cast<double>(attempted)),
          "ratio"},
         {"setup_s", setup_s, "s"},
         {"peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0,
          "MiB"}});
    return 0;
  }

  const Pass& untraced = passes[0];
  const Pass& traced = passes[1];
  const std::string trace_path = out_dir + "/trace-" + workload + "-s" +
                                 std::to_string(seed) + ".jsonl";
  if (!tracer->Write(trace_path)) {
    Fail("cannot write " + trace_path);
  }
  std::map<std::string, double> self = tracer->SelfTimes();
  const solver::ConstraintSolver::Stats& sv = traced.solver;
  const EventCounters& ev = traced.counters;
  const serve::Server::Stats& ss = traced.server_stats;
  auto n = [](uint64_t v) { return static_cast<double>(v); };
  PrintResult(
      correct, traced.ttr.size(), traced.ttr.size() - traced.reproduced,
      {{"ir.parse_s", self["ir.parse"], "s"},
       {"report.parse_s", self["report.parse"], "s"},
       {"ir.passes_s", self["ir.passes"], "s"},
       {"ir.digest_s", self["ir.digest"], "s"},
       {"ir.passes_run", n(traced.passes_run), "count"},
       {"ir.rewrites", n(traced.rewrites), "count"},
       {"analysis.distances_s", self["analysis.distances"], "s"},
       {"analysis.dataflow_iterations", n(traced.dataflow_iterations),
        "count"},
       {"analysis.goal_tables", n(traced.goal_tables), "count"},
       {"core.goal_s", self["core.goal"], "s"},
       {"core.setup_s", self["core.setup"] + self["serve.process"], "s"},
       {"vm.search_s", self["vm.search"], "s"},
       {"vm.states", n(traced.states), "count"},
       {"vm.instructions", n(traced.instructions), "count"},
       {"vm.states_per_s", Ratio(n(traced.states), traced.search_s), "1/s"},
       {"vm.dedup_frac",
        Ratio(n(traced.deduped), n(traced.states + traced.deduped)), "ratio"},
       {"vm.sleep_set_skips", n(traced.sleep_skips), "count"},
       {"vm.state_forks", n(ev.state_forks), "count"},
       {"vm.pages_copied", n(ev.pages_copied), "count"},
       {"vm.bytes_hashed", n(ev.bytes_hashed), "bytes"},
       {"vm.fingerprint_probes", n(ev.fingerprint_probes), "count"},
       {"vm.frontier_pops", n(ev.frontier_pops), "count"},
       {"vm.expr_allocs", n(ev.expr_allocs), "count"},
       {"vm.steals", n(ev.steals), "count"},
       {"vm.steal_failures", n(ev.steal_failures), "count"},
       {"vm.handoffs", n(ev.states_handed_off), "count"},
       {"vm.frontier_max_depth", n(ev.frontier_max_depth), "count"},
       {"core.worker_imbalance",
        traced.imbalance_reports > 0
            ? traced.imbalance_sum / n(traced.imbalance_reports)
            : 1.0,
        "ratio"},
       {"solver.queries", n(sv.queries), "count"},
       {"solver.cache_hit_frac",
        Ratio(n(sv.cache_hits + sv.cex_hits + sv.shared_hits), n(sv.queries)),
        "ratio"},
       {"solver.range_discharge_frac",
        Ratio(n(sv.range_discharged), n(sv.range_checked)), "ratio"},
       {"solver.sat_calls", n(sv.sat_calls), "count"},
       {"solver.sat_conflicts", n(sv.sat_conflicts), "count"},
       {"solver.components", n(sv.components), "count"},
       {"replay.emit_s", self["replay.emit"], "s"},
       {"replay.verify_s", self["replay.verify"], "s"},
       {"replay.instructions", n(traced.replay_instructions), "count"},
       {"serve.start_s", traced.serve_start_s, "s"},
       {"serve.flush_s", traced.serve_flush_s, "s"},
       {"serve.verdict_cache_hits", n(ss.verdict_cache_hits), "count"},
       {"serve.incremental", n(ss.incremental), "count"},
       {"serve.solver_entries_preloaded", n(ss.solver_entries_preloaded),
        "count"},
       {"serve.distance_tables_restored", n(ss.distance_tables_restored),
        "count"},
       {"serve.solver_shared_hits", n(ss.solver_shared_hits), "count"},
       {"serve.cache_bytes", n(traced.cache_bytes), "bytes"},
       {"trace.overhead_s",
        Quantile(traced.ttr, 0.5) - Quantile(untraced.ttr, 0.5), "s"},
       {"trace.reports", n(traced.ttr.size()), "count"},
       {"determinism.drift", n(drift), "count"}});
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
