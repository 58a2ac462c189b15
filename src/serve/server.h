// ESD serve: the synthesis service behind the esdserved daemon.
//
// One long-lived process accepts a stream of synthesis jobs (module + bug
// report) and answers each with a verdict. It keeps one store across jobs
// and, with a cache directory, across restarts: the results journal
// (persistent_cache.h), one record per (report, module) pair with its
// verdict, fingerprint and execution text. From the same records it triages
// duplicate bugs (§8: "is this new report the same bug we already
// synthesized?"): a job is a duplicate when its module already has a
// reproduced record with the same execution fingerprint.
//
// An exact (report, module) repeat answers from the stored verdict without
// searching (source "cache"). Every other job searches cold, exactly as a
// one-shot esdsynth run with the same options does: a patched module is a
// new module, and patch validation is synthesis run again on it.
#ifndef ESD_SRC_SERVE_SERVER_H_
#define ESD_SRC_SERVE_SERVER_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "src/core/synthesizer.h"
#include "src/serve/job_queue.h"
#include "src/serve/persistent_cache.h"

namespace esd::serve {

struct ServerOptions {
  // Cache directory ("" = in-memory only: verdicts and triage fingerprints
  // survive across jobs but not restarts).
  std::string cache_dir;
  // The synthesis options of every job that searches.
  core::SynthesisOptions synthesis;
  // Short-circuit exact (report, module) duplicates to the stored verdict.
  bool reuse_results = true;
};

// The daemon's answer to one job.
struct JobResult {
  uint64_t job_id = 0;
  bool ok = false;            // Inputs parsed and a search ran (or was reused).
  std::string error;          // Parse/load error when !ok.
  bool reproduced = false;    // Bug manifested; execution file synthesized.
  std::string failure_reason;
  std::string fingerprint;    // replay::Fingerprint hex of the execution.
  // The module already had a reproduced record with this fingerprint.
  bool duplicate_bug = false;
  // How the verdict was produced: "cold" (fresh search) or "cache" (stored
  // verdict returned without searching).
  std::string source = "cold";
  std::string exec_text;      // Execution file text (empty if !reproduced).
  uint64_t module_digest = 0;
  uint64_t report_digest = 0;
  // Always 0: no search is seeded from a stored execution. Kept because the
  // benchmark harness (perfbench/main.cc) still reads them.
  uint64_t seed_switches = 0;
  uint64_t seed_best_prefix = 0;
  // Always 0: distance tables are no longer persisted. Kept for the same
  // reader.
  uint64_t distance_tables_restored = 0;
  // Solver answers one --jobs N worker took from another's solve.
  uint64_t solver_shared_hits = 0;
  double seconds = 0.0;
};

class Server {
 public:
  explicit Server(ServerOptions options);

  // Runs one job to completion. Thread-safe: the daemon calls this from
  // every queue worker concurrently. With a cache directory, the job's
  // record is in results.index when this returns.
  JobResult Process(const Job& job);

  struct Stats {
    uint64_t jobs = 0;
    uint64_t reproduced = 0;
    uint64_t verdict_cache_hits = 0;  // Jobs answered from results.index.
    // Always 0, like JobResult::seed_switches, and kept for the same
    // reader.
    uint64_t incremental = 0;
    uint64_t duplicate_bugs = 0;      // Searches that found a known bug.
    uint64_t solver_shared_hits = 0;  // Summed across jobs.
    // Always 0, like JobResult::distance_tables_restored, and kept for the
    // same reader.
    uint64_t distance_tables_restored = 0;
    // Always 0: solver answers are no longer persisted. Kept for the same
    // reader.
    uint64_t solver_entries_preloaded = 0;
    // (module, fingerprint) triage pairs read from results.index at start.
    uint64_t corpus_preloaded = 0;
  };
  Stats stats() const;

  // Cache-load problems observed so far (an unusable cache directory, a
  // quarantined journal, a dropped torn record). The daemon prints them;
  // the corrupted-journal tests assert the daemon survives.
  std::vector<std::string> TakeLoadErrors();

  const ServerOptions& options() const { return options_; }

 private:
  ServerOptions options_;
  CacheStore store_;           // Memory-only when cache_dir is empty.
  mutable std::mutex store_mu_;  // CacheStore is not thread-safe.
  mutable std::mutex stats_mu_;
  Stats stats_;
  std::vector<std::string> load_errors_;
  size_t store_errors_drained_ = 0;  // Guarded by store_mu_.
};

}  // namespace esd::serve

#endif  // ESD_SRC_SERVE_SERVER_H_
