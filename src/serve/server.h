// ESD serve: the synthesis service behind the esdserved daemon.
//
// One long-lived process accepts a stream of synthesis jobs (module + bug
// report) and answers each with a verdict, keeping two caches warm across
// jobs on the same module and — through the CacheStore — across restarts:
//
//   - the shared solver query/counterexample cache (SynthesisOptions::
//     shared_solver_cache): component answers solved for job N short-circuit
//     the SAT calls of job N+1 on the same module;
//   - the execution-fingerprint corpus: every synthesized execution's
//     replay::Fingerprint, the duplicate-bug triage set of §8 ("is this
//     new report the same bug we already synthesized?").
//
// Each search computes its own distance tables, as a one-shot esdsynth run
// does.
//
// Incremental re-synthesis: when a report we already solved arrives with a
// *patched* module, the stored execution file seeds the new search
// (SynthesisOptions::seed_schedule) — the daemon automation of the manual
// patch_validation_test workflow. An identical (report, module) pair
// short-circuits to the recorded verdict without searching at all.
#ifndef ESD_SRC_SERVE_SERVER_H_
#define ESD_SRC_SERVE_SERVER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/core/synthesizer.h"
#include "src/serve/job_queue.h"
#include "src/serve/persistent_cache.h"
#include "src/solver/query_cache.h"
#include "src/vm/fingerprint.h"

namespace esd::serve {

struct ServerOptions {
  // Cache directory ("" = in-memory only: caches survive across jobs but
  // not restarts).
  std::string cache_dir;
  // Baseline synthesis options for every job; the server overlays its
  // service hooks (shared_solver_cache, seed_schedule).
  core::SynthesisOptions synthesis;
  // Byte budget for each per-module solver cache.
  size_t solver_cache_bytes = solver::SharedSolverCache::kDefaultMaxBytes;
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
  bool duplicate_bug = false; // Fingerprint already in the corpus.
  // How the verdict was produced: "cold" (fresh search), "warm" (fresh
  // search that hit the module's solver cache), "incremental" (search
  // seeded by a prior execution's schedule), "cache" (stored verdict
  // returned without searching).
  std::string source = "cold";
  std::string exec_text;      // Execution file text (empty if !reproduced).
  uint64_t module_digest = 0;
  uint64_t report_digest = 0;
  // Reuse accounting (from SynthesisResult and the caches).
  uint64_t seed_switches = 0;
  uint64_t seed_best_prefix = 0;
  // Always 0: distance tables are no longer persisted. Kept because the
  // benchmark harness (perfbench/main.cc) still reads it.
  uint64_t distance_tables_restored = 0;
  uint64_t solver_shared_hits = 0;
  double seconds = 0.0;
};

class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();  // Flushes caches.

  // Runs one job to completion. Thread-safe: the daemon calls this from
  // every queue worker concurrently.
  JobResult Process(const Job& job);

  // Writes every in-memory cache through the CacheStore (no-op without a
  // cache_dir). Called on shutdown and SIGINT; safe to call repeatedly.
  void FlushAll();

  struct Stats {
    uint64_t jobs = 0;
    uint64_t reproduced = 0;
    uint64_t verdict_cache_hits = 0;  // Jobs answered from results.index.
    uint64_t incremental = 0;         // Searches seeded by a stored execution.
    uint64_t duplicate_bugs = 0;      // Fingerprint already in the corpus.
    uint64_t solver_shared_hits = 0;  // Summed across jobs.
    // Always 0, like JobResult::distance_tables_restored, and kept for the
    // same reader.
    uint64_t distance_tables_restored = 0;
    uint64_t solver_entries_preloaded = 0;  // Loaded from disk at module birth.
    uint64_t corpus_preloaded = 0;
  };
  Stats stats() const;

  // Cache-load problems observed so far (quarantined files). The daemon
  // prints them; the corrupted-file tests assert the daemon survives.
  std::vector<std::string> TakeLoadErrors();

  const ServerOptions& options() const { return options_; }

 private:
  // Everything the daemon keeps warm for one module (by content digest).
  struct ModuleState {
    explicit ModuleState(size_t solver_bytes) : solver_cache(solver_bytes) {}
    solver::SharedSolverCache solver_cache;
    vm::FingerprintTable corpus;
  };

  ModuleState& GetModuleState(uint64_t module_digest);

  ServerOptions options_;
  std::unique_ptr<CacheStore> store_;  // Null when cache_dir is empty.
  mutable std::mutex store_mu_;        // CacheStore is not thread-safe.
  mutable std::mutex modules_mu_;
  std::map<uint64_t, std::unique_ptr<ModuleState>> modules_;
  mutable std::mutex stats_mu_;
  Stats stats_;
  std::vector<std::string> load_errors_;
  size_t store_errors_drained_ = 0;  // Guarded by store_mu_.
};

}  // namespace esd::serve

#endif  // ESD_SRC_SERVE_SERVER_H_
