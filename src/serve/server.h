// ESD serve: the synthesis service behind the esdserved daemon.
//
// One long-lived process accepts a stream of synthesis jobs (module + bug
// report) and answers each with a verdict. It keeps two things across jobs
// and — through the CacheStore — across restarts:
//
//   - the results journal: each report's verdict, fingerprint and
//     execution text;
//   - the execution-fingerprint corpus of each module: every synthesized
//     execution's replay::Fingerprint, the duplicate-bug triage set of §8
//     ("is this new report the same bug we already synthesized?").
//
// A job that searches searches exactly as a one-shot esdsynth run with the
// same options: it builds its own distance tables and solver caches.
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
#include "src/vm/fingerprint.h"

namespace esd::serve {

struct ServerOptions {
  // Cache directory ("" = in-memory only: verdicts and corpora survive
  // across jobs but not restarts).
  std::string cache_dir;
  // Baseline synthesis options for every job; the server overlays only
  // seed_schedule.
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
  bool duplicate_bug = false; // Fingerprint already in the corpus.
  // How the verdict was produced: "cold" (fresh search), "incremental"
  // (search seeded by a prior execution's schedule), "cache" (stored
  // verdict returned without searching).
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
  // Solver answers one --jobs N worker took from another's solve.
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

  // Writes every module's fingerprint corpus through the CacheStore (no-op
  // without a cache_dir). Called on shutdown and SIGINT; safe to call
  // repeatedly.
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
    // Always 0: solver answers are no longer persisted. Kept for the same
    // reader.
    uint64_t solver_entries_preloaded = 0;
    // Fingerprints loaded from disk, once per module.
    uint64_t corpus_preloaded = 0;
  };
  Stats stats() const;

  // Cache-load problems observed so far (quarantined files). The daemon
  // prints them; the corrupted-file tests assert the daemon survives.
  std::vector<std::string> TakeLoadErrors();

  const ServerOptions& options() const { return options_; }

 private:
  // The fingerprint corpus of one module (by content digest), loaded from
  // disk by the first job that needs it.
  vm::FingerprintTable& GetCorpus(uint64_t module_digest);

  ServerOptions options_;
  std::unique_ptr<CacheStore> store_;  // Null when cache_dir is empty.
  mutable std::mutex store_mu_;        // CacheStore is not thread-safe.
  mutable std::mutex corpora_mu_;
  std::map<uint64_t, std::unique_ptr<vm::FingerprintTable>> corpora_;
  mutable std::mutex stats_mu_;
  Stats stats_;
  std::vector<std::string> load_errors_;
  size_t store_errors_drained_ = 0;  // Guarded by store_mu_.
};

}  // namespace esd::serve

#endif  // ESD_SRC_SERVE_SERVER_H_
