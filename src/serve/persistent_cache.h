// ESD serve: crash-safe on-disk cache store for the esdserved daemon.
//
// One directory holds every persisted artifact (docs/CACHE_FORMAT.md):
//
//   <digest>.fps.esdc      execution-fingerprint corpus (duplicate-bug
//                          triage; cache_io.h)
//   results.index          append-only journal of solved jobs: one
//                          checksummed record per job (report digest ->
//                          module digest, verdict, fingerprint, and the
//                          execution-file text that seeds incremental
//                          re-synthesis after a patch)
//
// Distance tables and solver answers are not persisted. The
// `<digest>.dist.esdc` and `<digest>.solver.esdc` files written by earlier
// versions are never opened and may be deleted.
//
// Crash safety: the `.esdc` files, and the journal when a load compacts it,
// are written to a `.tmp` sibling and renamed into place, so a crash
// mid-write leaves either the old file or the new one. Otherwise the journal
// grows by one write() per job, so a crash can tear only its final record;
// the next load drops that record and keeps the rest. Any other damage — a
// truncated or corrupted `.esdc` file, a version bump, a digest mismatch, a
// journal record whose checksum fails — moves the file aside to
// `<name>.quarantined`, and the store treats it as absent: the daemon logs
// one line, keeps running, and regenerates the cache.
#ifndef ESD_SRC_SERVE_PERSISTENT_CACHE_H_
#define ESD_SRC_SERVE_PERSISTENT_CACHE_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/serve/cache_io.h"

namespace esd::serve {

// FNV-1a over arbitrary bytes: the report-identity key of a job and the
// checksum of a results.index record. (ir::ModuleDigest is the same
// construction over the canonical module print.)
uint64_t TextDigest(std::string_view text);

// One results.index record: everything needed to short-circuit a duplicate
// job or seed an incremental one.
struct ResultRecord {
  uint64_t report_digest = 0;  // TextDigest of the coredump text.
  uint64_t module_digest = 0;  // Module the verdict was computed against.
  bool reproduced = false;
  std::string fingerprint;     // replay::Fingerprint hex (empty if none).
  std::string exec_text;       // Execution-file text (empty if none).
};

class CacheStore {
 public:
  // Creates `dir` if missing, loads results.index and opens it for
  // appending. A load error (unusable directory) is reported through
  // ok()/error(); the store then behaves as empty and read-only.
  explicit CacheStore(const std::string& dir);
  ~CacheStore();  // Closes the journal.
  CacheStore(const CacheStore&) = delete;
  CacheStore& operator=(const CacheStore&) = delete;

  bool ok() const { return ok_; }
  const std::string& error() const { return error_; }

  // ---- Fingerprint corpus files (each keyed by a module digest) ----
  // The load returns nullopt when the file is absent OR failed its strict
  // parse; a failed parse quarantines the file and appends to
  // load_errors().
  std::optional<FingerprintImage> LoadFingerprintCorpus(uint64_t module_digest);
  bool StoreFingerprintCorpus(const FingerprintImage& image);

  // ---- Results journal ----
  // Records `record` in memory, replacing any earlier one for its report,
  // and appends it to results.index with one write(). Returns false when
  // the append failed; the record is then kept in memory only.
  bool StoreResult(ResultRecord record);
  const ResultRecord* FindResult(uint64_t report_digest) const;
  size_t result_count() const { return results_.size(); }

  // One line per quarantined/rejected file since construction (includes the
  // parse error). The daemon prints these; tests assert on them.
  const std::vector<std::string>& load_errors() const { return load_errors_; }

  const std::string& dir() const { return dir_; }

 private:
  std::string CorpusPath(uint64_t digest) const;
  std::optional<std::string> ReadOrQuarantine(const std::string& path,
                                              bool* present);
  void Quarantine(const std::string& path, const std::string& why);
  bool AtomicWrite(const std::string& path, const std::string& text);
  // Reads results.index into results_; returns true when a record was
  // dropped or superseded, so the journal needs compacting.
  bool LoadResults();
  // Rewrites results.index from results_ when `compact`, then opens it for
  // appending.
  void OpenJournal(bool compact);

  std::string dir_;
  bool ok_ = false;
  std::string error_;
  std::map<uint64_t, ResultRecord> results_;  // By report digest.
  int journal_fd_ = -1;  // results.index, O_APPEND; -1 = not appending.
  uint64_t journal_bytes_ = 0;  // Its size after the last good append.
  std::vector<std::string> load_errors_;
};

}  // namespace esd::serve

#endif  // ESD_SRC_SERVE_PERSISTENT_CACHE_H_
