// ESD serve: the esdserved daemon's store of verdicts and bug fingerprints.
//
// With a cache directory, the store persists exactly one file
// (docs/CACHE_FORMAT.md):
//
//   results.index          append-only journal of solved jobs: one
//                          checksummed record per (report digest, module
//                          digest) pair, holding the verdict, the
//                          fingerprint and the execution-file text
//
// The store keeps the live records in memory and derives the duplicate-bug
// triage set of §8 from them: the (module digest, fingerprint) pair of every
// reproduced record. Distance tables, solver answers and fingerprint corpora
// are not persisted. The `<digest>.dist.esdc`, `<digest>.solver.esdc` and
// `<digest>.fps.esdc` files written by earlier versions are never opened
// and may be deleted.
//
// Crash safety: the journal grows by one write() per job, so a crash can
// tear only its final record; the next load drops that record, keeps the
// rest, and compacts the journal by writing a `.tmp` sibling and renaming
// it into place. Any other damage — a first line that is not the journal's
// magic, a complete record whose checksum fails — moves the file aside to
// `results.index.quarantined`, and the store treats it as absent: the
// daemon logs one line, keeps running, and records each job it searches
// again.
#ifndef ESD_SRC_SERVE_PERSISTENT_CACHE_H_
#define ESD_SRC_SERVE_PERSISTENT_CACHE_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace esd::serve {

// FNV-1a over arbitrary bytes: the report-identity key of a job and the
// checksum of a results.index record. (ir::ModuleDigest is the same
// construction over the canonical module print.)
uint64_t TextDigest(std::string_view text);

// One results.index record: everything needed to answer an exact repeat of
// the job and to triage later jobs on the same module.
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
  // appending. An empty `dir` makes a memory-only store, which reads and
  // writes no file. When `dir` is unusable, ok() is false, error() says
  // why, and the store is memory-only as well.
  explicit CacheStore(const std::string& dir);
  ~CacheStore();  // Closes the journal.
  CacheStore(const CacheStore&) = delete;
  CacheStore& operator=(const CacheStore&) = delete;

  bool ok() const { return ok_; }
  const std::string& error() const { return error_; }

  // Records `record` in memory, replacing any earlier record for the same
  // (report, module) pair, adds a reproduced record's fingerprint to its
  // module's triage set, and appends the record to results.index with one
  // write(). Returns whether the record reached the journal; a memory-only
  // store, or one whose append failed, keeps it in memory only.
  bool StoreResult(ResultRecord record);
  // The live record for exactly this pair, or null. Valid until the next
  // StoreResult.
  const ResultRecord* FindResult(uint64_t report_digest,
                                 uint64_t module_digest) const;
  size_t result_count() const { return results_.size(); }

  // Whether a reproduced record of this module has this fingerprint: the
  // duplicate-bug triage of §8. The load builds the set from the live
  // records, and each StoreResult adds to it; a record that a later one
  // replaces leaves its fingerprint in the set until the store closes.
  bool KnownBug(uint64_t module_digest, const std::string& fingerprint) const;
  size_t known_bug_count() const { return known_bugs_.size(); }

  // One line per quarantined or dropped record since construction
  // (includes the parse error). The daemon prints these; tests assert on
  // them.
  const std::vector<std::string>& load_errors() const { return load_errors_; }

  const std::string& dir() const { return dir_; }

 private:
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
  // By (report digest, module digest): compaction writes them in this order.
  std::map<std::pair<uint64_t, uint64_t>, ResultRecord> results_;
  std::set<std::pair<uint64_t, std::string>> known_bugs_;  // (module, fp).
  int journal_fd_ = -1;  // results.index, O_APPEND; -1 = not appending.
  uint64_t journal_bytes_ = 0;  // Its size after the last good append.
  std::vector<std::string> load_errors_;
};

}  // namespace esd::serve

#endif  // ESD_SRC_SERVE_PERSISTENT_CACHE_H_
