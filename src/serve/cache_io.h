// ESD serve: on-disk serialization of the cross-run synthesis caches.
//
// The esdserved daemon persists two caches across jobs and restarts (see
// docs/CACHE_FORMAT.md for the formats in full):
//   - the shared solver query/counterexample cache (solver pipeline stage 2),
//   - the execution-fingerprint corpus used for duplicate-bug triage (§8).
// Distance tables are not persisted: every search computes its own.
//
// Every format is versioned, line-oriented text:
//
//   esdcache <kind> v1          header: kind is solver | fps
//   module <16-hex>             content digest of the module the data was
//                               computed over (ir::ModuleDigest)
//   ...records...
//   end <count>                 trailer; <count> must equal the number of
//                               primary records, so truncation is detected
//
// The parsers are strict in the execution-file tradition: wrong header,
// unknown version, unknown directive, malformed record, trailing garbage,
// a count mismatch at `end`, bytes after `end`, or a module digest other
// than the expected one each fail with a one-line error. A failed parse
// never half-populates a cache — the caller quarantines the file and
// regenerates. Serialization is canonical (sorted keys), so
// serialize -> parse -> serialize is byte-identical.
#ifndef ESD_SRC_SERVE_CACHE_IO_H_
#define ESD_SRC_SERVE_CACHE_IO_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/solver/query_cache.h"

namespace esd::serve {

// Accept any module digest (used when enumerating cache files whose name
// already keyed the digest, and by the round-trip tests).
inline constexpr uint64_t kAnyDigest = 0;

// ---- Solver query cache -----------------------------------------------------

struct SolverCacheImage {
  uint64_t module_digest = 0;
  std::vector<solver::SharedSolverCache::SnapshotEntry> entries;
};

std::string SolverCacheToText(const SolverCacheImage& image);
// `expected_digest` (unless kAnyDigest) must match the file's module line.
std::optional<SolverCacheImage> ParseSolverCache(const std::string& text,
                                                 uint64_t expected_digest,
                                                 std::string* error);

// ---- Fingerprint corpus -----------------------------------------------------

struct FingerprintImage {
  uint64_t module_digest = 0;
  std::vector<uint64_t> fingerprints;  // Sorted.
};

std::string FingerprintCorpusToText(const FingerprintImage& image);
std::optional<FingerprintImage> ParseFingerprintCorpus(const std::string& text,
                                                       uint64_t expected_digest,
                                                       std::string* error);

}  // namespace esd::serve

#endif  // ESD_SRC_SERVE_CACHE_IO_H_
