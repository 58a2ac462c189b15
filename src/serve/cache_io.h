// ESD serve: on-disk serialization of the cross-run fingerprint corpus.
//
// The esdserved daemon persists one cache across jobs and restarts (see
// docs/CACHE_FORMAT.md for the format in full): the execution-fingerprint
// corpus used for duplicate-bug triage (§8). Distance tables and solver
// answers are not persisted: every search computes its own.
//
// The format is versioned, line-oriented text:
//
//   esdcache fps v1             header
//   module <16-hex>             content digest of the module the data was
//                               computed over (ir::ModuleDigest)
//   ...records...
//   end <count>                 trailer; <count> must equal the number of
//                               records, so truncation is detected
//
// The parser is strict in the execution-file tradition: wrong header,
// unknown version, unknown directive, malformed record, trailing garbage,
// a count mismatch at `end`, bytes after `end`, or a module digest other
// than the expected one each fail with a one-line error. A failed parse
// never half-populates a cache — the caller quarantines the file and
// regenerates. Serialization is canonical (sorted records), so
// serialize -> parse -> serialize is byte-identical.
#ifndef ESD_SRC_SERVE_CACHE_IO_H_
#define ESD_SRC_SERVE_CACHE_IO_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace esd::serve {

// Accept any module digest (used when enumerating cache files whose name
// already keyed the digest, and by the round-trip tests).
inline constexpr uint64_t kAnyDigest = 0;

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
