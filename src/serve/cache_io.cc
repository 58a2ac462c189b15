#include "src/serve/cache_io.h"

#include <cstdio>
#include <sstream>

namespace esd::serve {
namespace {

std::string Hex16(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// Strict-parse scaffolding: header + module line up front, one-line error
// reporting with line numbers, and the no-bytes-after-`end` check.
class LineReader {
 public:
  LineReader(const std::string& text, std::string* error)
      : is_(text), error_(error) {}

  bool Next(std::string* line) {
    if (!std::getline(is_, *line)) {
      return false;
    }
    ++line_no_;
    return true;
  }

  bool Fail(const std::string& msg) {
    if (error_ != nullptr) {
      *error_ = msg + " (line " + std::to_string(line_no_) + ")";
    }
    return false;
  }

  // Consumes the `esdcache <kind> v1` header and `module <hex>` line.
  bool Header(const std::string& kind, uint64_t expected_digest,
              uint64_t* digest) {
    std::string line;
    if (!Next(&line)) {
      return Fail("empty cache file");
    }
    std::istringstream ls(line);
    std::string magic, got_kind, version;
    ls >> magic >> got_kind >> version;
    if (magic != "esdcache" || got_kind != kind) {
      return Fail("missing 'esdcache " + kind + "' header");
    }
    if (version != "v1") {
      return Fail("unsupported " + kind + " cache version '" + version + "'");
    }
    std::string extra;
    if (ls >> extra) {
      return Fail("trailing garbage after header");
    }
    if (!Next(&line)) {
      return Fail("missing module digest line");
    }
    std::istringstream ms(line);
    std::string word;
    ms >> word;
    if (word != "module" || !(ms >> std::hex >> *digest)) {
      return Fail("malformed module digest line");
    }
    if (ms >> extra) {
      return Fail("trailing garbage after module digest");
    }
    if (expected_digest != kAnyDigest && *digest != expected_digest) {
      return Fail("module digest mismatch: cache has " + Hex16(*digest) +
                  ", module is " + Hex16(expected_digest));
    }
    return true;
  }

  // After `end`: any further line (even blank) is trailing garbage.
  bool Epilogue() {
    std::string line;
    if (Next(&line)) {
      return Fail("trailing garbage after end trailer");
    }
    return true;
  }

 private:
  std::istringstream is_;
  std::string* error_;
  size_t line_no_ = 0;
};

bool Trailing(std::istringstream& ls) {
  std::string extra;
  return static_cast<bool>(ls >> extra);
}

}  // namespace

// ---- Fingerprint corpus -----------------------------------------------------

std::string FingerprintCorpusToText(const FingerprintImage& image) {
  std::ostringstream os;
  os << "esdcache fps v1\n";
  os << "module " << Hex16(image.module_digest) << "\n";
  for (uint64_t fp : image.fingerprints) {
    os << "fp " << Hex16(fp) << "\n";
  }
  os << "end " << image.fingerprints.size() << "\n";
  return os.str();
}

std::optional<FingerprintImage> ParseFingerprintCorpus(const std::string& text,
                                                       uint64_t expected_digest,
                                                       std::string* error) {
  LineReader reader(text, error);
  FingerprintImage image;
  if (!reader.Header("fps", expected_digest, &image.module_digest)) {
    return std::nullopt;
  }
  std::string line;
  bool saw_end = false;
  while (reader.Next(&line)) {
    std::istringstream ls(line);
    std::string word;
    ls >> word;
    if (word == "fp") {
      std::string hex;
      uint64_t fp;
      if (!(ls >> hex) || Trailing(ls)) {
        reader.Fail("malformed fp record");
        return std::nullopt;
      }
      std::istringstream hs(hex);
      if (!(hs >> std::hex >> fp) || Trailing(hs)) {
        reader.Fail("malformed fp value '" + hex + "'");
        return std::nullopt;
      }
      if (!image.fingerprints.empty() && fp <= image.fingerprints.back()) {
        reader.Fail("fp records out of order");
        return std::nullopt;
      }
      image.fingerprints.push_back(fp);
    } else if (word == "end") {
      uint64_t count;
      if (!(ls >> count) || Trailing(ls)) {
        reader.Fail("malformed end trailer");
        return std::nullopt;
      }
      if (count != image.fingerprints.size()) {
        reader.Fail("end count " + std::to_string(count) + " != " +
                    std::to_string(image.fingerprints.size()) +
                    " records (truncated?)");
        return std::nullopt;
      }
      saw_end = true;
      break;
    } else {
      reader.Fail("unknown directive '" + word + "'");
      return std::nullopt;
    }
  }
  if (!saw_end) {
    reader.Fail("missing end trailer (truncated file)");
    return std::nullopt;
  }
  if (!reader.Epilogue()) {
    return std::nullopt;
  }
  return image;
}

}  // namespace esd::serve
