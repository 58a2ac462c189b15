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

// Input names inside solver models may contain whitespace; escape exactly
// like the execution-file format so the record stays one line and the
// round trip stays byte-identical.
std::string EscapeName(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (unsigned char c : name) {
    if (c == '%' || c == ' ' || c == '\t' || c == '\n' || c == '\r') {
      char buf[4];
      std::snprintf(buf, sizeof(buf), "%%%02x", c);
      out += buf;
    } else {
      out += static_cast<char>(c);
    }
  }
  return out;
}

std::string UnescapeName(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (size_t i = 0; i < name.size(); ++i) {
    if (name[i] == '%' && i + 2 < name.size()) {
      auto hex = [](char c) -> int {
        if (c >= '0' && c <= '9') return c - '0';
        if (c >= 'a' && c <= 'f') return c - 'a' + 10;
        return -1;
      };
      int hi = hex(name[i + 1]), lo = hex(name[i + 2]);
      if (hi >= 0 && lo >= 0) {
        out += static_cast<char>(hi * 16 + lo);
        i += 2;
        continue;
      }
    }
    out += name[i];
  }
  return out;
}

// Shared strict-parse scaffolding: header + module line up front, one-line
// error reporting with line numbers, and the no-bytes-after-`end` check.
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

// ---- Solver query cache -----------------------------------------------------

std::string SolverCacheToText(const SolverCacheImage& image) {
  std::ostringstream os;
  os << "esdcache solver v1\n";
  os << "module " << Hex16(image.module_digest) << "\n";
  for (const auto& e : image.entries) {
    os << "q " << Hex16(e.key) << " "
       << (e.sat ? (e.has_model ? "sat-model" : "sat") : "unsat") << "\n";
    if (e.has_model) {
      for (const auto& [id, value] : e.values) {
        os << "v " << id << " " << value << "\n";
      }
      for (const auto& [id, name] : e.names) {
        os << "n " << id << " " << EscapeName(name) << "\n";
      }
    }
  }
  os << "end " << image.entries.size() << "\n";
  return os.str();
}

std::optional<SolverCacheImage> ParseSolverCache(const std::string& text,
                                                 uint64_t expected_digest,
                                                 std::string* error) {
  LineReader reader(text, error);
  SolverCacheImage image;
  if (!reader.Header("solver", expected_digest, &image.module_digest)) {
    return std::nullopt;
  }
  std::string line;
  bool saw_end = false;
  while (reader.Next(&line)) {
    std::istringstream ls(line);
    std::string word;
    ls >> word;
    if (word == "q") {
      solver::SharedSolverCache::SnapshotEntry entry;
      std::string key_hex, verdict;
      if (!(ls >> key_hex >> verdict)) {
        reader.Fail("truncated q record");
        return std::nullopt;
      }
      std::istringstream ks(key_hex);
      if (!(ks >> std::hex >> entry.key) || Trailing(ks)) {
        reader.Fail("malformed q key '" + key_hex + "'");
        return std::nullopt;
      }
      if (verdict == "sat-model") {
        entry.sat = true;
        entry.has_model = true;
      } else if (verdict == "sat") {
        entry.sat = true;
      } else if (verdict != "unsat") {
        reader.Fail("bad q verdict '" + verdict + "'");
        return std::nullopt;
      }
      if (Trailing(ls)) {
        reader.Fail("trailing garbage after q record");
        return std::nullopt;
      }
      // Keys must be strictly increasing: canonical order doubles as a
      // duplicate check.
      if (!image.entries.empty() && entry.key <= image.entries.back().key) {
        reader.Fail("q keys out of order");
        return std::nullopt;
      }
      image.entries.push_back(std::move(entry));
    } else if (word == "v" || word == "n") {
      if (image.entries.empty() || !image.entries.back().has_model) {
        reader.Fail("'" + word + "' record outside a sat-model entry");
        return std::nullopt;
      }
      auto& entry = image.entries.back();
      uint64_t id;
      if (word == "v") {
        uint64_t value;
        if (!(ls >> id >> value) || Trailing(ls)) {
          reader.Fail("malformed v record");
          return std::nullopt;
        }
        if (!entry.names.empty()) {
          reader.Fail("v record after n records");
          return std::nullopt;
        }
        if (!entry.values.empty() && id <= entry.values.back().first) {
          reader.Fail("v ids out of order");
          return std::nullopt;
        }
        entry.values.emplace_back(id, value);
      } else {
        std::string name;
        if (!(ls >> id >> name) || Trailing(ls)) {
          reader.Fail("malformed n record");
          return std::nullopt;
        }
        if (!entry.names.empty() && id <= entry.names.back().first) {
          reader.Fail("n ids out of order");
          return std::nullopt;
        }
        entry.names.emplace_back(id, UnescapeName(name));
      }
    } else if (word == "end") {
      uint64_t count;
      if (!(ls >> count) || Trailing(ls)) {
        reader.Fail("malformed end trailer");
        return std::nullopt;
      }
      if (count != image.entries.size()) {
        reader.Fail("end count " + std::to_string(count) + " != " +
                    std::to_string(image.entries.size()) + " records (truncated?)");
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
