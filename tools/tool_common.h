// Shared helpers for the esd* command-line tools.
#ifndef ESD_TOOLS_TOOL_COMMON_H_
#define ESD_TOOLS_TOOL_COMMON_H_

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>

#include "src/ir/parser.h"
#include "src/ir/verifier.h"
#include "src/workloads/workloads.h"

namespace esd::tools {

// Upper bound of every --jobs / --threads flag.
constexpr uint64_t kMaxJobs = 256;

// Numeric flag values. The whole text must parse, or the parser prints one
// `error:` line naming `flag` and returns false; the tool then exits with
// status 2.
//
// An unsigned integer in [lo, hi], written without sign or whitespace:
// decimal, or with `base` 0 also 0x-hex and 0-octal as strtoull reads them.
template <typename T>
bool ParseUnsigned(const std::string& flag, const char* text, T* out,
                   uint64_t lo = 0,
                   uint64_t hi = std::numeric_limits<T>::max(),
                   int base = 10) {
  char* end = nullptr;
  unsigned long long value = 0;
  errno = 0;
  if (std::isdigit(static_cast<unsigned char>(text[0]))) {
    value = std::strtoull(text, &end, base);
  }
  if (end == nullptr || *end != '\0' || errno == ERANGE || value < lo ||
      value > hi) {
    std::cerr << "error: " << flag << " must be an integer in [" << lo << ", "
              << hi << "], got '" << text << "'\n";
    return false;
  }
  *out = static_cast<T>(value);
  return true;
}

// A finite, non-negative number of seconds.
inline bool ParseSeconds(const std::string& flag, const char* text,
                         double* out) {
  char* end = nullptr;
  double value = -1.0;
  if (std::isdigit(static_cast<unsigned char>(text[0])) || text[0] == '.') {
    value = std::strtod(text, &end);
  }
  if (end == nullptr || *end != '\0' || !std::isfinite(value) ||
      value < 0.0) {
    std::cerr << "error: " << flag
              << " must be a finite, non-negative number of seconds, got '"
              << text << "'\n";
    return false;
  }
  *out = value;
  return true;
}

inline std::optional<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return std::nullopt;
  }
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

inline bool WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  out << content;
  return out.good();
}

// Loads a .esd program. If the file does not declare the standard externs
// itself, the standard preamble is prepended.
inline std::shared_ptr<ir::Module> LoadProgram(const std::string& path) {
  auto text = ReadFile(path);
  if (!text.has_value()) {
    std::cerr << "error: cannot read '" << path << "'\n";
    return nullptr;
  }
  std::string source = *text;
  if (source.find("extern @getchar") == std::string::npos) {
    source = std::string(workloads::ExternsPreamble()) + source;
  }
  auto module = std::make_shared<ir::Module>();
  ir::ParseResult r = ir::ParseModule(source, module.get());
  if (!r.ok) {
    std::cerr << "error: " << path << ": " << r.error << "\n";
    return nullptr;
  }
  auto errors = ir::Verify(*module);
  if (!errors.empty()) {
    std::cerr << "error: " << path << ": " << errors[0] << "\n";
    return nullptr;
  }
  return module;
}

}  // namespace esd::tools

#endif  // ESD_TOOLS_TOOL_COMMON_H_
