#include "src/serve/persistent_cache.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace esd::serve {
namespace fs = std::filesystem;

namespace {

constexpr char kJournalName[] = "/results.index";
constexpr std::string_view kJournalMagic = "esdcache results v1\n";

std::string Hex16(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::optional<std::string> ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return std::nullopt;
  }
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// Exactly 16 lowercase hex digits, as Hex16 writes them.
bool ParseHex16(std::string_view s, uint64_t* out) {
  if (s.size() != 16 ||
      s.find_first_not_of("0123456789abcdef") != std::string_view::npos) {
    return false;
  }
  std::from_chars(s.data(), s.data() + s.size(), *out, 16);
  return true;
}

// A canonical decimal count: no sign, no leading zero, and at most 19
// digits, so it fits in 64 bits.
bool ParseCount(std::string_view s, uint64_t* out) {
  if (s.empty() || s.size() > 19 || (s.size() > 1 && s[0] == '0') ||
      s.find_first_not_of("0123456789") != std::string_view::npos) {
    return false;
  }
  std::from_chars(s.data(), s.data() + s.size(), *out);
  return true;
}

// Splits `line` at single spaces into exactly `n` non-empty fields.
bool SplitFields(std::string_view line, std::string_view* fields, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    const size_t space = line.find(' ');
    const bool last = i + 1 == n;
    if ((space == std::string_view::npos) != last) return false;
    fields[i] = line.substr(0, space);
    if (fields[i].empty()) return false;
    if (!last) line.remove_prefix(space + 1);
  }
  return true;
}

// One journal record: header line, execution text, checksum trailer.
std::string RecordText(const ResultRecord& rec) {
  std::string out = "result " + Hex16(rec.report_digest) + " " +
                    Hex16(rec.module_digest) + " " +
                    (rec.reproduced ? "1 " : "0 ") +
                    (rec.fingerprint.empty() ? "-" : rec.fingerprint) + " " +
                    std::to_string(rec.exec_text.size()) + "\n";
  out += rec.exec_text;
  out += "end " + Hex16(TextDigest(out)) + "\n";
  return out;
}

enum class RecordParse { kOk, kTorn, kMalformed };

// Parses the record that starts at *pos and advances *pos past it. kTorn
// means the journal ends inside the record.
RecordParse ParseRecord(std::string_view journal, size_t* pos,
                        ResultRecord* rec, std::string* error) {
  const size_t start = *pos;
  const size_t header_end = journal.find('\n', start);
  if (header_end == std::string_view::npos) return RecordParse::kTorn;
  std::string_view header = journal.substr(start, header_end - start);
  std::string_view fields[6];
  uint64_t text_bytes = 0;
  if (!SplitFields(header, fields, 6) || fields[0] != "result" ||
      !ParseHex16(fields[1], &rec->report_digest) ||
      !ParseHex16(fields[2], &rec->module_digest) ||
      (fields[3] != "0" && fields[3] != "1") ||
      !ParseCount(fields[5], &text_bytes)) {
    *error = "malformed record header";
    return RecordParse::kMalformed;
  }
  const size_t text_begin = header_end + 1;
  if (text_bytes > journal.size() - text_begin) return RecordParse::kTorn;
  const size_t text_end = text_begin + text_bytes;
  const size_t end_eol = journal.find('\n', text_end);
  if (end_eol == std::string_view::npos) return RecordParse::kTorn;
  std::string_view trailer = journal.substr(text_end, end_eol - text_end);
  uint64_t checksum = 0;
  if (trailer.substr(0, 4) != "end " ||
      !ParseHex16(trailer.substr(4), &checksum)) {
    *error = "malformed end line";
    return RecordParse::kMalformed;
  }
  if (checksum != TextDigest(journal.substr(start, text_end - start))) {
    *error = "checksum mismatch";
    return RecordParse::kMalformed;
  }
  rec->reproduced = fields[3] == "1";
  if (fields[4] != "-") rec->fingerprint = std::string(fields[4]);
  rec->exec_text = std::string(journal.substr(text_begin, text_bytes));
  *pos = end_eol + 1;
  return RecordParse::kOk;
}

// write() until every byte is out; false on the first error.
bool WriteAll(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t n = ::write(fd, bytes.data(), bytes.size());
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    bytes.remove_prefix(static_cast<size_t>(n));
  }
  return true;
}

}  // namespace

uint64_t TextDigest(std::string_view text) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

CacheStore::CacheStore(const std::string& dir) : dir_(dir) {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec || !fs::is_directory(dir_, ec)) {
    error_ = "cannot create cache directory " + dir_ +
             (ec ? ": " + ec.message() : "");
    return;
  }
  ok_ = true;
  OpenJournal(LoadResults());
}

CacheStore::~CacheStore() {
  if (journal_fd_ >= 0) {
    ::close(journal_fd_);
  }
}

std::string CacheStore::CorpusPath(uint64_t digest) const {
  return dir_ + "/" + Hex16(digest) + ".fps.esdc";
}

void CacheStore::Quarantine(const std::string& path, const std::string& why) {
  std::error_code ec;
  fs::rename(path, path + ".quarantined", ec);
  if (ec) {
    fs::remove(path, ec);  // Rename failed (cross-device?): drop it instead.
  }
  load_errors_.push_back(path + ": " + why + " — quarantined, will regenerate");
}

std::optional<std::string> CacheStore::ReadOrQuarantine(const std::string& path,
                                                        bool* present) {
  std::error_code ec;
  *present = fs::exists(path, ec);
  if (!*present) {
    return std::nullopt;
  }
  auto text = ReadWholeFile(path);
  if (!text.has_value()) {
    Quarantine(path, "unreadable");
  }
  return text;
}

std::optional<FingerprintImage> CacheStore::LoadFingerprintCorpus(
    uint64_t module_digest) {
  if (!ok_) return std::nullopt;
  const std::string path = CorpusPath(module_digest);
  bool present = false;
  auto text = ReadOrQuarantine(path, &present);
  if (!text.has_value()) return std::nullopt;
  std::string error;
  auto image = ParseFingerprintCorpus(*text, module_digest, &error);
  if (!image.has_value()) {
    Quarantine(path, error);
    return std::nullopt;
  }
  return image;
}

bool CacheStore::AtomicWrite(const std::string& path, const std::string& text) {
  if (!ok_) return false;
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      return false;
    }
    out << text;
    out.flush();
    if (!out) {
      return false;
    }
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    fs::remove(tmp, ec);
    return false;
  }
  return true;
}

bool CacheStore::StoreFingerprintCorpus(const FingerprintImage& image) {
  return AtomicWrite(CorpusPath(image.module_digest),
                     FingerprintCorpusToText(image));
}

bool CacheStore::LoadResults() {
  const std::string path = dir_ + kJournalName;
  bool present = false;
  auto text = ReadOrQuarantine(path, &present);
  if (!text.has_value() || text->empty()) return false;
  const std::string_view journal = *text;
  if (journal.substr(0, kJournalMagic.size()) != kJournalMagic) {
    Quarantine(path, "first line is not 'esdcache results v1'");
    return false;
  }
  std::map<uint64_t, ResultRecord> parsed;
  bool compact = false;
  size_t pos = kJournalMagic.size();
  for (size_t index = 1; pos < journal.size(); ++index) {
    const size_t start = pos;
    ResultRecord rec;
    std::string error;
    const RecordParse status = ParseRecord(journal, &pos, &rec, &error);
    const auto where = [&] {
      return "record " + std::to_string(index) + " at byte " +
             std::to_string(start);
    };
    if (status == RecordParse::kMalformed) {
      Quarantine(path, where() + ": " + error);
      return false;  // All-or-nothing: only a torn tail is cut off.
    }
    if (status == RecordParse::kTorn) {
      load_errors_.push_back(path + ": " + where() +
                             " torn by an interrupted append — dropped");
      compact = true;
      break;
    }
    const uint64_t digest = rec.report_digest;
    compact = !parsed.insert_or_assign(digest, std::move(rec)).second || compact;
  }
  results_ = std::move(parsed);
  return compact;
}

void CacheStore::OpenJournal(bool compact) {
  const std::string path = dir_ + kJournalName;
  if (compact) {
    std::string text(kJournalMagic);
    for (const auto& [digest, rec] : results_) {
      text += RecordText(rec);
    }
    if (!AtomicWrite(path, text)) {
      // Appending after a torn tail would bury it mid-journal.
      load_errors_.push_back(path +
                             ": compaction failed — results kept in memory");
      return;
    }
  }
  journal_fd_ =
      ::open(path.c_str(), O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC, 0644);
  struct stat st {};
  if (journal_fd_ < 0 || ::fstat(journal_fd_, &st) != 0) {
    load_errors_.push_back(path + ": cannot open for appending: " +
                           std::strerror(errno) +
                           " — results kept in memory");
    if (journal_fd_ >= 0) ::close(journal_fd_);
    journal_fd_ = -1;
    return;
  }
  journal_bytes_ = static_cast<uint64_t>(st.st_size);
}

bool CacheStore::StoreResult(ResultRecord record) {
  if (!ok_) return false;
  std::string text = RecordText(record);
  if (journal_bytes_ == 0) text.insert(0, kJournalMagic);
  results_[record.report_digest] = std::move(record);
  if (journal_fd_ < 0) return false;
  if (WriteAll(journal_fd_, text)) {
    journal_bytes_ += text.size();
    return true;
  }
  // Cut the partial record off; if that fails too, stop appending so a torn
  // record can only ever be the journal's last.
  if (::ftruncate(journal_fd_, static_cast<off_t>(journal_bytes_)) != 0) {
    ::close(journal_fd_);
    journal_fd_ = -1;
  }
  return false;
}

const ResultRecord* CacheStore::FindResult(uint64_t report_digest) const {
  auto it = results_.find(report_digest);
  return it == results_.end() ? nullptr : &it->second;
}

}  // namespace esd::serve
