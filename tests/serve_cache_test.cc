// The persisted-cache contract of the synthesis service: for the
// fingerprint-corpus format, serialize -> parse -> serialize must be
// byte-identical, and every corruption class — truncation, trailing
// garbage, a version bump, a module-digest mismatch, an unknown directive,
// a wrong count — must fail the strict parse with a one-line error. The
// CacheStore must quarantine such a file and keep serving. The results
// journal must survive reopening, drop only a torn final record, let a
// later record for a report win, and load nothing but stored records from
// any mutant of itself.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "src/serve/cache_io.h"
#include "src/serve/persistent_cache.h"

namespace esd::serve {
namespace {

// A corpus image with enough records that cutting it at a quarter, a half
// or just before the trailer lands in different records.
FingerprintImage MakeCorpusImage() {
  FingerprintImage image;
  image.module_digest = 0xdeadbeefcafef00dull;
  image.fingerprints = {0x1ull, 0x2222ull, 0xabcdull, 0x123456789ull,
                        0xfedcba9876543210ull, 0xffffffffffffffffull};
  return image;
}

TEST(ServeCacheIoTest, FingerprintCorpusRoundTripsByteIdentical) {
  FingerprintImage image;
  image.module_digest = 0x1234;
  image.fingerprints = {0x1ull, 0xabcdull, 0xffffffffffffffffull};
  std::string text = FingerprintCorpusToText(image);
  std::string error;
  auto parsed = ParseFingerprintCorpus(text, image.module_digest, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(FingerprintCorpusToText(*parsed), text);
  EXPECT_EQ(parsed->fingerprints, image.fingerprints);
}

// Every corruption class rejects with a one-line error naming the problem.
TEST(ServeCacheIoTest, CorruptionClassesRejected) {
  FingerprintImage image = MakeCorpusImage();
  std::string good = FingerprintCorpusToText(image);
  std::string error;

  // Truncation: cutting the file anywhere before the trailer fails (either
  // a torn record or a missing/mismatched end count).
  for (size_t cut : {good.size() - 2, good.size() / 2, good.size() / 4}) {
    error.clear();
    EXPECT_FALSE(ParseFingerprintCorpus(good.substr(0, cut),
                                        image.module_digest, &error)
                     .has_value())
        << "cut at " << cut;
    EXPECT_FALSE(error.empty());
  }

  // Trailing garbage after the end trailer — even a blank line.
  error.clear();
  EXPECT_FALSE(ParseFingerprintCorpus(good + "extra\n", image.module_digest,
                                      &error)
                   .has_value());
  EXPECT_NE(error.find("trailing garbage"), std::string::npos) << error;
  EXPECT_FALSE(
      ParseFingerprintCorpus(good + "\n", image.module_digest, &error)
          .has_value());

  // Version bump: a v2 writer's file is rejected by the v1 parser.
  std::string bumped = good;
  bumped.replace(bumped.find(" v1\n"), 4, " v2\n");
  error.clear();
  EXPECT_FALSE(
      ParseFingerprintCorpus(bumped, image.module_digest, &error).has_value());
  EXPECT_NE(error.find("version"), std::string::npos) << error;

  // Digest mismatch: the file is internally valid but for another module.
  error.clear();
  EXPECT_FALSE(ParseFingerprintCorpus(good, image.module_digest + 1, &error)
                   .has_value());
  EXPECT_NE(error.find("digest mismatch"), std::string::npos) << error;
  // kAnyDigest accepts it.
  EXPECT_TRUE(ParseFingerprintCorpus(good, kAnyDigest, &error).has_value());

  // Unknown directive and a wrong end count.
  error.clear();
  EXPECT_FALSE(ParseFingerprintCorpus(
                   "esdcache fps v1\nmodule 1\nfrobnicate\nend 0\n", 1, &error)
                   .has_value());
  EXPECT_NE(error.find("unknown directive"), std::string::npos) << error;
  EXPECT_FALSE(ParseFingerprintCorpus(
                   "esdcache fps v1\nmodule 1\nfp 1\nend 5\n", 1, &error)
                   .has_value());
  EXPECT_NE(error.find("end count"), std::string::npos) << error;

  // Spot checks on a second image.
  FingerprintImage fps;
  fps.module_digest = 9;
  fps.fingerprints = {1, 2, 3};
  std::string fptext = FingerprintCorpusToText(fps);
  EXPECT_FALSE(
      ParseFingerprintCorpus(fptext + "junk\n", 9, &error).has_value());
  EXPECT_FALSE(ParseFingerprintCorpus(fptext, 10, &error).has_value());
  // Out-of-order fp records (hand-edited file) are rejected too: canonical
  // order is part of the format.
  EXPECT_FALSE(ParseFingerprintCorpus(
                   "esdcache fps v1\nmodule 9\nfp 2\nfp 1\nend 2\n", 9, &error)
                   .has_value());
  EXPECT_NE(error.find("out of order"), std::string::npos) << error;
}

// The store-level contract: a corrupted cache file is quarantined (moved
// aside, never trusted, never deleted silently) and the store keeps
// working — the daemon regenerates the cache on the next flush.
TEST(ServeCacheStoreTest, CorruptedFileIsQuarantinedAndRegenerated) {
  std::string dir = ::testing::TempDir() + "/esd_serve_cache_test";
  std::filesystem::remove_all(dir);
  CacheStore store(dir);
  ASSERT_TRUE(store.ok()) << store.error();

  FingerprintImage image = MakeCorpusImage();
  ASSERT_TRUE(store.StoreFingerprintCorpus(image));
  ASSERT_TRUE(store.LoadFingerprintCorpus(image.module_digest).has_value());

  // Corrupt the file in place (torn write: half the bytes).
  std::string path = dir + "/" +
                     [&] {
                       char buf[32];
                       std::snprintf(buf, sizeof(buf), "%016llx",
                                     static_cast<unsigned long long>(
                                         image.module_digest));
                       return std::string(buf);
                     }() +
                     ".fps.esdc";
  ASSERT_TRUE(std::filesystem::exists(path));
  std::string good = FingerprintCorpusToText(image);
  {
    std::ofstream out(path, std::ios::trunc);
    out << good.substr(0, good.size() / 2);
  }

  // The load fails softly: nullopt, file moved to .quarantined, one error.
  EXPECT_FALSE(store.LoadFingerprintCorpus(image.module_digest).has_value());
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_TRUE(std::filesystem::exists(path + ".quarantined"));
  ASSERT_EQ(store.load_errors().size(), 1u);
  EXPECT_NE(store.load_errors()[0].find("quarantined"), std::string::npos);

  // The store still accepts a regenerated cache afterwards.
  ASSERT_TRUE(store.StoreFingerprintCorpus(image));
  auto reloaded = store.LoadFingerprintCorpus(image.module_digest);
  ASSERT_TRUE(reloaded.has_value());
  EXPECT_EQ(FingerprintCorpusToText(*reloaded), good);
}

// ---- Results journal --------------------------------------------------------

std::string FreshDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
}

ResultRecord MakeRecord(uint64_t report, uint64_t module,
                        const std::string& exec_text) {
  ResultRecord rec;
  rec.report_digest = report;
  rec.module_digest = module;
  rec.reproduced = !exec_text.empty();
  if (rec.reproduced) {
    rec.fingerprint = "0123456789abcdef";
  }
  rec.exec_text = exec_text;
  return rec;
}

// Three distinct records: two reproduced, one not.
std::vector<ResultRecord> ThreeRecords() {
  return {MakeRecord(0x11, 0xaa,
                     "execution v1\nbug deadlock\ndescription one\n"
                     "input x = 326\nswitch 4 1\nswitch 9 0\n"),
          MakeRecord(0x22, 0xaa, ""),
          MakeRecord(0x33, 0xbb,
                     "execution v1\nbug null-deref\ndescription three\n"
                     "input y = 42\n")};
}

bool SameRecord(const ResultRecord& a, const ResultRecord& b) {
  return a.report_digest == b.report_digest &&
         a.module_digest == b.module_digest && a.reproduced == b.reproduced &&
         a.fingerprint == b.fingerprint && a.exec_text == b.exec_text;
}

// results.index round-trips across store reopenings (daemon restarts), and
// each record carries its execution text: no other file is written.
TEST(ServeCacheStoreTest, ResultsIndexSurvivesReopen) {
  const std::string dir = FreshDir("esd_serve_index_test");
  {
    CacheStore store(dir);
    ASSERT_TRUE(store.ok());
    ResultRecord rec;
    rec.report_digest = 0xaaaa;
    rec.module_digest = 0xbbbb;
    rec.reproduced = true;
    rec.fingerprint = "0123456789abcdef";
    rec.exec_text = "execution v1\nbug deadlock\n";
    ASSERT_TRUE(store.StoreResult(rec));
    ResultRecord failed;
    failed.report_digest = 0xcccc;
    failed.module_digest = 0xbbbb;
    failed.reproduced = false;
    ASSERT_TRUE(store.StoreResult(failed));
  }
  CacheStore reopened(dir);
  ASSERT_TRUE(reopened.ok());
  EXPECT_TRUE(reopened.load_errors().empty());
  EXPECT_EQ(reopened.result_count(), 2u);
  const ResultRecord* rec = reopened.FindResult(0xaaaa);
  ASSERT_NE(rec, nullptr);
  EXPECT_TRUE(rec->reproduced);
  EXPECT_EQ(rec->fingerprint, "0123456789abcdef");
  EXPECT_EQ(rec->exec_text, "execution v1\nbug deadlock\n");
  const ResultRecord* failed = reopened.FindResult(0xcccc);
  ASSERT_NE(failed, nullptr);
  EXPECT_FALSE(failed->reproduced);
  EXPECT_TRUE(failed->exec_text.empty());
  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    files.push_back(entry.path().filename().string());
  }
  EXPECT_EQ(files, std::vector<std::string>{"results.index"});
}

// A crash mid-append tears only the final record. Wherever the file ends
// inside it, the earlier records load, one error is reported, and the
// journal is rewritten without the torn bytes, so later appends land on a
// clean record boundary.
TEST(ServeCacheStoreTest, TornFinalRecordIsDroppedAndCompacted) {
  const std::string dir = FreshDir("esd_serve_torn_test");
  const std::string path = dir + "/results.index";
  const std::vector<ResultRecord> records = ThreeRecords();
  size_t two_records = 0;
  {
    CacheStore store(dir);
    ASSERT_TRUE(store.StoreResult(records[0]));
    ASSERT_TRUE(store.StoreResult(records[1]));
    two_records = std::filesystem::file_size(path);
    ASSERT_TRUE(store.StoreResult(records[2]));
  }
  const std::string full = ReadFile(path);
  const std::string two = full.substr(0, two_records);
  ASSERT_GT(full.size(), two_records + 1);
  for (size_t cut = two_records + 1; cut < full.size(); ++cut) {
    SCOPED_TRACE("cut at byte " + std::to_string(cut));
    WriteFile(path, full.substr(0, cut));
    {
      CacheStore store(dir);
      ASSERT_EQ(store.result_count(), 2u);
      EXPECT_TRUE(SameRecord(*store.FindResult(0x11), records[0]));
      EXPECT_TRUE(SameRecord(*store.FindResult(0x22), records[1]));
      ASSERT_EQ(store.load_errors().size(), 1u);
      EXPECT_NE(store.load_errors()[0].find("torn"), std::string::npos)
          << store.load_errors()[0];
      EXPECT_EQ(ReadFile(path), two);
      ASSERT_TRUE(store.StoreResult(records[2]));
    }
    CacheStore reopened(dir);
    EXPECT_EQ(reopened.result_count(), 3u);
    EXPECT_TRUE(reopened.load_errors().empty());
    EXPECT_EQ(ReadFile(path), full);
  }
}

// A later record for the same report replaces the earlier one, and the
// reopened store compacts the journal to exactly what a fresh store holding
// only the live records would have written.
TEST(ServeCacheStoreTest, LaterRecordForSameReportWins) {
  const std::string dir = FreshDir("esd_serve_supersede_test");
  const std::string fresh_dir = FreshDir("esd_serve_supersede_fresh_test");
  const ResultRecord stale = MakeRecord(0x20, 0x1, "execution v1\nbug a\n");
  const ResultRecord other = MakeRecord(0x10, 0x1, "");
  const ResultRecord live = MakeRecord(0x20, 0x2, "execution v1\nbug b\n");
  {
    CacheStore store(dir);
    ASSERT_TRUE(store.StoreResult(stale));
    ASSERT_TRUE(store.StoreResult(other));
    ASSERT_TRUE(store.StoreResult(live));
    EXPECT_EQ(store.result_count(), 2u);
    EXPECT_TRUE(SameRecord(*store.FindResult(0x20), live));
  }
  {
    CacheStore reopened(dir);
    EXPECT_TRUE(reopened.load_errors().empty());
    EXPECT_EQ(reopened.result_count(), 2u);
    EXPECT_TRUE(SameRecord(*reopened.FindResult(0x20), live));
    EXPECT_TRUE(SameRecord(*reopened.FindResult(0x10), other));
  }
  {
    CacheStore fresh(fresh_dir);
    ASSERT_TRUE(fresh.StoreResult(other));  // Report digest order.
    ASSERT_TRUE(fresh.StoreResult(live));
  }
  EXPECT_EQ(ReadFile(dir + "/results.index"),
            ReadFile(fresh_dir + "/results.index"));
}

// The one-line-per-result index of earlier versions is not a journal: it is
// quarantined once, and the store takes new results afterwards.
TEST(ServeCacheStoreTest, OldFormatIndexIsQuarantined) {
  const std::string dir = FreshDir("esd_serve_old_index_test");
  const std::string path = dir + "/results.index";
  std::filesystem::create_directories(dir);
  WriteFile(path,
            "result 000000000000aaaa 000000000000bbbb 1 0123456789abcdef "
            "000000000000aaaa.exec\n");
  WriteFile(dir + "/000000000000aaaa.exec", "execution v1\nbug deadlock\n");
  const ResultRecord rec = ThreeRecords()[0];
  {
    CacheStore store(dir);
    EXPECT_EQ(store.result_count(), 0u);
    ASSERT_EQ(store.load_errors().size(), 1u);
    EXPECT_NE(store.load_errors()[0].find("quarantined"), std::string::npos)
        << store.load_errors()[0];
    EXPECT_TRUE(std::filesystem::exists(path + ".quarantined"));
    ASSERT_TRUE(store.StoreResult(rec));
  }
  CacheStore reopened(dir);
  EXPECT_TRUE(reopened.load_errors().empty());
  ASSERT_EQ(reopened.result_count(), 1u);
  EXPECT_TRUE(SameRecord(*reopened.FindResult(rec.report_digest), rec));
}

// Seeded mutants of a three-record journal: byte flips, truncations, and
// duplicated or dropped record spans. Every reopen either loads records
// equal to stored ones (a subset, after a torn tail or a dropped span) or
// quarantines the file; none crashes or loads a record that was never
// stored.
TEST(ServeCacheStoreTest, JournalMutantsLoadOnlyStoredRecords) {
  const std::string dir = FreshDir("esd_serve_mutant_test");
  const std::string path = dir + "/results.index";
  const std::vector<ResultRecord> records = ThreeRecords();
  // Record boundaries: the end of the magic line, then each record's end.
  std::vector<size_t> bounds = {std::string("esdcache results v1\n").size()};
  {
    CacheStore store(dir);
    for (const ResultRecord& rec : records) {
      ASSERT_TRUE(store.StoreResult(rec));
      bounds.push_back(std::filesystem::file_size(path));
    }
  }
  const std::string good = ReadFile(path);
  std::mt19937_64 rng(20101);
  size_t quarantined = 0, partial = 0;
  for (int i = 0; i < 500; ++i) {
    std::string mutant = good;
    std::string what;
    const size_t pos = rng() % good.size();
    const size_t a = rng() % records.size();
    const size_t b = a + 1 + rng() % (records.size() - a);
    const std::string span = good.substr(bounds[a], bounds[b] - bounds[a]);
    switch (i % 4) {
      case 0:
        mutant[pos] = static_cast<char>(mutant[pos] ^ (1 + rng() % 255));
        what = "flip byte " + std::to_string(pos);
        break;
      case 1:
        mutant.resize(pos);
        what = "truncate to " + std::to_string(pos);
        break;
      case 2:
        mutant.insert(bounds[b], span);
        what = "duplicate records " + std::to_string(a) + ".." +
               std::to_string(b);
        break;
      default:
        mutant.erase(bounds[a], span.size());
        what = "drop records " + std::to_string(a) + ".." + std::to_string(b);
        break;
    }
    SCOPED_TRACE("mutant " + std::to_string(i) + ": " + what);
    WriteFile(path, mutant);
    CacheStore store(dir);
    ASSERT_LE(store.load_errors().size(), 1u);
    if (!store.load_errors().empty() &&
        store.load_errors()[0].find("quarantined") != std::string::npos) {
      EXPECT_EQ(store.result_count(), 0u);
      ++quarantined;
      continue;
    }
    size_t found = 0;
    for (const ResultRecord& rec : records) {
      if (const ResultRecord* loaded = store.FindResult(rec.report_digest)) {
        EXPECT_TRUE(SameRecord(*loaded, rec));
        ++found;
      }
    }
    EXPECT_EQ(store.result_count(), found);
    partial += found < records.size() ? 1 : 0;
  }
  // The sweep exercised both outcomes.
  EXPECT_GT(quarantined, 0u);
  EXPECT_GT(partial, 0u);
}

}  // namespace
}  // namespace esd::serve
