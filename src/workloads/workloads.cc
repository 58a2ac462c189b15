#include "src/workloads/workloads.h"

#include <cstdio>
#include <cstdlib>

#include "src/fuzz/generator.h"
#include "src/ir/parser.h"
#include "src/ir/verifier.h"
#include "src/workloads/workloads_internal.h"

namespace esd::workloads {

const char* ExternsPreamble() {
  return R"(
extern @getchar() : i32
extern @getenv(ptr) : ptr
extern @esd_input_i32(ptr) : i32
extern @esd_input_i64(ptr) : i64
extern @esd_input_bytes(ptr, i64, ptr)
extern @malloc(i64) : ptr
extern @free(ptr)
extern @memset(ptr, i32, i64)
extern @memcpy(ptr, ptr, i64)
extern @strlen(ptr) : i64
extern @print_str(ptr)
extern @print_i64(i64)
extern @exit(i32)
extern @abort()
extern @esd_assert(i1)
extern @thread_create(ptr, ptr) : i32
extern @thread_join(i32)
extern @mutex_init(ptr)
extern @mutex_lock(ptr)
extern @mutex_unlock(ptr)
extern @cond_init(ptr)
extern @cond_wait(ptr, ptr)
extern @cond_signal(ptr)
extern @cond_broadcast(ptr)
extern @mutex_trylock(ptr) : i32
extern @rwlock_init(ptr)
extern @rwlock_rdlock(ptr)
extern @rwlock_tryrdlock(ptr) : i32
extern @rwlock_wrlock(ptr)
extern @rwlock_trywrlock(ptr) : i32
extern @rwlock_unlock(ptr)
extern @sem_init(ptr, i32)
extern @sem_wait(ptr)
extern @sem_trywait(ptr) : i32
extern @sem_post(ptr)
extern @barrier_init(ptr, i32)
extern @barrier_wait(ptr)
extern @yield()
extern @atomic_load(ptr, i32) : i32
extern @atomic_store(ptr, i32, i32)
extern @atomic_exchange(ptr, i32, i32) : i32
extern @atomic_fetch_add(ptr, i32, i32) : i32
extern @atomic_cas(ptr, i32, i32, i32) : i32
extern @atomic_fence(i32)
)";
}

std::shared_ptr<ir::Module> ParseWorkload(const std::string& body) {
  auto module = std::make_shared<ir::Module>();
  ir::ParseResult r = ir::ParseModule(std::string(ExternsPreamble()) + body,
                                      module.get());
  if (!r.ok) {
    std::fprintf(stderr, "workload parse error: %s\n", r.error.c_str());
    std::abort();
  }
  auto errors = ir::Verify(*module);
  if (!errors.empty()) {
    std::fprintf(stderr, "workload verify error: %s\n", errors[0].c_str());
    std::abort();
  }
  return module;
}

std::shared_ptr<ir::Module> ParseProgram(std::string_view text,
                                         std::string* error) {
  auto module = std::make_shared<ir::Module>();
  ir::ParseResult r = text.find("extern @getchar") == std::string_view::npos
                          ? ir::ParseModule(ExternsPreamble(), text, module.get())
                          : ir::ParseModule(text, module.get());
  if (!r.ok) {
    *error = r.error;
    return nullptr;
  }
  auto errors = ir::Verify(*module);
  if (!errors.empty()) {
    *error = errors[0];
    return nullptr;
  }
  return module;
}

std::vector<std::string> Table1Names() {
  return {"sqlite", "hawknl", "ghttpd", "paste", "mknod", "mkdir", "mkfifo", "tac"};
}

std::vector<std::string> LsNames() { return {"ls1", "ls2", "ls3", "ls4"}; }

std::vector<std::string> SyncNames() {
  return {"rwupgrade", "semdrop", "barrier3", "trybank"};
}

std::vector<std::string> AtomicNames() { return {"treiber", "spscring"}; }

// Generated-scenario adapters: "fuzz:<kind>:<seed>" materializes an
// esdfuzz scenario as a regular workload, so every tool and test that
// consumes the registry can run against the unbounded generated family.
// Note race scenarios' triggers carry inputs but no schedule (the racy
// window has no sync events), so CaptureDump does not apply to them; use
// fuzz::MakeReport for the report instead.
static std::optional<Workload> MakeFuzzWorkload(const std::string& name) {
  if (name.rfind("fuzz:", 0) != 0) {
    return std::nullopt;
  }
  size_t colon = name.find(':', 5);
  if (colon == std::string::npos) {
    return std::nullopt;
  }
  auto kind = fuzz::ParseBugKindName(name.substr(5, colon - 5));
  if (!kind.has_value()) {
    return std::nullopt;
  }
  char* end = nullptr;
  uint64_t seed = std::strtoull(name.c_str() + colon + 1, &end, 10);
  if (end == name.c_str() + colon + 1 || *end != '\0') {
    return std::nullopt;
  }
  fuzz::GeneratorParams params;
  params.kind = *kind;
  params.seed = seed;
  fuzz::GeneratedProgram program = fuzz::Generate(params);
  Workload w;
  w.name = name;
  w.manifestation = program.expected_kind == vm::BugInfo::Kind::kDeadlock
                        ? "hang"
                        : "crash";
  w.module = program.module;
  w.trigger = program.trigger;
  w.expected_kind = program.expected_kind;
  w.assert_site_report = *kind == fuzz::BugKind::kRace ||
                         *kind == fuzz::BugKind::kTreiberAba ||
                         *kind == fuzz::BugKind::kSpscFence;
  return w;
}

Workload MakeWorkload(const std::string& name) {
  if (auto fuzzed = MakeFuzzWorkload(name); fuzzed.has_value()) {
    return *fuzzed;
  }
  if (name == "listing1") {
    return BuildListing1();
  }
  if (name == "sqlite") {
    return BuildSqlite();
  }
  if (name == "hawknl") {
    return BuildHawknl();
  }
  if (name == "ghttpd") {
    return BuildGhttpd();
  }
  if (name == "paste") {
    return BuildPaste();
  }
  if (name == "mknod") {
    return BuildMknod();
  }
  if (name == "mkdir") {
    return BuildMkdir();
  }
  if (name == "mkfifo") {
    return BuildMkfifo();
  }
  if (name == "tac") {
    return BuildTac();
  }
  if (name == "ls1") {
    return BuildLs(1);
  }
  if (name == "ls2") {
    return BuildLs(2);
  }
  if (name == "ls3") {
    return BuildLs(3);
  }
  if (name == "ls4") {
    return BuildLs(4);
  }
  if (name == "rwupgrade") {
    return BuildRwUpgrade();
  }
  if (name == "semdrop") {
    return BuildSemDrop();
  }
  if (name == "barrier3") {
    return BuildBarrier3();
  }
  if (name == "trybank") {
    return BuildTryBank();
  }
  if (name == "treiber") {
    return BuildTreiber();
  }
  if (name == "spscring") {
    return BuildSpscRing();
  }
  std::fprintf(stderr, "unknown workload '%s'\n", name.c_str());
  std::abort();
}

}  // namespace esd::workloads
