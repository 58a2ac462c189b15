// ESD workloads: miniatures of the paper's evaluated bugs (Table 1, §7.1).
//
// Each workload is a program in ESD IR that preserves the *bug class* and
// the *shape of the search problem* of the corresponding real-world bug:
// the same kind of input-dependent guards in front of the bug, the same
// synchronization structure for the interleaving, and a coredump with the
// same content a user's failing run would produce. See DESIGN.md's
// substitution table.
//
//   listing1 - the paper's running example (Listing 1 deadlock)
//   sqlite   - hang: lock-order inversion between the recursive-lock master
//              mutex and the db mutex (bug #1672 shape), WAL-mode guarded
//   hawknl   - hang: nlClose()/nlShutdown() AB-BA on socket + global mutexes
//   ghttpd   - crash: GET-request log buffer overflow (vsprintf shape)
//   paste    - crash: invalid free of an interior pointer for '-' args
//   mknod    - crash: null deref on an error-handling path
//   mkdir    - crash: null deref on an error-handling path
//   mkfifo   - crash: null deref on an error-handling path
//   tac      - crash: null deref for a separator-edge-case input
//   ls1..ls4 - the four planted null derefs used for Figure 2's baseline
//   rwupgrade - hang: rwlock upgrade deadlock (two readers upgrade in place)
//   semdrop  - hang: semaphore lost-signal (trywait fast path drops the post)
//   barrier3 - hang: barrier count mismatch (3 parties configured, 2 arrive)
//   trybank  - crash: mutex_trylock TOCTOU (assert that the lock is free)
//
// Beyond the fixed suite, "fuzz:<kind>:<seed>" names (kind in
// deadlock|race|crash) materialize esdfuzz generated scenarios
// (src/fuzz/generator.h) as workloads, giving registry consumers access
// to the unbounded generated family. Race scenarios carry inputs but no
// sync-event schedule (their buggy window has no sync events), so
// CaptureDump does not apply to them; build their report with
// fuzz::MakeReport (the assert-site dump) instead.
#ifndef ESD_SRC_WORKLOADS_WORKLOADS_H_
#define ESD_SRC_WORKLOADS_WORKLOADS_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/ir/module.h"
#include "src/vm/interpreter.h"
#include "src/workloads/trigger.h"

namespace esd::workloads {

struct Workload {
  std::string name;
  std::string manifestation;  // "hang" or "crash" (Table 1 column).
  std::shared_ptr<ir::Module> module;
  Trigger trigger;
  vm::BugInfo::Kind expected_kind = vm::BugInfo::Kind::kNone;
  // The field report is the assert-site coredump (AssertSiteDump), not a
  // concrete trigger run: set for the race-style and lock-free workloads
  // whose bug is detected at main's esd_assert — for spscring no concrete
  // run can manifest the bug at all (it needs a store-buffer flush
  // interleaving only symbolic search expresses).
  bool assert_site_report = false;
};

// All Table 1 workloads, in the paper's order.
std::vector<std::string> Table1Names();
// The Figure 2 additions (ls1..ls4).
std::vector<std::string> LsNames();
// The sync-surface additions: rwlock upgrade deadlock (rwupgrade),
// semaphore lost-signal (semdrop), barrier count mismatch (barrier3), and
// the mutex_trylock TOCTOU assert (trybank).
std::vector<std::string> SyncNames();
// The C11-atomics additions: the Treiber-stack ABA pop (treiber) and the
// SPSC handoff with a missing release fence (spscring). Both are detected
// by main's esd_assert and report via AssertSiteDump (assert_site_report).
std::vector<std::string> AtomicNames();

// Builds a workload by name; aborts on unknown names.
Workload MakeWorkload(const std::string& name);

// The shared externs preamble used by all textual workloads.
const char* ExternsPreamble();

// The §4.2 lost-update data race shared by tests and benches: two threads
// increment a global without a lock; the bug report is the failed
// esd_assert in main, not the racy access itself ("B is where the
// inconsistency was detected — not where the race occurred", §3.1).
std::shared_ptr<ir::Module> RacyCounterModule();

// The handmade coredump such a report embodies: a kAssertFail at the
// esd_assert call site in @main, faulting thread 0. Works for any module
// whose main calls esd_assert exactly once.
report::CoreDump AssertSiteDump(const ir::Module& module);

// Parses preamble + body, verifying the result (aborts on errors — workload
// sources are compiled into the binary and must be valid).
std::shared_ptr<ir::Module> ParseWorkload(const std::string& body);

// Parses and verifies a program text as a user hands it to the tools or the
// service. Text that does not declare the standard externs itself (no
// `extern @getchar`) is parsed after ExternsPreamble(), and a parse error
// still names its line in `text`. Returns the module, or nullptr with the
// first parse or verifier error in `*error`.
std::shared_ptr<ir::Module> ParseProgram(std::string_view text,
                                         std::string* error);

}  // namespace esd::workloads

#endif  // ESD_SRC_WORKLOADS_WORKLOADS_H_
