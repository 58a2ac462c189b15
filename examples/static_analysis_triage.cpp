// Example: weeding out static-analysis false positives with ESD (§8).
//
// The program below has two lock-order inversions a static checker flags:
//   - update() vs audit(): a real AB-BA deadlock two threads can hit;
//   - maintenance() vs update(): a FALSE positive — the inverted order in
//     maintenance() runs only before the worker threads exist, so no
//     execution can interleave them into a deadlock.
// The path-insensitive checker cannot tell the difference; ESD can: it
// synthesizes an execution for the first warning and exhausts the search
// space for the second.
#include <cstdio>

#include "src/analysis/lock_order.h"
#include "src/core/warning_validation.h"
#include "src/workloads/workloads.h"

using namespace esd;

namespace {

constexpr char kProgram[] = R"(
global $accounts = zero 8
global $ledger = zero 8

; Worker A: accounts, then ledger.
func @update(%arg: ptr) : void {
entry:
  call @mutex_lock($accounts)
  call @mutex_lock($ledger)
  call @mutex_unlock($ledger)
  call @mutex_unlock($accounts)
  ret
}

; Worker B: ledger, then accounts -- a real inversion against update().
func @audit(%arg: ptr) : void {
entry:
  call @mutex_lock($ledger)
  call @mutex_lock($accounts)
  call @mutex_unlock($accounts)
  call @mutex_unlock($ledger)
  ret
}

; Startup maintenance also takes ledger before accounts, but it runs in
; main BEFORE any worker thread exists: statically an inversion, dynamically
; harmless.
func @maintenance() : void {
entry:
  call @mutex_lock($ledger)
  call @mutex_lock($accounts)
  call @mutex_unlock($accounts)
  call @mutex_unlock($ledger)
  ret
}

func @main() : i32 {
entry:
  call @maintenance()
  %t1 = call @thread_create(@update, null)
  %t2 = call @thread_create(@audit, null)
  call @thread_join(%t1)
  call @thread_join(%t2)
  ret i32 0
}
)";

}  // namespace

int main() {
  std::printf("== ESD example: validating static deadlock warnings ==\n\n");
  auto module = workloads::ParseWorkload(kProgram);

  auto warnings = analysis::FindLockOrderWarnings(*module);
  std::printf("[1] static checker reports %zu potential inversions:\n",
              warnings.size());
  for (size_t i = 0; i < warnings.size(); ++i) {
    std::printf("    [%zu] %s  vs  %s\n", i,
                module->Describe(warnings[i].ab.acquire_site).c_str(),
                module->Describe(warnings[i].ba.acquire_site).c_str());
  }

  core::SynthesisOptions options;
  options.time_cap_seconds = 20.0;
  auto validated = core::ValidateLockOrderWarnings(*module, options);
  std::printf("\n[2] ESD validation:\n");
  int confirmed = 0;
  for (size_t i = 0; i < validated.size(); ++i) {
    if (validated[i].confirmed) {
      ++confirmed;
      std::printf("    [%zu] TRUE POSITIVE  (deadlock synthesized, "
                  "fingerprint %s)\n",
                  i, replay::Fingerprint(validated[i].synthesis.file).c_str());
    } else if (validated[i].synthesis.stop == core::SynthesisResult::Stop::kExhausted) {
      std::printf("    [%zu] false positive (no execution reaches it: %s)\n", i,
                  validated[i].synthesis.failure_reason.c_str());
    } else {
      std::printf("    [%zu] undecided (%s)\n", i,
                  validated[i].synthesis.failure_reason.c_str());
    }
  }
  std::printf("\n%d of %zu warnings are real; the rest would have wasted a "
              "developer's afternoon.\n",
              confirmed, validated.size());
  return 0;
}
