#include "interleavings.h"

#include <algorithm>
#include <random>
#include <sstream>
#include <vector>

#include "src/workloads/trigger.h"
#include "src/workloads/workloads.h"

namespace perfbench {
namespace {

struct Affine {
  uint32_t mul = 1;
  uint32_t add = 0;
};

// Accumulator value after the critical sections of `order` (one 'A' or 'B'
// each) starting from 0, in the IR's wrapping 32-bit arithmetic.
uint32_t Apply(const std::string& order, Affine a, Affine b) {
  uint32_t acc = 0;
  for (char c : order) {
    const Affine& f = c == 'A' ? a : b;
    acc = acc * f.mul + f.add;
  }
  return acc;
}

// Appends every arrangement of `na` A's and `nb` B's to `out`.
void Arrangements(uint32_t na, uint32_t nb, std::string* prefix,
                  std::vector<std::string>* out) {
  if (na == 0 && nb == 0) {
    out->push_back(*prefix);
    return;
  }
  if (na > 0) {
    prefix->push_back('A');
    Arrangements(na - 1, nb, prefix, out);
    prefix->pop_back();
  }
  if (nb > 0) {
    prefix->push_back('B');
    Arrangements(na, nb - 1, prefix, out);
    prefix->pop_back();
  }
}

uint32_t Switches(const std::string& order) {
  uint32_t n = 0;
  for (size_t i = 1; i < order.size(); ++i) {
    n += order[i] != order[i - 1] ? 1 : 0;
  }
  return n;
}

// Sync-event directives that run `order`. A is tid 1 (the round-robin
// scheduler runs it first once main blocks in its join), B is tid 2, and a
// critical section is two events (lock, unlock), counted per thread.
std::vector<esd::workloads::SyncSwitch> Script(const std::string& order) {
  std::vector<esd::workloads::SyncSwitch> script;
  uint64_t done_a = 0;
  uint64_t done_b = 0;
  for (size_t i = 0; i < order.size(); ++i) {
    const bool a = order[i] == 'A';
    const uint64_t done = a ? ++done_a : ++done_b;
    if (i + 1 < order.size() && order[i + 1] != order[i]) {
      script.push_back({a ? 1u : 2u, 2 * done, a ? 2u : 1u});
    }
  }
  return script;
}

constexpr char kLocksInOrder[] =
    "  call @mutex_lock($m1)\n"
    "  call @mutex_lock($m2)\n"
    "  call @mutex_unlock($m2)\n"
    "  call @mutex_unlock($m1)\n"
    "  ret\n";

void EmitWorker(std::ostringstream& os, const char* name, uint32_t updates,
                Affine f, uint32_t spin, const std::string& tail) {
  os << "func @" << name << "(%arg: ptr) : void {\n"
     << "entry:\n"
     << "  %slot = alloca 4\n"
     << "  %spin = alloca 4\n"
     << "  store i32 0, %slot\n"
     << "  br loop\n"
     << "loop:\n"
     << "  %i = load i32, %slot\n"
     << "  %more = icmp ult %i, i32 " << updates << "\n"
     << "  condbr %more, body, done\n"
     << "body:\n"
     << "  call @mutex_lock($m)\n"
     << "  %v = load i32, $acc\n"
     << "  %t = mul %v, i32 " << f.mul << "\n"
     << "  %n = add %t, i32 " << f.add << "\n"
     << "  store %n, $acc\n"
     << "  store i32 0, %spin\n"
     << "  br grind\n"
     << "grind:\n"
     << "  %g = load i32, %spin\n"
     << "  %gm = icmp ult %g, i32 " << spin << "\n"
     << "  condbr %gm, gbody, gdone\n"
     << "gbody:\n"
     << "  %x = mul %g, i32 2654435761\n"
     << "  %y = add %x, i32 40503\n"
     << "  %g2 = add %g, i32 1\n"
     << "  store %g2, %spin\n"
     << "  br grind\n"
     << "gdone:\n"
     << "  call @mutex_unlock($m)\n"
     << "  %i2 = add %i, i32 1\n"
     << "  store %i2, %slot\n"
     << "  br loop\n"
     << "done:\n"
     << tail << "}\n\n";
}

// B's tail in the deadlock shape: read the accumulator once more under the
// mutex, and invert the lock order iff it holds the planted prefix's value.
std::string GateTail(uint32_t gate) {
  std::ostringstream os;
  os << "  call @mutex_lock($m)\n"
     << "  %a = load i32, $acc\n"
     << "  call @mutex_unlock($m)\n"
     << "  %hit = icmp eq %a, i32 " << gate << "\n"
     << "  condbr %hit, inverted, safe\n"
     << "inverted:\n"
     << "  call @mutex_lock($m2)\n"
     << "  call @mutex_lock($m1)\n"
     << "  call @mutex_unlock($m1)\n"
     << "  call @mutex_unlock($m2)\n"
     << "  ret\n"
     << "safe:\n"
     << kLocksInOrder;
  return os.str();
}

std::string Source(const InterleavingParams& p, Affine a, Affine b,
                   uint32_t value) {
  std::ostringstream os;
  os << "global $acc = zero 4\nglobal $m = zero 8\n";
  if (p.deadlock) {
    os << "global $m1 = zero 8\nglobal $m2 = zero 8\n";
  }
  os << "\n";
  EmitWorker(os, "upd_a", p.updates_a, a, p.spin,
             p.deadlock ? kLocksInOrder : "  ret\n");
  EmitWorker(os, "upd_b", p.updates_b, b, p.spin,
             p.deadlock ? GateTail(value) : "  ret\n");
  os << "func @main() : i32 {\n"
     << "entry:\n"
     << "  %t1 = call @thread_create(@upd_a, null)\n"
     << "  %t2 = call @thread_create(@upd_b, null)\n"
     << "  call @thread_join(%t1)\n"
     << "  call @thread_join(%t2)\n";
  if (!p.deadlock) {
    os << "  %v = load i32, $acc\n"
       << "  %ok = icmp ne %v, i32 " << value << "\n"
       << "  call @esd_assert(%ok)\n";
  }
  os << "  ret i32 0\n}\n";
  return os.str();
}

}  // namespace

std::optional<InterleavingProgram> GenerateInterleaving(
    const InterleavingParams& p) {
  std::mt19937_64 rng(p.seed * 0x9e3779b97f4a7c15ull + 7);
  const Affine a{3 + 2 * static_cast<uint32_t>(rng() % 30),
                 1 + static_cast<uint32_t>(rng() % 99)};
  const Affine b{3 + 2 * static_cast<uint32_t>(rng() % 30),
                 1 + static_cast<uint32_t>(rng() % 99)};
  if (a.mul == b.mul || (a.mul - 1) * b.add == (b.mul - 1) * a.add) {
    return std::nullopt;  // The two maps commute.
  }

  // Every value the checked read can see: for the race shape the complete
  // orderings; for the deadlock shape whatever B can read at its gate, that
  // is all of its own updates after any number of A's.
  std::vector<std::string> reachable;
  std::string scratch;
  if (p.deadlock) {
    for (uint32_t j = 0; j <= p.updates_a; ++j) {
      Arrangements(j, p.updates_b, &scratch, &reachable);
    }
  } else {
    Arrangements(p.updates_a, p.updates_b, &scratch, &reachable);
  }
  std::vector<uint32_t> values;
  values.reserve(reachable.size());
  for (const std::string& order : reachable) {
    values.push_back(Apply(order, a, b));
  }

  // Plantable orderings start with A and have exactly `switches` switches.
  // A deadlock prefix leaves A at least one update to do, and its switches
  // count the ones that follow it: to B for the gate read (unless B ran
  // last), then back to A after B takes m2. So they are always even.
  std::vector<size_t> candidates;
  for (size_t i = 0; i < reachable.size(); ++i) {
    const std::string& order = reachable[i];
    std::string full = order;
    if (p.deadlock) {
      const auto a_updates = std::count(order.begin(), order.end(), 'A');
      if (a_updates >= static_cast<long>(p.updates_a)) {
        continue;
      }
      full += order.back() == 'A' ? "BA" : "A";
    }
    if (order.front() == 'A' && Switches(full) == p.switches) {
      candidates.push_back(i);
    }
  }
  if (candidates.empty()) {
    return std::nullopt;
  }
  const size_t start = static_cast<size_t>(rng() % candidates.size());
  for (size_t k = 0; k < candidates.size(); ++k) {
    const size_t pick = candidates[(start + k) % candidates.size()];
    const uint32_t value = values[pick];
    if (std::count(values.begin(), values.end(), value) != 1) {
      continue;  // Another ordering reaches the same value.
    }
    const std::string& ordering = reachable[pick];
    InterleavingProgram program;
    program.module = esd::workloads::ParseWorkload(Source(p, a, b, value));

    // The field report: a concrete run of the planted ordering. In the
    // deadlock shape B then takes m2 (two gate events and the lock) and A
    // runs its remaining updates into the circular wait.
    esd::workloads::Trigger trigger;
    if (p.deadlock) {
      // A trailing "B" adds the switch to B's gate read when A ran last.
      trigger.schedule =
          Script(ordering.back() == 'A' ? ordering + "B" : ordering);
      trigger.schedule.push_back({2, 2 * uint64_t{p.updates_b} + 3, 1});
    } else {
      trigger.schedule = Script(ordering);
    }
    std::optional<esd::report::CoreDump> dump =
        esd::workloads::CaptureDump(*program.module, trigger);
    const esd::vm::BugInfo::Kind expected =
        p.deadlock ? esd::vm::BugInfo::Kind::kDeadlock
                   : esd::vm::BugInfo::Kind::kAssertFail;
    if (!dump.has_value() || dump->kind != expected) {
      return std::nullopt;
    }
    program.report = std::move(*dump);
    return program;
  }
  return std::nullopt;
}

}  // namespace perfbench
