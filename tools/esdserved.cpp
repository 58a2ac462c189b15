// esdserved: the persistent synthesis service (batch daemon).
//
//   esdserved [--cache-dir DIR] [--jobs N] [--threads N] [--once]
//             [--out-dir DIR] [--no-reuse-results] [--time-cap SECONDS]
//             [--solver-cache-mb N] [MANIFEST...]
//
// Accepts a stream of synthesis jobs — each a module plus a bug report —
// through manifest files and/or stdin, one job per line:
//
//   <module.esd> <report.core> [out.exec]
//
// Jobs are routed through a module-digest-sharded queue to synthesis
// workers. The daemon keeps the solver query cache and the
// execution-fingerprint corpus warm across jobs on the same module and,
// with --cache-dir, across restarts (crash-safe versioned cache files; a
// corrupted file is quarantined and regenerated, never trusted). Each
// search computes its own distance tables.
// A re-submitted (report, module) pair answers from the stored verdict;
// a known report against a *patched* module seeds the new search from the
// previously synthesized execution (incremental re-synthesis).
//
// SIGINT (or end of input with --once) drains the queue, flushes every
// cache to disk, prints the reuse summary, and exits 0.
#include <csignal>
#include <iostream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/serve/job_queue.h"
#include "src/serve/server.h"
#include "tools/tool_common.h"

namespace {

void Usage(std::ostream& os = std::cerr) {
  os << "usage: esdserved [options] [MANIFEST...]\n"
     << "\n"
     << "Persistent synthesis service: reads jobs (one per line:\n"
     << "  <module.esd> <report.core> [out.exec]\n"
     << ") from the given manifest files, then from stdin unless --once.\n"
     << "Caches survive across jobs and, with --cache-dir, restarts.\n"
     << "\n"
     << "options:\n"
     << "  --cache-dir DIR    persist caches + verdicts under DIR\n"
     << "  --jobs N           portfolio width per synthesis (default 1)\n"
     << "  --threads N        concurrent synthesis workers (default 1)\n"
     << "  --once             exit after the manifests; do not read stdin\n"
     << "  --out-dir DIR      write <job>.exec files for reproduced bugs\n"
     << "  --no-reuse-results re-run exact duplicate (report, module) jobs\n"
     << "  --time-cap SECONDS per-job search budget (default 30)\n"
     << "  --solver-cache-mb N  byte budget per module solver cache\n"
     << "                     (default 64)\n"
     << "  -h, --help         show this help\n";
}

// SIGINT flips this; installed without SA_RESTART so a blocking stdin read
// is interrupted and the read loop exits to the drain + flush path.
volatile std::sig_atomic_t g_interrupted = 0;
void HandleSigint(int) { g_interrupted = 1; }

std::mutex g_print_mu;

}  // namespace

int main(int argc, char** argv) {
  using namespace esd;
  serve::ServerOptions options;
  options.synthesis.time_cap_seconds = 30.0;
  size_t threads = 1;
  bool once = false;
  std::string out_dir;
  std::vector<std::string> manifests;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "-h" || arg == "--help") {
      Usage(std::cout);
      return 0;
    } else if (arg == "--cache-dir" && i + 1 < argc) {
      options.cache_dir = argv[++i];
    } else if (arg == "--jobs" && i + 1 < argc) {
      if (!tools::ParseUnsigned(arg, argv[++i], &options.synthesis.jobs, 1,
                                tools::kMaxJobs)) {
        return 2;
      }
    } else if (arg == "--threads" && i + 1 < argc) {
      if (!tools::ParseUnsigned(arg, argv[++i], &threads, 1,
                                tools::kMaxJobs)) {
        return 2;
      }
    } else if (arg == "--once") {
      once = true;
    } else if (arg == "--out-dir" && i + 1 < argc) {
      out_dir = argv[++i];
    } else if (arg == "--no-reuse-results") {
      options.reuse_results = false;
    } else if (arg == "--time-cap" && i + 1 < argc) {
      if (!tools::ParseSeconds(arg, argv[++i],
                               &options.synthesis.time_cap_seconds)) {
        return 2;
      }
    } else if (arg == "--solver-cache-mb" && i + 1 < argc) {
      size_t mb = 0;
      if (!tools::ParseUnsigned(arg, argv[++i], &mb, 0,
                                std::numeric_limits<size_t>::max() >> 20)) {
        return 2;
      }
      options.solver_cache_bytes = mb << 20;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "error: unknown option or missing argument: '" << arg
                << "' (try --help)\n";
      return 2;
    } else {
      manifests.push_back(arg);
    }
  }

  struct sigaction sa = {};
  sa.sa_handler = HandleSigint;
  sigaction(SIGINT, &sa, nullptr);  // No SA_RESTART: interrupt blocking reads.

  serve::Server server(std::move(options));
  serve::JobQueue queue(threads);
  uint64_t next_id = 0;

  // Parses one manifest line into a queued job. Loading the module here
  // (not in the worker) lets the queue route by module digest for cache
  // affinity; parse failures are reported immediately and skipped.
  auto submit = [&](const std::string& line, const std::string& origin) {
    std::istringstream ls(line);
    std::string module_path, report_path, out_path;
    ls >> module_path >> report_path >> out_path;
    if (module_path.empty() || module_path[0] == '#') {
      return;  // Blank or comment line.
    }
    serve::Job job;
    job.id = ++next_id;
    job.module_path = module_path;
    job.report_path = report_path;
    job.out_path = out_path;
    auto module_text = tools::ReadFile(module_path);
    auto report_text =
        report_path.empty() ? std::nullopt : tools::ReadFile(report_path);
    if (!module_text.has_value() || !report_text.has_value()) {
      std::lock_guard<std::mutex> lock(g_print_mu);
      std::cerr << "esdserved: " << origin << ": cannot read '"
                << (!module_text.has_value() ? module_path : report_path)
                << "' — job " << job.id << " dropped\n";
      return;
    }
    job.module_text = std::move(*module_text);
    job.report_text = std::move(*report_text);
    // Digest of the raw text is enough for routing affinity (jobs with
    // byte-identical modules co-locate); the server re-digests canonically.
    uint64_t route = 0xcbf29ce484222325ull;
    for (unsigned char c : job.module_text) {
      route = (route ^ c) * 0x100000001b3ull;
    }
    queue.Push(std::move(job), route);
  };

  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (size_t w = 0; w < threads; ++w) {
    workers.emplace_back([&, w] {
      while (auto job = queue.Pop(w)) {
        serve::JobResult r = server.Process(*job);
        if (r.reproduced && !r.exec_text.empty()) {
          std::string out_path = job->out_path;
          if (out_path.empty() && !out_dir.empty()) {
            out_path = out_dir + "/job" + std::to_string(r.job_id) + ".exec";
          }
          if (!out_path.empty() && !tools::WriteFile(out_path, r.exec_text)) {
            std::lock_guard<std::mutex> lock(g_print_mu);
            std::cerr << "esdserved: job " << r.job_id << ": cannot write '"
                      << out_path << "'\n";
          }
        }
        std::lock_guard<std::mutex> lock(g_print_mu);
        for (const std::string& e : server.TakeLoadErrors()) {
          std::cerr << "esdserved: cache: " << e << "\n";
        }
        if (!r.ok) {
          std::cout << "job " << r.job_id << " error: " << r.error << "\n";
        } else if (r.reproduced) {
          std::cout << "job " << r.job_id << " reproduced fingerprint "
                    << r.fingerprint << " source " << r.source
                    << (r.duplicate_bug ? " duplicate-bug" : "");
          if (r.seed_switches > 0) {
            std::cout << " seed-prefix " << r.seed_best_prefix << "/"
                      << r.seed_switches;
          }
          std::cout << "\n";
        } else {
          std::cout << "job " << r.job_id << " not-reproduced source "
                    << r.source << ": " << r.failure_reason << "\n";
        }
        std::cout.flush();
      }
    });
  }

  for (const std::string& path : manifests) {
    auto text = tools::ReadFile(path);
    if (!text.has_value()) {
      std::cerr << "esdserved: error: cannot read manifest '" << path << "'\n";
      queue.Close();
      for (std::thread& t : workers) t.join();
      return 1;
    }
    std::istringstream is(*text);
    std::string line;
    while (!g_interrupted && std::getline(is, line)) {
      submit(line, path);
    }
  }
  if (!once) {
    std::string line;
    while (!g_interrupted && std::getline(std::cin, line)) {
      submit(line, "stdin");
    }
  }

  // Normal end of input or SIGINT: drain what is queued, then flush.
  queue.Close();
  for (std::thread& t : workers) {
    t.join();
  }
  server.FlushAll();

  serve::Server::Stats stats = server.stats();
  serve::JobQueue::Stats qstats = queue.stats();
  std::cout << "esdserved: " << stats.jobs << " jobs (" << stats.reproduced
            << " reproduced, " << stats.verdict_cache_hits << " verdict-cache, "
            << stats.incremental << " incremental, " << stats.duplicate_bugs
            << " duplicate-bug), " << stats.solver_shared_hits
            << " solver cache hits, " << stats.solver_entries_preloaded
            << " solver entries + " << stats.corpus_preloaded
            << " corpus fingerprints preloaded, " << qstats.stolen
            << " jobs stolen\n";
  std::cout << "esdserved: caches flushed\n";
  return 0;
}
