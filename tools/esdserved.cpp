// esdserved: the persistent synthesis service (batch daemon).
//
//   esdserved [--cache-dir DIR] [--jobs N] [--threads N] [--once]
//             [--out-dir DIR] [--no-reuse-results] [--time-cap SECONDS]
//             [MANIFEST...]
//
// Accepts a stream of synthesis jobs — each a module plus a bug report —
// through manifest files and/or stdin, one job per line:
//
//   <module.esd> <report.core> [out.exec]
//
// Jobs go through one FIFO queue to the synthesis workers. The daemon
// keeps every verdict, fingerprint and execution across jobs and, with
// --cache-dir, across restarts, in one crash-safe journal (results.index;
// a corrupted journal is quarantined, never trusted). A re-submitted
// (report, module) pair answers from the stored verdict; every other job
// searches exactly as esdsynth does with the same options, a patched
// module included. A reproduced job whose module already has a record with
// the same execution fingerprint is tagged duplicate-bug.
//
// SIGINT (or end of input with --once) drains the queue, prints the reuse
// summary, and exits 0. Each verdict is already on disk when its job line
// is printed, so nothing waits for a flush.
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
     << "Verdicts and bug fingerprints survive across jobs and, with\n"
     << "--cache-dir, restarts.\n"
     << "\n"
     << "options:\n"
     << "  --cache-dir DIR    persist verdicts in DIR/results.index\n"
     << "  --jobs N           portfolio width per synthesis (default 1)\n"
     << "  --threads N        concurrent synthesis workers (default 1)\n"
     << "  --once             exit after the manifests; do not read stdin\n"
     << "  --out-dir DIR      write <job>.exec files for reproduced bugs\n"
     << "  --no-reuse-results re-run exact duplicate (report, module) jobs\n"
     << "  --time-cap SECONDS per-job search budget (default 30)\n"
     << "  -h, --help         show this help\n";
}

// SIGINT flips this; installed without SA_RESTART so a blocking stdin read
// is interrupted and the read loop exits to the drain path.
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
  serve::JobQueue queue;
  uint64_t next_id = 0;

  // Prints the cache problems the server met since the last call: its
  // start-up load (before any job runs), each job's, and the last job's.
  auto print_load_errors = [&server] {
    std::lock_guard<std::mutex> lock(g_print_mu);
    for (const std::string& e : server.TakeLoadErrors()) {
      std::cerr << "esdserved: cache: " << e << "\n";
    }
  };
  print_load_errors();

  // Reads one manifest line's files into a queued job; a file that cannot
  // be read is reported immediately and the job skipped.
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
    queue.Push(std::move(job));
  };

  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (size_t w = 0; w < threads; ++w) {
    workers.emplace_back([&] {
      while (auto job = queue.Pop()) {
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
        print_load_errors();
        std::lock_guard<std::mutex> lock(g_print_mu);
        if (!r.ok) {
          std::cout << "job " << r.job_id << " error: " << r.error << "\n";
        } else if (r.reproduced) {
          std::cout << "job " << r.job_id << " reproduced fingerprint "
                    << r.fingerprint << " source " << r.source
                    << (r.duplicate_bug ? " duplicate-bug" : "") << "\n";
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

  // Normal end of input or SIGINT: drain what is queued.
  queue.Close();
  for (std::thread& t : workers) {
    t.join();
  }
  print_load_errors();

  serve::Server::Stats stats = server.stats();
  std::cout << "esdserved: " << stats.jobs << " jobs (" << stats.reproduced
            << " reproduced, " << stats.verdict_cache_hits << " verdict-cache, "
            << stats.duplicate_bugs << " duplicate-bug), "
            << stats.solver_shared_hits << " solver cache hits, "
            << stats.corpus_preloaded << " corpus fingerprints preloaded\n";
  return 0;
}
