#include "src/serve/server.h"

#include "src/ir/printer.h"
#include "src/replay/execution_file.h"
#include "src/report/coredump.h"
#include "src/workloads/workloads.h"

namespace esd::serve {

Server::Server(ServerOptions options)
    : options_(std::move(options)), store_(options_.cache_dir) {
  if (!store_.ok()) {
    load_errors_.push_back(store_.error());  // The store is memory-only.
  }
  stats_.corpus_preloaded = store_.known_bug_count();
}

JobResult Server::Process(const Job& job) {
  JobResult out;
  out.job_id = job.id;

  // Parse + verify the module, exactly like the one-shot tools do.
  std::string load_error;
  std::shared_ptr<ir::Module> module =
      workloads::ParseProgram(job.module_text, &load_error);
  if (module == nullptr) {
    out.error = job.module_path + ": " + load_error;
    return out;
  }
  out.module_digest = ir::ModuleDigest(*module);
  out.report_digest = TextDigest(job.report_text);

  // Exact (report, module) repeat: answer from the stored verdict. (Copied
  // out: the record pointer is only stable under store_mu_.)
  if (options_.reuse_results) {
    std::unique_lock<std::mutex> lock(store_mu_);
    if (const ResultRecord* prior =
            store_.FindResult(out.report_digest, out.module_digest)) {
      out.ok = true;
      out.reproduced = prior->reproduced;
      out.fingerprint = prior->fingerprint;
      out.exec_text = prior->exec_text;
      out.source = "cache";
      // By definition: its own record has this fingerprint.
      out.duplicate_bug = prior->reproduced;
      lock.unlock();
      std::lock_guard<std::mutex> stats_lock(stats_mu_);
      ++stats_.jobs;
      ++stats_.verdict_cache_hits;
      if (out.reproduced) ++stats_.reproduced;
      return out;
    }
  }

  std::string parse_error;
  auto dump = report::ParseCoreDump(*module, job.report_text, &parse_error);
  if (!dump.has_value()) {
    out.error = job.report_path + ": " + parse_error;
    return out;
  }

  core::Synthesizer synthesizer(module.get(), options_.synthesis);
  core::SynthesisResult result = synthesizer.Synthesize(*dump);

  out.ok = true;
  out.reproduced = result.success;
  out.failure_reason = result.failure_reason;
  out.seconds = result.seconds;
  out.solver_shared_hits = result.solver.shared_hits;

  ResultRecord record;
  record.report_digest = out.report_digest;
  record.module_digest = out.module_digest;
  record.reproduced = result.success;
  if (result.success) {
    out.exec_text = replay::ExecutionFileToText(result.file);
    out.fingerprint = replay::Fingerprint(result.file);
    record.fingerprint = out.fingerprint;
    record.exec_text = out.exec_text;
  }
  {
    std::lock_guard<std::mutex> lock(store_mu_);
    // Triage (§8): an identical execution on this module is the same bug.
    out.duplicate_bug =
        result.success && store_.KnownBug(out.module_digest, out.fingerprint);
    store_.StoreResult(std::move(record));
  }

  std::lock_guard<std::mutex> stats_lock(stats_mu_);
  ++stats_.jobs;
  if (out.reproduced) ++stats_.reproduced;
  if (out.duplicate_bug) ++stats_.duplicate_bugs;
  stats_.solver_shared_hits += out.solver_shared_hits;
  return out;
}

Server::Stats Server::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

std::vector<std::string> Server::TakeLoadErrors() {
  std::vector<std::string> errors;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    errors = std::move(load_errors_);
    load_errors_.clear();
  }
  std::lock_guard<std::mutex> lock(store_mu_);
  const auto& store_errors = store_.load_errors();
  for (; store_errors_drained_ < store_errors.size(); ++store_errors_drained_) {
    errors.push_back(store_errors[store_errors_drained_]);
  }
  return errors;
}

}  // namespace esd::serve
