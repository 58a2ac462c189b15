#include "src/serve/server.h"

#include <cstdlib>

#include "src/ir/parser.h"
#include "src/ir/printer.h"
#include "src/ir/verifier.h"
#include "src/replay/execution_file.h"
#include "src/report/coredump.h"
#include "src/workloads/workloads.h"

namespace esd::serve {

Server::Server(ServerOptions options) : options_(std::move(options)) {
  if (!options_.cache_dir.empty()) {
    store_ = std::make_unique<CacheStore>(options_.cache_dir);
    if (!store_->ok()) {
      load_errors_.push_back(store_->error());
      store_.reset();
    }
  }
}

Server::~Server() { FlushAll(); }

Server::ModuleState& Server::GetModuleState(uint64_t module_digest) {
  {
    std::lock_guard<std::mutex> lock(modules_mu_);
    auto it = modules_.find(module_digest);
    if (it != modules_.end()) {
      return *it->second;
    }
  }
  // First job on this module: build the state and warm it from disk. Done
  // outside modules_mu_ so a slow disk load does not block jobs on other
  // modules; a racing builder for the same digest loses below and is freed.
  auto state = std::make_unique<ModuleState>(options_.solver_cache_bytes);
  if (store_ != nullptr) {
    std::lock_guard<std::mutex> lock(store_mu_);
    if (auto image = store_->LoadSolverCache(module_digest)) {
      state->solver_cache.Preload(image->entries);
    }
    if (auto corpus = store_->LoadFingerprintCorpus(module_digest)) {
      state->corpus.Preload(corpus->fingerprints);
    }
  }
  {
    std::lock_guard<std::mutex> stats_lock(stats_mu_);
    stats_.solver_entries_preloaded += state->solver_cache.stats().preloaded;
    stats_.corpus_preloaded += state->corpus.Size();
  }
  std::lock_guard<std::mutex> lock(modules_mu_);
  auto [it, inserted] = modules_.try_emplace(module_digest, std::move(state));
  return *it->second;
}

JobResult Server::Process(const Job& job) {
  JobResult out;
  out.job_id = job.id;

  // Parse + verify the module, exactly like the one-shot tools do.
  std::string source = job.module_text;
  if (source.find("extern @getchar") == std::string::npos) {
    source = std::string(workloads::ExternsPreamble()) + source;
  }
  auto module = std::make_shared<ir::Module>();
  ir::ParseResult pr = ir::ParseModule(source, module.get());
  if (!pr.ok) {
    out.error = job.module_path + ": " + pr.error;
    return out;
  }
  auto verify_errors = ir::Verify(*module);
  if (!verify_errors.empty()) {
    out.error = job.module_path + ": " + verify_errors[0];
    return out;
  }
  out.module_digest = ir::ModuleDigest(*module);
  out.report_digest = TextDigest(job.report_text);

  // Exact (report, module) duplicate: answer from the stored verdict.
  // (Copied out: the record pointer is only stable under store_mu_.)
  std::optional<ResultRecord> prior;
  if (store_ != nullptr) {
    std::lock_guard<std::mutex> lock(store_mu_);
    if (const ResultRecord* found = store_->FindResult(out.report_digest)) {
      prior = *found;
    }
    if (prior.has_value() && options_.reuse_results &&
        prior->module_digest == out.module_digest) {
      out.ok = true;
      out.reproduced = prior->reproduced;
      out.fingerprint = prior->fingerprint;
      out.source = "cache";
      if (prior->reproduced) {
        out.exec_text = std::move(prior->exec_text);
        out.duplicate_bug = true;  // By definition: we synthesized it before.
      }
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

  // Same report, different (patched) module: seed the search from the
  // execution we synthesized last time.
  std::optional<replay::ExecutionFile> seed;
  if (prior.has_value() && prior->reproduced &&
      prior->module_digest != out.module_digest) {
    std::string seed_error;
    seed = replay::ParseExecutionFile(prior->exec_text, &seed_error);
  }

  // Loaded only now, so an answer from the stored verdict never reads the
  // module's cache files.
  ModuleState& ms = GetModuleState(out.module_digest);
  core::SynthesisOptions sopts = options_.synthesis;
  sopts.shared_solver_cache = &ms.solver_cache;
  sopts.seed_schedule = seed.has_value() ? &*seed : nullptr;

  core::Synthesizer synthesizer(module.get(), sopts);
  core::SynthesisResult result = synthesizer.Synthesize(*dump);

  out.ok = true;
  out.reproduced = result.success;
  out.failure_reason = result.failure_reason;
  out.seconds = result.seconds;
  out.seed_switches = result.seed_switches;
  out.seed_best_prefix = result.seed_best_prefix;
  out.solver_shared_hits = result.solver.shared_hits;
  if (seed.has_value()) {
    out.source = "incremental";
  } else if (result.solver.shared_hits > 0) {
    out.source = "warm";
  }

  ResultRecord record;
  record.report_digest = out.report_digest;
  record.module_digest = out.module_digest;
  record.reproduced = result.success;
  if (result.success) {
    out.exec_text = replay::ExecutionFileToText(result.file);
    out.fingerprint = replay::Fingerprint(result.file);
    record.fingerprint = out.fingerprint;
    record.exec_text = out.exec_text;
    // Corpus triage: identical executions mean the same bug (§8).
    const uint64_t fp = std::strtoull(out.fingerprint.c_str(), nullptr, 16);
    out.duplicate_bug = !ms.corpus.InsertIfAbsent(fp);
  }
  if (store_ != nullptr) {
    std::lock_guard<std::mutex> lock(store_mu_);
    store_->StoreResult(std::move(record));
  }

  std::lock_guard<std::mutex> stats_lock(stats_mu_);
  ++stats_.jobs;
  if (out.reproduced) ++stats_.reproduced;
  if (out.source == "incremental") ++stats_.incremental;
  if (out.duplicate_bug) ++stats_.duplicate_bugs;
  stats_.solver_shared_hits += out.solver_shared_hits;
  return out;
}

void Server::FlushAll() {
  if (store_ == nullptr) {
    return;
  }
  std::lock_guard<std::mutex> modules_lock(modules_mu_);
  std::lock_guard<std::mutex> store_lock(store_mu_);
  for (auto& [digest, ms] : modules_) {
    SolverCacheImage solver_image;
    solver_image.module_digest = digest;
    solver_image.entries = ms->solver_cache.Snapshot();
    store_->StoreSolverCache(solver_image);

    FingerprintImage corpus_image;
    corpus_image.module_digest = digest;
    corpus_image.fingerprints = ms->corpus.Snapshot();
    store_->StoreFingerprintCorpus(corpus_image);
  }
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
  if (store_ != nullptr) {
    std::lock_guard<std::mutex> lock(store_mu_);
    const auto& store_errors = store_->load_errors();
    for (; store_errors_drained_ < store_errors.size();
         ++store_errors_drained_) {
      errors.push_back(store_errors[store_errors_drained_]);
    }
  }
  return errors;
}

}  // namespace esd::serve
