// ESD serve: the job queue feeding the daemon's synthesis workers.
//
// One FIFO under one mutex: every worker takes the oldest job. No job
// prefers a worker, because nothing a worker keeps between jobs makes a
// search faster: each search builds its own distance tables and solver
// caches, and the per-module fingerprint corpus is shared by all workers.
#ifndef ESD_SRC_SERVE_JOB_QUEUE_H_
#define ESD_SRC_SERVE_JOB_QUEUE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <string>

namespace esd::serve {

// One synthesis request: a module, a bug report, and where the verdict goes.
struct Job {
  uint64_t id = 0;
  std::string module_text;
  std::string report_text;
  std::string module_path;  // Diagnostics only.
  std::string report_path;
  std::string out_path;  // Execution-file destination ("" = don't write).
};

class JobQueue {
 public:
  // Enqueues at the back. Returns false after Close().
  bool Push(Job job);

  // Blocks until a job is available or the queue is closed and drained.
  // nullopt = shut down, no work left.
  std::optional<Job> Pop();

  // No more pushes; Pop returns nullopt once the queue drains.
  void Close();

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Job> jobs_;
  bool closed_ = false;
};

}  // namespace esd::serve

#endif  // ESD_SRC_SERVE_JOB_QUEUE_H_
