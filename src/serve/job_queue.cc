#include "src/serve/job_queue.h"

namespace esd::serve {

bool JobQueue::Push(Job job) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) {
      return false;
    }
    jobs_.push_back(std::move(job));
  }
  cv_.notify_one();
  return true;
}

std::optional<Job> JobQueue::Pop() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return !jobs_.empty() || closed_; });
  if (jobs_.empty()) {
    return std::nullopt;
  }
  Job job = std::move(jobs_.front());
  jobs_.pop_front();
  return job;
}

void JobQueue::Close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  cv_.notify_all();
}

}  // namespace esd::serve
