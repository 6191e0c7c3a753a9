#include "src/sim/offload.h"

#include <algorithm>

namespace bolted::sim {

OffloadQueue::OffloadQueue(uint32_t threads) : threads_(threads) {}

OffloadQueue::~OffloadQueue() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  ready_.notify_all();
  for (std::thread& t : workers_) {
    t.join();
  }
}

OffloadQueue& OffloadQueue::Shared() {
  static OffloadQueue queue(std::max(1u, std::thread::hardware_concurrency()) - 1);
  return queue;
}

void OffloadQueue::Submit(std::shared_ptr<Job> job) {
  submitted_.fetch_add(1, std::memory_order_relaxed);
  if (threads_ == 0) {
    return;  // nobody to hand it to: the job runs at its Wait
  }
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (workers_.empty()) {
      workers_.reserve(threads_);
      for (uint32_t t = 0; t < threads_; ++t) {
        workers_.emplace_back(&OffloadQueue::ThreadMain, this);
      }
      started_.store(true, std::memory_order_release);
    }
    jobs_.push_back(std::move(job));
  }
  ready_.notify_one();
}

bool OffloadQueue::Wait(Job& job) {
  uint32_t state = Job::kQueued;
  if (job.state_.compare_exchange_strong(state, Job::kClaimed,
                                         std::memory_order_acquire)) {
    job.Run();
    waiter_runs_.fetch_add(1, std::memory_order_relaxed);
    job.state_.store(Job::kDone, std::memory_order_relaxed);
    return true;
  }
  while (state != Job::kDone) {
    job.state_.wait(state, std::memory_order_acquire);
    state = job.state_.load(std::memory_order_acquire);
  }
  return false;
}

void OffloadQueue::ThreadMain() {
  for (;;) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      ready_.wait(lock, [this] { return stop_ || !jobs_.empty(); });
      if (stop_) {
        return;
      }
      job = std::move(jobs_.front());
      jobs_.pop_front();
    }
    uint32_t state = Job::kQueued;
    if (!job->state_.compare_exchange_strong(state, Job::kClaimed,
                                             std::memory_order_acquire)) {
      continue;  // a waiter ran it already
    }
    job->Run();
    thread_runs_.fetch_add(1, std::memory_order_relaxed);
    job->state_.store(Job::kDone, std::memory_order_release);
    job->state_.notify_all();
  }
}

}  // namespace bolted::sim
