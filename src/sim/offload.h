// Host-CPU offload: a FIFO of pure CPU jobs served by a few threads while
// the simulation thread keeps running events (DESIGN.md §11).
//
// The simulation hands a job over when the work becomes known (a TPM
// quote's signature at command start, a sealed batch of quote
// signatures) and picks the result up when simulated time says it is
// needed (the command's latency has elapsed, the poll round joins).  A job
// runs exactly once: on whichever queue thread claims it first, or on the
// waiter if no thread has claimed it by the time Wait is called.  So a
// queue with zero threads runs every job inline at Wait — the
// single-thread oracle, executing the same submit/wait code — and the
// thread count never changes a result, only when and where it is computed.
//
// Jobs never touch simulation, obs or caller state: a job owns its inputs
// and its result, and the queue holds a reference to every job it has not
// yet run.  A caller that drops its reference without waiting (its
// coroutine frame was destroyed with the simulation, its machine was torn
// down) leaves the job self-contained; a thread may still run it, but
// only over memory the job owns.
//
// Happens-before: the submitter writes the job's inputs before Submit,
// which publishes the job under the queue mutex; a thread takes it under
// the same mutex.  Whoever claims a job (one compare-and-swap on its
// state, so exactly one claimer) is the only writer of its result; a
// thread publishes the result with a release store of kDone that Wait's
// acquire load pairs with, and a waiter that claimed the job ran it
// itself.

#ifndef SRC_SIM_OFFLOAD_H_
#define SRC_SIM_OFFLOAD_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace bolted::sim {

class OffloadQueue {
 public:
  // One unit of host CPU work.  Derive, own every input and output, and
  // implement Run().
  class Job {
   public:
    virtual ~Job() = default;

   protected:
    virtual void Run() = 0;

   private:
    friend class OffloadQueue;
    enum : uint32_t { kQueued, kClaimed, kDone };
    std::atomic<uint32_t> state_{kQueued};
  };

  // Threads start on the first Submit, so a queue nobody submits to costs
  // nothing; 0 threads runs every job at Wait, on the caller.
  explicit OffloadQueue(uint32_t threads);
  // Joins the threads after their current job; jobs still queued are
  // dropped unrun.  Nobody may be waiting on this queue any more.
  ~OffloadQueue();
  OffloadQueue(const OffloadQueue&) = delete;
  OffloadQueue& operator=(const OffloadQueue&) = delete;

  // The process-wide queue: one thread per hardware thread but the one
  // the simulation runs on.  Every Simulation uses it unless another
  // queue is attached (Simulation::set_offload).
  static OffloadQueue& Shared();

  uint32_t threads() const { return threads_; }
  bool started() const { return started_.load(std::memory_order_acquire); }

  // Hands `job` to the threads.  A job is submitted at most once.
  void Submit(std::shared_ptr<Job> job);
  // Returns once `job` has run: at once if a thread already finished it,
  // after running it on the caller if no thread has claimed it yet,
  // otherwise after blocking until the claiming thread is done.  Returns
  // true iff the caller ran it.  Any job may be waited on, submitted or
  // not; waiting twice returns at once.
  bool Wait(Job& job);

  // Host-timing telemetry (depends on thread scheduling, so it stays out
  // of the deterministic obs registry): jobs submitted, jobs a queue
  // thread ran, jobs a waiter ran itself.
  uint64_t submitted() const { return submitted_.load(std::memory_order_relaxed); }
  uint64_t thread_runs() const { return thread_runs_.load(std::memory_order_relaxed); }
  uint64_t waiter_runs() const { return waiter_runs_.load(std::memory_order_relaxed); }

 private:
  void ThreadMain();

  const uint32_t threads_;
  std::atomic<bool> started_{false};
  std::mutex mu_;
  std::condition_variable ready_;
  std::deque<std::shared_ptr<Job>> jobs_;  // guarded by mu_
  bool stop_ = false;                      // guarded by mu_
  std::vector<std::thread> workers_;       // started under mu_
  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> thread_runs_{0};
  std::atomic<uint64_t> waiter_runs_{0};
};

}  // namespace bolted::sim

#endif  // SRC_SIM_OFFLOAD_H_
