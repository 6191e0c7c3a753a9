// Coroutine support for simulation processes.
//
// A Task is a lazily-started coroutine representing one simulated activity
// (a boot sequence, a protocol exchange, a workload phase).  Tasks compose
// in two ways:
//
//   co_await ChildFlow(...);          // run a sub-flow to completion
//   sim.Spawn(ConcurrentFlow(...));   // run detached, owned by the kernel
//
// Awaitables provided here:
//   Delay(sim, d)    -- suspend for d of simulated time
//   Event            -- one-shot broadcast signal
//   Channel<T>       -- unbounded FIFO message queue
//   Semaphore        -- counting semaphore with FIFO waiters
//   TaskGroup        -- spawn-many / wait-all
//
// Everything is single-threaded: suspension and resumption always happen
// on the simulator's event loop, so no synchronisation is required.
//
// TOOLCHAIN CAUTION (GCC 12, verified with a 25-line reproducer): inside
// a coroutine, do not materialise a *non-trivial aggregate* temporary
// (e.g. a plain struct holding a std::string) within a co_await
// full-expression — `co_await Foo(Message{.kind = "x"})` is miscompiled.
// When GCC promotes such full-expression temporaries into the coroutine
// frame it copies them bitwise, so SSO string internals alias the stack
// slot and later moves "steal" a dangling buffer pointer (observed as
// interior-pointer double frees under ASan).  Types with user-declared
// constructors are promoted correctly.  Use a named local and std::move
// it instead; by-value aggregate coroutine *parameters* are affected the
// same way, so route them through std::shared_ptr boxes (see
// net::Endpoint::Send / net::RpcNode::Call).

#ifndef SRC_SIM_TASK_H_
#define SRC_SIM_TASK_H_

#include <coroutine>
#include <cstdint>
#include <exception>
#include <optional>
#include <utility>

#include "src/sim/frame_pool.h"
#include "src/sim/ring_queue.h"
#include "src/sim/simulation.h"
#include "src/sim/small_vec.h"
#include "src/sim/time.h"

namespace bolted::sim {

class [[nodiscard]] Task {
 public:
  struct promise_type;
  using Handle = std::coroutine_handle<promise_type>;

  struct promise_type {
    // Coroutine frames come from the thread-local size-class pool: in the
    // steady state, spawning a flow costs a freelist pop instead of a
    // trip through the allocator (the sized delete gives the pool the
    // class back for free).
    static void* operator new(size_t size) {
      return detail::FramePool::Allocate(size);
    }
    static void operator delete(void* chunk, size_t size) {
      detail::FramePool::Deallocate(chunk, size);
    }

    Task get_return_object() { return Task(Handle::from_promise(*this)); }
    std::suspend_always initial_suspend() noexcept { return {}; }

    struct FinalAwaiter {
      bool await_ready() noexcept { return false; }
      std::coroutine_handle<> await_suspend(Handle h) noexcept {
        promise_type& p = h.promise();
        p.done = true;
        if (p.continuation) {
          return p.continuation;
        }
        return std::noop_coroutine();
      }
      void await_resume() noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }

    void return_void() {}
    void unhandled_exception() { exception = std::current_exception(); }

    std::coroutine_handle<> continuation;
    std::exception_ptr exception;
    bool done = false;
    bool started = false;
  };

  Task() = default;
  explicit Task(Handle h) : handle_(h) {}
  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, nullptr)) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      Destroy();
      handle_ = std::exchange(other.handle_, nullptr);
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { Destroy(); }

  bool valid() const { return handle_ != nullptr; }
  bool done() const { return !handle_ || handle_.promise().done; }

  // Starts a detached task; used by Simulation::Spawn.
  void Start() {
    if (handle_ && !handle_.promise().started) {
      handle_.promise().started = true;
      handle_.resume();
    }
  }

  // Rethrows the task's failure, if any.  Call only on done() tasks.
  void RethrowIfFailed() const {
    if (handle_ && handle_.promise().exception) {
      std::rethrow_exception(handle_.promise().exception);
    }
  }

  struct Awaiter {
    Handle h;
    bool await_ready() const { return !h || h.promise().done; }
    std::coroutine_handle<> await_suspend(std::coroutine_handle<> cont) {
      promise_type& p = h.promise();
      p.continuation = cont;
      if (!p.started) {
        p.started = true;
        return h;  // symmetric transfer into the child
      }
      return std::noop_coroutine();
    }
    void await_resume() const {
      if (h && h.promise().exception) {
        std::rethrow_exception(h.promise().exception);
      }
    }
  };
  Awaiter operator co_await() const& { return Awaiter{handle_}; }
  Awaiter operator co_await() const&& { return Awaiter{handle_}; }

 private:
  void Destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = nullptr;
    }
  }
  Handle handle_;
};

// Suspends the awaiting coroutine for d of simulated time.  A zero delay
// still yields through the event queue (useful for fairness).
struct DelayAwaiter {
  Simulation& sim;
  Duration d;
  bool await_ready() const { return false; }
  void await_suspend(std::coroutine_handle<> h) {
    sim.Schedule(d, [h]() { h.resume(); });
  }
  void await_resume() const {}
};

inline DelayAwaiter Delay(Simulation& sim, Duration d) { return DelayAwaiter{sim, d}; }
inline DelayAwaiter Yield(Simulation& sim) { return DelayAwaiter{sim, Duration::Zero()}; }

// One-shot broadcast event.  Waiters suspended before Set() are resumed
// (via the event queue) when it fires; waiters after Set() do not suspend.
class Event {
 public:
  explicit Event(Simulation& sim) : sim_(sim) {}
  Event(const Event&) = delete;
  Event& operator=(const Event&) = delete;

  void Set() {
    if (set_) {
      return;
    }
    set_ = true;
    for (std::coroutine_handle<> h : waiters_) {
      sim_.Schedule(Duration::Zero(), [h]() { h.resume(); });
    }
    waiters_.clear();
  }

  void Reset() { set_ = false; }
  bool is_set() const { return set_; }

  struct Awaiter {
    Event& event;
    bool await_ready() const { return event.set_; }
    void await_suspend(std::coroutine_handle<> h) { event.waiters_.push_back(h); }
    void await_resume() const {}
  };
  Awaiter Wait() { return Awaiter{*this}; }
  Awaiter operator co_await() { return Awaiter{*this}; }

 private:
  Simulation& sim_;
  bool set_ = false;
  // Most events have zero or one waiter (RPC completions, Consume
  // grants); inline storage keeps frame-local Events allocation-free.
  SmallVec<std::coroutine_handle<>, 2> waiters_;
};

// Unbounded FIFO channel.  Send never blocks; Recv suspends until a value
// is available.  Values are handed directly to the oldest waiter.  Both
// queues are rings (see ring_queue.h): once an inbox has seen its
// high-water mark, steady-state traffic allocates nothing.
template <typename T>
class Channel {
 public:
  explicit Channel(Simulation& sim) : sim_(sim) {}
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  void Send(T value) {
    if (!waiters_.empty()) {
      RecvAwaiter* waiter = waiters_.front();
      waiters_.pop_front();
      waiter->slot = std::move(value);
      std::coroutine_handle<> h = waiter->handle;
      sim_.Schedule(Duration::Zero(), [h]() { h.resume(); });
      return;
    }
    items_.push_back(std::move(value));
  }

  // Enqueues without waking a waiter; pair with PumpWaiters().  The
  // network's burst delivery uses this two-phase form so that every frame
  // of a sim-time instant lands in its inbox before any receiver runs —
  // the same delivery-then-wake order the event-per-frame path produces.
  void Enqueue(T value) { items_.push_back(std::move(value)); }

  // Hands queued items to queued waiters in FIFO order, resuming each
  // waiter inline (no scheduler round-trip).  The channel is consistent
  // before every resume, so a resumed receiver may Recv, Send, or Enqueue
  // reentrantly; the loop re-checks both queues each iteration.
  void PumpWaiters() {
    while (!waiters_.empty() && !items_.empty()) {
      RecvAwaiter* waiter = waiters_.front();
      waiters_.pop_front();
      waiter->slot = std::move(items_.front());
      items_.pop_front();
      waiter->handle.resume();
    }
  }

  size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }

  struct RecvAwaiter {
    Channel& channel;
    std::optional<T> slot;
    std::coroutine_handle<> handle;

    bool await_ready() {
      if (!channel.items_.empty() && channel.waiters_.empty()) {
        slot = std::move(channel.items_.front());
        channel.items_.pop_front();
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) {
      handle = h;
      channel.waiters_.push_back(this);
    }
    T await_resume() { return std::move(*slot); }
  };
  RecvAwaiter Recv() { return RecvAwaiter{*this, std::nullopt, nullptr}; }

 private:
  friend struct RecvAwaiter;
  Simulation& sim_;
  RingQueue<T> items_;
  RingQueue<RecvAwaiter*> waiters_;
};

// Counting semaphore with strictly FIFO waiters.  Used, e.g., to model the
// prototype's single-airlock limitation (attestation serialisation, Fig 5).
class Semaphore {
 public:
  Semaphore(Simulation& sim, int64_t initial) : sim_(sim), count_(initial) {}
  Semaphore(const Semaphore&) = delete;
  Semaphore& operator=(const Semaphore&) = delete;

  struct Awaiter {
    Semaphore& sem;
    bool await_ready() {
      if (sem.count_ > 0) {
        --sem.count_;
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) { sem.waiters_.push_back(h); }
    void await_resume() const {}
  };
  Awaiter Acquire() { return Awaiter{*this}; }

  void Release() {
    if (count_ < 0) {
      // A shrink is outstanding: this permit retires the debt instead of
      // waking a waiter — the pool really is smaller now.
      ++count_;
      return;
    }
    if (!waiters_.empty()) {
      std::coroutine_handle<> h = waiters_.front();
      waiters_.pop_front();
      // Ownership of the permit transfers directly to the waiter.
      sim_.Schedule(Duration::Zero(), [h]() { h.resume(); });
      return;
    }
    ++count_;
  }

  // Elastic resizing (e.g. the provider adding/removing airlock capacity
  // under load).  Growing by n releases up to n waiters immediately;
  // shrinking is lazy: count_ goes negative and in-flight holders' future
  // Release() calls retire the debt, so no holder is ever revoked.
  void AddPermits(int64_t n) {
    for (; n > 0; --n) {
      Release();
    }
    count_ += n;  // n <= 0 here; negative count_ is outstanding debt
  }

  int64_t count() const { return count_; }

 private:
  Simulation& sim_;
  int64_t count_;
  RingQueue<std::coroutine_handle<>> waiters_;
};

// RAII permit for Semaphore.
class SemaphoreGuard {
 public:
  explicit SemaphoreGuard(Semaphore& sem) : sem_(&sem) {}
  SemaphoreGuard(SemaphoreGuard&& other) noexcept : sem_(std::exchange(other.sem_, nullptr)) {}
  SemaphoreGuard(const SemaphoreGuard&) = delete;
  SemaphoreGuard& operator=(const SemaphoreGuard&) = delete;
  SemaphoreGuard& operator=(SemaphoreGuard&&) = delete;
  ~SemaphoreGuard() {
    if (sem_ != nullptr) {
      sem_->Release();
    }
  }

 private:
  Semaphore* sem_;
};

// Spawns several tasks and waits for all of them to finish.
class TaskGroup {
 public:
  explicit TaskGroup(Simulation& sim) : sim_(sim), done_(sim) {}

  void Spawn(Task task) {
    ++outstanding_;
    sim_.Spawn(Wrap(std::move(task)));
  }

  // Awaitable that completes when every spawned task has finished.  Safe
  // to call once after all Spawn() calls.
  Task WaitAll() {
    if (outstanding_ == 0) {
      done_.Set();
    } else {
      // Spawning may be spread over time (a churn phase between its
      // delays); an earlier moment with nothing outstanding must not count.
      done_.Reset();
    }
    return WaitFlow();
  }

 private:
  Task Wrap(Task inner) {
    co_await inner;
    if (--outstanding_ == 0) {
      done_.Set();
    }
  }
  Task WaitFlow() { co_await done_; }

  Simulation& sim_;
  Event done_;
  int64_t outstanding_ = 0;
};

}  // namespace bolted::sim

#endif  // SRC_SIM_TASK_H_
