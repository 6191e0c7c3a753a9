// Rack-sharded parallel simulation with conservative time synchronization
// (DESIGN.md §12).
//
// The fabric is partitioned into racks; each rack owns a full Simulation
// (its own 8×64 timing wheel, seq counter, Rng stream, and trace digest),
// so the unit of determinism is the rack, not the thread.  Racks are
// grouped into shards — the transport topology — and shards are executed
// by a pool of pinned worker threads.  Because every rack's event stream
// is a pure function of (seed, scenario, routed cross-rack frames), the
// per-rack trace digests are byte-identical for every shard count and
// every worker count: the shards=1, workers=1 configuration is the
// single-threaded oracle the chaos sweep replays against.
//
// Time synchronization is conservative (null-message/LBTS style, run as
// synchronous windows): the inter-rack link latency is the lookahead L.
// Each window, every rack may execute events strictly before
//
//   window_end = (min over all racks of next-event-time) + L,
//
// because any cross-rack frame generated inside the window is sent at
// some t >= min_next with delay >= L, hence delivered at >= window_end —
// it cannot affect the window being executed.  After the run phase the
// router gathers every shard-pair outbox, sorts each destination rack's
// inbound frames into the canonical (deliver_ns, src_rack, src_seq)
// order, and schedules them; destination-side seq assignment is therefore
// identical no matter which shard or worker produced the frames.
//
// The calling thread coordinates: it computes every window, and when at
// most one shard has an event due before the window end — the common case
// under sparse control-plane traffic — it runs and routes that window
// itself, with no barrier and no worker wake-up.  Only windows with two or
// more due shards go to the pool (run, one barrier, route).  The window
// sequence is the same either way, and so is every rack's event stream.
//
// Cross-shard transport is one plain vector outbox per (source shard,
// destination shard): Rack::Send appends to its shard's outbox for the
// destination, and the destination's route phase gathers every outbox
// addressed to it.  No frame is read before the window that sent it has
// finished running, so the outboxes need no synchronization of their own.
//
// Thread discipline: within a parallel window a rack — and the outboxes of
// its shard — is only written by the worker that owns the shard, and the
// run/route phases are separated by a barrier, after which each outbox is
// read only by the worker routing its destination; inline windows run
// entirely on the calling thread, and the pool's dispatch and join order
// them against the parallel ones — so neither rack Simulations nor
// outboxes need locks.  The frame handler runs on whichever thread
// executes the destination rack's window and must confine itself to the
// rack passed to it.

#ifndef SRC_SIM_SHARD_H_
#define SRC_SIM_SHARD_H_

#include <atomic>
#include <barrier>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "src/sim/simulation.h"
#include "src/sim/time.h"

namespace bolted::sim {

class ShardedFleet;

// One cross-rack frame.  POD by design: frames are handed between threads
// through the outboxes, so they carry plain words, not closures — the
// destination rack's frame handler interprets kind/payload.  `bytes` is
// the modeled wire size (accounting only; the latency is the send delay).
struct CrossShardFrame {
  int64_t deliver_ns = 0;  // absolute delivery instant (simulated ns)
  uint64_t payload0 = 0;
  uint64_t payload1 = 0;
  uint32_t src_rack = 0;
  uint32_t dst_rack = 0;
  uint32_t kind = 0;   // application-defined discriminator
  uint32_t bytes = 0;  // modeled wire bytes
  // Per-source-rack send counter; the third key of the canonical inbound
  // sort, so two frames from one rack can never tie.
  uint64_t src_seq = 0;
};

// Persistent team of worker threads.  Thread 0 is the calling thread, so
// WorkerPool(1) is a plain inline call with no thread machinery — the
// single-threaded oracle path.  Reused across calls (the sharded fleet
// dispatches one RunOnAll per parallel window), so worker threads keep
// their core pinning and warm caches.
class WorkerPool {
 public:
  // Spawns threads-1 workers; with pin=true each thread (including the
  // caller, as thread 0) is pinned to core t % hardware_concurrency —
  // best effort, skipped on single-core hosts and non-Linux platforms.
  explicit WorkerPool(uint32_t threads, bool pin = false);
  ~WorkerPool();
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  uint32_t threads() const { return threads_; }

  // Invokes job(t) for every t in [0, threads) concurrently — t = 0 runs
  // on the calling thread — and returns when all invocations finished,
  // with every worker's writes published to the caller.
  void RunOnAll(const std::function<void(uint32_t)>& job);

 private:
  void WorkerMain(uint32_t index);
  static void PinTo(uint32_t index);

  uint32_t threads_;
  bool pin_;
  // Dispatch: RunOnAll sets job_ and running_, then bumps epoch_ (release)
  // to wake the workers; each worker decrements running_ when done, and
  // the last one wakes the caller waiting to return.  Both waits are
  // std::atomic::wait.
  const std::function<void(uint32_t)>* job_ = nullptr;
  bool stop_ = false;
  std::atomic<uint32_t> epoch_{0};
  std::atomic<uint32_t> running_{0};
  std::vector<std::thread> workers_;
};

struct ShardOptions {
  uint32_t racks = 1;
  // Rack partitions (the outbox topology).  Rack r belongs to the
  // shard owning the contiguous stripe containing r.  Clamped to racks.
  uint32_t shards = 1;
  // Worker threads executing shards (shard s runs on worker s % workers).
  // 0 means one worker per shard.  Clamped to shards.
  uint32_t workers = 0;
  // Conservative lookahead: the minimum cross-rack delivery delay.  Every
  // Rack::Send delay must be >= lookahead (checked fatally).
  Duration lookahead = Duration::Microseconds(50);
  uint64_t seed = 0x626f6c746564u;
  bool pin_workers = false;
  SchedulerKind scheduler = SchedulerKind::kDefault;
};

// One rack: a full Simulation plus its cross-rack egress.  Application
// code receives Rack& (from rack() or the frame handler) and drives the
// rack's sim exactly like a standalone one.
class Rack {
 public:
  Simulation& sim() { return *sim_; }
  const Simulation& sim() const { return *sim_; }
  uint32_t index() const { return index_; }
  uint32_t shard() const { return shard_; }

  // Sends a cross-rack frame delivered `delay` from now.  delay must be
  // >= the fleet lookahead — that bound is exactly what lets this rack's
  // window run ahead of the destination's clock — so a shorter delay is
  // a conservative-sync violation and aborts.  kind/bytes/payload are
  // application-owned; src/seq/deliver_ns are stamped here.
  void Send(uint32_t dst_rack, Duration delay, uint32_t kind, uint32_t bytes,
            uint64_t payload0 = 0, uint64_t payload1 = 0);

  uint64_t frames_sent() const { return send_seq_; }

 private:
  friend class ShardedFleet;
  std::unique_ptr<Simulation> sim_;
  ShardedFleet* fleet_ = nullptr;
  uint32_t index_ = 0;
  uint32_t shard_ = 0;
  uint64_t send_seq_ = 0;
};

class ShardedFleet {
 public:
  // Invoked when a frame's delivery instant fires in the destination
  // rack's event stream, on the thread running that rack's window.  Must
  // be safe to call concurrently for *different* racks (capture immutable
  // config; mutate only through the Rack argument and per-rack state).
  using FrameHandler = std::function<void(Rack&, const CrossShardFrame&)>;

  explicit ShardedFleet(const ShardOptions& options);
  ~ShardedFleet();
  ShardedFleet(const ShardedFleet&) = delete;
  ShardedFleet& operator=(const ShardedFleet&) = delete;

  uint32_t num_racks() const { return static_cast<uint32_t>(racks_.size()); }
  uint32_t num_shards() const { return num_shards_; }
  uint32_t num_workers() const { return num_workers_; }
  Duration lookahead() const { return lookahead_; }
  Rack& rack(uint32_t index) { return *racks_[index]; }
  const Rack& rack(uint32_t index) const { return *racks_[index]; }

  void set_frame_handler(FrameHandler handler) { handler_ = std::move(handler); }

  // Runs until every rack's queue drains and no frame is in flight.
  void Run();
  // Runs every event with when <= horizon, then advances each rack's
  // clock to the horizon (mirroring Simulation::RunUntil).
  void RunUntil(Time horizon);

  // --- Aggregate statistics (valid between runs) ---------------------------
  uint64_t events_processed() const;
  uint64_t frames_routed() const { return frames_routed_; }
  // Always 0: outboxes grow instead of spilling.  Kept for the readers of
  // the former ring-overflow counter.
  uint64_t ring_spills() const { return 0; }
  // Conservative windows executed.
  uint64_t windows() const { return windows_; }
  // Windows in which at most one shard had an event due, run on the
  // calling thread without waking the pool; the other windows() -
  // inline_windows() were dispatched to the workers.
  uint64_t inline_windows() const { return windows_inline_; }

  // Per-rack trace digest — THE determinism invariant: byte-identical for
  // every (shards, workers) configuration of the same seeded scenario.
  uint64_t rack_digest(uint32_t rack) const {
    return racks_[rack]->sim().trace_digest();
  }
  // Order-sensitive fold of every rack digest (rack 0 first).
  uint64_t fleet_digest() const;

 private:
  friend class Rack;

  struct ShardState {
    std::vector<uint32_t> racks;  // rack indices owned by this shard
    // Inbound frames gathered from the outboxes and sorted canonically.
    std::vector<CrossShardFrame> route_buf;
    // Earliest pending event over this shard's racks (ns; INT64_MAX when
    // idle), refreshed whenever the shard ran or received frames.
    int64_t min_next = 0;
    // min_next < the current window end: the shard has work this window.
    bool due = false;
    uint64_t routed = 0;
  };

  std::vector<CrossShardFrame>& outbox(uint32_t src, uint32_t dst) {
    return outboxes_[src * num_shards_ + dst];
  }

  void RefreshMinNext(uint32_t s);
  // Fires every event of shard s's racks before the window end.
  void RunShard(uint32_t s);
  // Gathers every outbox addressed to shard d, sorts the frames
  // canonically and schedules them into their destination racks, then
  // refreshes min_next if the shard ran or received anything.
  void RoutePhase(uint32_t d, bool ran);
  // Reduces the shard minima into the next window; false when done.
  bool ComputeWindow(int64_t limit_ns);
  void InlineWindow(uint32_t s);
  // One worker's share of a parallel window: run, barrier, route.
  void ParallelWindow(uint32_t worker);
  void RunWindows(int64_t limit_ns);

  Duration lookahead_;
  uint32_t num_shards_ = 1;
  uint32_t num_workers_ = 1;
  FrameHandler handler_;
  std::vector<std::unique_ptr<Rack>> racks_;
  std::vector<ShardState> shards_;
  std::vector<std::vector<CrossShardFrame>> outboxes_;  // [src * S + dst]
  std::unique_ptr<WorkerPool> pool_;
  // Run -> route handoff inside a parallel window (null with one worker).
  std::unique_ptr<std::barrier<>> run_barrier_;
  std::function<void(uint32_t)> parallel_window_;

  // Window state: written only by the calling thread between windows and
  // published to the workers by the pool dispatch (DESIGN.md §12).
  int64_t window_end_ns_ = 0;
  uint64_t windows_ = 0;
  uint64_t windows_inline_ = 0;
  uint64_t frames_routed_ = 0;
};

}  // namespace bolted::sim

#endif  // SRC_SIM_SHARD_H_
