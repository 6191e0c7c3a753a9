// Cross-scheduler equivalence and stress tests for the event queue.
//
// WheelScheduler must be observationally identical to ReferenceScheduler
// (the pre-wheel binary heap, kept as the oracle): same (when, seq) fire
// stream, same trace digest, same pending() count after every step.  The
// suites here drive both through identical operation sequences — fixed
// scripts for the edge cases (same-instant batches, far-future spill,
// cancel storms) and a seeded randomized driver that schedules and
// cancels from inside running events, the way live protocol code does.

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "src/sim/random.h"
#include "src/sim/simulation.h"
#include "src/sim/task.h"

namespace bolted::sim {
namespace {

constexpr int64_t kWheelHorizonNs = int64_t{1} << 48;  // one wheel epoch

struct Fired {
  int64_t when_ns;
  uint64_t tag;

  bool operator==(const Fired&) const = default;
};

// Everything observable about one run: the fired (when, tag) stream with
// the pending() count sampled at each fire, plus the kernel's own digest
// and totals.
struct RunLog {
  std::vector<Fired> fired;
  std::vector<size_t> pending_at_fire;
  uint64_t trace_digest = 0;
  uint64_t events = 0;
  size_t pending_at_end = 0;
};

// Runs `script(sim, log)` (which spawns/schedules everything) to
// completion on the given scheduler and captures the log.
template <typename Script>
RunLog Capture(SchedulerKind kind, uint64_t seed, Script script) {
  Simulation sim(kind, seed);
  RunLog log;
  script(sim, log);
  sim.Run();
  log.trace_digest = sim.trace_digest();
  log.events = sim.events_processed();
  log.pending_at_end = sim.pending_events();
  return log;
}

template <typename Script>
void ExpectEquivalent(uint64_t seed, Script script) {
  const RunLog wheel = Capture(SchedulerKind::kWheel, seed, script);
  const RunLog heap = Capture(SchedulerKind::kReference, seed, script);
  ASSERT_EQ(wheel.fired.size(), heap.fired.size());
  for (size_t i = 0; i < wheel.fired.size(); ++i) {
    ASSERT_EQ(wheel.fired[i], heap.fired[i]) << "divergence at fire #" << i;
    ASSERT_EQ(wheel.pending_at_fire[i], heap.pending_at_fire[i])
        << "pending() divergence at fire #" << i;
  }
  EXPECT_EQ(wheel.trace_digest, heap.trace_digest);
  EXPECT_EQ(wheel.events, heap.events);
  EXPECT_EQ(wheel.pending_at_end, heap.pending_at_end);
}

// Schedules a tagged probe: records (now, tag) and the live count when it
// fires.
EventId Probe(Simulation& sim, RunLog& log, Duration delay, uint64_t tag) {
  return sim.Schedule(delay, [&sim, &log, tag]() {
    log.fired.push_back(Fired{sim.now().nanoseconds(), tag});
    log.pending_at_fire.push_back(sim.pending_events());
  });
}

TEST(SchedulerEquivalence, SameInstantBatchesFireInInsertionOrder) {
  ExpectEquivalent(1, [](Simulation& sim, RunLog& log) {
    // Three co-scheduled instants, interleaved insertion.
    for (uint64_t round = 0; round < 3; ++round) {
      for (uint64_t i = 0; i < 32; ++i) {
        Probe(sim, log, Duration::Nanoseconds(static_cast<int64_t>(100 * round)),
              round * 100 + i);
      }
    }
    // Zero-delay events land in the batch currently draining.
    Probe(sim, log, Duration::Zero(), 999);
  });
}

TEST(SchedulerEquivalence, FarFutureEventsCascadeThroughEveryLevel) {
  ExpectEquivalent(2, [](Simulation& sim, RunLog& log) {
    // One event per wheel level boundary, plus several past the 2^48 ns
    // horizon (the spill heap), plus multi-epoch stragglers.
    for (int level = 0; level < 8; ++level) {
      const int64_t span = int64_t{1} << (6 * level);
      Probe(sim, log, Duration::Nanoseconds(span - 1), 1000 + static_cast<uint64_t>(level));
      Probe(sim, log, Duration::Nanoseconds(span), 2000 + static_cast<uint64_t>(level));
      Probe(sim, log, Duration::Nanoseconds(span + 1), 3000 + static_cast<uint64_t>(level));
    }
    Probe(sim, log, Duration::Nanoseconds(kWheelHorizonNs - 1), 4000);
    Probe(sim, log, Duration::Nanoseconds(kWheelHorizonNs), 4001);
    Probe(sim, log, Duration::Nanoseconds(kWheelHorizonNs + 1), 4002);
    Probe(sim, log, Duration::Nanoseconds(3 * kWheelHorizonNs + 12345), 4003);
    Probe(sim, log, Duration::Nanoseconds(7 * kWheelHorizonNs), 4004);
  });
}

TEST(SchedulerEquivalence, RetryTimerChurn) {
  // The RPC pattern the wheel exists for: arm a timeout, cancel it when
  // the short operation completes, re-arm.  Timeouts virtually never
  // fire; both schedulers must agree anyway (including on the final
  // timeout generation, which does fire).
  struct Retrier {
    Simulation* sim = nullptr;
    RunLog* log = nullptr;
    EventId timeout = 0;
    int remaining = 500;

    void Arm() {
      timeout = Probe(*sim, *log, Duration::Seconds(30), 7000);
      sim->Schedule(Duration::Microseconds(3), [this]() {
        sim->Cancel(timeout);
        if (--remaining > 0) {
          Arm();
        } else {
          Probe(*sim, *log, Duration::Seconds(30), 7001);  // last one fires
        }
      });
    }
  };
  // Static so the object outlives each Capture's sim.Run(); reset per run.
  static Retrier retrier;
  ExpectEquivalent(3, [](Simulation& sim, RunLog& log) {
    retrier = Retrier{&sim, &log};
    retrier.Arm();
  });
}

TEST(SchedulerEquivalence, CancelStormLeavesNoResidue) {
  ExpectEquivalent(4, [](Simulation& sim, RunLog& log) {
    std::vector<EventId> ids;
    for (uint64_t i = 0; i < 256; ++i) {
      ids.push_back(Probe(sim, log, Duration::Nanoseconds(static_cast<int64_t>(10 * i)),
                          i));
    }
    // Cancel every third event, then double-cancel and cancel id 0 (both
    // no-ops by contract).
    for (size_t i = 0; i < ids.size(); i += 3) {
      sim.Cancel(ids[i]);
      sim.Cancel(ids[i]);
    }
    sim.Cancel(0);
    log.fired.push_back(Fired{-1, sim.pending_events()});
    log.pending_at_fire.push_back(sim.pending_events());
  });
}

// The randomized driver: every fired event re-schedules and cancels using
// the simulation's own seeded Rng.  Because both runs replay the same
// fire stream (asserted), the Rng draws stay aligned — any divergence
// cascades and is caught at the first differing fire.
class FuzzDriver {
 public:
  FuzzDriver(Simulation& sim, RunLog& log, uint64_t operations)
      : sim_(sim), log_(log), remaining_(operations) {}

  void Start() {
    for (int i = 0; i < 16; ++i) {
      SpawnOne();
    }
  }

 private:
  Duration RandomDelay() {
    switch (sim_.rng().NextBelow(10)) {
      case 0:
        return Duration::Zero();  // joins the draining batch
      case 1:
      case 2:
      case 3:
        return Duration::Nanoseconds(
            static_cast<int64_t>(sim_.rng().NextBelow(64)));  // level 0
      case 4:
      case 5:
      case 6:
        return Duration::Nanoseconds(
            static_cast<int64_t>(sim_.rng().NextBelow(1u << 20)));  // mid levels
      case 7:
      case 8:
        return Duration::Nanoseconds(
            static_cast<int64_t>(sim_.rng().NextBelow(uint64_t{1} << 40)));
      default:
        // Past the wheel horizon: spill heap, multiple epochs out.
        return Duration::Nanoseconds(
            kWheelHorizonNs +
            static_cast<int64_t>(sim_.rng().NextBelow(uint64_t{3} << 48)));
    }
  }

  void SpawnOne() {
    if (remaining_ == 0) {
      return;
    }
    --remaining_;
    const uint64_t tag = next_tag_++;
    const EventId id = sim_.Schedule(RandomDelay(), [this, tag]() { Fire(tag); });
    tracked_.push_back(id);
  }

  void Fire(uint64_t tag) {
    log_.fired.push_back(Fired{sim_.now().nanoseconds(), tag});
    log_.pending_at_fire.push_back(sim_.pending_events());
    // Respawn, and sometimes cancel a random tracked id — which may be
    // live anywhere in the wheel or spill, already fired, or already
    // cancelled.  All must be handled identically.
    SpawnOne();
    if (sim_.rng().NextBelow(4) == 0 && !tracked_.empty()) {
      sim_.Cancel(tracked_[sim_.rng().NextBelow(tracked_.size())]);
      SpawnOne();  // keep the population from draining early
    }
  }

  Simulation& sim_;
  RunLog& log_;
  uint64_t remaining_;
  uint64_t next_tag_ = 0;
  std::vector<EventId> tracked_;
};

TEST(SchedulerEquivalence, RandomizedOperationStreams) {
  for (uint64_t seed = 100; seed < 108; ++seed) {
    std::vector<FuzzDriver> keep_alive;
    keep_alive.reserve(2);  // drivers must outlive Capture's sim.Run()
    auto script = [&keep_alive](Simulation& sim, RunLog& log) {
      keep_alive.emplace_back(sim, log, 20'000).Start();
    };
    const RunLog wheel = Capture(SchedulerKind::kWheel, seed, script);
    const RunLog heap = Capture(SchedulerKind::kReference, seed, script);
    ASSERT_EQ(wheel.fired.size(), heap.fired.size()) << "seed " << seed;
    for (size_t i = 0; i < wheel.fired.size(); ++i) {
      ASSERT_EQ(wheel.fired[i], heap.fired[i])
          << "seed " << seed << " fire #" << i;
      ASSERT_EQ(wheel.pending_at_fire[i], heap.pending_at_fire[i])
          << "seed " << seed << " fire #" << i;
    }
    EXPECT_EQ(wheel.trace_digest, heap.trace_digest) << "seed " << seed;
    EXPECT_EQ(wheel.pending_at_end, 0u) << "seed " << seed;
    EXPECT_EQ(heap.pending_at_end, 0u) << "seed " << seed;
  }
}

// --- Peek equivalence --------------------------------------------------------
//
// The wheel answers PeekNextEventTime from a memo of its earliest instant
// (DESIGN.md §10); these tests check it against the reference heap after
// every single operation rather than only through the fire stream.

bool PeekBoth(Simulation& wheel, Simulation& ref, const char* where) {
  Time a;
  Time b;
  const bool has_a = wheel.PeekNextEventTime(&a);
  const bool has_b = ref.PeekNextEventTime(&b);
  EXPECT_EQ(has_a, has_b) << where;
  if (has_a && has_b) {
    EXPECT_EQ(a, b) << where;
  }
  EXPECT_EQ(wheel.pending_events(), ref.pending_events()) << where;
  return has_a == has_b && (!has_a || a == b) &&
         wheel.pending_events() == ref.pending_events();
}

TEST(SchedulerPeek, MemoFollowsScheduleAndCancel) {
  Simulation wheel(SchedulerKind::kWheel, 12);
  Simulation ref(SchedulerKind::kReference, 12);
  auto both = [&](Duration delay) {
    return std::pair{wheel.Schedule(delay, [] {}), ref.Schedule(delay, [] {})};
  };
  auto cancel = [&](const std::pair<EventId, EventId>& ids) {
    wheel.Cancel(ids.first);
    ref.Cancel(ids.second);
  };
  EXPECT_TRUE(PeekBoth(wheel, ref, "empty"));
  const auto a = both(Duration::Nanoseconds(100));
  const auto b = both(Duration::Nanoseconds(200));
  const auto twin = both(Duration::Nanoseconds(200));
  EXPECT_TRUE(PeekBoth(wheel, ref, "two pending"));
  cancel(a);  // the earliest event
  EXPECT_TRUE(PeekBoth(wheel, ref, "earliest cancelled"));
  const auto c = both(Duration::Nanoseconds(50));  // below the memo
  EXPECT_TRUE(PeekBoth(wheel, ref, "earlier than the memo"));
  const auto far = both(Duration::Nanoseconds(2 * kWheelHorizonNs + 7));
  const auto farther = both(Duration::Nanoseconds(3 * kWheelHorizonNs));
  cancel(c);
  cancel(b);  // an instant shared with `twin`
  EXPECT_TRUE(PeekBoth(wheel, ref, "same-instant sibling cancelled"));
  cancel(twin);
  EXPECT_TRUE(PeekBoth(wheel, ref, "only spill left"));
  cancel(far);  // the spill top
  EXPECT_TRUE(PeekBoth(wheel, ref, "spill top cancelled"));
  cancel(farther);
  EXPECT_TRUE(PeekBoth(wheel, ref, "empty again"));
  Time next;
  EXPECT_FALSE(wheel.PeekNextEventTime(&next));
}

// One seeded operation stream replayed on both schedulers in lockstep:
// schedule (including below the current minimum, at the current instant
// and past the wheel horizon), cancel (the earliest event, spill entries,
// stale ids) and advance (RunBefore / RunUntil slices, single steps),
// comparing Peek after every operation and inside every fired callback.
class PeekLockstep {
 public:
  explicit PeekLockstep(uint64_t seed)
      : wheel_(SchedulerKind::kWheel, seed),
        ref_(SchedulerKind::kReference, seed),
        rng_(seed ^ 0x7065656bu) {}

  void Run(int operations) {
    for (int i = 0; i < operations; ++i) {
      Operate();
      if (!PeekBoth(wheel_.sim, ref_.sim, "after an operation")) {
        ADD_FAILURE() << "peek diverged at operation " << i;
        return;
      }
    }
    wheel_.sim.Run();
    ref_.sim.Run();
    EXPECT_EQ(wheel_.fired, ref_.fired);
    EXPECT_EQ(wheel_.inner_peeks, ref_.inner_peeks);
    EXPECT_GT(wheel_.fired.size(), static_cast<size_t>(operations) / 4);
  }

 private:
  struct Side {
    Side(SchedulerKind kind, uint64_t seed) : sim(kind, seed) {}
    Simulation sim;
    std::vector<Fired> fired;
    std::vector<int64_t> inner_peeks;  // -1: queue empty
  };
  struct Tracked {
    EventId wheel_id;
    EventId ref_id;
    int64_t when_ns;
    bool cancelled;
  };

  static constexpr uint64_t kChildTag = uint64_t{1} << 40;

  // The callback: log, peek from inside the drain, and sometimes schedule
  // a same-instant join or a one-nanosecond successor — decided by the tag,
  // so both sides do the same thing.
  static void Fire(Side& side, uint64_t tag, std::vector<uint8_t>* fired) {
    side.fired.push_back(Fired{side.sim.now().nanoseconds(), tag});
    if (fired != nullptr && tag < fired->size()) {
      (*fired)[tag] = 1;
    }
    Time next;
    side.inner_peeks.push_back(
        side.sim.PeekNextEventTime(&next) ? next.nanoseconds() : -1);
    if (tag >= kChildTag) {
      return;
    }
    if (tag % 5 == 0) {
      side.sim.Schedule(Duration::Zero(),
                        [&side, tag] { Fire(side, tag | kChildTag, nullptr); });
    } else if (tag % 7 == 0) {
      side.sim.Schedule(Duration::Nanoseconds(1),
                        [&side, tag] { Fire(side, tag | kChildTag, nullptr); });
    }
  }

  int64_t Earliest() {
    Time next;
    return wheel_.sim.PeekNextEventTime(&next) ? next.nanoseconds() : -1;
  }

  void Schedule(Duration delay) {
    const uint64_t tag = tracked_.size();
    fired_.push_back(0);
    const EventId w = wheel_.sim.Schedule(
        delay, [this, tag] { Fire(wheel_, tag, &fired_); });
    const EventId r =
        ref_.sim.Schedule(delay, [this, tag] { Fire(ref_, tag, nullptr); });
    tracked_.push_back(
        Tracked{w, r, (wheel_.sim.now() + delay).nanoseconds(), false});
  }

  void Cancel(size_t index) {
    Tracked& t = tracked_[index];
    wheel_.sim.Cancel(t.wheel_id);
    ref_.sim.Cancel(t.ref_id);
    t.cancelled = true;
  }

  bool Live(size_t index) const {
    return !tracked_[index].cancelled && fired_[index] == 0;
  }

  // A live tracked event matching `pred`, scanning from a random start.
  template <typename Pred>
  bool FindLive(Pred pred, size_t* index) {
    if (tracked_.empty()) {
      return false;
    }
    const size_t start = rng_.NextBelow(tracked_.size());
    for (size_t k = 0; k < tracked_.size(); ++k) {
      const size_t i = (start + k) % tracked_.size();
      if (Live(i) && pred(tracked_[i])) {
        *index = i;
        return true;
      }
    }
    return false;
  }

  void Operate() {
    const int64_t now = wheel_.sim.now().nanoseconds();
    const int64_t earliest = Earliest();
    size_t index = 0;
    switch (rng_.NextBelow(12)) {
      case 0:  // at the current instant: joins an exhausted drain batch
        Schedule(Duration::Zero());
        break;
      case 1:
        Schedule(Duration::Nanoseconds(
            static_cast<int64_t>(1 + rng_.NextBelow(64))));
        break;
      case 2:
        Schedule(Duration::Nanoseconds(
            static_cast<int64_t>(rng_.NextBelow(uint64_t{1} << 30))));
        break;
      case 3:  // past the wheel horizon: the spill heap
        Schedule(Duration::Nanoseconds(
            kWheelHorizonNs +
            static_cast<int64_t>(rng_.NextBelow(uint64_t{3} << 48))));
        break;
      case 4:  // strictly below the memoised minimum
        if (earliest > now + 1) {
          Schedule(Duration::Nanoseconds(static_cast<int64_t>(
              1 + rng_.NextBelow(static_cast<uint64_t>(earliest - now - 1)))));
        } else {
          Schedule(Duration::Nanoseconds(3));
        }
        break;
      case 5:  // the current earliest event
        if (FindLive([&](const Tracked& t) { return t.when_ns == earliest; },
                     &index)) {
          Cancel(index);
        }
        break;
      case 6:  // a spill entry
        if (FindLive([&](const Tracked& t) {
              return t.when_ns - now >= kWheelHorizonNs;
            }, &index)) {
          Cancel(index);
        }
        break;
      case 7:  // any id: live, fired or already cancelled
        if (!tracked_.empty()) {
          Cancel(rng_.NextBelow(tracked_.size()));
        }
        break;
      case 8:
      case 9:
        // A RunBefore slice ending at, just past, or well past the
        // earliest instant.
        if (earliest >= 0) {
          const Time end = Time::FromNanoseconds(
              earliest + static_cast<int64_t>(rng_.NextBelow(3) == 0
                                                  ? 0
                                                  : rng_.NextBelow(1u << 12)));
          wheel_.sim.RunBefore(end);
          ref_.sim.RunBefore(end);
        }
        break;
      case 10: {
        const Time horizon = Time::FromNanoseconds(
            now + static_cast<int64_t>(rng_.NextBelow(1u << 16)));
        wheel_.sim.RunUntil(horizon);
        ref_.sim.RunUntil(horizon);
        break;
      }
      default:
        wheel_.sim.Step();
        ref_.sim.Step();
        break;
    }
  }

  Side wheel_;
  Side ref_;
  Rng rng_;
  std::vector<Tracked> tracked_;
  std::vector<uint8_t> fired_;  // by tag, as seen on the wheel side
};

TEST(SchedulerPeek, MemoMatchesReferenceAfterEveryOperation) {
  for (uint64_t seed = 200; seed < 206; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    PeekLockstep(seed).Run(6000);
  }
}

TEST(SchedulerContract, EventIdsAreNeverZeroAndCancelIsIdempotent) {
  for (const SchedulerKind kind : {SchedulerKind::kWheel, SchedulerKind::kReference}) {
    Simulation sim(kind, 9);
    std::vector<EventId> ids;
    for (int i = 0; i < 1000; ++i) {
      ids.push_back(sim.Schedule(Duration::Nanoseconds(i), []() {}));
    }
    for (const EventId id : ids) {
      EXPECT_NE(id, 0u);
    }
    sim.Run();
    // Cancelling fired ids after the fact must be harmless.
    for (const EventId id : ids) {
      sim.Cancel(id);
    }
    EXPECT_EQ(sim.pending_events(), 0u);
  }
}

TEST(SchedulerContract, PendingTracksLiveEventsExactly) {
  for (const SchedulerKind kind : {SchedulerKind::kWheel, SchedulerKind::kReference}) {
    Simulation sim(kind, 10);
    EXPECT_EQ(sim.pending_events(), 0u);
    const EventId a = sim.Schedule(Duration::Seconds(1), []() {});
    const EventId b = sim.Schedule(Duration::Seconds(2), []() {});
    sim.Schedule(Duration::Nanoseconds(kWheelHorizonNs * 2), []() {});  // spill
    EXPECT_EQ(sim.pending_events(), 3u);
    sim.Cancel(a);
    EXPECT_EQ(sim.pending_events(), 2u);
    sim.Cancel(a);  // double cancel: no change
    EXPECT_EQ(sim.pending_events(), 2u);
    sim.Cancel(b);
    EXPECT_EQ(sim.pending_events(), 1u);
    sim.Run();
    EXPECT_EQ(sim.pending_events(), 0u);
  }
}

TEST(SchedulerContract, CoroutineFlowsRunIdenticallyOnBothSchedulers) {
  // A small coroutine pipeline (Delay + Event + Semaphore) as a sanity
  // check that the wheel composes with the task layer, not just raw
  // Schedule/Cancel.
  auto run = [](SchedulerKind kind) {
    Simulation sim(kind, 11);
    Semaphore gate(sim, 2);
    Event done(sim);
    int completed = 0;
    auto worker = [&](int i) -> Task {
      co_await gate.Acquire();
      SemaphoreGuard slot(gate);
      co_await Delay(sim, Duration::Milliseconds(1 + i));
      if (++completed == 8) {
        done.Set();
      }
    };
    auto flow = [&]() -> Task {
      for (int i = 0; i < 8; ++i) {
        sim.Spawn(worker(i));
      }
      co_await done;
    };
    sim.Spawn(flow());
    sim.Run();
    EXPECT_EQ(completed, 8);
    return std::pair{sim.trace_digest(), sim.events_processed()};
  };
  EXPECT_EQ(run(SchedulerKind::kWheel), run(SchedulerKind::kReference));
}

}  // namespace
}  // namespace bolted::sim
