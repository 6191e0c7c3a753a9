// rack_fabric: the rack-sharded runtime (sim::ShardedFleet) under a seeded
// control-plane model owned by the benchmark, built on Rack::Send alone —
// no crypto, Keylime or net::Network.
//
// Every node exchanges a quote-sized request and reply with the verifier
// rack at the attestation interval plus jitter; the verifier serves
// requests one at a time.  Each rack also suffers reboot storms at seeded
// times: all its nodes power-cycle within a few milliseconds, re-attest and
// fetch boot chunks from other racks, which makes the traffic dense for a
// moment against a sparse background (about one to two events per
// conservative window).
//
// Unit: one completed quote exchange.  Step: one fixed simulated slice run
// through ShardedFleet::RunUntil.  After the timed phase the same traffic
// runs at shards = 1 as the digest oracle.

#include <algorithm>
#include <memory>
#include <thread>
#include <vector>

#include "perfbench/src/harness.h"
#include "src/obs/obs.h"
#include "src/sim/shard.h"
#include "src/sim/simulation.h"

namespace perfbench {
namespace {

using bolted::sim::CrossShardFrame;
using bolted::sim::Duration;
using bolted::sim::Rack;
using bolted::sim::ShardedFleet;
using bolted::sim::ShardOptions;
using bolted::sim::Time;

constexpr uint32_t kRacks = 64;
constexpr uint32_t kNodesPerRack = 64;
constexpr uint32_t kVerifierRack = 0;
constexpr int64_t kSliceNs = 1'000'000'000;         // one step: 1 sim s
constexpr int64_t kIntervalNs = 2'000'000'000;      // attestation interval
constexpr int64_t kIntervalJitterNs = 200'000'000;  // +[0, 200 ms)
constexpr int64_t kVerifyNs = 20'000;               // verifier service time
constexpr int64_t kFetchServeNs = 10'000;           // chunk service time
constexpr int64_t kStormMeanGapNs = 64'000'000'000; // per rack
constexpr int64_t kRebootSpreadNs = 2'000'000;      // nodes power back within
constexpr int kBootFetches = 4;
constexpr uint32_t kQuoteBytes = 1200;
constexpr uint32_t kChunkBytes = 64 * 1024;

enum Kind : uint32_t { kQuoteReq = 1, kQuoteResp, kFetchReq, kFetchResp };

struct alignas(64) RackState {
  std::vector<uint32_t> generation;  // per node: bumps on reboot
  int64_t verifier_free_ns = 0;      // verifier rack only
  uint64_t quotes_sent = 0;
  uint64_t quotes_done = 0;
  uint64_t fetches_sent = 0;
  uint64_t fetches_done = 0;
  std::vector<double> latency_ms;  // quote exchanges completed, in order
};

// The traffic model.  Each RackState is touched only by events of its own
// rack, which the sharded runtime runs on the rack's owning worker.
class ControlPlane {
 public:
  ControlPlane(uint32_t shards, uint64_t seed, bool traced) {
    ShardOptions options;
    options.racks = kRacks;
    options.shards = shards;
    options.workers = shards;
    options.seed = seed ^ 0x666162726963u;
    fleet_ = std::make_unique<ShardedFleet>(options);
    racks_.resize(kRacks);
#if BOLTED_OBS
    if (traced) {
      for (uint32_t r = 0; r < kRacks; ++r) {
        registries_.push_back(
            std::make_unique<bolted::obs::Registry>(fleet_->rack(r).sim()));
      }
    }
#else
    (void)traced;
#endif
    fleet_->set_frame_handler(
        [this](Rack& rack, const CrossShardFrame& frame) { OnFrame(rack, frame); });
    for (uint32_t r = 0; r < kRacks; ++r) {
      Rack& rack = fleet_->rack(r);
      racks_[r].generation.assign(kNodesPerRack, 0);
      for (uint32_t n = 0; n < kNodesPerRack; ++n) {
        const auto first = static_cast<int64_t>(
            1 + rack.sim().rng().NextBelow(static_cast<uint64_t>(kIntervalNs)));
        ScheduleTick(rack, n, 0, first);
      }
      ScheduleStorm(rack);
    }
  }

  ShardedFleet& fleet() { return *fleet_; }
  RackState& state(uint32_t rack) { return racks_[rack]; }
  // Stops new traffic; in-flight exchanges still complete.  Call between
  // runs only.
  void Stop() { stopping_ = true; }

  std::string ObsText() const {
#if BOLTED_OBS
    if (registries_.empty()) {
      return {};
    }
    std::vector<const bolted::obs::Registry*> parts;
    for (const auto& r : registries_) {
      parts.push_back(r.get());
    }
    return bolted::obs::Registry::MergedMetricsText(parts);
#else
    return {};
#endif
  }

 private:
  Duration Link(Rack& rack) {
    return fleet_->lookahead() +
           Duration::Nanoseconds(static_cast<int64_t>(rack.sim().rng().NextBelow(2000)));
  }

  // Cross-rack frame, or a local event when both ends share the rack (the
  // runtime's lookahead bound covers only cross-rack sends).
  void Deliver(Rack& rack, uint32_t dst, Duration delay, uint32_t kind,
               uint32_t bytes, uint64_t payload0, uint64_t payload1) {
    if (dst != rack.index()) {
      rack.Send(dst, delay, kind, bytes, payload0, payload1);
      return;
    }
    CrossShardFrame frame;
    frame.src_rack = dst;
    frame.dst_rack = dst;
    frame.kind = kind;
    frame.bytes = bytes;
    frame.payload0 = payload0;
    frame.payload1 = payload1;
    rack.sim().Schedule(delay, [this, &rack, frame] { OnFrame(rack, frame); });
  }

  void ScheduleTick(Rack& rack, uint32_t node, uint32_t gen, int64_t delay_ns) {
    rack.sim().Schedule(Duration::Nanoseconds(delay_ns),
                        [this, &rack, node, gen] { Tick(rack, node, gen); });
  }

  // A node's attestation timer: send a quote request, re-arm.
  void Tick(Rack& rack, uint32_t node, uint32_t gen) {
    RackState& st = racks_[rack.index()];
    if (stopping_ || st.generation[node] != gen) {
      return;
    }
    SendQuote(rack, node);
    const auto next = kIntervalNs + static_cast<int64_t>(rack.sim().rng().NextBelow(
                                        static_cast<uint64_t>(kIntervalJitterNs)));
    ScheduleTick(rack, node, gen, next);
  }

  void SendQuote(Rack& rack, uint32_t node) {
    ++racks_[rack.index()].quotes_sent;
    Deliver(rack, kVerifierRack, Link(rack), kQuoteReq, 64,
            rack.index() * kNodesPerRack + node,
            static_cast<uint64_t>(rack.sim().now().nanoseconds()));
  }

  void ScheduleStorm(Rack& rack) {
    const double gap = rack.sim().rng().Exponential(static_cast<double>(kStormMeanGapNs));
    rack.sim().Schedule(Duration::Nanoseconds(1 + static_cast<int64_t>(gap)),
                        [this, &rack] { Storm(rack); });
  }

  // Rack-wide reboot: every node's timer chain is cut; each node comes
  // back within kRebootSpreadNs, re-attests, fetches its boot chunks and
  // restarts its attestation timer.
  void Storm(Rack& rack) {
    if (stopping_) {
      return;
    }
    RackState& st = racks_[rack.index()];
    for (uint32_t n = 0; n < kNodesPerRack; ++n) {
      const uint32_t gen = ++st.generation[n];
      const auto back = static_cast<int64_t>(
          1 + rack.sim().rng().NextBelow(static_cast<uint64_t>(kRebootSpreadNs)));
      rack.sim().Schedule(Duration::Nanoseconds(back), [this, &rack, n, gen] {
        if (stopping_ || racks_[rack.index()].generation[n] != gen) {
          return;
        }
        SendQuote(rack, n);
        for (int f = 0; f < kBootFetches; ++f) {
          const auto dst = static_cast<uint32_t>(
              (rack.index() + 1 + rack.sim().rng().NextBelow(kRacks - 1)) % kRacks);
          ++racks_[rack.index()].fetches_sent;
          Deliver(rack, dst, Link(rack), kFetchReq, 96,
                  rack.index() * kNodesPerRack + n, 0);
        }
        ScheduleTick(rack, n, gen, kIntervalNs);
      });
    }
    ScheduleStorm(rack);
  }

  void OnFrame(Rack& rack, const CrossShardFrame& frame) {
    RackState& st = racks_[rack.index()];
    const auto origin = static_cast<uint32_t>(frame.payload0 / kNodesPerRack);
    switch (frame.kind) {
      case kQuoteReq: {
        // FIFO verifier: serve after everything already queued.
        const int64_t now = rack.sim().now().nanoseconds();
        st.verifier_free_ns = std::max(st.verifier_free_ns, now) + kVerifyNs;
        rack.sim().Schedule(
            Duration::Nanoseconds(st.verifier_free_ns - now), [this, &rack, frame, origin] {
              Deliver(rack, origin, Link(rack), kQuoteResp, kQuoteBytes,
                      frame.payload0, frame.payload1);
            });
        break;
      }
      case kQuoteResp:
        ++st.quotes_done;
        st.latency_ms.push_back(
            static_cast<double>(rack.sim().now().nanoseconds() -
                                static_cast<int64_t>(frame.payload1)) /
            1e6);
        break;
      case kFetchReq:
        rack.sim().Schedule(Duration::Nanoseconds(kFetchServeNs),
                            [this, &rack, frame, origin] {
                              Deliver(rack, origin, Link(rack), kFetchResp,
                                      kChunkBytes, frame.payload0, 0);
                            });
        break;
      case kFetchResp:
        ++st.fetches_done;
        break;
      default:
        break;
    }
  }

  std::unique_ptr<ShardedFleet> fleet_;
  std::vector<RackState> racks_;
#if BOLTED_OBS
  std::vector<std::unique_ptr<bolted::obs::Registry>> registries_;
#endif
  bool stopping_ = false;
};

std::vector<uint64_t> RackDigests(const ShardedFleet& fleet) {
  std::vector<uint64_t> digests;
  for (uint32_t r = 0; r < fleet.num_racks(); ++r) {
    digests.push_back(fleet.rack_digest(r));
  }
  return digests;
}

std::string DigestOf(const std::vector<uint64_t>& values) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const uint64_t v : values) {
    h = Fnv1a(std::string_view(reinterpret_cast<const char*>(&v), sizeof(v)), h);
  }
  return Hex64(h);
}

// Quote exchanges completed since `cursor` (per rack), with their latencies;
// advances the cursor.  Racks are visited in index order, so the sample
// order is a function of the seed alone.
uint64_t Harvest(ControlPlane& plane, std::vector<size_t>& cursor,
                 std::vector<double>* latencies) {
  uint64_t done = 0;
  for (uint32_t r = 0; r < kRacks; ++r) {
    const std::vector<double>& lat = plane.state(r).latency_ms;
    if (latencies != nullptr) {
      latencies->insert(latencies->end(), lat.begin() + static_cast<ptrdiff_t>(cursor[r]),
                        lat.end());
    }
    done += lat.size() - cursor[r];
    cursor[r] = lat.size();
  }
  return done;
}

struct Exchanges {
  uint64_t quotes_sent = 0, quotes_done = 0, fetches_sent = 0, fetches_done = 0;
};

Exchanges Totals(ControlPlane& plane) {
  Exchanges t;
  for (uint32_t r = 0; r < kRacks; ++r) {
    const RackState& st = plane.state(r);
    t.quotes_sent += st.quotes_sent;
    t.quotes_done += st.quotes_done;
    t.fetches_sent += st.fetches_sent;
    t.fetches_done += st.fetches_done;
  }
  return t;
}

// End of simulated slice `slice`; slice 0 is the warm-up that setup runs,
// timed step i runs slice i + 1.
Time SliceEnd(int slice) { return Time::FromNanoseconds((slice + 1) * kSliceNs); }

}  // namespace

int RunRackFabric(const RunOptions& opts, WorkloadResult& result,
                  SpanRecorder& spans) {
  // Half the host's cores, at most four: every window ends in a barrier
  // across all workers, so a worker on a core the host has lent to someone
  // else stalls the whole fleet; the spare cores absorb that.
  const uint32_t shards = std::clamp(std::thread::hardware_concurrency() / 2, 1u, 4u);
  std::unique_ptr<ControlPlane> plane;
  RunSetups(result, [&] {
    plane.reset();
    ScopedSpan span(spans, "setup");
    plane = std::make_unique<ControlPlane>(shards, opts.seed, opts.traced);
    // Warm-up: the first slice, so setup is simulation work rather than
    // mostly thread start-up, which the host makes far noisier.
    plane->fleet().RunUntil(SliceEnd(0));
  });
  ShardedFleet& fleet = plane->fleet();

  std::vector<size_t> cursor(kRacks, 0);
  Harvest(*plane, cursor, nullptr);  // warm-up exchanges are not timed work
  uint64_t prefix_events = 0, prefix_windows = 0, prefix_frames = 0;
  std::string obs_prefix;
  std::vector<uint64_t> prefix_digests;
  double run_s = 0;
  const int steps = RunTimedPhase(
      opts, result,
      [&](int step) {
        ScopedSpan span(spans, "shard.RunUntil", -1, step);
        const auto start = Clock::now();
        fleet.RunUntil(SliceEnd(step + 1));
        run_s += SecondsSince(start);
        StepOutcome out;
        out.completed = Harvest(*plane, cursor, &out.sim_latency_ms);
        out.attempted = out.completed;
        return out;
      },
      [&] {
        prefix_events = fleet.events_processed();
        prefix_windows = fleet.windows();
        prefix_frames = fleet.frames_routed();
        prefix_digests = RackDigests(fleet);
        obs_prefix = plane->ObsText();
      });
  const uint64_t events = fleet.events_processed();
  const uint64_t spills = fleet.ring_spills();
  // Drain: no new traffic; every exchange in flight must complete.
  plane->Stop();
  fleet.Run();
  // Exchanges that complete while draining count neither as work nor as
  // failures; one that never completes is a failed unit.
  Harvest(*plane, cursor, nullptr);
  const Exchanges totals = Totals(*plane);
  const uint64_t lost = (totals.quotes_sent - totals.quotes_done) +
                        (totals.fetches_sent - totals.fetches_done);
  result.attempted += lost;
  result.checks["lost_exchanges"] = lost;
  // Only the prefix digest is a function of the seed alone; the final state
  // depends on how many slices the host had time for, so it is checked
  // against the oracle here and not printed.
  result.digests["fleet.prefix"] = DigestOf(prefix_digests);

  // The oracle: the same traffic, the same slices, one shard.
  double serial_s = 0;
  {
    ScopedSpan span(spans, "oracle");
    ControlPlane oracle(1, opts.seed, /*traced=*/false);
    oracle.fleet().RunUntil(SliceEnd(0));
    for (int step = 0; step < steps; ++step) {
      const auto start = Clock::now();
      oracle.fleet().RunUntil(SliceEnd(step + 1));
      serial_s += SecondsSince(start);
      if (step + 1 == kMinSteps) {
        result.oracle_digests["fleet.prefix"] = DigestOf(RackDigests(oracle.fleet()));
      }
    }
    oracle.Stop();
    oracle.fleet().Run();
    const std::vector<uint64_t> expected = RackDigests(oracle.fleet());
    const std::vector<uint64_t> got = RackDigests(fleet);
    uint64_t mismatched = 0;
    for (uint32_t r = 0; r < kRacks; ++r) {
      mismatched += got[r] != expected[r] ? 1 : 0;
    }
    result.checks["final_rack_digest_mismatches"] = mismatched;
  }
  if (!opts.traced) {
    return 0;
  }

  const auto ratio = [](double num, double den) { return den > 0 ? num / den : 0; };
  const double units = static_cast<double>(result.prefix_units);
  auto& L = result.layers;
  L["sim.events_per_unit"] = ratio(static_cast<double>(prefix_events), units);
  L["sim.ns_per_event"] = ratio(run_s * 1e9, static_cast<double>(events));
  L["sim.run_s"] = run_s;
  L["shard.windows_per_unit"] = ratio(static_cast<double>(prefix_windows), units);
  L["shard.events_per_window"] =
      ratio(static_cast<double>(prefix_events), static_cast<double>(prefix_windows));
  L["shard.frames_routed_per_unit"] = ratio(static_cast<double>(prefix_frames), units);
  L["shard.ring_spills"] = static_cast<double>(spills);
  L["shard.serial_s"] = serial_s;
  L["shard.speedup"] = ratio(serial_s, run_s);
  result.obs = ParseObsCounters(obs_prefix);
  result.obs_digest = Hex64(Fnv1a(obs_prefix));
  return 0;
}

}  // namespace perfbench
