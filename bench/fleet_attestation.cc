// Fleet-scale continuous attestation: one verifier polling a 4096-node
// fleet, measured in wall-clock (host) time per poll round.
//
// The paper's prototype attests each node every couple of seconds; at
// fleet scale the verifier's CPU budget is dominated by per-quote ECDSA
// verification plus per-poll key decoding.  This bench drives the real
// protocol stack — registrar lookup, nonce, TPM quote, log replay,
// whitelist checks — over the simulated network for every node, and
// reports how much host CPU one full round costs.  Like a fleet of mixed
// TPM parts, each node's quote latency is a seeded draw between 1 and 2
// simulated seconds (the draw perfbench's attest_poll uses), so quotes
// land spread over the round.  The first round pays the per-node Prepare
// (decode + on-curve check + verify tables); steady rounds hit the
// verifier's AIK cache and the golden boot-log cache, and verify
// signatures through the batched multi-scalar path
// (Verifier::VerifyFleet).  A final sweep re-times single rounds across
// batch sizes and worker counts, plus the legacy per-node VerifyNode path
// for an honest old-vs-new row.  Every row also reports the host-side
// pipeline telemetry: batches a queue thread verified, batches the
// simulation thread verified at the join and the time it waited there,
// quotes whose speculative signature was used or had to be re-signed,
// and offload jobs run by queue threads and by their waiters.
//
// Usage: fleet_attestation [output-path] [--nodes=N] [--rounds=N]
//                          [--batch=N] [--workers=N] [--no-sweep]
//                          [--trace=out.json]
//   (default output: BENCH_attestation.json, default fleet 4096; batch
//    defaults to Verifier::FleetOptions.  --workers=N signs and verifies
//    on the simulation thread plus an offload queue of N-1 threads, so 1
//    runs every job inline; the default 0 uses the process-wide queue,
//    one thread per hardware thread but the simulation's.  --trace
//    additionally exports a chrome://tracing JSON of the whole run.
//    Tracing adds bookkeeping to the timed path, so compare wall numbers
//    only between untraced runs.)

#include <chrono>
#include <thread>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/firmware/firmware.h"
#include "src/keylime/agent.h"
#include "src/keylime/registrar.h"
#include "src/keylime/verifier.h"
#include "src/machine/machine.h"
#include "src/obs/obs.h"
#include "src/sim/offload.h"
#include "src/sim/random.h"

namespace {

constexpr int kDefaultFleetSize = 4096;
constexpr int kDefaultSteadyRounds = 4;
constexpr int kAttestationVlan = 50;

using Clock = std::chrono::steady_clock;

double MillisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

// Cumulative pipeline counters (verifier, TPMs, offload queue); rows
// report differences.
struct Pipeline {
  uint64_t offloaded = 0;
  uint64_t drained = 0;
  uint64_t join_wait_ns = 0;
  uint64_t presigned = 0;
  uint64_t resigned = 0;
  uint64_t thread_jobs = 0;
  uint64_t waiter_jobs = 0;

  static Pipeline Read(
      const bolted::keylime::Verifier& v,
      const std::vector<std::unique_ptr<bolted::machine::Machine>>& machines,
      const bolted::sim::OffloadQueue& queue) {
    Pipeline p{v.fleet_batches_offloaded(), v.fleet_batches_drained(),
               v.fleet_join_wait_ns()};
    for (const auto& m : machines) {
      p.presigned += m->tpm().quotes_presigned();
      p.resigned += m->tpm().quotes_resigned();
    }
    p.thread_jobs = queue.thread_runs();
    p.waiter_jobs = queue.waiter_runs();
    return p;
  }
  Pipeline operator-(const Pipeline& o) const {
    return {offloaded - o.offloaded,     drained - o.drained,
            join_wait_ns - o.join_wait_ns, presigned - o.presigned,
            resigned - o.resigned,       thread_jobs - o.thread_jobs,
            waiter_jobs - o.waiter_jobs};
  }
};

// One human-readable line of pipeline telemetry.
std::string Describe(const Pipeline& p) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%llu batches off-thread, %llu drained at the join, %.1f us join "
                "wait; %llu quotes presigned, %llu re-signed; jobs %llu on queue "
                "threads, %llu on waiters",
                static_cast<unsigned long long>(p.offloaded),
                static_cast<unsigned long long>(p.drained),
                static_cast<double>(p.join_wait_ns) / 1e3,
                static_cast<unsigned long long>(p.presigned),
                static_cast<unsigned long long>(p.resigned),
                static_cast<unsigned long long>(p.thread_jobs),
                static_cast<unsigned long long>(p.waiter_jobs));
  return buf;
}

// "auto" for workers = 0 (one per hardware thread).
std::string WorkersLabel(int workers) {
  return workers == 0 ? "auto" : std::to_string(workers);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bolted;
  const char* out_path = "BENCH_attestation.json";
  const char* trace_path = nullptr;
  int fleet_size = kDefaultFleetSize;
  int steady_rounds = kDefaultSteadyRounds;
  int batch_size = keylime::Verifier::FleetOptions{}.batch_size;
  int workers = 0;
  bool sweep = true;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--trace=", 8) == 0 && argv[i][8] != '\0') {
      trace_path = argv[i] + 8;
    } else if (std::strncmp(argv[i], "--nodes=", 8) == 0 && argv[i][8] != '\0') {
      fleet_size = std::atoi(argv[i] + 8);
    } else if (std::strncmp(argv[i], "--rounds=", 9) == 0 && argv[i][9] != '\0') {
      steady_rounds = std::atoi(argv[i] + 9);
    } else if (std::strncmp(argv[i], "--batch=", 8) == 0 && argv[i][8] != '\0') {
      batch_size = std::atoi(argv[i] + 8);
    } else if (std::strncmp(argv[i], "--workers=", 10) == 0 && argv[i][10] != '\0') {
      workers = std::atoi(argv[i] + 10);
    } else if (std::strcmp(argv[i], "--no-sweep") == 0) {
      sweep = false;
    } else {
      out_path = argv[i];
    }
  }
  if (fleet_size <= 0 || steady_rounds <= 0 || batch_size <= 0 || workers < 0) {
    std::fprintf(stderr,
                 "--nodes/--rounds/--batch must be positive, --workers >= 0\n");
    return 2;
  }
  const int kFleetSize = fleet_size;

  // Queues for --workers and the sweep, declared before the simulation
  // they are attached to; each is kept until exit.
  std::vector<std::unique_ptr<sim::OffloadQueue>> queues;
  sim::Simulation sim{1234};
  // workers = N: the simulation thread plus N-1 queue threads; 0: the
  // process-wide queue.  Only switched between rounds, with no job in
  // flight.
  auto use_workers = [&](int w) {
    if (w == 0) {
      sim.set_offload(nullptr);
      return;
    }
    queues.push_back(std::make_unique<sim::OffloadQueue>(static_cast<uint32_t>(w - 1)));
    sim.set_offload(queues.back().get());
  };
  use_workers(workers);
#if BOLTED_OBS
  std::unique_ptr<obs::Registry> registry;
  if (trace_path != nullptr) {
    registry = std::make_unique<obs::Registry>(sim);
  }
#else
  if (trace_path != nullptr) {
    std::fprintf(stderr, "--trace ignored: built with BOLTED_OBS=0\n");
  }
#endif
  net::Network fabric{sim, sim::Duration::Microseconds(10), 1.25e9};
  net::Endpoint& registrar_ep = fabric.CreateEndpoint("registrar");
  net::Endpoint& verifier_ep = fabric.CreateEndpoint("verifier");
  keylime::Registrar registrar(sim, registrar_ep, 1);
  keylime::Verifier verifier(sim, verifier_ep, registrar_ep.address(), 2);
  verifier.SetFleetOptions({.batch_size = batch_size});
  fabric.AttachToVlan(registrar_ep.address(), kAttestationVlan);
  fabric.AttachToVlan(verifier_ep.address(), kAttestationVlan);

  machine::MachineConfig mc;
  mc.flash_firmware = firmware::BuildLinuxBoot("src");
  auto whitelist = std::make_shared<keylime::Whitelist>();
  whitelist->AllowBoot(mc.flash_firmware.digest);

  std::vector<std::unique_ptr<machine::Machine>> machines;
  std::vector<std::unique_ptr<keylime::Agent>> agents;
  std::vector<std::string> names;
  machines.reserve(kFleetSize);
  agents.reserve(kFleetSize);
  // A fleet of mixed TPM parts: each node's quote latency is drawn between
  // 1 and 2 simulated seconds.
  sim::Rng parts(1234 ^ 0x74706du);
  for (int i = 0; i < kFleetSize; ++i) {
    mc.tpm_latency.quote = sim::Duration::Microseconds(
        1'000'000 + static_cast<int64_t>(parts.NextBelow(1'000'000)));
    names.push_back("node-" + std::to_string(i));
    machines.push_back(
        std::make_unique<machine::Machine>(sim, fabric, names.back(), mc));
    agents.push_back(
        std::make_unique<keylime::Agent>(*machines.back(), 100 + i));
    fabric.AttachToVlan(machines.back()->address(), kAttestationVlan);
  }

  // Registration (AIK credential activation) and boot, all in one sim run.
  std::vector<uint8_t> registered(kFleetSize, 0);
  auto setup = [&](int i) -> sim::Task {
    bool ok = false;
    co_await agents[static_cast<size_t>(i)]->RegisterWithRegistrar(
        registrar_ep.address(), names[static_cast<size_t>(i)], &ok);
    registered[static_cast<size_t>(i)] = ok ? 1 : 0;
    co_await machines[static_cast<size_t>(i)]->PowerOnSelfTest();
  };
  for (int i = 0; i < kFleetSize; ++i) {
    sim.Spawn(setup(i));
  }
  sim.Run();
  for (int i = 0; i < kFleetSize; ++i) {
    if (!registered[static_cast<size_t>(i)]) {
      std::fprintf(stderr, "registration failed for %s\n",
                   names[static_cast<size_t>(i)].c_str());
      return 1;
    }
    keylime::Verifier::NodeConfig config;
    config.agent = machines[static_cast<size_t>(i)]->address();
    config.whitelist = whitelist;
    verifier.AddNode(names[static_cast<size_t>(i)], std::move(config));
  }

  // One poll round = VerifyFleet across the whole fleet, driven to
  // completion through the simulated fabric.
  std::vector<keylime::VerificationResult> results(kFleetSize);
  auto poll_round = [&]() -> double {
    const auto start = Clock::now();
    auto round = [&]() -> sim::Task {
      co_await verifier.VerifyFleet(names, results.data());
    };
    sim.Spawn(round());
    sim.Run();
    return MillisSince(start);
  };
  // The pre-batching path: one VerifyNode task per node, signatures
  // verified one at a time.  Timed once at the end for the old-vs-new row.
  auto legacy_round = [&]() -> double {
    const auto start = Clock::now();
    for (int i = 0; i < kFleetSize; ++i) {
      auto one = [&](int node) -> sim::Task {
        co_await verifier.VerifyNode(names[static_cast<size_t>(node)],
                                     &results[static_cast<size_t>(node)]);
      };
      sim.Spawn(one(i));
    }
    sim.Run();
    return MillisSince(start);
  };
  auto check_round = [&](const char* what) -> bool {
    for (int i = 0; i < kFleetSize; ++i) {
      if (!results[static_cast<size_t>(i)].passed) {
        std::fprintf(stderr, "%s failed for %s: %s\n", what,
                     names[static_cast<size_t>(i)].c_str(),
                     results[static_cast<size_t>(i)].failure.c_str());
        return false;
      }
    }
    return true;
  };

  const double first_round_ms = poll_round();
  if (!check_round("first round")) {
    return 1;
  }
  double steady_total_ms = 0;
  double steady_max_ms = 0;
  const uint64_t steady_events_start = sim.events_processed();
  const auto read_pipeline = [&] {
    return Pipeline::Read(verifier, machines, sim.offload());
  };
  const Pipeline steady_pipeline_start = read_pipeline();
  for (int r = 0; r < steady_rounds; ++r) {
    const double ms = poll_round();
    steady_total_ms += ms;
    if (ms > steady_max_ms) {
      steady_max_ms = ms;
    }
  }
  const uint64_t steady_events = sim.events_processed() - steady_events_start;
  const Pipeline steady_pipeline = read_pipeline() - steady_pipeline_start;
  if (!check_round("attestation")) {
    return 1;
  }

  const double steady_mean_ms = steady_total_ms / steady_rounds;
  const double per_node_us = steady_mean_ms * 1000.0 / kFleetSize;
  // Host-side event rate over the steady rounds: the number the scheduler
  // and frame-path optimisations move, tracked by scripts/check.sh --bench.
  const double events_per_second =
      static_cast<double>(steady_events) / (steady_total_ms / 1e3);
  const double ns_per_event =
      steady_total_ms * 1e6 / static_cast<double>(steady_events);

  // Batch-size / worker sweep (one timed round per config), then the
  // legacy per-node path.  All of these run after the steady measurement
  // so they cannot disturb it.
  struct SweepRow {
    int batch;
    int workers;
    double ms;
    Pipeline pipeline;
  };
  std::vector<SweepRow> sweep_rows;
  auto sweep_round = [&](int b, int w) -> bool {
    verifier.SetFleetOptions({.batch_size = b});
    use_workers(w);
    const Pipeline before = read_pipeline();
    const double ms = poll_round();
    sweep_rows.push_back({b, w, ms, read_pipeline() - before});
    return check_round("sweep round");
  };
  if (sweep) {
    const int batches[] = {1, 8, 16, 32, 64, 128};
    for (const int b : batches) {
      if (!sweep_round(b, 1)) {
        return 1;
      }
    }
    // Worker rounds sign quotes and verify sealed batches on an offload
    // queue of w-1 threads while the round runs (real cores when the host
    // has them; on a single-core host the rows measure queue overhead
    // honestly).  0 is the default: the process-wide queue.
    const int worker_counts[] = {0, 2, 4, 8};
    for (const int w : worker_counts) {
      if (!sweep_round(batch_size, w)) {
        return 1;
      }
    }
    verifier.SetFleetOptions({.batch_size = batch_size});
    use_workers(workers);
  }
  const double legacy_ms = legacy_round();
  if (!check_round("legacy round")) {
    return 1;
  }

  std::FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::perror("fopen");
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"fleet_nodes\": %d,\n"
               "  \"steady_rounds\": %d,\n"
               "  \"batch_size\": %d,\n"
               "  \"workers\": %d,\n"
               "  \"host_cores\": %u,\n"
               "  \"first_round_wall_ms\": %.3f,\n"
               "  \"steady_round_wall_ms_mean\": %.3f,\n"
               "  \"steady_round_wall_ms_max\": %.3f,\n"
               "  \"per_node_wall_us_mean\": %.3f,\n"
               "  \"legacy_round_wall_ms\": %.3f,\n"
               "  \"steady_events\": %llu,\n"
               "  \"events_per_second\": %.0f,\n"
               "  \"ns_per_event\": %.1f,\n"
               "  \"verifications\": %llu,\n"
               "  \"batched_verifications\": %llu,\n"
               "  \"batch_bisections\": %u,\n"
               "  \"batch_sqrt_recoveries\": %u,\n"
               "  \"batch_rejected_hints\": %u,\n"
               "  \"aik_cache_hits\": %llu,\n"
               "  \"aik_cache_misses\": %llu,\n"
               "  \"boot_log_cache_hits\": %llu,\n"
               "  \"boot_log_cache_misses\": %llu,\n"
               "  \"pipeline_batches_offloaded\": %llu,\n"
               "  \"pipeline_batches_drained\": %llu,\n"
               "  \"pipeline_join_wait_us\": %.1f,\n"
               "  \"pipeline_quotes_presigned\": %llu,\n"
               "  \"pipeline_quotes_resigned\": %llu,\n"
               "  \"pipeline_jobs_on_queue_threads\": %llu,\n"
               "  \"pipeline_jobs_on_waiters\": %llu,\n",
               kFleetSize, steady_rounds, batch_size, workers,
               std::thread::hardware_concurrency(), first_round_ms,
               steady_mean_ms, steady_max_ms, per_node_us, legacy_ms,
               static_cast<unsigned long long>(steady_events),
               events_per_second, ns_per_event,
               static_cast<unsigned long long>(verifier.verifications()),
               static_cast<unsigned long long>(verifier.batched_verifications()),
               verifier.batch_stats().bisections,
               verifier.batch_stats().sqrt_recoveries,
               verifier.batch_stats().rejected_hints,
               static_cast<unsigned long long>(verifier.aik_cache_hits()),
               static_cast<unsigned long long>(verifier.aik_cache_misses()),
               static_cast<unsigned long long>(verifier.boot_log_cache_hits()),
               static_cast<unsigned long long>(verifier.boot_log_cache_misses()),
               static_cast<unsigned long long>(steady_pipeline.offloaded),
               static_cast<unsigned long long>(steady_pipeline.drained),
               static_cast<double>(steady_pipeline.join_wait_ns) / 1e3,
               static_cast<unsigned long long>(steady_pipeline.presigned),
               static_cast<unsigned long long>(steady_pipeline.resigned),
               static_cast<unsigned long long>(steady_pipeline.thread_jobs),
               static_cast<unsigned long long>(steady_pipeline.waiter_jobs));
  std::fprintf(f, "  \"sweep\": [");
  for (size_t i = 0; i < sweep_rows.size(); ++i) {
    const SweepRow& row = sweep_rows[i];
    std::fprintf(f,
                 "%s\n    {\"batch_size\": %d, \"workers\": %d, \"round_wall_ms\": %.3f, "
                 "\"batches_offloaded\": %llu, \"batches_drained\": %llu, "
                 "\"join_wait_us\": %.1f, \"quotes_presigned\": %llu, "
                 "\"quotes_resigned\": %llu, \"jobs_on_queue_threads\": %llu, "
                 "\"jobs_on_waiters\": %llu}",
                 i == 0 ? "" : ",", row.batch, row.workers, row.ms,
                 static_cast<unsigned long long>(row.pipeline.offloaded),
                 static_cast<unsigned long long>(row.pipeline.drained),
                 static_cast<double>(row.pipeline.join_wait_ns) / 1e3,
                 static_cast<unsigned long long>(row.pipeline.presigned),
                 static_cast<unsigned long long>(row.pipeline.resigned),
                 static_cast<unsigned long long>(row.pipeline.thread_jobs),
                 static_cast<unsigned long long>(row.pipeline.waiter_jobs));
  }
  std::fprintf(f, "%s]\n}\n", sweep_rows.empty() ? "" : "\n  ");
  std::fclose(f);

  std::printf("fleet of %d nodes, %d steady rounds (batch %d, %s workers)\n",
              kFleetSize, steady_rounds, batch_size, WorkersLabel(workers).c_str());
  std::printf("first poll round (cold caches):    %8.1f ms wall\n", first_round_ms);
  std::printf("steady poll round mean:            %8.1f ms wall (%.1f us/node)\n",
              steady_mean_ms, per_node_us);
  std::printf("steady poll round max:             %8.1f ms wall\n", steady_max_ms);
  std::printf("legacy per-node round:             %8.1f ms wall\n", legacy_ms);
  std::printf("steady event rate:                 %8.0f events/s (%.1f ns/event)\n",
              events_per_second, ns_per_event);
  std::printf("steady pipeline: %s\n", Describe(steady_pipeline).c_str());
  std::printf("AIK cache: %llu hits / %llu misses; boot-log cache: %llu / %llu\n",
              static_cast<unsigned long long>(verifier.aik_cache_hits()),
              static_cast<unsigned long long>(verifier.aik_cache_misses()),
              static_cast<unsigned long long>(verifier.boot_log_cache_hits()),
              static_cast<unsigned long long>(verifier.boot_log_cache_misses()));
  for (const SweepRow& row : sweep_rows) {
    std::printf("sweep batch=%-4d workers=%-4s:      %8.1f ms wall (%s)\n",
                row.batch, WorkersLabel(row.workers).c_str(), row.ms,
                Describe(row.pipeline).c_str());
  }
  std::printf("wrote %s\n", out_path);
#if BOLTED_OBS
  if (registry != nullptr) {
    if (!registry->WriteChromeTrace(trace_path)) {
      std::fprintf(stderr, "failed to write trace to %s\n", trace_path);
      return 1;
    }
    std::printf("wrote chrome trace to %s\n", trace_path);
  }
#endif
  return 0;
}
