// attest_poll: continuous attestation of a registered fleet by one
// Keylime verifier (paper §5, §7.4).  Closed loop: the verifier starts the
// next VerifyFleet round when the previous one returns.
//
// Unit: one verified quote (a node-round).  Step: one poll round.
// Setup: fleet build, registration wave and the first (cold) round, which
// pays the verifier's AIK prepare and boot-log cache fill.

#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/harness.h"
#include "src/firmware/firmware.h"
#include "src/keylime/agent.h"
#include "src/keylime/registrar.h"
#include "src/keylime/verifier.h"
#include "src/machine/machine.h"
#include "src/net/network.h"
#include "src/obs/obs.h"
#include "src/sim/random.h"
#include "src/sim/simulation.h"
#include "src/sim/task.h"

namespace perfbench {
namespace {

using namespace bolted;

constexpr int kFleetSize = 1024;
constexpr net::VlanId kAttestationVlan = 50;

struct Fleet {
  explicit Fleet(uint64_t seed, bool traced)
      : sim(seed ^ 0x617474657374u),
        fabric(sim, sim::Duration::Microseconds(10), 1.25e9),
        registrar_ep(fabric.CreateEndpoint("registrar")),
        verifier_ep(fabric.CreateEndpoint("verifier")),
        registrar(sim, registrar_ep, seed * 4 + 1),
        verifier(sim, verifier_ep, registrar_ep.address(), seed * 4 + 2) {
#if BOLTED_OBS
    if (traced) {
      registry = std::make_unique<obs::Registry>(sim);
    }
#else
    (void)traced;
#endif
    fabric.AttachToVlan(registrar_ep.address(), kAttestationVlan);
    fabric.AttachToVlan(verifier_ep.address(), kAttestationVlan);
  }

  sim::Simulation sim;
#if BOLTED_OBS
  std::unique_ptr<obs::Registry> registry;
#endif
  net::Network fabric;
  net::Endpoint& registrar_ep;
  net::Endpoint& verifier_ep;
  keylime::Registrar registrar;
  keylime::Verifier verifier;
  std::vector<std::unique_ptr<machine::Machine>> machines;
  std::vector<std::unique_ptr<keylime::Agent>> agents;
  std::vector<std::string> names;
  std::vector<keylime::VerificationResult> results;

  std::string ObsText() const {
#if BOLTED_OBS
    return registry != nullptr ? registry->MetricsText() : std::string();
#else
    return {};
#endif
  }
};

sim::Task Register(Fleet& fleet, size_t i, uint8_t* ok) {
  bool registered = false;
  co_await fleet.agents[i]->RegisterWithRegistrar(fleet.registrar_ep.address(),
                                                  fleet.names[i], &registered);
  *ok = registered ? 1 : 0;
  co_await fleet.machines[i]->PowerOnSelfTest();
}

sim::Task Round(Fleet& fleet, sim::Time* finished) {
  co_await fleet.verifier.VerifyFleet(fleet.names, fleet.results.data());
  *finished = fleet.sim.now();
}

struct RoundResult {
  uint64_t passed = 0;
  double sim_ms = 0;
};

RoundResult PollRound(Fleet& fleet) {
  const sim::Time start = fleet.sim.now();
  sim::Time finished = start;
  fleet.sim.Spawn(Round(fleet, &finished));
  fleet.sim.Run();
  RoundResult round;
  for (const keylime::VerificationResult& r : fleet.results) {
    round.passed += r.passed ? 1 : 0;
  }
  round.sim_ms = (finished - start).ToSecondsF() * 1e3;
  return round;
}

// Build, register, boot and cold-poll a fleet.  Returns null (after
// printing why) if any node fails registration or the cold round.
std::unique_ptr<Fleet> BuildFleet(uint64_t seed, bool traced, SpanRecorder& spans) {
  auto fleet = std::make_unique<Fleet>(seed, traced);
  machine::MachineConfig mc;
  mc.flash_firmware = firmware::BuildLinuxBoot("src");
  auto whitelist = std::make_shared<keylime::Whitelist>();
  whitelist->AllowBoot(mc.flash_firmware.digest);
  // A fleet of mixed TPM parts: each node's quote latency is drawn from
  // the seed, between 1 and 2 simulated seconds.
  sim::Rng parts(seed ^ 0x74706du);
  for (int i = 0; i < kFleetSize; ++i) {
    mc.tpm_latency.quote =
        sim::Duration::Microseconds(1'000'000 + static_cast<int64_t>(parts.NextBelow(1'000'000)));
    fleet->names.push_back("node-" + std::to_string(i));
    fleet->machines.push_back(std::make_unique<machine::Machine>(
        fleet->sim, fleet->fabric, fleet->names.back(), mc));
    fleet->agents.push_back(std::make_unique<keylime::Agent>(
        *fleet->machines.back(), seed * 65537 + static_cast<uint64_t>(i)));
    fleet->fabric.AttachToVlan(fleet->machines.back()->address(), kAttestationVlan);
  }
  std::vector<uint8_t> registered(kFleetSize, 0);
  {
    ScopedSpan span(spans, "keylime.registration_wave");
    for (size_t i = 0; i < kFleetSize; ++i) {
      fleet->sim.Spawn(Register(*fleet, i, &registered[i]));
    }
    fleet->sim.Run();
  }
  for (size_t i = 0; i < kFleetSize; ++i) {
    if (!registered[i]) {
      std::fprintf(stderr, "registration failed for %s\n", fleet->names[i].c_str());
      return nullptr;
    }
    keylime::Verifier::NodeConfig config;
    config.agent = fleet->machines[i]->address();
    config.whitelist = whitelist;
    fleet->verifier.AddNode(fleet->names[i], std::move(config));
  }
  fleet->results.resize(kFleetSize);
  ScopedSpan span(spans, "keylime.VerifyFleet.cold");
  if (PollRound(*fleet).passed != kFleetSize) {
    std::fprintf(stderr, "cold attestation round did not pass every node\n");
    return nullptr;
  }
  return fleet;
}

// Cumulative counters the layer rows are differences of.
std::map<std::string, double> ReadCounters(const Fleet& fleet) {
  const keylime::Verifier& v = fleet.verifier;
  return {
      {"events", static_cast<double>(fleet.sim.events_processed())},
      {"frames", static_cast<double>(fleet.fabric.frames_delivered())},
      {"drops", static_cast<double>(fleet.fabric.total_drops())},
      {"verifications", static_cast<double>(v.verifications())},
      {"batched", static_cast<double>(v.batched_verifications())},
      {"aik_hits", static_cast<double>(v.aik_cache_hits())},
      {"aik_misses", static_cast<double>(v.aik_cache_misses())},
      {"boot_hits", static_cast<double>(v.boot_log_cache_hits())},
      {"boot_misses", static_cast<double>(v.boot_log_cache_misses())},
      {"bisections", static_cast<double>(v.batch_stats().bisections)},
      {"rejected_hints", static_cast<double>(v.batch_stats().rejected_hints)},
      {"transient_retries", static_cast<double>(v.transient_retries())},
  };
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace

int RunAttestPoll(const RunOptions& opts, WorkloadResult& result,
                  SpanRecorder& spans) {
  std::unique_ptr<Fleet> fleet;
  bool ok = true;
  RunSetups(result, [&] {
    fleet.reset();
    ScopedSpan span(spans, "setup");
    fleet = BuildFleet(opts.seed, opts.traced, spans);
    ok = ok && fleet != nullptr;
  });
  if (!ok) {
    return 1;
  }

  const std::map<std::string, double> base = ReadCounters(*fleet);
  const std::string obs_base = fleet->ObsText();
  std::map<std::string, double> prefix;
  std::string obs_prefix;
  double run_s = 0;
  uint64_t verdict_failures = 0;
  RunTimedPhase(
      opts, result,
      [&](int step) {
        ScopedSpan span(spans, "keylime.VerifyFleet", -1, step);
        const auto start = Clock::now();
        const RoundResult round = PollRound(*fleet);
        run_s += SecondsSince(start);
        verdict_failures += kFleetSize - round.passed;
        return StepOutcome{.attempted = kFleetSize,
                           .completed = round.passed,
                           .sim_latency_ms = {round.sim_ms}};
      },
      [&] {
        prefix = ReadCounters(*fleet);
        obs_prefix = fleet->ObsText();
        result.digests["sim.trace"] = Hex64(fleet->sim.trace_digest());
        result.digests["net.frames"] = Hex64(fleet->fabric.frame_digest());
      });
  result.checks["verdict_failures"] = verdict_failures;
  if (!opts.traced) {
    return 0;
  }

  const auto delta = [&](const char* key) { return prefix.at(key) - base.at(key); };
  const double units = static_cast<double>(result.prefix_units);
  const uint64_t events_total = fleet->sim.events_processed() -
                                static_cast<uint64_t>(base.at("events"));
  auto& L = result.layers;
  L["sim.events_per_unit"] = Ratio(delta("events"), units);
  L["sim.ns_per_event"] = Ratio(run_s * 1e9, static_cast<double>(events_total));
  L["sim.run_s"] = run_s;
  L["net.frames_per_unit"] = Ratio(delta("frames"), units);
  L["net.drops"] = delta("drops");
  L["keylime.round_s"] = Median(result.step_ms) / 1e3;
  L["keylime.batched_ratio"] = Ratio(delta("batched"), delta("verifications"));
  L["keylime.aik_cache_hit_ratio"] =
      Ratio(delta("aik_hits"), delta("aik_hits") + delta("aik_misses"));
  L["keylime.boot_log_cache_hit_ratio"] =
      Ratio(delta("boot_hits"), delta("boot_hits") + delta("boot_misses"));
  L["keylime.bisections"] = delta("bisections");
  L["keylime.rejected_hints"] = delta("rejected_hints");
  L["keylime.transient_retries"] = delta("transient_retries");

  const auto obs_then = ParseObsCounters(obs_base);
  result.obs = ParseObsCounters(obs_prefix);
  result.obs_digest = Hex64(Fnv1a(obs_prefix));
  const auto obs_delta = [&](const std::string& key) {
    const auto now = result.obs.find(key);
    const auto then = obs_then.find(key);
    return static_cast<double>((now == result.obs.end() ? 0 : now->second) -
                               (then == obs_then.end() ? 0 : then->second));
  };
  L["net.rpc_calls_per_unit"] = Ratio(obs_delta("rpc.calls"), units);
  L["net.rpc_retries"] = obs_delta("rpc.retries");
  L["net.rpc_timeouts"] = obs_delta("rpc.timeouts");
  const double quotes = static_cast<double>(
      ObsHistogramCount(obs_prefix, "tpm.cmd_ns.quote") -
      ObsHistogramCount(obs_base, "tpm.cmd_ns.quote"));
  L["tpm.quotes_per_unit"] = Ratio(quotes, units);

  std::vector<const tpm::Tpm*> tpms;
  for (const auto& m : fleet->machines) {
    tpms.push_back(&m->tpm());
  }
  const QuoteReplay replay = ReplayQuotes(tpms, spans);
  L["crypto.quote_sign_us"] = replay.sign_us;
  L["crypto.quote_verify_us"] = replay.verify_us;
  // Quotes the whole timed phase signed and verified, at the replayed
  // per-quote cost, over the timed phase's host time.
  const double timed_quotes = quotes / units * static_cast<double>(result.completed);
  L["crypto.attest_share"] = Ratio(
      (replay.sign_us + replay.verify_us) * 1e-6 * timed_quotes, result.timed_s);
  return 0;
}

}  // namespace perfbench
