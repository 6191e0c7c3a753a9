// tenant_churn: the tenant life cycle of Figure 1 on one core::Cloud with
// its default boot path (iPXE chain-load, classic iSCSI image streaming
// from the Ceph model) and the prototype's airlock.  Three enclaves share
// the datacenter: Alice (no attestation), Bob (provider attestation) and
// Charlie (own Keylime, LUKS + IPsec, continuous attestation).
//
// Step: release a seeded batch of allocated nodes (mixed tiers) with
// Enclave::ReleaseNode, then re-provision them with ProvisionNode; the step
// ends when the whole batch is back.  Charlie's continuous attestation keeps
// the event queue busy, so the step ends on the batch, not on an empty
// queue.  Closed loop, one controller coroutine per tier.  Unit: one
// provisioned node.  Setup: the Cloud and the initial provisioning wave.

#include <algorithm>
#include <array>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "perfbench/src/harness.h"
#include "src/core/cloud.h"
#include "src/core/enclave.h"
#include "src/obs/obs.h"
#include "src/sim/random.h"
#include "src/sim/task.h"

namespace perfbench {
namespace {

using namespace bolted;

constexpr int kTiers = 3;
// Nodes per tier (Alice, Bob, Charlie).  Charlie's few nodes keep his
// continuous attestation (every 2 simulated seconds per node) a light load
// next to the boot path this workload is about.
constexpr std::array<int, kTiers> kTierNodes = {20, 20, 4};
constexpr int kMachines = kTierNodes[0] + kTierNodes[1] + kTierNodes[2];
constexpr size_t kBatch = 4;  // nodes released and re-provisioned per step
constexpr std::array<const char*, kTiers> kProjects = {"alice", "bob", "charlie"};

// Fig. 4's phases, as metric-name suffixes.
constexpr std::array<std::pair<const char*, const char*>, 9> kPhases = {{
    {"allocate+airlock", "allocate_airlock"},
    {"POST", "post"},
    {"PXE/iPXE", "pxe_ipxe"},
    {"download LinuxBoot", "download_linuxboot"},
    {"LinuxBoot boot", "linuxboot_boot"},
    {"attestation", "attestation"},
    {"fetch kernel", "fetch_kernel"},
    {"move to enclave", "move_to_enclave"},
    {"kexec+kernel boot", "kexec_kernel_boot"},
}};

core::TrustProfile ProfileFor(int tier) {
  switch (tier) {
    case 0:
      return core::TrustProfile::Alice();
    case 1:
      return core::TrustProfile::Bob();
    default:
      return core::TrustProfile::Charlie();
  }
}

struct Datacenter {
  std::unique_ptr<core::Cloud> cloud;
#if BOLTED_OBS
  std::unique_ptr<obs::Registry> registry;
#endif
  std::vector<std::unique_ptr<core::Enclave>> tenants;
  double build_s = 0;
  uint64_t breaches = 0;

  sim::Simulation& sim() { return cloud->sim(); }
  int tier_of(size_t node) const {
    const auto n = static_cast<int>(node);
    return n < kTierNodes[0] ? 0 : n < kTierNodes[0] + kTierNodes[1] ? 1 : 2;
  }
  core::Enclave& tenant_of(size_t node) { return *tenants[tier_of(node)]; }

  std::string ObsText() const {
#if BOLTED_OBS
    return registry != nullptr ? registry->MetricsText() : std::string();
#else
    return {};
#endif
  }
};

// Counts the coroutines of one half-step still running.
struct Pending {
  int remaining = 0;
};

sim::Task ProvisionOne(sim::Simulation& sim, core::Enclave& tenant,
                       std::string node, core::ProvisionOutcome* outcome,
                       double* sim_ms, Pending* pending) {
  const sim::Time start = sim.now();
  co_await tenant.ProvisionNode(node, outcome);
  *sim_ms = (sim.now() - start).ToSecondsF() * 1e3;
  --pending->remaining;
}

sim::Task ReleaseOne(core::Enclave& tenant, std::string node, Pending* pending) {
  co_await tenant.ReleaseNode(node);
  --pending->remaining;
}

// One tenant controller: works through its tier's share of the batch,
// every node concurrently, and returns when all of them have.
sim::Task Controller(Datacenter& dc, std::vector<size_t> nodes, bool release,
                     std::vector<core::ProvisionOutcome>* outcomes,
                     std::vector<double>* sim_ms, Pending* pending) {
  sim::TaskGroup group(dc.sim());
  for (const size_t i : nodes) {
    const std::string name = dc.cloud->node_name(i);
    if (release) {
      group.Spawn(ReleaseOne(dc.tenant_of(i), name, pending));
    } else {
      (*outcomes)[i] = core::ProvisionOutcome{};
      group.Spawn(ProvisionOne(dc.sim(), dc.tenant_of(i), name, &(*outcomes)[i],
                               &(*sim_ms)[i], pending));
    }
  }
  co_await group.WaitAll();
}

// Runs one half-step for `batch`: every tier's controller releases (or
// provisions) its share, and the simulation runs event by event until the
// last of them returns.  Returns false if the event queue ran dry first.
bool HalfStep(Datacenter& dc, const std::vector<size_t>& batch, bool release,
              std::vector<core::ProvisionOutcome>* outcomes,
              std::vector<double>* sim_ms) {
  Pending pending{static_cast<int>(batch.size())};
  for (int tier = 0; tier < kTiers; ++tier) {
    std::vector<size_t> mine;
    for (const size_t i : batch) {
      if (dc.tier_of(i) == tier) {
        mine.push_back(i);
      }
    }
    if (!mine.empty()) {
      dc.sim().Spawn(Controller(dc, std::move(mine), release, outcomes, sim_ms,
                                &pending));
    }
  }
  while (pending.remaining > 0) {
    if (!dc.sim().Step()) {
      return false;
    }
  }
  return true;
}

// The provider's view of isolation: every frame the fabric delivers is
// checked against the tenant that owns each end (as the scenario runner
// does).  A frame between two tenants' endpoints is a breach.
void InstallSniffer(Datacenter& dc) {
  std::unordered_map<net::Address, int> owner;
  for (size_t i = 0; i < dc.cloud->num_machines(); ++i) {
    owner[dc.cloud->machine(i).address()] = dc.tier_of(i);
  }
  for (int tier = 0; tier < kTiers; ++tier) {
    for (const char* suffix :
         {"-controller", "-keylime-registrar", "-keylime-verifier"}) {
      if (net::Endpoint* e = dc.cloud->fabric().FindByName(
              std::string(kProjects[tier]) + suffix)) {
        owner[e->address()] = tier;
      }
    }
  }
  dc.cloud->fabric().SetSniffer(
      [&dc, owner = std::move(owner)](net::VlanId, const net::Message& message) {
        const auto src = owner.find(message.src);
        const auto dst = owner.find(message.dst);
        if (src != owner.end() && dst != owner.end() && src->second != dst->second) {
          ++dc.breaches;
        }
      });
}

std::unique_ptr<Datacenter> BuildDatacenter(uint64_t seed, bool traced,
                                            SpanRecorder& spans) {
  auto dc = std::make_unique<Datacenter>();
  core::CloudConfig config;
  config.num_machines = kMachines;
  config.seed = seed ^ 0x636875726eu;
  // The fleet calibration of the scenario engine and fleet_provisioning:
  // a 32 MiB boot working set keeps a long churn affordable while every
  // byte still streams over iSCSI from the object store.
  config.cal.boot_read_bytes = 32ull << 20;
  // The fleet's TPM part, drawn from the seed: quote latency within 10 ms
  // of the calibrated 1.5 s.  Kept narrow because Charlie's verifier polls
  // again 2 s after each quote returns, so a faster part means more polls
  // and more host time per step.
  sim::Rng part(seed ^ 0x74706du);
  config.cal.tpm_latency.quote =
      sim::Duration::Microseconds(1'490'000 + static_cast<int64_t>(part.NextBelow(20'000)));
  {
    ScopedSpan span(spans, "core.Cloud");
    const auto start = Clock::now();
    dc->cloud = std::make_unique<core::Cloud>(config);
    dc->build_s = SecondsSince(start);
  }
#if BOLTED_OBS
  if (traced) {
    dc->registry = std::make_unique<obs::Registry>(dc->sim());
  }
#else
  (void)traced;
#endif
  for (int tier = 0; tier < kTiers; ++tier) {
    dc->tenants.push_back(std::make_unique<core::Enclave>(
        *dc->cloud, kProjects[tier], ProfileFor(tier),
        seed * 8 + static_cast<uint64_t>(tier)));
  }
  InstallSniffer(*dc);

  std::vector<size_t> everyone(kMachines);
  for (size_t i = 0; i < everyone.size(); ++i) {
    everyone[i] = i;
  }
  std::vector<core::ProvisionOutcome> outcomes(kMachines);
  std::vector<double> sim_ms(kMachines);
  ScopedSpan span(spans, "core.provision_wave");
  if (!HalfStep(*dc, everyone, /*release=*/false, &outcomes, &sim_ms)) {
    std::fprintf(stderr, "initial provisioning wave stalled\n");
    return nullptr;
  }
  for (size_t i = 0; i < outcomes.size(); ++i) {
    if (!outcomes[i].success) {
      std::fprintf(stderr, "initial provisioning of %s failed: %s\n",
                   dc->cloud->node_name(i).c_str(), outcomes[i].failure.c_str());
      return nullptr;
    }
  }
  return dc;
}

std::map<std::string, double> ReadCounters(Datacenter& dc) {
  double osd = 0;
  for (int h = 0; h < dc.cloud->ceph().config().num_osd_hosts; ++h) {
    osd += dc.cloud->ceph().osd_resource(h).total_served();
  }
  std::map<std::string, double> c = {
      {"events", static_cast<double>(dc.sim().events_processed())},
      {"frames", static_cast<double>(dc.cloud->fabric().frames_delivered())},
      {"drops", static_cast<double>(dc.cloud->fabric().total_drops())},
      {"osd_bytes", osd},
  };
  // The provider's verifier (Bob) and Charlie's own.
  for (keylime::Verifier* v : {&dc.cloud->provider_verifier(), &dc.tenants[2]->verifier()}) {
    c["verifications"] += static_cast<double>(v->verifications());
    c["batched"] += static_cast<double>(v->batched_verifications());
    c["aik_hits"] += static_cast<double>(v->aik_cache_hits());
    c["aik_misses"] += static_cast<double>(v->aik_cache_misses());
    c["boot_hits"] += static_cast<double>(v->boot_log_cache_hits());
    c["boot_misses"] += static_cast<double>(v->boot_log_cache_misses());
    c["bisections"] += static_cast<double>(v->batch_stats().bisections);
    c["rejected_hints"] += static_cast<double>(v->batch_stats().rejected_hints);
    c["transient_retries"] += static_cast<double>(v->transient_retries());
  }
  return c;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace

int RunTenantChurn(const RunOptions& opts, WorkloadResult& result,
                   SpanRecorder& spans) {
  std::unique_ptr<Datacenter> dc;
  bool ok = true;
  RunSetups(result, [&] {
    dc.reset();
    ScopedSpan span(spans, "setup");
    dc = BuildDatacenter(opts.seed, opts.traced, spans);
    ok = ok && dc != nullptr;
  });
  if (!ok) {
    return 1;
  }

  sim::Rng rng(opts.seed ^ 0x6261746368u);
  std::vector<core::ProvisionOutcome> outcomes(kMachines);
  std::vector<double> sim_ms(kMachines);
  std::map<std::string, double> phase_sim_ms;
  const std::map<std::string, double> base = ReadCounters(*dc);
  const std::string obs_base = dc->ObsText();
  std::map<std::string, double> prefix;
  std::string obs_prefix;
  double run_s = 0;
  double release_s = 0;
  double provision_s = 0;
  uint64_t released = 0;
  uint64_t provision_failures = 0;
  uint64_t stalls = 0;
  RunTimedPhase(
      opts, result,
      [&](int step) {
        ScopedSpan step_span(spans, "step", -1, step);
        // A seeded batch of distinct nodes; every node is allocated between
        // steps, so any choice is a valid release.
        std::vector<size_t> batch;
        while (batch.size() < kBatch) {
          const size_t pick = rng.NextBelow(kMachines);
          if (std::find(batch.begin(), batch.end(), pick) == batch.end()) {
            batch.push_back(pick);
          }
        }
        StepOutcome out{.attempted = batch.size()};
        {
          ScopedSpan span(spans, "core.release", step_span.id(), step);
          const auto start = Clock::now();
          stalls += HalfStep(*dc, batch, /*release=*/true, nullptr, nullptr) ? 0 : 1;
          const double s = SecondsSince(start);
          release_s += s;
          run_s += s;
          released += batch.size();
        }
        {
          ScopedSpan span(spans, "core.provision", step_span.id(), step);
          const auto start = Clock::now();
          stalls += HalfStep(*dc, batch, /*release=*/false, &outcomes, &sim_ms) ? 0 : 1;
          const double s = SecondsSince(start);
          provision_s += s;
          run_s += s;
        }
        for (const size_t i : batch) {
          const core::ProvisionOutcome& o = outcomes[i];
          if (!o.success) {
            ++provision_failures;
            std::fprintf(stderr, "step %d: provisioning %s failed: %s\n", step,
                         dc->cloud->node_name(i).c_str(), o.failure.c_str());
            continue;
          }
          ++out.completed;
          out.sim_latency_ms.push_back(sim_ms[i]);
          if (step < kMinSteps) {
            for (const auto& phase : o.trace.phases()) {
              phase_sim_ms[phase.name] += phase.duration.ToSecondsF() * 1e3;
            }
          }
        }
        return out;
      },
      [&] {
        prefix = ReadCounters(*dc);
        obs_prefix = dc->ObsText();
        result.digests["sim.trace"] = Hex64(dc->sim().trace_digest());
        result.digests["net.frames"] = Hex64(dc->cloud->fabric().frame_digest());
      });
  result.checks["provision_failures"] = provision_failures;
  result.checks["cross_enclave_frames"] = dc->breaches;
  result.checks["stalled_half_steps"] = stalls;
  if (!opts.traced) {
    return 0;
  }

  const auto delta = [&](const char* key) { return prefix.at(key) - base.at(key); };
  const double units = static_cast<double>(result.prefix_units);
  const double all_units = static_cast<double>(result.completed);
  auto& L = result.layers;
  L["sim.events_per_unit"] = Ratio(delta("events"), units);
  L["sim.ns_per_event"] = Ratio(
      run_s * 1e9, static_cast<double>(dc->sim().events_processed()) - base.at("events"));
  L["sim.run_s"] = run_s;
  L["net.frames_per_unit"] = Ratio(delta("frames"), units);
  L["net.drops"] = delta("drops");
  L["storage.osd_bytes_per_node"] = Ratio(delta("osd_bytes"), units);
  L["keylime.batched_ratio"] = Ratio(delta("batched"), delta("verifications"));
  L["keylime.aik_cache_hit_ratio"] =
      Ratio(delta("aik_hits"), delta("aik_hits") + delta("aik_misses"));
  L["keylime.boot_log_cache_hit_ratio"] =
      Ratio(delta("boot_hits"), delta("boot_hits") + delta("boot_misses"));
  L["keylime.bisections"] = delta("bisections");
  L["keylime.rejected_hints"] = delta("rejected_hints");
  L["keylime.transient_retries"] = delta("transient_retries");
  L["core.build_s"] = dc->build_s;
  L["core.provision_ms_per_node"] = Ratio(provision_s * 1e3, all_units);
  L["core.release_ms_per_node"] = Ratio(release_s * 1e3, static_cast<double>(released));
  for (const auto& [phase, metric] : kPhases) {
    L[std::string("core.phase_sim_ms.") + metric] = Ratio(phase_sim_ms[phase], units);
  }

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
  L["core.rejects"] = obs_delta("enclave.provision_reject");
  const double quotes = static_cast<double>(
      ObsHistogramCount(obs_prefix, "tpm.cmd_ns.quote") -
      ObsHistogramCount(obs_base, "tpm.cmd_ns.quote"));
  L["tpm.quotes_per_unit"] = Ratio(quotes, units);

  // The attested tiers' TPMs (Bob and Charlie), all holding a live AIK.
  std::vector<const tpm::Tpm*> tpms;
  for (size_t i = 0; i < dc->cloud->num_machines(); ++i) {
    if (dc->tier_of(i) != 0 && dc->cloud->machine(i).tpm().has_aik()) {
      tpms.push_back(&dc->cloud->machine(i).tpm());
    }
  }
  const QuoteReplay replay = ReplayQuotes(tpms, spans);
  L["crypto.quote_sign_us"] = replay.sign_us;
  L["crypto.quote_verify_us"] = replay.verify_us;
  L["crypto.attest_share"] = Ratio(
      (replay.sign_us + replay.verify_us) * 1e-6 * quotes / units * all_units,
      result.timed_s);
  return 0;
}

}  // namespace perfbench
