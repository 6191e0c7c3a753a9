// Batched attestation tests: P256::VerifyBatch against the sequential
// oracle (equivalence, exact blame under poisoning, adversarial R hints,
// Wycheproof-style rejection vectors), Tpm::VerifyQuoteBatch, and the
// verifier's fleet pipeline (verdict, trace-digest, obs and batch-stat
// invariance across offload-queue sizes, stale-AIK negatives, nodes
// removed mid-verification, teardown mid-round).
//
// Selected with `ctest -L attestation`; the TSan leg of scripts/check.sh
// runs this binary too, since queue threads sign quotes and verify quote
// batches while the simulation thread runs.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <string>
#include <thread>
#include <vector>

#ifdef __linux__
#include <sched.h>
#endif

#include "src/crypto/p256.h"
#include "src/crypto/sha256.h"
#include "src/keylime/agent.h"
#include "src/keylime/registrar.h"
#include "src/keylime/verifier.h"
#include "src/machine/machine.h"
#include "src/obs/obs.h"
#include "src/sim/offload.h"

namespace bolted {
namespace {

using crypto::Digest;
using crypto::EcdsaSignature;
using crypto::EcPoint;
using crypto::P256;
using crypto::U256;
using sim::Task;

// One signer with its prepared verification key and a signed message.
struct Signed {
  P256::PreparedKey key;
  EcPoint public_key;
  Digest hash;
  EcdsaSignature signature;
  EcPoint r_hint;
};

std::vector<Signed> MakeSigners(size_t n, uint64_t salt = 0) {
  const P256& curve = P256::Instance();
  std::vector<Signed> out(n);
  for (size_t i = 0; i < n; ++i) {
    const std::string seed =
        "batch-signer-" + std::to_string(salt) + "-" + std::to_string(i);
    const U256 priv = curve.PrivateKeyFromSeed(crypto::ToBytes(seed));
    out[i].public_key = curve.PublicKey(priv);
    out[i].key = *curve.Prepare(out[i].public_key);
    out[i].hash = crypto::Sha256::Hash("message-" + std::to_string(i));
    out[i].signature = curve.Sign(priv, out[i].hash, &out[i].r_hint);
  }
  return out;
}

std::vector<P256::BatchEntry> ToEntries(const std::vector<Signed>& signers,
                                        bool with_hints) {
  std::vector<P256::BatchEntry> entries(signers.size());
  for (size_t i = 0; i < signers.size(); ++i) {
    entries[i].key = &signers[i].key;
    entries[i].message_hash = signers[i].hash;
    entries[i].signature = signers[i].signature;
    entries[i].r_hint = with_hints ? &signers[i].r_hint : nullptr;
  }
  return entries;
}

// The oracle: ok[i] from VerifyBatch must equal sequential Verify for
// every entry, whatever the batch outcome.
void ExpectMatchesSequential(const std::vector<P256::BatchEntry>& entries,
                             const std::vector<bool>& ok) {
  const P256& curve = P256::Instance();
  for (size_t i = 0; i < entries.size(); ++i) {
    const bool expected =
        entries[i].key != nullptr &&
        curve.Verify(*entries[i].key, entries[i].message_hash,
                     entries[i].signature);
    EXPECT_EQ(ok[i], expected) << "entry " << i;
  }
}

std::vector<bool> RunBatch(const std::vector<P256::BatchEntry>& entries,
                           bool* all, P256::BatchStats* stats = nullptr) {
  std::vector<uint8_t> ok(entries.size() ? entries.size() : 1, 0xcc);
  bool result = P256::Instance().VerifyBatch(
      entries, reinterpret_cast<bool*>(ok.data()), stats);
  if (all != nullptr) {
    *all = result;
  }
  return std::vector<bool>(ok.begin(), ok.begin() + entries.size());
}

TEST(VerifyBatchTest, AllValidMatchesSequentialAcrossSizes) {
  for (size_t n : {1u, 2u, 3u, 5u, 8u, 17u, 33u, 64u}) {
    auto signers = MakeSigners(n, n);
    auto entries = ToEntries(signers, /*with_hints=*/true);
    P256::BatchStats stats;
    bool all = false;
    auto ok = RunBatch(entries, &all, &stats);
    EXPECT_TRUE(all) << "n=" << n;
    EXPECT_EQ(stats.bisections, 0u) << "n=" << n;
    EXPECT_EQ(stats.rejected_hints, 0u) << "n=" << n;
    EXPECT_EQ(stats.sqrt_recoveries, 0u) << "n=" << n;
    ExpectMatchesSequential(entries, ok);
  }
}

TEST(VerifyBatchTest, NoHintFallsBackToSquareRootRecovery) {
  // The plain 2-arg Sign does not normalize the nonce parity, so about
  // half of these signatures have an odd-y nonce point.  The even-y
  // square-root guess is then wrong, the combination fails, and bisection
  // must still converge on all-true verdicts (the fail-closed guarantee;
  // quotes avoid this cost by signing with the even-y convention).
  const P256& curve = P256::Instance();
  auto signers = MakeSigners(16);
  for (size_t i = 0; i < signers.size(); ++i) {
    const U256 priv = curve.PrivateKeyFromSeed(
        crypto::ToBytes("plain-signer-" + std::to_string(i)));
    signers[i].public_key = curve.PublicKey(priv);
    signers[i].key = *curve.Prepare(signers[i].public_key);
    signers[i].signature = curve.Sign(priv, signers[i].hash);
  }
  auto entries = ToEntries(signers, /*with_hints=*/false);
  P256::BatchStats stats;
  bool all = false;
  auto ok = RunBatch(entries, &all, &stats);
  EXPECT_TRUE(all);
  EXPECT_EQ(stats.sqrt_recoveries, signers.size());
  ExpectMatchesSequential(entries, ok);
}

TEST(VerifyBatchTest, PoisonedBatchBisectsToExactBlame) {
  for (size_t bad_at : {0u, 7u, 15u, 31u}) {
    auto signers = MakeSigners(32);
    auto entries = ToEntries(signers, /*with_hints=*/true);
    // Flip the message so the signature no longer matches; the hint still
    // validates (it is a real curve point with the right x), so the bad
    // entry participates in the combination and must be found by bisection.
    entries[bad_at].message_hash[5] ^= 0x40;
    P256::BatchStats stats;
    bool all = true;
    auto ok = RunBatch(entries, &all, &stats);
    EXPECT_FALSE(all);
    EXPECT_GT(stats.bisections, 0u);
    ExpectMatchesSequential(entries, ok);
    for (size_t i = 0; i < entries.size(); ++i) {
      EXPECT_EQ(ok[i], i != bad_at) << "entry " << i;
    }
  }
}

TEST(VerifyBatchTest, AllBadAndDuplicateEntries) {
  auto signers = MakeSigners(9);
  auto entries = ToEntries(signers, /*with_hints=*/true);
  for (auto& e : entries) {
    e.message_hash[0] ^= 1;
  }
  bool all = true;
  auto ok = RunBatch(entries, &all);
  EXPECT_FALSE(all);
  ExpectMatchesSequential(entries, ok);

  // Same key signing several messages, plus a byte-identical duplicate
  // entry: both must be handled (the transcript separates them by index).
  auto base = MakeSigners(1);
  const P256& curve = P256::Instance();
  const U256 priv = curve.PrivateKeyFromSeed(crypto::ToBytes("batch-signer-0-0"));
  std::vector<Signed> dup(4, base[0]);
  for (size_t i = 1; i < 3; ++i) {
    dup[i].hash = crypto::Sha256::Hash("dup-message-" + std::to_string(i));
    dup[i].signature = curve.Sign(priv, dup[i].hash, &dup[i].r_hint);
  }
  dup[3] = dup[2];  // exact duplicate
  auto dup_entries = ToEntries(dup, /*with_hints=*/true);
  all = false;
  ok = RunBatch(dup_entries, &all);
  EXPECT_TRUE(all);
  ExpectMatchesSequential(dup_entries, ok);
}

TEST(VerifyBatchTest, RejectionVectors) {
  // Wycheproof-style malformed signatures, each embedded in an otherwise
  // valid batch: the batch must reject exactly the malformed entry.
  const U256 n = U256::FromHexString(
      "ffffffff00000000ffffffffffffffffbce6faada7179e84f3b9cac2fc632551");
  struct Case {
    const char* name;
    void (*mutate)(P256::BatchEntry&, const U256&);
  };
  const Case cases[] = {
      {"zero r", [](P256::BatchEntry& e, const U256&) { e.signature.r = U256{}; }},
      {"zero s", [](P256::BatchEntry& e, const U256&) { e.signature.s = U256{}; }},
      {"r = n", [](P256::BatchEntry& e, const U256& order) { e.signature.r = order; }},
      {"s = n", [](P256::BatchEntry& e, const U256& order) { e.signature.s = order; }},
      {"swapped r/s",
       [](P256::BatchEntry& e, const U256&) {
         std::swap(e.signature.r, e.signature.s);
       }},
      {"s + 1",
       [](P256::BatchEntry& e, const U256&) {
         const U256 one = U256::FromHexString("01");
         crypto::AddCarry(e.signature.s, one, e.signature.s);
       }},
      {"null key", [](P256::BatchEntry& e, const U256&) { e.key = nullptr; }},
  };
  for (const Case& c : cases) {
    auto signers = MakeSigners(8);
    auto entries = ToEntries(signers, /*with_hints=*/false);
    c.mutate(entries[3], n);
    bool all = true;
    auto ok = RunBatch(entries, &all);
    EXPECT_FALSE(all) << c.name;
    EXPECT_FALSE(ok[3]) << c.name;
    ExpectMatchesSequential(entries, ok);
  }
  // Signature under the wrong key: valid shape, fails the equation.
  auto signers = MakeSigners(8);
  auto entries = ToEntries(signers, /*with_hints=*/false);
  entries[2].key = &signers[5].key;
  bool all = true;
  auto ok = RunBatch(entries, &all);
  EXPECT_FALSE(all);
  EXPECT_FALSE(ok[2]);
  ExpectMatchesSequential(entries, ok);
}

TEST(VerifyBatchTest, AdversarialHintsNeverChangeVerdicts) {
  const U256 p = U256::FromHexString(
      "ffffffff00000001000000000000000000000000ffffffffffffffffffffffff");
  // Negated-R hint: on the curve with the right x, but the wrong parity.
  // It passes hint validation, poisons the combination, and bisection must
  // still land on all-true verdicts.
  {
    auto signers = MakeSigners(8);
    crypto::SubBorrow(p, signers[4].r_hint.y, signers[4].r_hint.y);
    auto entries = ToEntries(signers, /*with_hints=*/true);
    P256::BatchStats stats;
    bool all = false;
    auto ok = RunBatch(entries, &all, &stats);
    EXPECT_TRUE(all);
    EXPECT_GT(stats.bisections, 0u);
    ExpectMatchesSequential(entries, ok);
  }
  // Off-curve hint: rejected up front, recovered via the square root, no
  // bisection needed.
  {
    auto signers = MakeSigners(8);
    const U256 one = U256::FromHexString("01");
    crypto::AddCarry(signers[4].r_hint.y, one, signers[4].r_hint.y);
    auto entries = ToEntries(signers, /*with_hints=*/true);
    P256::BatchStats stats;
    bool all = false;
    auto ok = RunBatch(entries, &all, &stats);
    EXPECT_TRUE(all);
    EXPECT_EQ(stats.rejected_hints, 1u);
    EXPECT_EQ(stats.sqrt_recoveries, 1u);
    EXPECT_EQ(stats.bisections, 0u);
    ExpectMatchesSequential(entries, ok);
  }
}

TEST(QuoteBatchTest, MatchesVerifyQuoteIncludingCorruption) {
  std::vector<std::unique_ptr<tpm::Tpm>> tpms;
  std::vector<tpm::Quote> quotes;
  std::vector<P256::PreparedKey> keys;
  const tpm::TpmLatencyModel latency;
  for (int i = 0; i < 12; ++i) {
    tpms.push_back(std::make_unique<tpm::Tpm>(
        crypto::ToBytes("ek-seed-" + std::to_string(i)), latency));
    tpms.back()->CreateAik();
    tpms.back()->ExtendPcr(0, crypto::Sha256::Hash("fw-" + std::to_string(i)));
    quotes.push_back(
        tpms.back()->MakeQuote(crypto::ToBytes("nonce-" + std::to_string(i)), 1));
    keys.push_back(*P256::Instance().Prepare(tpms.back()->aik_public()));
  }
  quotes[3].nonce.back() ^= 1;          // signed content changed
  quotes[9].signature.s.limb[0] ^= 1;  // signature corrupted

  std::vector<tpm::Tpm::QuoteBatchEntry> entries(quotes.size());
  for (size_t i = 0; i < quotes.size(); ++i) {
    entries[i] = {&quotes[i], &keys[i]};
  }
  std::vector<uint8_t> ok(quotes.size(), 0xcc);
  crypto::P256::BatchStats stats;
  EXPECT_FALSE(tpm::Tpm::VerifyQuoteBatch(
      entries, reinterpret_cast<bool*>(ok.data()), &stats));
  for (size_t i = 0; i < quotes.size(); ++i) {
    EXPECT_EQ(static_cast<bool>(ok[i]),
              tpm::Tpm::VerifyQuote(quotes[i], keys[i]))
        << "quote " << i;
    EXPECT_EQ(static_cast<bool>(ok[i]), i != 3 && i != 9) << "quote " << i;
  }
}

// --- Fleet pipeline -------------------------------------------------------

// A small fleet over the simulated fabric.  One machine runs compromised
// firmware, one node is registered with an unreachable agent address; the
// rest are healthy.  `staggered` spreads the TPMs' quote latencies
// (1 s + 10 ms per node index), so quotes land one by one over the round
// instead of all at one instant.  `queue_threads` >= 0 attaches an offload
// queue of that many threads (0: every job runs inline at its wait);
// otherwise the process-wide queue serves the fleet.
struct FleetFixture {
  static constexpr int kNodes = 24;
  static constexpr int kCompromised = 17;
  static constexpr int kUnreachable = 21;

  // Declared before sim: an attached queue outlives the simulation.
  std::unique_ptr<sim::OffloadQueue> queue;
  sim::Simulation sim;
  net::Network fabric{sim, sim::Duration::Microseconds(10), 1.25e9};
  net::Endpoint& registrar_ep{fabric.CreateEndpoint("registrar")};
  net::Endpoint& verifier_ep{fabric.CreateEndpoint("verifier")};
  keylime::Registrar registrar{sim, registrar_ep, 1};
  keylime::Verifier verifier{sim, verifier_ep, registrar_ep.address(), 2};
  machine::MachineConfig mc;
  std::shared_ptr<keylime::Whitelist> whitelist =
      std::make_shared<keylime::Whitelist>();
  std::vector<std::unique_ptr<machine::Machine>> machines;
  std::vector<std::unique_ptr<keylime::Agent>> agents;
  std::vector<std::string> names;

  explicit FleetFixture(uint64_t seed = 9001, int nodes = kNodes,
                        bool staggered = false, int queue_threads = -1)
      : queue(queue_threads >= 0
                  ? std::make_unique<sim::OffloadQueue>(static_cast<uint32_t>(queue_threads))
                  : nullptr),
        sim{seed} {
    if (queue != nullptr) {
      sim.set_offload(queue.get());
    }
    mc.flash_firmware = firmware::BuildLinuxBoot("src");
    whitelist->AllowBoot(mc.flash_firmware.digest);
    fabric.AttachToVlan(registrar_ep.address(), 50);
    fabric.AttachToVlan(verifier_ep.address(), 50);
    for (int i = 0; i < nodes; ++i) {
      machine::MachineConfig config = mc;
      if (staggered) {
        config.tpm_latency.quote = sim::Duration::Milliseconds(1000 + 10 * i);
      }
      names.push_back("fleet-" + std::to_string(i));
      machines.push_back(
          std::make_unique<machine::Machine>(sim, fabric, names.back(), config));
      agents.push_back(std::make_unique<keylime::Agent>(*machines.back(), 100 + i));
      fabric.AttachToVlan(machines.back()->address(), 50);
    }
    machines[kCompromised]->ReflashFirmware(
        firmware::CompromisedVariant(mc.flash_firmware, "implant"));
    auto setup = [&](int i) -> Task {
      bool ok = false;
      co_await agents[static_cast<size_t>(i)]->RegisterWithRegistrar(
          registrar_ep.address(), names[static_cast<size_t>(i)], &ok);
      co_await machines[static_cast<size_t>(i)]->PowerOnSelfTest();
    };
    for (int i = 0; i < nodes; ++i) {
      sim.Spawn(setup(i));
    }
    sim.Run();
    for (int i = 0; i < nodes; ++i) {
      AddNode(i);
    }
    // Short timeout, single attempt: the unreachable node fails fast.
    verifier.SetCallOptions({.timeout = sim::Duration::Seconds(2),
                             .max_attempts = 1});
  }

  void AddNode(int i) {
    keylime::Verifier::NodeConfig config;
    config.agent = i == kUnreachable ? net::Address{59999}
                                     : machines[static_cast<size_t>(i)]->address();
    config.whitelist = whitelist;
    verifier.AddNode(names[static_cast<size_t>(i)], std::move(config));
  }

  // Gives node i a fresh AIK the registrar never certified: its quotes
  // then carry signatures that fail against the registered key.
  void ForgeSignatures(int i) { machines[static_cast<size_t>(i)]->tpm().CreateAik(); }

  std::vector<keylime::VerificationResult> Poll() {
    std::vector<keylime::VerificationResult> results(names.size());
    auto round = [&]() -> Task {
      co_await verifier.VerifyFleet(names, results.data());
    };
    sim.Spawn(round());
    sim.Run();
    return results;
  }
};

// The compromised and unreachable nodes fail with their reasons, each node
// in `failures` with exactly the given one, and every other node passes.
void ExpectFleetVerdicts(const std::vector<keylime::VerificationResult>& results,
                         const std::map<int, std::string>& failures = {}) {
  for (int i = 0; i < static_cast<int>(results.size()); ++i) {
    if (const auto it = failures.find(i); it != failures.end()) {
      EXPECT_FALSE(results[static_cast<size_t>(i)].passed) << i;
      EXPECT_EQ(results[static_cast<size_t>(i)].failure, it->second) << i;
    } else if (i == FleetFixture::kCompromised) {
      EXPECT_FALSE(results[static_cast<size_t>(i)].passed);
      EXPECT_NE(results[static_cast<size_t>(i)].failure.find(
                    "unwhitelisted boot measurement"),
                std::string::npos)
          << results[static_cast<size_t>(i)].failure;
    } else if (i == FleetFixture::kUnreachable) {
      EXPECT_FALSE(results[static_cast<size_t>(i)].passed);
      EXPECT_EQ(results[static_cast<size_t>(i)].failure, "agent unreachable");
    } else {
      EXPECT_TRUE(results[static_cast<size_t>(i)].passed)
          << i << ": " << results[static_cast<size_t>(i)].failure;
    }
  }
}

TEST(FleetTest, VerdictsAndDigestsInvariantAcrossBatchAndWorkers) {
  struct Config {
    int queue_threads;
    int batch_size;
  };
  const Config configs[] = {{0, 1}, {0, 7}, {0, 64}, {1, 16}, {7, 64}};
  uint64_t expected_digest = 0;
  std::vector<std::string> expected_failures;
  for (size_t c = 0; c < std::size(configs); ++c) {
    FleetFixture fleet(9001, FleetFixture::kNodes, false, configs[c].queue_threads);
    fleet.verifier.SetFleetOptions({.batch_size = configs[c].batch_size});
    auto first = fleet.Poll();
    auto second = fleet.Poll();  // steady state: caches warm
    ExpectFleetVerdicts(first);
    ExpectFleetVerdicts(second);
    EXPECT_GT(fleet.verifier.batched_verifications(), 0u);
    EXPECT_GT(fleet.verifier.boot_log_cache_hits(), 0u);
    EXPECT_EQ(fleet.verifier.batch_stats().bisections, 0u);
    std::vector<std::string> failures;
    for (const auto& r : second) {
      failures.push_back(r.failure);
    }
    if (c == 0) {
      expected_digest = fleet.sim.trace_digest();
      expected_failures = failures;
    } else {
      // The whole point of host-side batching: the simulated event stream
      // (and so the chaos trace digest) cannot depend on the batch size or
      // the queue's thread count.
      EXPECT_EQ(fleet.sim.trace_digest(), expected_digest)
          << "batch=" << configs[c].batch_size
          << " queue threads=" << configs[c].queue_threads;
      EXPECT_EQ(failures, expected_failures);
    }
  }
}

TEST(FleetTest, FleetMatchesPerNodeVerdicts) {
  FleetFixture fleet;
  auto fleet_results = fleet.Poll();

  FleetFixture solo;
  std::vector<keylime::VerificationResult> solo_results(FleetFixture::kNodes);
  auto rounds = [&]() -> Task {
    for (int i = 0; i < FleetFixture::kNodes; ++i) {
      co_await solo.verifier.VerifyNode(solo.names[static_cast<size_t>(i)],
                                        &solo_results[static_cast<size_t>(i)]);
    }
  };
  solo.sim.Spawn(rounds());
  solo.sim.Run();

  for (int i = 0; i < FleetFixture::kNodes; ++i) {
    EXPECT_EQ(fleet_results[static_cast<size_t>(i)].passed,
              solo_results[static_cast<size_t>(i)].passed)
        << i;
    EXPECT_EQ(fleet_results[static_cast<size_t>(i)].failure,
              solo_results[static_cast<size_t>(i)].failure)
        << i;
  }
}

TEST(FleetTest, StaleAikCannotValidateReRegisteredNode) {
  FleetFixture fleet;
  auto first = fleet.Poll();
  EXPECT_TRUE(first[0].passed) << first[0].failure;

  // Capture the prepared AIK the verifier currently trusts for node 0.
  const auto stale_keys = fleet.registrar.Lookup(fleet.names[0]);
  ASSERT_TRUE(stale_keys.has_value());
  const auto stale_prepared = P256::Instance().Prepare(stale_keys->aik);
  ASSERT_TRUE(stale_prepared.has_value());

  // The node is re-provisioned: new AIK, fresh credential activation.
  fleet.machines[0]->tpm().CreateAik();
  bool ok = false;
  auto rereg = [&]() -> Task {
    co_await fleet.agents[0]->RegisterWithRegistrar(
        fleet.registrar_ep.address(), fleet.names[0], &ok);
  };
  fleet.sim.Spawn(rereg());
  fleet.sim.Run();
  ASSERT_TRUE(ok);
  fleet.verifier.InvalidateKeyCache(fleet.names[0]);

  const uint64_t misses_before = fleet.verifier.aik_cache_misses();
  auto second = fleet.Poll();
  EXPECT_TRUE(second[0].passed) << second[0].failure;
  // The re-registered key had to be re-prepared from the new wire bytes.
  EXPECT_GT(fleet.verifier.aik_cache_misses(), misses_before);

  // Negative: a quote from the NEW AIK must not validate against the
  // STALE prepared key — neither one-shot nor through the batch path.
  const tpm::Quote quote =
      fleet.machines[0]->tpm().MakeQuote(crypto::ToBytes("fresh-nonce"), 1);
  EXPECT_FALSE(tpm::Tpm::VerifyQuote(quote, *stale_prepared));
  tpm::Tpm::QuoteBatchEntry entry{&quote, &*stale_prepared};
  bool batch_ok = true;
  EXPECT_FALSE(tpm::Tpm::VerifyQuoteBatch({&entry, 1}, &batch_ok));
  EXPECT_FALSE(batch_ok);
}

// Everything a fleet round lets an observer see.
struct FleetOutputs {
  std::vector<std::string> failures;
  uint64_t trace_digest = 0;
  std::string metrics;
  uint32_t bisections = 0;
  uint32_t sqrt_recoveries = 0;
  uint32_t rejected_hints = 0;
  uint64_t batched = 0;
  uint64_t presigned = 0;
  uint64_t resigned = 0;
};

TEST(FleetTest, WorkerCountChangesNothingObservable) {
  // 72 staggered nodes: with batch 64 one full batch is sealed mid-round.
  // Node 5's forged signature makes every multi-quote batch holding it
  // bisect.  The oracle is the zero-thread queue: every quote signed and
  // every batch verified inline, on the simulation thread.
  constexpr int kNodes = 72;
  constexpr int kForged = 5;
  constexpr uint64_t kLanded = kNodes - 1;  // all but the unreachable node
  for (const int batch : {1, 7, 64}) {
    FleetOutputs oracle;
    for (const int threads : {0, 1, 3, 7}) {
      FleetFixture fleet(9001, kNodes, /*staggered=*/true, threads);
      fleet.ForgeSignatures(kForged);
#if BOLTED_OBS
      obs::Registry registry(fleet.sim);
#endif
      fleet.verifier.SetFleetOptions({.batch_size = batch});
      const auto first = fleet.Poll();
      const auto second = fleet.Poll();
      ExpectFleetVerdicts(first, {{kForged, "quote signature invalid"}});
      ExpectFleetVerdicts(second, {{kForged, "quote signature invalid"}});

      FleetOutputs out;
      for (const auto& r : second) {
        out.failures.push_back(r.failure);
      }
      out.trace_digest = fleet.sim.trace_digest();
#if BOLTED_OBS
      out.metrics = registry.MetricsText();
#endif
      const crypto::P256::BatchStats& stats = fleet.verifier.batch_stats();
      out.bisections = stats.bisections;
      out.sqrt_recoveries = stats.sqrt_recoveries;
      out.rejected_hints = stats.rejected_hints;
      out.batched = fleet.verifier.batched_verifications();
      for (const auto& machine : fleet.machines) {
        out.presigned += machine->tpm().quotes_presigned();
        out.resigned += machine->tpm().quotes_resigned();
      }
      // Every sealed batch was verified exactly once, by a queue thread or
      // at the join, and every quote was signed exactly once, by a queue
      // thread or by the agent when its command finished; a zero-thread
      // queue hands nothing off.
      const uint64_t batches =
          2 * ((kLanded + static_cast<uint64_t>(batch) - 1) / static_cast<uint64_t>(batch));
      EXPECT_EQ(fleet.verifier.fleet_batches_offloaded() +
                    fleet.verifier.fleet_batches_drained(),
                batches);
      EXPECT_EQ(fleet.queue->submitted(), batches + out.presigned + out.resigned);
      EXPECT_EQ(fleet.queue->thread_runs() + fleet.queue->waiter_runs(),
                fleet.queue->submitted());
      if (threads == 0) {
        EXPECT_EQ(fleet.verifier.fleet_batches_offloaded(), 0u);
        EXPECT_EQ(fleet.verifier.fleet_join_wait_ns(), 0u);
        EXPECT_EQ(fleet.queue->thread_runs(), 0u);
        EXPECT_FALSE(fleet.queue->started());
      }
      if (batch > 1) {  // a singleton batch is checked directly, not bisected
        EXPECT_GT(out.bisections, 0u) << "batch=" << batch;
      }
      EXPECT_EQ(out.batched, 2 * kLanded);
      EXPECT_EQ(out.presigned, 2 * kLanded);
      EXPECT_EQ(out.resigned, 0u);

      if (threads == 0) {
        oracle = out;
        continue;
      }
      const auto where = ::testing::Message() << "batch=" << batch
                                              << " queue threads=" << threads;
      EXPECT_EQ(out.failures, oracle.failures) << where;
      EXPECT_EQ(out.trace_digest, oracle.trace_digest) << where;
      EXPECT_EQ(out.metrics, oracle.metrics) << where;
      EXPECT_EQ(out.bisections, oracle.bisections) << where;
      EXPECT_EQ(out.sqrt_recoveries, oracle.sqrt_recoveries) << where;
      EXPECT_EQ(out.rejected_hints, oracle.rejected_hints) << where;
      EXPECT_EQ(out.batched, oracle.batched) << where;
      EXPECT_EQ(out.presigned, oracle.presigned) << where;
      EXPECT_EQ(out.resigned, oracle.resigned) << where;
    }
  }
}

#ifdef __linux__
TEST(FleetTest, PoolLeavesTheSimulationThreadUnpinned) {
  cpu_set_t before;
  ASSERT_EQ(sched_getaffinity(0, sizeof(before), &before), 0);
  FleetFixture fleet(9001, 40, /*staggered=*/true, /*queue_threads=*/3);
  fleet.verifier.SetFleetOptions({.batch_size = 4});
  ExpectFleetVerdicts(fleet.Poll());
  cpu_set_t after;
  ASSERT_EQ(sched_getaffinity(0, sizeof(after), &after), 0);
  EXPECT_TRUE(CPU_EQUAL(&before, &after));
}
#endif

// A node removed while its verification is suspended fails closed, also
// when a node of the same name has been added since; the re-added node
// then verifies from a clean state.
TEST(VerifierRemovalTest, RemoveDuringVerifyNodeFailsClosed) {
  FleetFixture fleet;
  keylime::VerificationResult removed;
  keylime::VerificationResult readded;
  auto verify = [&](int i, keylime::VerificationResult* result) -> Task {
    co_await fleet.verifier.VerifyNode(fleet.names[static_cast<size_t>(i)], result);
  };
  fleet.sim.Spawn(verify(0, &removed));
  fleet.sim.Spawn(verify(1, &readded));
  // 100 ms in, both flows wait on their 1.5 s TPM quotes.
  fleet.sim.RunUntil(fleet.sim.now() + sim::Duration::Milliseconds(100));
  fleet.verifier.RemoveNode(fleet.names[0]);
  fleet.verifier.RemoveNode(fleet.names[1]);
  fleet.AddNode(1);
  fleet.sim.Run();
  EXPECT_FALSE(removed.passed);
  EXPECT_EQ(removed.failure, "node removed during verification");
  EXPECT_FALSE(readded.passed);
  EXPECT_EQ(readded.failure, "node removed during verification");
  EXPECT_FALSE(fleet.verifier.HasNode(fleet.names[0]));

  keylime::VerificationResult fresh;
  fleet.sim.Spawn(verify(1, &fresh));
  fleet.sim.Run();
  EXPECT_TRUE(fresh.passed) << fresh.failure;
}

// The same inside a pipelined fleet round: node 2 is removed before its
// quote lands, node 3 after its quote landed and was sealed into a batch
// (the batch keeps the quote and the AIK it was fetched with alive until
// it is checked, by a queue thread or at the join), and node 4 is removed
// and re-added after landing.
TEST(VerifierRemovalTest, RemoveDuringVerifyFleetFailsClosed) {
  for (const int threads : {0, 3}) {
    FleetFixture fleet(9001, FleetFixture::kNodes, /*staggered=*/true, threads);
    fleet.verifier.SetFleetOptions({.batch_size = 1});
    std::vector<keylime::VerificationResult> results(fleet.names.size());
    auto round = [&]() -> Task {
      co_await fleet.verifier.VerifyFleet(fleet.names, results.data());
    };
    fleet.sim.Spawn(round());
    fleet.sim.RunUntil(fleet.sim.now() + sim::Duration::Milliseconds(100));
    fleet.verifier.RemoveNode(fleet.names[2]);
    // Node 4's quote (1.04 s TPM latency) has landed by 1.5 s.
    fleet.sim.RunUntil(fleet.sim.now() + sim::Duration::Milliseconds(1400));
    fleet.verifier.RemoveNode(fleet.names[3]);
    fleet.verifier.RemoveNode(fleet.names[4]);
    fleet.AddNode(4);
    fleet.sim.Run();
    const std::string removed = "node removed during verification";
    ExpectFleetVerdicts(results, {{2, removed}, {3, removed}, {4, removed}});

    // The next round verifies the re-added node from scratch.
    fleet.verifier.RemoveNode(fleet.names[2]);
    results = fleet.Poll();
    ExpectFleetVerdicts(results, {{2, "unknown node"}, {3, "unknown node"}});
  }
}

// Holds a queue thread until opened, so the jobs queued behind it are
// still pending when their owners go away.
struct Gate final : sim::OffloadQueue::Job {
  void Run() override { open.wait(false, std::memory_order_acquire); }
  void Open() {
    open.store(true, std::memory_order_release);
    open.notify_all();
  }
  std::atomic<bool> open{false};
};

// Tearing a fleet down mid-round — the verifier, the machines and the
// simulation that still owns the suspended round and agent handlers —
// with sign jobs and sealed batches still queued: the queue thread then
// runs every one of them, over memory the jobs own (ASan would report a
// touch of anything freed).
TEST(FleetTest, TeardownMidRoundLeavesQueuedJobsSelfContained) {
  sim::OffloadQueue queue(1);
  const auto gate = std::make_shared<Gate>();
  queue.Submit(gate);
  auto fleet = std::make_unique<FleetFixture>(9001, FleetFixture::kNodes,
                                              /*staggered=*/true);
  fleet->sim.set_offload(&queue);
  fleet->verifier.SetFleetOptions({.batch_size = 1});
  std::vector<keylime::VerificationResult> results(fleet->names.size());
  auto round = [&]() -> Task {
    co_await fleet->verifier.VerifyFleet(fleet->names, results.data());
  };
  fleet->sim.Spawn(round());
  // By 1.1 s nodes 0..9 have quoted (their signatures ran on the waiting
  // agent, the thread being held) and their batches are queued; the
  // others' sign jobs are still queued behind the gate.
  fleet->sim.RunUntil(fleet->sim.now() + sim::Duration::Milliseconds(1100));
  EXPECT_GT(fleet->verifier.verifications(), 0u);
  EXPECT_GT(queue.submitted(), queue.waiter_runs() + 1);
  fleet.reset();
  gate->Open();
  while (queue.thread_runs() + queue.waiter_runs() < queue.submitted()) {
    std::this_thread::yield();
  }
}

}  // namespace
}  // namespace bolted
