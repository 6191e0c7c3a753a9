// Host-offload tests: sim::OffloadQueue (claim-once semantics, inline runs
// on a zero-thread queue, lazy thread start, published results) and the
// TPM's speculative quotes signed on it (byte-identical to MakeQuote when
// nothing changed, re-signed when a PCR, Reset or CreateAik intervenes,
// nothing submitted for a faulted command, owners destroyed with sign
// jobs still queued).
//
// The TSan leg of scripts/check.sh runs this binary: queue threads run
// jobs while the submitting thread keeps working.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/firmware/firmware.h"
#include "src/keylime/agent.h"
#include "src/keylime/registrar.h"
#include "src/keylime/verifier.h"
#include "src/machine/machine.h"
#include "src/sim/offload.h"
#include "src/tpm/tpm.h"

namespace bolted {
namespace {

using sim::OffloadQueue;

// Records which thread ran it and what it computed from its input.
struct SquareJob final : OffloadQueue::Job {
  explicit SquareJob(uint64_t input) : input(input) {}
  void Run() override {
    output = input * input;
    ran_on = std::this_thread::get_id();
    runs.fetch_add(1, std::memory_order_relaxed);
  }
  const uint64_t input;
  uint64_t output = 0;
  std::thread::id ran_on;
  std::atomic<int> runs{0};
};

// Holds a queue thread until opened, so the jobs queued behind it stay
// unclaimed.
struct Gate final : OffloadQueue::Job {
  void Run() override {
    entered.store(true, std::memory_order_release);
    open.wait(false, std::memory_order_acquire);
  }
  void Open() {
    open.store(true, std::memory_order_release);
    open.notify_all();
  }
  // Until a thread holds the gate, a waiter could still claim it.
  void AwaitEntered() const {
    while (!entered.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  }
  std::atomic<bool> entered{false};
  std::atomic<bool> open{false};
};

// Blocks until every submitted job has run, on a thread or a waiter.
void Drain(const OffloadQueue& queue) {
  while (queue.thread_runs() + queue.waiter_runs() < queue.submitted()) {
    std::this_thread::yield();
  }
}

TEST(OffloadQueueTest, ZeroThreadsRunEveryJobInlineAtWait) {
  OffloadQueue queue(0);
  std::vector<std::shared_ptr<SquareJob>> jobs;
  for (uint64_t i = 0; i < 8; ++i) {
    jobs.push_back(std::make_shared<SquareJob>(i));
    queue.Submit(jobs.back());
  }
  EXPECT_FALSE(queue.started());
  for (const auto& job : jobs) {
    EXPECT_EQ(job->runs.load(), 0);  // nothing runs before its wait
    EXPECT_TRUE(queue.Wait(*job));
    EXPECT_EQ(job->output, job->input * job->input);
    EXPECT_EQ(job->ran_on, std::this_thread::get_id());
    EXPECT_FALSE(queue.Wait(*job));  // a second wait returns at once
    EXPECT_EQ(job->runs.load(), 1);
  }
  EXPECT_EQ(queue.submitted(), 8u);
  EXPECT_EQ(queue.waiter_runs(), 8u);
  EXPECT_EQ(queue.thread_runs(), 0u);
}

// The offload replaces WorkerPool's old launch/join pair: queue threads
// run jobs while the caller works, and Wait publishes their plain writes
// to the caller, round after round (the TSan leg's stress case).
TEST(OffloadQueueTest, ThreadsRunJobsWhileTheCallerWorks) {
  OffloadQueue queue(3);
  uint64_t thread_runs = 0;
  for (uint64_t round = 1; round <= 300; ++round) {
    std::vector<std::shared_ptr<SquareJob>> jobs;
    for (uint64_t i = 0; i < 6; ++i) {
      jobs.push_back(std::make_shared<SquareJob>(round * 10 + i));
      queue.Submit(jobs.back());
    }
    uint64_t caller_work = 0;
    for (uint64_t i = 0; i < round; ++i) {
      caller_work += i;
    }
    EXPECT_EQ(caller_work, round * (round - 1) / 2);
    for (const auto& job : jobs) {
      const bool inline_run = queue.Wait(*job);
      ASSERT_EQ(job->output, job->input * job->input) << "round " << round;
      EXPECT_EQ(job->runs.load(), 1);
      EXPECT_EQ(inline_run, job->ran_on == std::this_thread::get_id());
      thread_runs += inline_run ? 0 : 1;
    }
  }
  EXPECT_TRUE(queue.started());
  EXPECT_EQ(queue.submitted(), 1800u);
  EXPECT_EQ(queue.thread_runs(), thread_runs);
  EXPECT_EQ(queue.thread_runs() + queue.waiter_runs(), 1800u);
}

// A job no thread has claimed runs on its waiter; the thread that later
// dequeues it skips it.  Every job runs exactly once.
TEST(OffloadQueueTest, WaitRunsUnclaimedJobsOnTheCaller) {
  OffloadQueue queue(1);
  const auto gate = std::make_shared<Gate>();
  queue.Submit(gate);
  gate->AwaitEntered();
  std::vector<std::shared_ptr<SquareJob>> jobs;
  for (uint64_t i = 0; i < 5; ++i) {
    jobs.push_back(std::make_shared<SquareJob>(i + 2));
    queue.Submit(jobs.back());
  }
  for (const auto& job : jobs) {
    EXPECT_TRUE(queue.Wait(*job));
    EXPECT_EQ(job->output, job->input * job->input);
  }
  gate->Open();
  EXPECT_FALSE(queue.Wait(*gate));
  for (const auto& job : jobs) {
    EXPECT_EQ(job->runs.load(), 1);
  }
  EXPECT_EQ(queue.waiter_runs(), 5u);
  EXPECT_EQ(queue.thread_runs(), 1u);
}

TEST(OffloadQueueTest, ThreadsStartOnTheFirstSubmit) {
  OffloadQueue queue(3);
  EXPECT_EQ(queue.threads(), 3u);
  EXPECT_FALSE(queue.started());
  auto job = std::make_shared<SquareJob>(7);
  queue.Submit(job);
  EXPECT_TRUE(queue.started());
  queue.Wait(*job);
  EXPECT_EQ(job->output, 49u);
  // The process-wide queue leaves one hardware thread to the simulation.
  EXPECT_EQ(OffloadQueue::Shared().threads(),
            std::max(1u, std::thread::hardware_concurrency()) - 1);
  // A simulation without an attached queue uses the process-wide one.
  sim::Simulation sim;
  EXPECT_EQ(&sim.offload(), &OffloadQueue::Shared());
  sim.set_offload(&queue);
  EXPECT_EQ(&sim.offload(), &queue);
}

// --- Speculative quotes ---------------------------------------------------

constexpr uint32_t kMask = keylime::kQuotePcrMask;

std::unique_ptr<tpm::Tpm> BootedTpm() {
  auto t = std::make_unique<tpm::Tpm>(crypto::ToBytes("offload-tpm"),
                                      tpm::TpmLatencyModel{});
  t->CreateAik();
  t->ExtendPcr(tpm::kPcrFirmware, crypto::Sha256::Hash("firmware"));
  t->ExtendPcr(tpm::kPcrBootloader, crypto::Sha256::Hash("ipxe"));
  t->ExtendPcr(tpm::kPcrIma, crypto::Sha256::Hash("boot_aggregate"));
  return t;
}

crypto::Bytes Nonce(int i) { return crypto::ToBytes("nonce-" + std::to_string(i)); }

TEST(TpmSpeculativeQuoteTest, UnchangedStateMatchesMakeQuote) {
  for (const uint32_t threads : {0u, 1u, 3u}) {
    OffloadQueue queue(threads);
    auto t = BootedTpm();
    std::vector<tpm::PendingQuote> pending;
    for (int i = 0; i < 16; ++i) {
      pending.push_back(t->BeginQuote(Nonce(i), kMask, queue));
    }
    // An unselected PCR may change meanwhile: the quote does not cover it.
    t->ExtendPcr(tpm::kPcrFirmwareConfig, crypto::Sha256::Hash("setting"));
    for (int i = 0; i < 16; ++i) {
      const tpm::Quote quote = t->FinishQuote(std::move(pending[static_cast<size_t>(i)]));
      EXPECT_EQ(quote.Serialize(), t->MakeQuote(Nonce(i), kMask).Serialize())
          << "threads=" << threads << " quote " << i;
      EXPECT_TRUE(tpm::Tpm::VerifyQuote(quote, t->aik_public()));
    }
    EXPECT_EQ(t->quotes_presigned(), 16u);
    EXPECT_EQ(t->quotes_resigned(), 0u);
    EXPECT_EQ(queue.submitted(), 16u);
  }
}

// Any change to what the quote covers between command start and finish —
// a runtime (IMA) measurement, a power cycle, a new AIK — is re-signed:
// the result is MakeQuote as of the finish, never the stale signature.
TEST(TpmSpeculativeQuoteTest, ChangedStateResignsAsOfFinish) {
  const struct {
    const char* what;
    void (*mutate)(tpm::Tpm&);
  } cases[] = {
      {"IMA extend",
       [](tpm::Tpm& t) { t.ExtendPcr(tpm::kPcrIma, crypto::Sha256::Hash("/usr/bin/x")); }},
      {"Reset", [](tpm::Tpm& t) { t.Reset(); }},
      {"CreateAik", [](tpm::Tpm& t) { t.CreateAik(); }},
  };
  for (const uint32_t threads : {0u, 1u}) {
    for (const auto& c : cases) {
      OffloadQueue queue(threads);
      auto t = BootedTpm();
      const tpm::Quote before = t->MakeQuote(Nonce(1), kMask);
      tpm::PendingQuote pending = t->BeginQuote(Nonce(1), kMask, queue);
      c.mutate(*t);
      const tpm::Quote quote = t->FinishQuote(std::move(pending));
      EXPECT_EQ(quote.Serialize(), t->MakeQuote(Nonce(1), kMask).Serialize()) << c.what;
      EXPECT_NE(quote.Serialize(), before.Serialize()) << c.what;
      EXPECT_TRUE(tpm::Tpm::VerifyQuote(quote, t->aik_public())) << c.what;
      EXPECT_EQ(t->quotes_resigned(), 1u) << c.what;
      EXPECT_EQ(t->quotes_presigned(), 0u) << c.what;
    }
  }
}

// A machine destroyed with its sign jobs still queued: the queue thread
// then signs over the jobs' own snapshots (ASan would report any touch of
// the freed TPM).
TEST(TpmSpeculativeQuoteTest, MachineDestroyedWithSignJobsPending) {
  OffloadQueue queue(1);
  const auto gate = std::make_shared<Gate>();
  queue.Submit(gate);
  {
    sim::Simulation sim(5);
    net::Network fabric(sim, sim::Duration::Microseconds(10), 1.25e9);
    machine::MachineConfig mc;
    mc.flash_firmware = firmware::BuildLinuxBoot("src");
    auto machine = std::make_unique<machine::Machine>(sim, fabric, "doomed", mc);
    machine->tpm().CreateAik();
    std::vector<tpm::PendingQuote> pending;
    for (int i = 0; i < 8; ++i) {
      pending.push_back(machine->tpm().BeginQuote(Nonce(i), kMask, queue));
    }
    machine.reset();
    pending.clear();
  }
  gate->Open();
  Drain(queue);
  EXPECT_EQ(queue.thread_runs(), 9u);
}

// --- Through the agent ----------------------------------------------------

// One registered node, verified through the real quote RPC on a
// zero-thread queue.
struct OneNode {
  OffloadQueue queue{0};
  sim::Simulation sim{77};
  net::Network fabric{sim, sim::Duration::Microseconds(10), 1.25e9};
  net::Endpoint& registrar_ep{fabric.CreateEndpoint("registrar")};
  net::Endpoint& verifier_ep{fabric.CreateEndpoint("verifier")};
  keylime::Registrar registrar{sim, registrar_ep, 1};
  keylime::Verifier verifier{sim, verifier_ep, registrar_ep.address(), 2};
  std::unique_ptr<machine::Machine> machine;
  std::unique_ptr<keylime::Agent> agent;

  OneNode() {
    sim.set_offload(&queue);
    machine::MachineConfig mc;
    mc.flash_firmware = firmware::BuildLinuxBoot("src");
    auto whitelist = std::make_shared<keylime::Whitelist>();
    whitelist->AllowBoot(mc.flash_firmware.digest);
    machine = std::make_unique<machine::Machine>(sim, fabric, "node", mc);
    agent = std::make_unique<keylime::Agent>(*machine, 3);
    for (const net::Address a :
         {registrar_ep.address(), verifier_ep.address(), machine->address()}) {
      fabric.AttachToVlan(a, 50);
    }
    bool ok = false;
    auto setup = [&]() -> sim::Task {
      co_await agent->RegisterWithRegistrar(registrar_ep.address(), "node", &ok);
      co_await machine->PowerOnSelfTest();
    };
    sim.Spawn(setup());
    sim.Run();
    EXPECT_TRUE(ok);
    keylime::Verifier::NodeConfig config;
    config.agent = machine->address();
    config.whitelist = whitelist;
    verifier.AddNode("node", std::move(config));
    verifier.SetCallOptions({.timeout = sim::Duration::Seconds(5), .max_attempts = 1});
  }

  keylime::VerificationResult Verify() {
    keylime::VerificationResult result;
    auto flow = [&]() -> sim::Task { co_await verifier.VerifyNode("node", &result); };
    sim.Spawn(flow());
    sim.Run();
    return result;
  }
};

TEST(TpmSpeculativeQuoteTest, FaultedCommandSubmitsNoJob) {
  OneNode node;
  node.machine->tpm().SetFaultHook([](std::string_view command) {
    return tpm::TpmFault{.fail = command == "quote"};
  });
  const keylime::VerificationResult faulted = node.Verify();
  EXPECT_FALSE(faulted.passed);
  EXPECT_EQ(faulted.failure, "agent unreachable");
  EXPECT_EQ(node.queue.submitted(), 0u);
  EXPECT_EQ(node.machine->tpm().quotes_presigned() +
                node.machine->tpm().quotes_resigned(),
            0u);

  node.machine->tpm().SetFaultHook(nullptr);
  const keylime::VerificationResult healthy = node.Verify();
  EXPECT_TRUE(healthy.passed) << healthy.failure;
  EXPECT_EQ(node.queue.submitted(), 1u);
  EXPECT_EQ(node.queue.waiter_runs(), 1u);
  EXPECT_EQ(node.machine->tpm().quotes_presigned(), 1u);
}

}  // namespace
}  // namespace bolted
