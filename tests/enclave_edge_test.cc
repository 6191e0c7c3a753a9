// Enclave life-cycle edge cases: contention for nodes, double
// provisioning, releasing rejected nodes, pool exhaustion, and restart
// of a saved image on a different node.

#include <gtest/gtest.h>

#include "src/core/cloud.h"
#include "src/core/enclave.h"
#include "src/firmware/firmware.h"

namespace bolted::core {
namespace {

using sim::Task;

CloudConfig TinyCloud(int machines) {
  CloudConfig config;
  config.num_machines = machines;
  config.linuxboot_in_flash = true;
  return config;
}

TEST(EnclaveEdgeTest, ProvisioningTheSameNodeTwiceFails) {
  Cloud cloud(TinyCloud(2));
  Enclave tenant(cloud, "t", TrustProfile::Bob(), 1);
  ProvisionOutcome first;
  ProvisionOutcome second;
  auto flow = [&]() -> Task {
    co_await tenant.ProvisionNode("node-0", &first);
    co_await tenant.ProvisionNode("node-0", &second);
  };
  cloud.sim().Spawn(flow());
  cloud.sim().Run();
  EXPECT_TRUE(first.success);
  EXPECT_FALSE(second.success);
  EXPECT_EQ(second.failure, "node unavailable");
  // The first allocation is untouched.
  EXPECT_EQ(tenant.node_state("node-0"), NodeState::kAllocated);
}

TEST(EnclaveEdgeTest, CannotProvisionAnotherTenantsNode) {
  Cloud cloud(TinyCloud(2));
  Enclave a(cloud, "a", TrustProfile::Alice(), 1);
  Enclave b(cloud, "b", TrustProfile::Alice(), 2);
  ProvisionOutcome oa;
  ProvisionOutcome ob;
  auto flow = [&]() -> Task {
    co_await a.ProvisionNode("node-0", &oa);
    co_await b.ProvisionNode("node-0", &ob);
  };
  cloud.sim().Spawn(flow());
  cloud.sim().Run();
  EXPECT_TRUE(oa.success);
  EXPECT_FALSE(ob.success);
}

TEST(EnclaveEdgeTest, UnknownNodeFailsCleanly) {
  Cloud cloud(TinyCloud(1));
  Enclave tenant(cloud, "t", TrustProfile::Alice(), 1);
  ProvisionOutcome outcome;
  auto flow = [&]() -> Task {
    co_await tenant.ProvisionNode("node-99", &outcome);
    co_await tenant.ReleaseNode("node-99");  // no-op, must not crash
  };
  cloud.sim().Spawn(flow());
  cloud.sim().Run();
  EXPECT_FALSE(outcome.success);
  EXPECT_EQ(tenant.node_state("node-99"), NodeState::kFree);
}

TEST(EnclaveEdgeTest, RejectedNodeCanBeReleasedAndReused) {
  Cloud cloud(TinyCloud(2));
  // Compromise, reject, then the provider re-flashes clean firmware and
  // the node re-enters service.
  machine::Machine* machine = cloud.FindMachine("node-0");
  const firmware::FirmwareImage clean = machine->flash_firmware();
  machine->ReflashFirmware(firmware::CompromisedVariant(clean, "implant"));

  Enclave tenant(cloud, "t", TrustProfile::Bob(), 3);
  ProvisionOutcome bad;
  ProvisionOutcome good;
  auto flow = [&]() -> Task {
    co_await tenant.ProvisionNode("node-0", &bad);
    // Release the rejected node back to the pool.
    co_await tenant.ReleaseNode("node-0");
    // Provider remediates out-of-band.
    machine->ReflashFirmware(clean);
    co_await tenant.ProvisionNode("node-0", &good);
  };
  cloud.sim().Spawn(flow());
  cloud.sim().Run();
  EXPECT_FALSE(bad.success);
  EXPECT_TRUE(good.success) << good.failure;
  EXPECT_EQ(tenant.node_state("node-0"), NodeState::kAllocated);
}

TEST(EnclaveEdgeTest, PoolExhaustion) {
  Cloud cloud(TinyCloud(2));
  Enclave tenant(cloud, "t", TrustProfile::Alice(), 4);
  ProvisionOutcome o0;
  ProvisionOutcome o1;
  ProvisionOutcome o2;
  auto flow = [&]() -> Task {
    co_await tenant.ProvisionNode("node-0", &o0);
    co_await tenant.ProvisionNode("node-1", &o1);
    co_await tenant.ProvisionNode("node-2", &o2);  // does not exist
  };
  cloud.sim().Spawn(flow());
  cloud.sim().Run();
  EXPECT_TRUE(o0.success);
  EXPECT_TRUE(o1.success);
  EXPECT_FALSE(o2.success);
  EXPECT_TRUE(cloud.hil().FreeNodes().empty());
}

TEST(EnclaveEdgeTest, SavedImageSurvivesReleaseAndRestartElsewhere) {
  // The elasticity property the paper contrasts against Foreman: shut
  // down, release, restart the image on any compatible node.
  Cloud cloud(TinyCloud(2));
  Enclave tenant(cloud, "t", TrustProfile::Bob(), 5);
  ProvisionOutcome first;
  ProvisionOutcome second;
  auto flow = [&]() -> Task {
    co_await tenant.ProvisionNode("node-0", &first);
    co_await tenant.ReleaseNode("node-0", /*keep_snapshot=*/true);
    // Restart on a different physical node.
    co_await tenant.ProvisionNode("node-1", &second);
  };
  cloud.sim().Spawn(flow());
  cloud.sim().Run();
  EXPECT_TRUE(first.success);
  EXPECT_TRUE(second.success);
  EXPECT_TRUE(cloud.images().FindByName("saved:node-0:0").has_value());
  EXPECT_FALSE(cloud.hil().NodeOwner("node-0").has_value());
  EXPECT_EQ(cloud.hil().NodeOwner("node-1"), "t");
}

TEST(EnclaveEdgeTest, SequentialTenantsReuseTheSameNode) {
  Cloud cloud(TinyCloud(1));
  for (int generation = 0; generation < 3; ++generation) {
    Enclave tenant(cloud, "gen-" + std::to_string(generation), TrustProfile::Bob(),
                   static_cast<uint64_t>(100 + generation));
    ProvisionOutcome outcome;
    auto flow = [&]() -> Task {
      co_await tenant.ProvisionNode("node-0", &outcome);
      co_await tenant.ReleaseNode("node-0");
    };
    cloud.sim().Spawn(flow());
    cloud.sim().Run();
    EXPECT_TRUE(outcome.success) << "generation " << generation << ": "
                                 << outcome.failure;
  }
  EXPECT_EQ(cloud.hil().FreeNodes().size(), 1u);
}

// A release issued while the node is still provisioning — at any point,
// including during the iSCSI boot reads — waits for the provisioning to
// settle instead of freeing the runtime (and the IscsiInitiator) that the
// in-flight boot is still using.
TEST(EnclaveEdgeTest, ReleaseDuringProvisioningWaitsForIt) {
  sim::Duration provision_time;
  {
    Cloud cloud(TinyCloud(1));
    Enclave tenant(cloud, "t", TrustProfile::Bob(), 7);
    ProvisionOutcome outcome;
    auto flow = [&]() -> Task {
      co_await tenant.ProvisionNode("node-0", &outcome);
      provision_time = cloud.sim().now() - sim::Time{};
    };
    cloud.sim().Spawn(flow());
    cloud.sim().Run();
    ASSERT_TRUE(outcome.success) << outcome.failure;
  }
  constexpr int kOffsets = 16;
  for (int k = 1; k < kOffsets; ++k) {
    SCOPED_TRACE(testing::Message() << "release at " << k << "/" << kOffsets);
    Cloud cloud(TinyCloud(1));
    Enclave tenant(cloud, "t", TrustProfile::Bob(), 7);
    ProvisionOutcome outcome;
    bool released = false;
    auto provision = [&]() -> Task {
      co_await tenant.ProvisionNode("node-0", &outcome);
    };
    auto release = [&]() -> Task {
      co_await sim::Delay(cloud.sim(), provision_time.Scaled(
                                           static_cast<double>(k) / kOffsets));
      co_await tenant.ReleaseNode("node-0");
      released = true;
    };
    cloud.sim().Spawn(provision());
    cloud.sim().Spawn(release());
    cloud.sim().Run();
    EXPECT_TRUE(outcome.success) << outcome.failure;
    EXPECT_TRUE(released);
    EXPECT_EQ(tenant.node_state("node-0"), NodeState::kFree);
    EXPECT_EQ(cloud.hil().FreeNodes().size(), 1u);
  }
}

// A provisioning started while a release of the same node is still in its
// switch-reconfiguration delay builds a fresh runtime, and the release
// finishing afterwards leaves that runtime alone.
TEST(EnclaveEdgeTest, ProvisionDuringReleaseDelayGetsAFreshRuntime) {
  Cloud cloud(TinyCloud(1));
  Enclave tenant(cloud, "t", TrustProfile::Bob(), 7);
  ProvisionOutcome first;
  auto provision_first = [&]() -> Task {
    co_await tenant.ProvisionNode("node-0", &first);
  };
  cloud.sim().Spawn(provision_first());
  cloud.sim().Run();
  ASSERT_TRUE(first.success) << first.failure;
  ASSERT_GT(cloud.cal().switch_reconfig_time, sim::Duration::Milliseconds(1));

  ProvisionOutcome second;
  bool released = false;
  auto release = [&]() -> Task {
    co_await tenant.ReleaseNode("node-0");
    released = true;
  };
  auto reprovision = [&]() -> Task {
    co_await sim::Delay(cloud.sim(), sim::Duration::Milliseconds(1));
    co_await tenant.ProvisionNode("node-0", &second);
  };
  cloud.sim().Spawn(release());
  cloud.sim().Spawn(reprovision());
  cloud.sim().Run();
  EXPECT_TRUE(released);
  EXPECT_TRUE(second.success) << second.failure;
  EXPECT_EQ(tenant.node_state("node-0"), NodeState::kAllocated);
  EXPECT_TRUE(cloud.hil().FreeNodes().empty());
}

TEST(EnclaveEdgeTest, AirlockVlansAreCleanedUp) {
  Cloud cloud(TinyCloud(1));
  Enclave tenant(cloud, "t", TrustProfile::Bob(), 6);
  ProvisionOutcome outcome;
  auto flow = [&]() -> Task {
    co_await tenant.ProvisionNode("node-0", &outcome);
  };
  cloud.sim().Spawn(flow());
  cloud.sim().Run();
  ASSERT_TRUE(outcome.success);
  // The per-boot airlock network is gone: creating it again succeeds,
  // which it would not if the name still existed.
  EXPECT_NE(cloud.hil().CreateNetwork("t", "t-airlock-node-0"), 0);
}

}  // namespace
}  // namespace bolted::core
