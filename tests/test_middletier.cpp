/**
 * @file
 * Integration tests: each middle-tier design serving real write requests
 * end to end — client -> middle tier -> 3 storage replicas -> acks ->
 * client reply — including functional byte-level verification of what
 * lands on the storage servers.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "corpus/corpus.h"
#include "lz4/lz4.h"
#include "mem/memory_system.h"
#include "middletier/accelerator_server.h"
#include "middletier/bf2_server.h"
#include "middletier/cpu_only_server.h"
#include "middletier/protocol.h"
#include "middletier/smartds_server.h"
#include "net/fabric.h"
#include "sim/simulator.h"
#include "storage/storage_server.h"
#include "workload/vm_client.h"

namespace smartds::middletier {
namespace {

using namespace smartds::time_literals;

struct Testbed
{
    sim::Simulator sim;
    net::Fabric fabric{sim};
    mem::MemorySystem memory{sim, "mem", {}};
    std::vector<std::unique_ptr<storage::StorageServer>> storage;
    std::vector<net::NodeId> storageNodes;
    corpus::SyntheticCorpus corpus{1u << 20, 42};
    corpus::RatioSampler ratios{corpus, 4096, 1, 64, 7};
    workload::ClientMetrics metrics;
    std::uint64_t tags = 1;

    explicit Testbed(bool functional_store = false, unsigned n_storage = 4)
    {
        storage::StorageServer::Config sc;
        sc.functionalStore = functional_store;
        for (unsigned i = 0; i < n_storage; ++i) {
            storage.push_back(std::make_unique<storage::StorageServer>(
                fabric, "st" + std::to_string(i), sc));
            storageNodes.push_back(storage.back()->nodeId());
        }
    }

    ServerConfig
    serverConfig(unsigned cores) const
    {
        ServerConfig config;
        config.cores = cores;
        config.storageNodes = storageNodes;
        return config;
    }

    std::unique_ptr<workload::VmClient>
    makeClient(net::NodeId target, net::QpId qp, unsigned outstanding,
               bool functional)
    {
        workload::VmClient::Config cc;
        cc.target = target;
        cc.targetQp = qp;
        cc.outstanding = outstanding;
        cc.ratios = &ratios;
        if (functional)
            cc.corpus = &corpus;
        cc.tagCounter = &tags;
        cc.metrics = &metrics;
        return std::make_unique<workload::VmClient>(fabric, "vm", cc);
    }

    std::uint64_t
    totalReplicas() const
    {
        std::uint64_t n = 0;
        for (const auto &s : storage)
            n += s->blocksStored();
        return n;
    }
};

TEST(MiddleTier, CpuOnlyServesWritesEndToEnd)
{
    Testbed bed;
    CpuOnlyServer server(bed.fabric, bed.memory, bed.serverConfig(4));
    auto client = bed.makeClient(server.frontNode(), 0, 4, false);
    bed.sim.runUntil(2 * ticksPerMillisecond);
    client->stop();
    bed.sim.run();
    EXPECT_GT(server.requestsCompleted(), 50u);
    // Every completed write produced exactly 3 replicas.
    EXPECT_GE(bed.totalReplicas(), 3 * server.requestsCompleted());
    EXPECT_EQ(bed.metrics.completed, bed.metrics.issued);
}

TEST(MiddleTier, CpuOnlyFunctionalReplicasDecompressToOriginal)
{
    Testbed bed(/*functional_store=*/true);
    CpuOnlyServer server(bed.fabric, bed.memory, bed.serverConfig(4));
    auto client = bed.makeClient(server.frontNode(), 0, 2, true);
    bed.sim.runUntil(500 * ticksPerMicrosecond);
    client->stop();
    bed.sim.run();
    ASSERT_GT(server.requestsCompleted(), 0u);

    // Pick stored blocks and verify they decompress to 4 KiB originals.
    unsigned verified = 0;
    for (const auto &s : bed.storage) {
        for (std::uint64_t tag = 1; tag < bed.tags; ++tag) {
            const net::Payload *p = s->storedBlock(tag);
            if (!p || !p->data)
                continue;
            ASSERT_TRUE(p->compressed);
            const auto plain = lz4::decompress(*p->data, p->originalSize);
            ASSERT_TRUE(plain.has_value());
            EXPECT_EQ(plain->size(), 4096u);
            ++verified;
        }
    }
    EXPECT_GT(verified, 0u);
}

TEST(MiddleTier, AcceleratorServesWritesEndToEnd)
{
    Testbed bed;
    AcceleratorServer server(bed.fabric, bed.memory, bed.serverConfig(2));
    auto client = bed.makeClient(server.frontNode(), 0, 8, false);
    bed.sim.runUntil(2 * ticksPerMillisecond);
    client->stop();
    bed.sim.run();
    EXPECT_GT(server.requestsCompleted(), 100u);
    EXPECT_GE(bed.totalReplicas(), 3 * server.requestsCompleted());
}

TEST(MiddleTier, AcceleratorDdioControlsMemoryReads)
{
    // With DDIO the accelerator path generates (almost) no memory reads;
    // without it, reads appear (Figure 8a's key contrast).
    auto run = [](bool ddio) {
        Testbed bed;
        AcceleratorServer::AccConfig acc;
        acc.ddio = ddio;
        AcceleratorServer server(bed.fabric, bed.memory,
                                 bed.serverConfig(2), acc);
        UsageProbes probes;
        server.addUsageProbes(probes);
        auto client = bed.makeClient(server.frontNode(), 0, 8, false);
        bed.sim.runUntil(1 * ticksPerMillisecond);
        client->stop();
        bed.sim.run();
        double reads = 0.0;
        for (auto &p : probes.probes)
            if (p.name == "mem.read")
                reads = p.cumulativeBytes();
        return reads;
    };
    EXPECT_EQ(run(true), 0.0);
    EXPECT_GT(run(false), 5e5);
}

TEST(MiddleTier, Bf2ServesWritesEndToEnd)
{
    Testbed bed;
    Bf2Server server(bed.fabric, bed.serverConfig(8));
    auto client = bed.makeClient(server.frontNode(), 0, 8, false);
    bed.sim.runUntil(2 * ticksPerMillisecond);
    client->stop();
    bed.sim.run();
    EXPECT_GT(server.requestsCompleted(), 100u);
    EXPECT_GE(bed.totalReplicas(), 3 * server.requestsCompleted());
}

TEST(MiddleTier, SmartDsServesWritesEndToEnd)
{
    Testbed bed;
    SmartDsServer::SmartDsConfig sd;
    sd.workersPerPort = 16;
    SmartDsServer server(bed.fabric, bed.memory, bed.serverConfig(2), sd);
    auto client = bed.makeClient(server.frontNode(), server.frontQp(), 8,
                                 false);
    bed.sim.runUntil(2 * ticksPerMillisecond);
    client->stop();
    bed.sim.run();
    EXPECT_GT(server.requestsCompleted(), 100u);
    EXPECT_GE(bed.totalReplicas(), 3 * server.requestsCompleted());
}

TEST(MiddleTier, SmartDsFunctionalReplicasDecompressToOriginal)
{
    Testbed bed(/*functional_store=*/true);
    SmartDsServer::SmartDsConfig sd;
    sd.workersPerPort = 4;
    sd.device.functional = true;
    SmartDsServer server(bed.fabric, bed.memory, bed.serverConfig(2), sd);
    auto client = bed.makeClient(server.frontNode(), server.frontQp(), 2,
                                 true);
    bed.sim.runUntil(500 * ticksPerMicrosecond);
    client->stop();
    bed.sim.run();
    ASSERT_GT(server.requestsCompleted(), 0u);

    unsigned verified = 0;
    for (const auto &s : bed.storage) {
        for (std::uint64_t tag = 1; tag < bed.tags; ++tag) {
            const net::Payload *p = s->storedBlock(tag);
            if (!p || !p->data)
                continue;
            const auto plain = lz4::decompress(*p->data, p->originalSize);
            ASSERT_TRUE(plain.has_value());
            EXPECT_EQ(plain->size(), 4096u);
            ++verified;
        }
    }
    EXPECT_GT(verified, 0u);
}

/** Design @p d serving @p bed's storage pool. */
std::unique_ptr<MiddleTierServer>
makeServer(Design d, Testbed &bed)
{
    switch (d) {
      case Design::CpuOnly:
        return std::make_unique<CpuOnlyServer>(bed.fabric, bed.memory,
                                               bed.serverConfig(4));
      case Design::Accelerator:
        return std::make_unique<AcceleratorServer>(bed.fabric, bed.memory,
                                                   bed.serverConfig(2));
      case Design::Bf2:
        return std::make_unique<Bf2Server>(bed.fabric, bed.serverConfig(4));
      case Design::SmartDs: {
        SmartDsServer::SmartDsConfig sd;
        sd.workersPerPort = 4;
        return std::make_unique<SmartDsServer>(bed.fabric, bed.memory,
                                               bed.serverConfig(2), sd);
      }
    }
    return nullptr;
}

std::string
designParamName(const ::testing::TestParamInfo<Design> &info)
{
    switch (info.param) {
      case Design::CpuOnly:
        return "CpuOnly";
      case Design::Accelerator:
        return "Accelerator";
      case Design::Bf2:
        return "Bf2";
      case Design::SmartDs:
        return "SmartDs";
    }
    return "Unknown";
}

class LatencySensitiveWrites : public ::testing::TestWithParam<Design>
{
};

TEST_P(LatencySensitiveWrites, SkipCompression)
{
    // Latency-sensitive writes are forwarded uncompressed (Listing 1's
    // is_latency_important branch) on every design: replicas store
    // full-size blocks.
    Testbed bed(/*functional_store=*/true);
    const auto server = makeServer(GetParam(), bed);

    workload::VmClient::Config cc;
    cc.target = server->frontNode();
    cc.targetQp = server->frontQp();
    cc.outstanding = 2;
    cc.ratios = &bed.ratios;
    cc.latencySensitiveFraction = 1.0;
    cc.tagCounter = &bed.tags;
    cc.metrics = &bed.metrics;
    workload::VmClient client(bed.fabric, "vm", cc);
    bed.sim.runUntil(300 * ticksPerMicrosecond);
    client.stop();
    bed.sim.run();

    ASSERT_GT(server->requestsCompleted(), 0u);
    unsigned checked = 0;
    for (const auto &s : bed.storage) {
        for (std::uint64_t tag = 1; tag < bed.tags; ++tag) {
            const net::Payload *p = s->storedBlock(tag);
            if (!p)
                continue;
            EXPECT_EQ(p->size, 4096u);
            ++checked;
        }
    }
    EXPECT_GT(checked, 0u);
}

INSTANTIATE_TEST_SUITE_P(Designs, LatencySensitiveWrites,
                         ::testing::Values(Design::CpuOnly,
                                           Design::Accelerator, Design::Bf2,
                                           Design::SmartDs),
                         designParamName);

TEST(MiddleTier, SmartDsReadPathDecompressesOnCard)
{
    // Reads fetch a stored-size block from storage and decompress it on
    // the card before replying (timing mode: storage synthesises the
    // compressed block from the size hints).
    Testbed bed;
    SmartDsServer::SmartDsConfig sd;
    sd.workersPerPort = 4;
    SmartDsServer server(bed.fabric, bed.memory, bed.serverConfig(2), sd);

    workload::VmClient::Config cc;
    cc.target = server.frontNode();
    cc.targetQp = server.frontQp();
    cc.outstanding = 1;
    cc.ratios = &bed.ratios;
    cc.readFraction = 0.5;
    cc.tagCounter = &bed.tags;
    cc.metrics = &bed.metrics;
    workload::VmClient client(bed.fabric, "vm", cc);
    bed.sim.runUntil(2 * ticksPerMillisecond);
    client.stop();
    bed.sim.run();
    // Reads and writes both complete; closed loop keeps them equal.
    EXPECT_EQ(bed.metrics.completed, bed.metrics.issued);
    EXPECT_GT(bed.metrics.completed, 10u);
}

TEST(MiddleTier, ChooseReplicasAreDistinct)
{
    Rng rng(1);
    std::vector<net::NodeId> nodes = {1, 2, 3, 4, 5, 6};
    for (int i = 0; i < 200; ++i) {
        struct Probe : MiddleTierServer
        {
            net::NodeId frontNode(unsigned) const override { return 0; }
            Design design() const override { return Design::CpuOnly; }
            void addUsageProbes(UsageProbes &) override {}
            using MiddleTierServer::chooseReplicas;
        };
        const auto picks = Probe::chooseReplicas(nodes, 3, rng);
        ASSERT_EQ(picks.size(), 3u);
        EXPECT_NE(picks[0], picks[1]);
        EXPECT_NE(picks[0], picks[2]);
        EXPECT_NE(picks[1], picks[2]);
    }
}

} // namespace
} // namespace smartds::middletier
