/**
 * @file
 * Read-path fetch-timeout regression tests for every design.
 *
 * CPU-only, Acc and BF2 wait for fetch replies in the engine's shared
 * fetch table: with a fetch timeout shorter than the storage round trip,
 * the first probe of each read must time out and fail over, the late
 * reply from that probe must complete the follow-up probe's wait (same
 * tag, same block) instead of being misdelivered, and the follow-up
 * probe's own reply — arriving after the read finished — must be counted
 * as a stale ack and dropped, never fired into another read's wait.
 *
 * SmartDS waits on its worker's fetch queue pair instead (a timeout
 * resets the QP): a late reply that lands in a later read's receive must
 * be counted stale, never served as that read's block. On every design,
 * each probe of one read waits the same timeout.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "common/checksum.h"
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

namespace smartds::middletier {
namespace {

using namespace smartds::time_literals;

constexpr Bytes blockBytes = 4096;

/** Functional storage pool with one seeded block on every node. */
struct TimeoutTestbed
{
    sim::Simulator sim;
    net::Fabric fabric{sim};
    mem::MemorySystem memory{sim, "mem", {}};
    std::vector<std::unique_ptr<storage::StorageServer>> storage;
    std::vector<net::NodeId> storageNodes;
    corpus::SyntheticCorpus corpus{1u << 20, 42};
    net::Port *vm = nullptr;
    /** The seeded blocks, by tag (every node holds every block). */
    std::map<std::uint64_t, std::vector<std::uint8_t>> plains;
    unsigned replies = 0;

    TimeoutTestbed()
    {
        storage::StorageServer::Config sc;
        sc.functionalStore = true;
        for (unsigned i = 0; i < 3; ++i) {
            storage.push_back(std::make_unique<storage::StorageServer>(
                fabric, "st" + std::to_string(i), sc));
            storageNodes.push_back(storage.back()->nodeId());
        }

        vm = fabric.createPort("vm-raw");
        vm->onReceive([this](net::Message msg) {
            if (msg.kind != net::MessageKind::ReadReply)
                return;
            ++replies;
            ASSERT_TRUE(msg.payload.data);
            EXPECT_EQ(*msg.payload.data, plains.at(msg.tag));
        });

        Rng rng(3);
        for (const std::uint64_t tag : {777u, 778u}) {
            const auto &plain = plains[tag] =
                corpus.sampleBlock(blockBytes, rng);
            const auto compressed =
                std::make_shared<const std::vector<std::uint8_t>>(
                    lz4::compress(plain, 1));
            StorageHeader hdr;
            hdr.tag = tag;
            hdr.payloadSize = blockBytes;
            hdr.blockChecksum = xxhash32(plain);
            const auto header = hdr.encodeShared();
            for (unsigned i = 0; i < 3; ++i) {
                net::Message w;
                w.dst = storageNodes[i];
                w.kind = net::MessageKind::WriteReplica;
                w.headerBytes = StorageHeader::wireSize;
                w.headerData = header;
                w.tag = tag;
                w.payload.data = compressed;
                w.payload.size = compressed->size();
                w.payload.compressed = true;
                w.payload.originalSize = blockBytes;
                vm->send(std::move(w));
            }
        }
        sim.run();
    }

    /**
     * Unloaded fabric + disk round trip of one fetch, measured with a
     * raw probe. The middle tier's own fetch adds NIC/DMA overhead on
     * top, so using this as the fetch timeout guarantees the first
     * probe always times out just before its reply lands — and the
     * reply still lands well inside the second probe's window.
     */
    Tick
    measureFetchRoundTrip()
    {
        net::Port *probe = fabric.createPort("probe");
        Tick arrived = 0;
        probe->onReceive([this, &arrived](net::Message msg) {
            if (msg.kind == net::MessageKind::ReadFetchReply)
                arrived = sim.now();
        });
        const Tick sent = sim.now();
        net::Message fetch;
        fetch.dst = storageNodes[0];
        fetch.kind = net::MessageKind::ReadFetch;
        fetch.headerBytes = StorageHeader::wireSize;
        fetch.tag = 777;
        fetch.payload.originalSize = blockBytes;
        probe->send(std::move(fetch));
        sim.run();
        EXPECT_GT(arrived, sent);
        return arrived - sent;
    }

    ServerConfig
    serverConfig(Tick fetch_timeout) const
    {
        ServerConfig config;
        config.cores = 4;
        config.storageNodes = storageNodes;
        config.failover.ackTimeout = fetch_timeout;
        return config;
    }

    /** Send one read of the block seeded under @p tag. */
    void
    sendRead(net::NodeId front, std::uint64_t tag, net::QpId front_qp = 0)
    {
        net::Message r;
        r.dst = front;
        r.dstQp = front_qp;
        r.kind = net::MessageKind::ReadRequest;
        r.headerBytes = StorageHeader::wireSize;
        r.tag = tag;
        r.payload.size = 0;
        r.payload.originalSize = blockBytes;
        vm->send(std::move(r));
    }

    /** Issue @p reads sequential reads of the block seeded as tag 777. */
    void
    readSeededBlock(net::NodeId front, unsigned reads)
    {
        for (unsigned i = 0; i < reads; ++i) {
            sendRead(front, 777);
            sim.run();
        }
    }
};

/**
 * The per-design scenario: every read's first probe times out (timeout
 * below the real round trip), the read is still served with verified
 * bytes by the late first reply, and the second probe's reply is
 * retired as a stale ack — the regression the per-entry cancelled
 * timers in expectFetch() guard against.
 */
template <typename MakeServer>
void
runStaleFetchScenario(MakeServer make_server)
{
    TimeoutTestbed bed;
    const Tick round_trip = bed.measureFetchRoundTrip();
    auto server = make_server(bed, bed.serverConfig(round_trip));

    constexpr unsigned reads = 10;
    bed.readSeededBlock(server->frontNode(), reads);

    EXPECT_EQ(bed.replies, reads);
    const FailoverStats stats = server->failoverStats();
    EXPECT_GE(stats.readFailovers, reads); // probe 1 timed out every read
    EXPECT_GE(stats.staleAcks, reads);     // probe 2's reply was retired
    EXPECT_EQ(stats.readsUnserved, 0u);
    EXPECT_EQ(stats.corruptionsDetected, 0u);
}

TEST(FetchTimeout, StaleRepliesAreRetiredNotMisdeliveredCpuOnly)
{
    runStaleFetchScenario([](TimeoutTestbed &bed, ServerConfig config) {
        return std::make_unique<CpuOnlyServer>(bed.fabric, bed.memory,
                                               config);
    });
}

TEST(FetchTimeout, StaleRepliesAreRetiredNotMisdeliveredAccelerator)
{
    runStaleFetchScenario([](TimeoutTestbed &bed, ServerConfig config) {
        return std::make_unique<AcceleratorServer>(bed.fabric, bed.memory,
                                                   config);
    });
}

TEST(FetchTimeout, StaleRepliesAreRetiredNotMisdeliveredBf2)
{
    runStaleFetchScenario([](TimeoutTestbed &bed, ServerConfig config) {
        return std::make_unique<Bf2Server>(bed.fabric, config);
    });
}

TEST(FetchTimeout, StaleRepliesAreRetiredNotMisdeliveredSmartDs)
{
    // One worker serves two back-to-back reads of different blocks. The
    // timeout sits between half and all of the round trip, so each read's
    // first probe times out (the QP reset flushes its receive), the late
    // reply lands in the second probe's receive and serves the read with
    // the right block, and the second probe's own reply lands in the next
    // read's receive, where its tag marks it stale.
    TimeoutTestbed bed;
    const Tick round_trip = bed.measureFetchRoundTrip();
    SmartDsServer::SmartDsConfig sd;
    sd.workersPerPort = 1;
    sd.device.functional = true;
    SmartDsServer server(bed.fabric, bed.memory,
                         bed.serverConfig(round_trip * 3 / 4), sd);

    bed.sendRead(server.frontNode(), 777, server.frontQp());
    bed.sendRead(server.frontNode(), 778, server.frontQp());
    bed.sim.run();

    EXPECT_EQ(bed.replies, 2u); // each with its own block's bytes
    const FailoverStats stats = server.failoverStats();
    EXPECT_GE(stats.readFailovers, 2u);
    EXPECT_GE(stats.staleAcks, 1u);
    EXPECT_EQ(stats.readsUnserved, 0u);
    EXPECT_EQ(stats.corruptionsDetected, 0u);
}

/**
 * A read against storage nodes that never answer: every probe times out,
 * so the (unserved) reply leaves after the sum of the probe timeouts —
 * 3T for three candidates at a constant timeout T, 7T if each probe
 * doubled it. Probes go to different nodes, so a node's slowness says
 * nothing about the next one.
 */
template <typename MakeServer>
void
runConstantProbeTimeoutScenario(MakeServer make_server)
{
    sim::Simulator sim;
    net::Fabric fabric{sim};
    mem::MemorySystem memory{sim, "mem", {}};
    ServerConfig config;
    config.cores = 4;
    for (unsigned i = 0; i < 3; ++i) {
        net::Port *dead = fabric.createPort("dead" + std::to_string(i));
        dead->onReceive([](net::Message) {});
        config.storageNodes.push_back(dead->id());
    }
    constexpr Tick timeout = 100 * ticksPerMicrosecond;
    config.failover.ackTimeout = timeout;
    config.failover.ackTimeoutCap = 100 * timeout;
    auto server = make_server(fabric, memory, config);

    net::Port *vm = fabric.createPort("vm-raw");
    Tick replied = 0;
    vm->onReceive([&](net::Message msg) {
        if (msg.kind == net::MessageKind::ReadReply)
            replied = sim.now();
    });
    net::Message r;
    r.dst = server->frontNode();
    r.dstQp = server->frontQp();
    r.kind = net::MessageKind::ReadRequest;
    r.headerBytes = StorageHeader::wireSize;
    r.tag = 1;
    r.payload.originalSize = blockBytes;
    vm->send(std::move(r));
    sim.run();

    const FailoverStats stats = server->failoverStats();
    EXPECT_EQ(stats.readFailovers, 3u);
    EXPECT_EQ(stats.readsUnserved, 1u);
    EXPECT_GE(replied, 3 * timeout);
    EXPECT_LT(replied, 4 * timeout);
}

TEST(FetchTimeout, ProbesOfOneReadWaitTheSameTimeoutSmartDs)
{
    runConstantProbeTimeoutScenario([](net::Fabric &fabric,
                                       mem::MemorySystem &memory,
                                       ServerConfig config) {
        SmartDsServer::SmartDsConfig sd;
        sd.workersPerPort = 1;
        return std::make_unique<SmartDsServer>(fabric, memory, config, sd);
    });
}

TEST(FetchTimeout, ProbesOfOneReadWaitTheSameTimeoutCpuOnly)
{
    runConstantProbeTimeoutScenario([](net::Fabric &fabric,
                                       mem::MemorySystem &memory,
                                       ServerConfig config) {
        return std::make_unique<CpuOnlyServer>(fabric, memory, config);
    });
}

} // namespace
} // namespace smartds::middletier
