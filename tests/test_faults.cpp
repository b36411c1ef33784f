/**
 * @file
 * Fault-injection and failure-aware replication tests: deterministic
 * fault timelines, storage nodes that crash / gray-fail / corrupt, and
 * the middle tier's recovery machinery — ack timeouts, retry
 * re-placement, quorum acks with background repair, and end-to-end
 * checksum verification on the read path.
 */

#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "common/checksum.h"
#include "corpus/corpus.h"
#include "faults/fault_injector.h"
#include "host/core_pool.h"
#include "lz4/lz4.h"
#include "mem/memory_system.h"
#include "middletier/cpu_only_server.h"
#include "middletier/maintenance.h"
#include "middletier/protocol.h"
#include "net/fabric.h"
#include "sim/simulator.h"
#include "storage/storage_server.h"
#include "workload/experiment.h"
#include "workload/vm_client.h"

namespace smartds::middletier {
namespace {

using namespace smartds::time_literals;

// ---------------------------------------------------------------------
// FaultProfile unit behaviour
// ---------------------------------------------------------------------

TEST(FaultProfile, SlowNodeMath)
{
    faults::FaultProfile p(1, 7);
    // Healthy profile: no extra latency, no byte inflation.
    EXPECT_EQ(p.extraAppendLatency(100), 0u);
    EXPECT_EQ(p.throttledBytes(1000), 1000u);

    p.degrade(/*latency_factor=*/4.0, /*bandwidth_factor=*/0.5);
    // 4x latency = base plus 3x extra; half bandwidth = double the bytes
    // drained through the fixed-rate disk.
    EXPECT_EQ(p.extraAppendLatency(100), 300u);
    EXPECT_EQ(p.throttledBytes(1000), 2000u);

    p.restore();
    EXPECT_EQ(p.extraAppendLatency(100), 0u);
    EXPECT_EQ(p.throttledBytes(1000), 1000u);
}

TEST(FaultProfile, DecisionsAreDeterministicPerSeed)
{
    faults::FaultProfile a(3, 0xabcd);
    faults::FaultProfile b(3, 0xabcd);
    a.setAckDropProbability(0.3);
    b.setAckDropProbability(0.3);
    a.setCorruptProbability(0.2);
    b.setCorruptProbability(0.2);
    for (int i = 0; i < 200; ++i) {
        EXPECT_EQ(a.dropAck(), b.dropAck());
        EXPECT_EQ(a.corruptBlock(), b.corruptBlock());
        EXPECT_EQ(a.corruptBitIndex(4096 * 8), b.corruptBitIndex(4096 * 8));
    }
    EXPECT_EQ(a.acksDropped(), b.acksDropped());
    EXPECT_EQ(a.blocksCorrupted(), b.blocksCorrupted());
    // With 200 draws at 30% / 20%, both kinds of failure are certain.
    EXPECT_GT(a.acksDropped(), 0u);
    EXPECT_GT(a.blocksCorrupted(), 0u);
}

TEST(FaultProfile, CrashIsIdempotent)
{
    faults::FaultProfile p(9, 1);
    EXPECT_FALSE(p.crashed());
    p.crash();
    p.crash(); // crashing a crashed node is a no-op, not a second crash
    EXPECT_TRUE(p.crashed());
    EXPECT_EQ(p.crashes(), 1u);
    p.recover();
    EXPECT_FALSE(p.crashed());
}

// ---------------------------------------------------------------------
// FaultInjector timelines against a real storage server
// ---------------------------------------------------------------------

TEST(FaultInjector, CrashDropsMessagesAndRecoveryRestoresAcks)
{
    sim::Simulator sim;
    net::Fabric fabric(sim);
    storage::StorageServer server(fabric, "st");
    faults::FaultInjector injector(sim);
    auto *profile = injector.profile(server.nodeId());
    server.attachFaults(profile);
    injector.scheduleCrash(server.nodeId(), 100_us);
    injector.scheduleRecovery(server.nodeId(), 400_us);

    net::Port *mt = fabric.createPort("mt");
    std::vector<std::uint64_t> acked;
    mt->onReceive([&](net::Message msg) {
        if (msg.kind == net::MessageKind::WriteReplicaAck)
            acked.push_back(msg.tag);
    });
    auto replica = [&](std::uint64_t tag) {
        net::Message msg;
        msg.dst = server.nodeId();
        msg.kind = net::MessageKind::WriteReplica;
        msg.headerBytes = 64;
        msg.tag = tag;
        msg.payload.size = 2048;
        mt->send(std::move(msg));
    };

    replica(1); // healthy: acked
    sim.runUntil(200_us);
    ASSERT_EQ(acked.size(), 1u);
    EXPECT_EQ(acked[0], 1u);

    replica(2); // crashed: silently dropped
    sim.runUntil(450_us);
    EXPECT_EQ(acked.size(), 1u);
    EXPECT_GE(profile->messagesDropped(), 1u);

    replica(3); // recovered: acked again
    sim.run();
    ASSERT_EQ(acked.size(), 2u);
    EXPECT_EQ(acked[1], 3u);
}

TEST(FaultInjector, ChurnIsDeterministicForFixedSeed)
{
    auto run = [] {
        sim::Simulator sim;
        faults::FaultInjector injector(sim, 0xfeed);
        std::vector<net::NodeId> nodes = {1, 2, 3, 4, 5, 6};
        for (const net::NodeId n : nodes)
            injector.profile(n); // materialise profiles up front
        injector.startCrashChurn(nodes, 200_us, 300_us);
        sim.runUntil(10 * ticksPerMillisecond);
        return std::make_pair(injector.crashesInjected(),
                              injector.crashedCount());
    };
    const auto first = run();
    const auto second = run();
    EXPECT_EQ(first, second);
    // ~50 draw opportunities in 10 ms at a 200 us mean interval.
    EXPECT_GT(first.first, 5u);
}

// ---------------------------------------------------------------------
// Failure-aware replication end to end (issue acceptance tests)
// ---------------------------------------------------------------------

struct FaultTestbed
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

    explicit FaultTestbed(unsigned n_storage)
    {
        storage::StorageServer::Config sc;
        sc.functionalStore = true;
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
    makeClient(net::NodeId target, unsigned outstanding)
    {
        workload::VmClient::Config cc;
        cc.target = target;
        cc.outstanding = outstanding;
        cc.ratios = &ratios;
        cc.corpus = &corpus; // functional payloads, checksums stamped
        cc.tagCounter = &tags;
        cc.metrics = &metrics;
        return std::make_unique<workload::VmClient>(fabric, "vm", cc);
    }

    /**
     * Byte-for-byte durability audit: every replica sitting on any
     * storage node must decompress to bytes whose xxHash32 matches the
     * checksum the VM stamped into the stored header at write time.
     *
     * @return number of replicas verified
     */
    unsigned
    verifyAllStoredReplicas() const
    {
        unsigned verified = 0;
        for (const auto &s : storage) {
            for (std::uint64_t tag = 1; tag < tags; ++tag) {
                const net::Payload *p = s->storedBlock(tag);
                if (!p || !p->data)
                    continue;
                const auto header = s->storedHeader(tag);
                if (!header || header->size() < StorageHeader::wireSize)
                    continue;
                const StorageHeader hdr =
                    StorageHeader::decode(header->data());
                std::vector<std::uint8_t> plain;
                if (p->compressed) {
                    auto d = lz4::decompress(*p->data, p->originalSize);
                    EXPECT_TRUE(d.has_value()) << "tag " << tag;
                    if (!d)
                        continue;
                    plain = std::move(*d);
                } else {
                    plain.assign(p->data->begin(), p->data->end());
                }
                EXPECT_EQ(xxhash32(plain), hdr.blockChecksum)
                    << "tag " << tag;
                ++verified;
            }
        }
        return verified;
    }
};

TEST(FaultTolerance, CrashDuringWritesCompletesViaReplacement)
{
    // A storage node crashes mid-run and never comes back. Every write
    // the VMs issued must still acknowledge (timeouts fail the dead
    // replica over onto healthy nodes), and everything that landed on
    // disk anywhere must be byte-for-byte what the VM wrote.
    FaultTestbed bed(5);
    CpuOnlyServer server(bed.fabric, bed.memory, bed.serverConfig(4));
    faults::FaultInjector injector(bed.sim);
    auto *profile = injector.profile(bed.storageNodes[0]);
    bed.storage[0]->attachFaults(profile);
    injector.scheduleCrash(bed.storageNodes[0], 200_us);

    auto client = bed.makeClient(server.frontNode(), 4);
    bed.sim.runUntil(6 * ticksPerMillisecond);
    client->stop();
    bed.sim.run();

    ASSERT_GT(bed.metrics.issued, 50u);
    EXPECT_EQ(bed.metrics.completed, bed.metrics.issued);
    EXPECT_GE(profile->messagesDropped(), 1u);

    const FailoverStats stats = server.failoverStats();
    EXPECT_GT(stats.replicaTimeouts, 0u);
    EXPECT_GT(stats.replicaRetries, 0u);
    EXPECT_GT(stats.replicaReplacements, 0u);
    EXPECT_GT(stats.nodesSuspected, 0u);

    SCOPED_TRACE("post-crash durability audit");
    EXPECT_GT(bed.verifyAllStoredReplicas(), 100u);
}

TEST(FaultTolerance, CrashTimelineIsDeterministicForFixedSeed)
{
    // Two identical runs of the crash-during-write scenario must produce
    // identical failover counters and client metrics — the determinism
    // guarantee the fault framework promises.
    auto run = [] {
        FaultTestbed bed(5);
        CpuOnlyServer server(bed.fabric, bed.memory, bed.serverConfig(4));
        faults::FaultInjector injector(bed.sim);
        bed.storage[0]->attachFaults(
            injector.profile(bed.storageNodes[0]));
        injector.scheduleCrash(bed.storageNodes[0], 200_us);
        auto client = bed.makeClient(server.frontNode(), 4);
        bed.sim.runUntil(3 * ticksPerMillisecond);
        client->stop();
        bed.sim.run();
        const FailoverStats s = server.failoverStats();
        return std::make_tuple(bed.metrics.issued, bed.metrics.completed,
                               s.replicaTimeouts, s.replicaRetries,
                               s.replicaReplacements, s.replicasAbandoned,
                               bed.sim.now());
    };
    EXPECT_EQ(run(), run());
}

TEST(FaultTolerance, CorruptedReadDetectedAndServedFromHealthyReplica)
{
    // Two of three replicas hold a valid-looking block whose bytes do
    // NOT match the checksum in the stored header (silent corruption).
    // The read path must catch the mismatch end to end and serve the
    // block from the one clean replica.
    FaultTestbed bed(3);
    CpuOnlyServer server(bed.fabric, bed.memory, bed.serverConfig(4));

    Rng rng(3);
    const std::vector<std::uint8_t> plain = bed.corpus.sampleBlock(4096, rng);
    std::vector<std::uint8_t> wrong_plain =
        bed.corpus.sampleBlock(4096, rng);
    if (wrong_plain == plain)
        wrong_plain[0] ^= 0xff;
    const SharedBytes good = shareBytes(lz4::compress(plain, 1));
    const SharedBytes bad = shareBytes(lz4::compress(wrong_plain, 1));
    const std::uint32_t checksum = xxhash32(plain);

    constexpr std::uint64_t tag = 777;
    StorageHeader hdr;
    hdr.tag = tag;
    hdr.payloadSize = 4096;
    hdr.blockChecksum = checksum;
    const auto header = hdr.encodeShared();

    net::Port *vm = bed.fabric.createPort("vm-raw");
    unsigned replies = 0;
    vm->onReceive([&](net::Message msg) {
        if (msg.kind != net::MessageKind::ReadReply)
            return;
        ++replies;
        ASSERT_TRUE(msg.payload.data);
        EXPECT_EQ(msg.payload.data->size(), 4096u);
        EXPECT_EQ(xxhash32(*msg.payload.data), checksum);
    });

    // Seed the replicas directly: nodes 0 and 1 corrupt, node 2 clean.
    for (unsigned i = 0; i < 3; ++i) {
        net::Message w;
        w.dst = bed.storageNodes[i];
        w.kind = net::MessageKind::WriteReplica;
        w.headerBytes = StorageHeader::wireSize;
        w.headerData = header;
        w.tag = tag;
        w.payload.data = i == 2 ? good : bad;
        w.payload.size = w.payload.data->size();
        w.payload.compressed = true;
        w.payload.originalSize = 4096;
        vm->send(std::move(w));
    }
    bed.sim.run();

    // Sequential reads: each picks a random starting replica, so a batch
    // of them is statistically certain to trip over the corrupt copies.
    constexpr unsigned reads = 20;
    for (unsigned i = 0; i < reads; ++i) {
        net::Message r;
        r.dst = server.frontNode();
        r.kind = net::MessageKind::ReadRequest;
        r.headerBytes = StorageHeader::wireSize;
        r.tag = tag;
        r.payload.size = good->size();
        r.payload.originalSize = 4096;
        vm->send(std::move(r));
        bed.sim.run();
    }

    EXPECT_EQ(replies, reads);
    const FailoverStats stats = server.failoverStats();
    EXPECT_GT(stats.corruptionsDetected, 0u);
    EXPECT_GT(stats.readFailovers, 0u);
    EXPECT_EQ(stats.readsUnserved, 0u);
}

TEST(FaultTolerance, QuorumAcksEarlyAndRepairHealsAbandonedReplica)
{
    // 2-of-3 quorum against a permanently dead node with zero retries:
    // the VM ack leaves at the second replica ack, the dead replica is
    // abandoned and handed to the background repair queue, and the
    // repair lands the block on a healthy node.
    FaultTestbed bed(4);
    ServerConfig config = bed.serverConfig(4);
    config.failover.ackQuorum = 2;
    config.failover.maxRetries = 0;
    CpuOnlyServer server(bed.fabric, bed.memory, config);

    faults::FaultInjector injector(bed.sim);
    auto *profile = injector.profile(bed.storageNodes[0]);
    profile->crash(); // down before any traffic, never recovers
    bed.storage[0]->attachFaults(profile);

    host::CorePool repair_pool(bed.sim, "repair.cores", 2);
    MaintenanceService maint(bed.sim, "maint", repair_pool, bed.memory);
    maint.stop(); // no compaction bursts: repairs only
    server.setMaintenanceService(&maint);

    auto client = bed.makeClient(server.frontNode(), 4);
    bed.sim.runUntil(4 * ticksPerMillisecond);
    client->stop();
    bed.sim.run();

    ASSERT_GT(bed.metrics.issued, 50u);
    EXPECT_EQ(bed.metrics.completed, bed.metrics.issued);

    const FailoverStats stats = server.failoverStats();
    EXPECT_GT(stats.quorumCompletions, 0u);
    EXPECT_GT(stats.replicasAbandoned, 0u);
    EXPECT_GT(stats.repairsScheduled, 0u);
    EXPECT_GT(maint.repairsCompleted(), 0u);
    EXPECT_EQ(stats.repairsScheduled, maint.repairsCompleted());

    // The dead node stored nothing after its crash; repairs re-homed the
    // abandoned replicas, so the durable copies all verify.
    EXPECT_GT(bed.verifyAllStoredReplicas(), 0u);
}

// ---------------------------------------------------------------------
// Full experiment harness under faults
// ---------------------------------------------------------------------

TEST(FaultTolerance, FaultyExperimentRunsAreDeterministic)
{
    workload::ExperimentConfig config;
    config.design = Design::CpuOnly;
    config.cores = 4;
    config.clients = 4;
    config.storageServers = 6;
    config.warmup = 1 * ticksPerMillisecond;
    config.window = 3 * ticksPerMillisecond;
    config.readFraction = 0.2;
    config.crashMeanInterval = 500_us;
    config.crashOutage = 1 * ticksPerMillisecond;
    config.ackDropProbability = 0.02;
    config.ackQuorum = 2;

    const auto a = workload::runWriteExperiment(config);
    const auto b = workload::runWriteExperiment(config);

    // The fault timeline actually fired...
    EXPECT_GT(a.crashesInjected, 0u);
    EXPECT_GT(a.acksDropped, 0u);
    EXPECT_GT(a.failover.replicaTimeouts, 0u);
    EXPECT_GT(a.requestsCompleted, 100u);

    // ...and both runs are bit-identical.
    EXPECT_EQ(a.requestsCompleted, b.requestsCompleted);
    EXPECT_EQ(a.throughputGbps, b.throughputGbps);
    EXPECT_EQ(a.p99LatencyUs, b.p99LatencyUs);
    EXPECT_EQ(a.crashesInjected, b.crashesInjected);
    EXPECT_EQ(a.acksDropped, b.acksDropped);
    EXPECT_EQ(a.repairsCompleted, b.repairsCompleted);
    EXPECT_EQ(a.failover.replicaTimeouts, b.failover.replicaTimeouts);
    EXPECT_EQ(a.failover.replicaRetries, b.failover.replicaRetries);
    EXPECT_EQ(a.failover.replicaReplacements,
              b.failover.replicaReplacements);
    EXPECT_EQ(a.failover.quorumCompletions, b.failover.quorumCompletions);
    EXPECT_EQ(a.failover.nodesSuspected, b.failover.nodesSuspected);
}

} // namespace
} // namespace smartds::middletier
