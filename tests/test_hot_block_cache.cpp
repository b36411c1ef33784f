/**
 * @file
 * Middle-tier hot-block read cache tests: LRU/capacity bookkeeping at the
 * unit level, and end-to-end coherence on the CpuOnly read path — cache
 * hits must serve bytes byte-identical to a cache-off run, writes must
 * invalidate the cached copy before it can go stale, and fault-injected
 * runs (bit flips, crash churn, EC degraded reads) must stay correct and
 * deterministic with the cache enabled.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/checksum.h"
#include "corpus/block_cache.h"
#include "corpus/corpus.h"
#include "faults/fault_injector.h"
#include "lz4/lz4.h"
#include "mem/memory_system.h"
#include "middletier/accelerator_server.h"
#include "middletier/bf2_server.h"
#include "middletier/cpu_only_server.h"
#include "middletier/hot_block_cache.h"
#include "middletier/protocol.h"
#include "middletier/smartds_server.h"
#include "net/fabric.h"
#include "sim/simulator.h"
#include "storage/storage_server.h"
#include "workload/experiment.h"

namespace smartds::middletier {
namespace {

using namespace smartds::time_literals;

constexpr Bytes blockBytes = 4096;

HotBlockCache::Entry
entryOf(Bytes size)
{
    return {size, 0.5,
            std::make_shared<const std::vector<std::uint8_t>>(size, 0xab)};
}

// ---------------------------------------------------------------------
// Unit behaviour
// ---------------------------------------------------------------------

TEST(HotBlockCache, LruEvictsTheColdestBlock)
{
    HotBlockCache cache(3 * blockBytes);
    cache.insert(1, 0 * blockBytes, entryOf(blockBytes));
    cache.insert(1, 1 * blockBytes, entryOf(blockBytes));
    cache.insert(1, 2 * blockBytes, entryOf(blockBytes));
    ASSERT_EQ(cache.entries(), 3u);
    ASSERT_EQ(cache.used(), 3 * blockBytes);

    // Touch block 0: block 1 becomes the LRU tail.
    ASSERT_NE(cache.lookup(1, 0), nullptr);
    cache.insert(1, 3 * blockBytes, entryOf(blockBytes));

    EXPECT_EQ(cache.lookup(1, 1 * blockBytes), nullptr); // evicted
    EXPECT_NE(cache.lookup(1, 0 * blockBytes), nullptr);
    EXPECT_NE(cache.lookup(1, 2 * blockBytes), nullptr);
    EXPECT_NE(cache.lookup(1, 3 * blockBytes), nullptr);

    const HotBlockCache::Stats &s = cache.stats();
    EXPECT_EQ(s.insertions, 4u);
    EXPECT_EQ(s.evictions, 1u);
    EXPECT_EQ(s.hits, 4u);
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.hitBytes, 4 * blockBytes);
    EXPECT_EQ(cache.used(), 3 * blockBytes);
}

TEST(HotBlockCache, CapacityAccountingSkipsUnfittableBlocks)
{
    HotBlockCache cache(2 * blockBytes);

    // Zero-sized and larger-than-cache entries are skipped outright.
    cache.insert(1, 0, entryOf(0));
    cache.insert(1, 0, entryOf(4 * blockBytes));
    EXPECT_EQ(cache.entries(), 0u);
    EXPECT_EQ(cache.stats().insertions, 0u);

    // Re-inserting the same key refreshes in place, no double charge.
    cache.insert(1, 0, entryOf(blockBytes));
    cache.insert(1, 0, entryOf(blockBytes));
    EXPECT_EQ(cache.entries(), 1u);
    EXPECT_EQ(cache.used(), blockBytes);

    // A full-capacity block evicts everything else to fit exactly.
    cache.insert(1, blockBytes, entryOf(2 * blockBytes));
    EXPECT_EQ(cache.entries(), 1u);
    EXPECT_EQ(cache.used(), 2 * blockBytes);
    EXPECT_EQ(cache.lookup(1, 0), nullptr);
}

TEST(HotBlockCache, InvalidateDropsExactlyTheTargetBlock)
{
    HotBlockCache cache(4 * blockBytes);
    cache.insert(7, 0, entryOf(blockBytes));
    cache.insert(7, blockBytes, entryOf(blockBytes));

    EXPECT_TRUE(cache.invalidate(7, 0));
    EXPECT_FALSE(cache.invalidate(7, 0)); // already gone
    EXPECT_FALSE(cache.invalidate(8, blockBytes)); // different VM
    EXPECT_EQ(cache.lookup(7, 0), nullptr);
    EXPECT_NE(cache.lookup(7, blockBytes), nullptr);
    EXPECT_EQ(cache.used(), blockBytes);
    EXPECT_EQ(cache.stats().invalidations, 1u);
}

TEST(HotBlockCache, StatsAggregateAcrossCards)
{
    HotBlockCache::Stats a, b;
    a.hits = 3;
    a.hitBytes = 3 * blockBytes;
    a.invalidations = 1;
    b.hits = 2;
    b.misses = 5;
    b.insertions = 4;
    b.evictions = 2;
    a += b;
    EXPECT_EQ(a.hits, 5u);
    EXPECT_EQ(a.misses, 5u);
    EXPECT_EQ(a.hitBytes, 3 * blockBytes);
    EXPECT_EQ(a.insertions, 4u);
    EXPECT_EQ(a.evictions, 2u);
    EXPECT_EQ(a.invalidations, 1u);
}

// ---------------------------------------------------------------------
// End-to-end coherence on the CpuOnly read path
// ---------------------------------------------------------------------

/** Functional storage pool + raw VM port for crafted request streams. */
struct CacheTestbed
{
    sim::Simulator sim;
    net::Fabric fabric{sim};
    mem::MemorySystem memory{sim, "mem", {}};
    std::vector<std::unique_ptr<storage::StorageServer>> storage;
    std::vector<net::NodeId> storageNodes;
    faults::FaultInjector injector{sim};
    corpus::SyntheticCorpus corpus{1u << 20, 42};
    net::Port *vm = nullptr;
    std::vector<std::vector<std::uint8_t>> readBytes;

    CacheTestbed()
    {
        storage::StorageServer::Config sc;
        sc.functionalStore = true;
        for (unsigned i = 0; i < 3; ++i) {
            storage.push_back(std::make_unique<storage::StorageServer>(
                fabric, "st" + std::to_string(i), sc));
            storageNodes.push_back(storage.back()->nodeId());
            storage.back()->attachFaults(
                injector.profile(storageNodes.back()));
        }
        vm = fabric.createPort("vm-raw");
        vm->onReceive([this](net::Message msg) {
            if (msg.kind != net::MessageKind::ReadReply)
                return;
            ASSERT_TRUE(msg.payload.data);
            readBytes.push_back(*msg.payload.data);
        });
    }

    ServerConfig
    serverConfig(Bytes cache_bytes) const
    {
        ServerConfig config;
        config.cores = 4;
        config.storageNodes = storageNodes;
        config.readCache.capacityBytes = cache_bytes;
        return config;
    }

    /** Seed every replica of @p tag directly on the storage nodes. */
    void
    seedReplicas(std::uint64_t tag, std::uint64_t vm_id,
                 std::uint64_t block_offset,
                 const std::vector<std::uint8_t> &plain,
                 unsigned corrupt_replicas = 0)
    {
        const auto good = std::make_shared<const std::vector<std::uint8_t>>(
            lz4::compress(plain, 1));
        std::vector<std::uint8_t> flipped_plain = plain;
        flipped_plain[0] ^= 0xff;
        const auto bad = std::make_shared<const std::vector<std::uint8_t>>(
            lz4::compress(flipped_plain, 1));

        StorageHeader hdr;
        hdr.vmId = vm_id;
        hdr.blockOffset = block_offset;
        hdr.tag = tag;
        hdr.payloadSize = static_cast<std::uint32_t>(plain.size());
        hdr.blockChecksum = xxhash32(plain);
        const auto header = hdr.encodeShared();

        for (unsigned i = 0; i < storage.size(); ++i) {
            net::Message w;
            w.dst = storageNodes[i];
            w.kind = net::MessageKind::WriteReplica;
            w.headerBytes = StorageHeader::wireSize;
            w.headerData = header;
            w.tag = tag;
            w.payload.data = i < corrupt_replicas ? bad : good;
            w.payload.size = w.payload.data->size();
            w.payload.compressed = true;
            w.payload.originalSize = plain.size();
            vm->send(std::move(w));
        }
        sim.run();
    }

    /** One crafted read, run to completion. */
    void
    read(net::NodeId front, std::uint64_t tag, std::uint64_t vm_id,
         std::uint64_t block_offset, net::QpId front_qp = 0)
    {
        net::Message r;
        r.dst = front;
        r.dstQp = front_qp;
        r.kind = net::MessageKind::ReadRequest;
        r.headerBytes = StorageHeader::wireSize;
        r.tag = tag;
        r.vmId = vm_id;
        r.blockOffset = block_offset;
        r.payload.size = 0;
        r.payload.originalSize = blockBytes;
        vm->send(std::move(r));
        sim.run();
    }

    /** One crafted functional write, mimicking the VmClient encoding. */
    void
    write(net::NodeId front, std::uint64_t tag, std::uint64_t vm_id,
          std::uint64_t block_offset, const std::vector<std::uint8_t> &plain,
          net::QpId front_qp = 0)
    {
        StorageHeader hdr;
        hdr.vmId = vm_id;
        hdr.blockOffset = block_offset;
        hdr.tag = tag;
        hdr.payloadSize = static_cast<std::uint32_t>(plain.size());
        hdr.blockChecksum = xxhash32(plain);

        net::Message w;
        w.dst = front;
        w.dstQp = front_qp;
        w.kind = net::MessageKind::WriteRequest;
        w.headerBytes = StorageHeader::wireSize;
        w.headerData = hdr.encodeShared();
        w.tag = tag;
        w.vmId = vm_id;
        w.blockOffset = block_offset;
        w.payload.size = plain.size();
        w.payload.data =
            std::make_shared<const std::vector<std::uint8_t>>(plain);
        w.payload.compressibility =
            lz4::compressionRatio(plain.data(), plain.size(), 1);
        vm->send(std::move(w));
        sim.run();
    }
};

TEST(HotBlockCacheEndToEnd, RepeatedReadsHitAndServeIdenticalBytes)
{
    CacheTestbed bed;
    CpuOnlyServer server(bed.fabric, bed.memory,
                         bed.serverConfig(mebibytes(1)));

    Rng rng(3);
    const std::vector<std::uint8_t> plain =
        bed.corpus.sampleBlock(blockBytes, rng);
    bed.seedReplicas(777, /*vm=*/5, /*offset=*/blockBytes, plain);

    constexpr unsigned reads = 10;
    for (unsigned i = 0; i < reads; ++i)
        bed.read(server.frontNode(), 777, 5, blockBytes);

    ASSERT_EQ(bed.readBytes.size(), reads);
    for (const auto &bytes : bed.readBytes)
        EXPECT_EQ(bytes, plain); // hits and the miss serve the same bytes

    const HotBlockCache::Stats s = server.readCacheStats();
    EXPECT_EQ(s.insertions, 1u);
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.hits, reads - 1u);
    EXPECT_EQ(s.hitBytes, (reads - 1u) * blockBytes);
}

/** One of the four designs, on @p bed (SmartDS with a functional card). */
std::unique_ptr<MiddleTierServer>
makeServer(Design design, CacheTestbed &bed, ServerConfig config)
{
    switch (design) {
      case Design::CpuOnly:
        return std::make_unique<CpuOnlyServer>(bed.fabric, bed.memory,
                                               std::move(config));
      case Design::Accelerator:
        return std::make_unique<AcceleratorServer>(bed.fabric, bed.memory,
                                                   std::move(config));
      case Design::Bf2:
        return std::make_unique<Bf2Server>(bed.fabric, std::move(config));
      case Design::SmartDs: {
        SmartDsServer::SmartDsConfig sd;
        sd.workersPerPort = 2;
        sd.device.functional = true;
        return std::make_unique<SmartDsServer>(bed.fabric, bed.memory,
                                               std::move(config), sd);
      }
    }
    return nullptr;
}

class WriteReadRoundTrip : public ::testing::TestWithParam<Design>
{
};

TEST_P(WriteReadRoundTrip, ReadsServeTheWrittenBytes)
{
    // A functional write through the design's write path, then two reads
    // of the block: the first misses and fetches a stored replica, the
    // second hits the cache. Both must serve the bytes that were written.
    CacheTestbed bed;
    const auto server =
        makeServer(GetParam(), bed, bed.serverConfig(mebibytes(1)));
    ASSERT_NE(server, nullptr);
    const net::NodeId front = server->frontNode();
    const net::QpId qp = server->frontQp();

    Rng rng(3);
    const std::vector<std::uint8_t> plain =
        bed.corpus.sampleBlock(blockBytes, rng);
    bed.write(front, 9, 5, 0, plain, qp);
    bed.read(front, 9, 5, 0, qp);
    bed.read(front, 9, 5, 0, qp);

    ASSERT_EQ(bed.readBytes.size(), 2u);
    EXPECT_EQ(bed.readBytes[0], plain);
    EXPECT_EQ(bed.readBytes[1], plain);
    const HotBlockCache::Stats s = server->readCacheStats();
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(server->failoverStats().readsUnserved, 0u);
}

INSTANTIATE_TEST_SUITE_P(Designs, WriteReadRoundTrip,
                         ::testing::Values(Design::CpuOnly,
                                           Design::Accelerator, Design::Bf2,
                                           Design::SmartDs),
                         [](const ::testing::TestParamInfo<Design> &info) {
                             switch (info.param) {
                               case Design::CpuOnly:
                                 return std::string("CpuOnly");
                               case Design::Accelerator:
                                 return std::string("Accelerator");
                               case Design::Bf2:
                                 return std::string("Bf2");
                               default:
                                 return std::string("SmartDs");
                             }
                         });

TEST(HotBlockCacheEndToEnd, WriteInvalidatesTheCachedCopy)
{
    CacheTestbed bed;
    CpuOnlyServer server(bed.fabric, bed.memory,
                         bed.serverConfig(mebibytes(1)));

    Rng rng(3);
    const std::vector<std::uint8_t> old_plain =
        bed.corpus.sampleBlock(blockBytes, rng);
    std::vector<std::uint8_t> new_plain =
        bed.corpus.sampleBlock(blockBytes, rng);
    if (new_plain == old_plain)
        new_plain[0] ^= 0xff;

    // Cache the old version of (vm 5, offset 0) via two reads.
    bed.seedReplicas(1, 5, 0, old_plain);
    bed.read(server.frontNode(), 1, 5, 0);
    bed.read(server.frontNode(), 1, 5, 0);
    ASSERT_EQ(server.readCacheStats().hits, 1u);

    // Overwrite the block through the server's write path: the stale
    // cached copy must be dropped before the write acknowledges.
    bed.write(server.frontNode(), 2, 5, 0, new_plain);
    EXPECT_EQ(server.readCacheStats().invalidations, 1u);

    // A read of the new version must miss and serve the fresh bytes —
    // with a missing invalidation it would hit and serve old_plain.
    bed.read(server.frontNode(), 2, 5, 0);
    ASSERT_EQ(bed.readBytes.size(), 3u);
    EXPECT_EQ(bed.readBytes[0], old_plain);
    EXPECT_EQ(bed.readBytes[1], old_plain);
    EXPECT_EQ(bed.readBytes[2], new_plain);
}

TEST(HotBlockCacheEndToEnd, BitFlippedReplicasNeverReachTheCache)
{
    // Two of three replicas are bit-flipped. With the cache on, every
    // read must still serve the clean bytes (byte-identical to the
    // cache-off run below), because only checksum-verified plaintext is
    // ever inserted.
    Rng rng(3);
    for (const Bytes capacity : {Bytes(0), mebibytes(1)}) {
        CacheTestbed bed;
        CpuOnlyServer server(bed.fabric, bed.memory,
                             bed.serverConfig(capacity));
        const std::vector<std::uint8_t> plain =
            bed.corpus.sampleBlock(blockBytes, rng);
        bed.seedReplicas(777, 9, 0, plain, /*corrupt_replicas=*/2);

        constexpr unsigned reads = 20;
        for (unsigned i = 0; i < reads; ++i)
            bed.read(server.frontNode(), 777, 9, 0);

        ASSERT_EQ(bed.readBytes.size(), reads);
        for (const auto &bytes : bed.readBytes)
            EXPECT_EQ(bytes, plain);
        EXPECT_EQ(server.failoverStats().readsUnserved, 0u);

        const HotBlockCache::Stats s = server.readCacheStats();
        if (capacity == 0) {
            EXPECT_EQ(s.hits + s.misses, 0u); // cache disabled
            // Every read rolls the replica dice: corruption keeps being
            // detected for the whole run.
            EXPECT_GT(server.failoverStats().corruptionsDetected, 1u);
        } else {
            // After the first verified read the block is pinned hot: the
            // corrupt replicas are never consulted again.
            EXPECT_EQ(s.hits, reads - 1u);
        }
    }
}

TEST(HotBlockCacheEndToEnd, CrashedReplicaFailsOverAndHitsStayClean)
{
    // One replica host is down from t=0: the first read times out on it
    // (when probed), fails over and caches the verified bytes; every
    // later read hits locally and never touches the dead node — the
    // crash-churn flavour of the byte-identity guarantee.
    CacheTestbed bed;
    CpuOnlyServer server(bed.fabric, bed.memory,
                         bed.serverConfig(mebibytes(1)));

    Rng rng(3);
    const std::vector<std::uint8_t> plain =
        bed.corpus.sampleBlock(blockBytes, rng);
    bed.seedReplicas(777, 6, 0, plain);
    bed.injector.profile(bed.storageNodes[0])->crash();

    constexpr unsigned reads = 10;
    for (unsigned i = 0; i < reads; ++i)
        bed.read(server.frontNode(), 777, 6, 0);

    ASSERT_EQ(bed.readBytes.size(), reads);
    for (const auto &bytes : bed.readBytes)
        EXPECT_EQ(bytes, plain);
    EXPECT_EQ(server.failoverStats().readsUnserved, 0u);
    EXPECT_EQ(server.readCacheStats().hits, reads - 1u);
}

TEST(HotBlockCacheEndToEnd, EcDegradedReadIsCachedByteForByte)
{
    // RS(4, 2), one failure domain (= m shards) dark: the first read
    // decodes the stripe from parity, the recovered plaintext lands in
    // the hot-block cache, and every later read serves it byte for byte
    // without another degraded decode.
    sim::Simulator sim;
    net::Fabric fabric(sim);
    mem::MemorySystem memory(sim, "mem", {});
    faults::FaultInjector injector(sim);

    storage::StorageServer::Config sc;
    sc.functionalStore = true;
    std::vector<std::unique_ptr<storage::StorageServer>> storage;
    std::vector<net::NodeId> storage_nodes;
    for (unsigned i = 0; i < 6; ++i) {
        storage.push_back(std::make_unique<storage::StorageServer>(
            fabric, "st" + std::to_string(i), sc));
        storage_nodes.push_back(storage.back()->nodeId());
        storage.back()->attachFaults(
            injector.profile(storage_nodes.back()));
    }

    corpus::SyntheticCorpus corpus(1u << 20, 42);
    const corpus::BlockCodecCache &codec =
        corpus::sharedBlockCache(corpus, blockBytes, 1);
    const corpus::BlockCodecCache::Entry &entry = codec.entry(3);

    ServerConfig config;
    config.cores = 4;
    config.storageNodes = storage_nodes;
    config.policy = ReplicationPolicy::ErasureCode;
    config.ec.dataShards = 4;
    config.ec.parityShards = 2;
    for (unsigned i = 0; i < storage_nodes.size(); ++i)
        config.storageDomains.push_back(i % 3);
    config.blockCache = &codec;
    config.readCache.capacityBytes = mebibytes(1);
    CpuOnlyServer server(fabric, memory, config);

    net::Port *vm = fabric.createPort("vm-raw");
    unsigned write_acks = 0;
    std::vector<std::vector<std::uint8_t>> read_bytes;
    vm->onReceive([&](net::Message msg) {
        if (msg.kind == net::MessageKind::WriteReply) {
            ++write_acks;
            return;
        }
        if (msg.kind != net::MessageKind::ReadReply)
            return;
        ASSERT_TRUE(msg.payload.data);
        read_bytes.push_back(*msg.payload.data);
    });

    StorageHeader hdr;
    hdr.tag = 42;
    hdr.payloadSize = blockBytes;
    hdr.blockChecksum = entry.plainChecksum;
    hdr.compressionEffort = 1;
    net::Message w;
    w.dst = server.frontNode();
    w.kind = net::MessageKind::WriteRequest;
    w.headerBytes = StorageHeader::wireSize;
    w.headerData = hdr.encodeShared();
    w.tag = 42;
    w.payload.data = entry.plain;
    w.payload.size = blockBytes;
    w.payload.blockId = 4; // blockId is 1-based
    w.payload.compressibility = entry.ratio;
    vm->send(std::move(w));
    sim.run();
    ASSERT_EQ(write_acks, 1u);

    // A rack loses power: domain 0 = nodes 0 and 3 = exactly m shards.
    for (unsigned i = 0; i < storage_nodes.size(); ++i)
        if (i % 3 == 0)
            injector.profile(storage_nodes[i])->crash();

    constexpr unsigned reads = 5;
    for (unsigned i = 0; i < reads; ++i) {
        net::Message r;
        r.dst = server.frontNode();
        r.kind = net::MessageKind::ReadRequest;
        r.headerBytes = StorageHeader::wireSize;
        r.tag = 42;
        r.payload.size = entry.compressed->size();
        r.payload.originalSize = blockBytes;
        vm->send(std::move(r));
        sim.run();
    }

    ASSERT_EQ(read_bytes.size(), reads);
    for (const auto &bytes : read_bytes)
        EXPECT_EQ(bytes, *entry.plain); // byte for byte, hit or decode

    const FailoverStats stats = server.failoverStats();
    EXPECT_GT(stats.degradedReads, 0u);
    EXPECT_EQ(stats.readsUnserved, 0u);
    const HotBlockCache::Stats cache_stats = server.readCacheStats();
    EXPECT_EQ(cache_stats.hits, reads - 1u);
    // Only the first read paid the degraded decode.
    EXPECT_EQ(stats.degradedReads, 1u);
}

// ---------------------------------------------------------------------
// Experiment-level: faults + cache stay correct and deterministic
// ---------------------------------------------------------------------

auto
resultKey(const workload::ExperimentResult &r)
{
    return std::make_tuple(
        r.requestsCompleted, r.throughputGbps, r.p99LatencyUs,
        r.failover.replicaTimeouts, r.failover.corruptionsDetected,
        r.failover.readFailovers, r.failover.readsUnserved,
        r.failover.degradedReads, r.blocksCorrupted, r.crashesInjected,
        r.cache.hits, r.cache.misses, r.cache.hitBytes, r.cache.insertions,
        r.cache.evictions, r.cache.invalidations);
}

TEST(HotBlockCacheEndToEnd, FaultyCachedRunsAreDeterministic)
{
    // Skewed workload with bit flips and crash churn, cache on: the run
    // must be bit-deterministic (cache counters included) and the cache
    // must actually be exercised, hits and write invalidations both.
    workload::ExperimentConfig config;
    config.design = Design::CpuOnly;
    config.cores = 4;
    config.clients = 4;
    config.storageServers = 6;
    config.readFraction = 0.6;
    config.zipfTheta = 0.99;
    config.virtualDiskBytes = mebibytes(8);
    config.readCacheBytes = kibibytes(256);
    config.corruptProbability = 0.05;
    config.crashMeanInterval = 800_us;
    config.crashOutage = 1 * ticksPerMillisecond;
    config.warmup = 1 * ticksPerMillisecond;
    config.window = 3 * ticksPerMillisecond;

    const auto a = workload::runWriteExperiment(config);
    const auto b = workload::runWriteExperiment(config);

    EXPECT_GT(a.requestsCompleted, 100u);
    EXPECT_GT(a.crashesInjected, 0u);
    EXPECT_GT(a.blocksCorrupted, 0u);
    EXPECT_GT(a.cache.hits, 0u);
    EXPECT_GT(a.cache.invalidations, 0u); // writes hit cached blocks
    EXPECT_EQ(resultKey(a), resultKey(b));
}

TEST(HotBlockCacheEndToEnd, EcDegradedReadsFillTheCache)
{
    // RS(4, 2) with a mid-run domain crash: reads decode degraded
    // stripes, the recovered blocks are cached, and the run stays
    // deterministic with the cache enabled.
    workload::ExperimentConfig config;
    config.design = Design::CpuOnly;
    config.cores = 4;
    config.clients = 3;
    config.storageServers = 6;
    config.failureDomains = 3;
    config.replicationPolicy = ReplicationPolicy::ErasureCode;
    config.ecDataShards = 4;
    config.ecParityShards = 2;
    config.readFraction = 0.5;
    config.zipfTheta = 0.99;
    config.virtualDiskBytes = mebibytes(8);
    config.readCacheBytes = kibibytes(256);
    config.warmup = 1 * ticksPerMillisecond;
    config.window = 3 * ticksPerMillisecond;
    config.domainCrashAt = 1500_us;
    config.domainCrashOutage = 1 * ticksPerMillisecond;
    config.ackQuorum = 4;

    const auto a = workload::runWriteExperiment(config);
    const auto b = workload::runWriteExperiment(config);

    EXPECT_GT(a.requestsCompleted, 50u);
    EXPECT_GT(a.failover.stripesEncoded, 0u);
    EXPECT_GT(a.cache.hits, 0u);
    EXPECT_EQ(a.crashesInjected, 2u);
    EXPECT_EQ(resultKey(a), resultKey(b));
}

TEST(HotBlockCacheEndToEnd, SmartDsHbmCacheServesSkewedReads)
{
    // SmartDS with the cache placed in device HBM: hits are charged to
    // the HBM flow instead of host cores and the functional run remains
    // deterministic.
    workload::ExperimentConfig config;
    config.design = Design::SmartDs;
    config.workersPerPort = 16;
    config.clients = 4;
    config.storageServers = 6;
    config.readFraction = 0.6;
    config.zipfTheta = 0.99;
    config.virtualDiskBytes = mebibytes(8);
    config.readCacheBytes = mebibytes(1);
    config.readCachePlacement = ReadCachePlacement::DeviceHbm;
    config.warmup = 1 * ticksPerMillisecond;
    config.window = 3 * ticksPerMillisecond;

    const auto a = workload::runWriteExperiment(config);
    const auto b = workload::runWriteExperiment(config);

    EXPECT_GT(a.requestsCompleted, 100u);
    EXPECT_GT(a.cache.hits, 0u);
    EXPECT_EQ(resultKey(a), resultKey(b));
}

} // namespace
} // namespace smartds::middletier
