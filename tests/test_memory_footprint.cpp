/**
 * @file
 * Heap footprint of the simulator, measured with a counting global
 * allocator (the same technique as micro_sim's headerEncodeShared).
 *
 * - runWriteExperiment() gives back every byte it allocates: frames of
 *   processes still suspended when the run ends are reclaimed.
 * - A functional SmartDS run stays under a committed live-heap budget and
 *   a committed number of heap allocations per completed request.
 * - The codec cache and stripe memo that functional runs build once per
 *   process stay under a committed live-heap budget.
 * - HBM reservations are accounting only: they charge the capacity
 *   budget, stay fatal on exhaustion and allocate no host bytes.
 * - The k + m shards of one SmartDS EC write share one header buffer,
 *   and the shards of a corpus block alias the cache's stripe memo.
 *
 * This file is its own test binary, so its operator new replaces the
 * allocator of nothing but these tests.
 */

#include <gtest/gtest.h>

#include <malloc.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "corpus/block_cache.h"
#include "corpus/corpus.h"
#include "mem/memory_system.h"
#include "middletier/cpu_only_server.h"
#include "middletier/protocol.h"
#include "middletier/smartds_server.h"
#include "net/fabric.h"
#include "sim/simulator.h"
#include "smartds/device_memory.h"
#include "storage/storage_server.h"
#include "workload/experiment.h"

namespace {

// simlint: allow(mutable-global): operator new has no owning object to
// thread a counter through; atomic, test-only telemetry
std::atomic<std::int64_t> liveBytes{0};
// simlint: allow(mutable-global): high-water mark of liveBytes since the
// last resetPeak(); atomic, test-only telemetry
std::atomic<std::int64_t> peakBytes{0};
// simlint: allow(mutable-global): operator new calls since process start;
// atomic, test-only telemetry
std::atomic<std::int64_t> allocations{0};

void
noteBytes(std::int64_t delta)
{
    const std::int64_t now =
        liveBytes.fetch_add(delta, std::memory_order_relaxed) + delta;
    std::int64_t peak = peakBytes.load(std::memory_order_relaxed);
    while (now > peak &&
           !peakBytes.compare_exchange_weak(peak, now,
                                            std::memory_order_relaxed)) {
    }
}

void *
countedAlloc(std::size_t size)
{
    void *p = std::malloc(size ? size : 1);
    if (!p)
        throw std::bad_alloc();
    allocations.fetch_add(1, std::memory_order_relaxed);
    noteBytes(static_cast<std::int64_t>(malloc_usable_size(p)));
    return p;
}

void
countedFree(void *p)
{
    if (!p)
        return;
    noteBytes(-static_cast<std::int64_t>(malloc_usable_size(p)));
    std::free(p);
}

} // namespace

// Counting global allocator: live bytes are tracked by usable block
// size, so a free subtracts exactly what its allocation added.
void *
operator new(std::size_t size)
{
    return countedAlloc(size);
}

void *
// simlint: allow(naked-new): counting-allocator definition, not an allocation
operator new[](std::size_t size)
{
    return countedAlloc(size);
}

void operator delete(void *p) noexcept { countedFree(p); }
void operator delete(void *p, std::size_t) noexcept { countedFree(p); }
void operator delete[](void *p) noexcept { countedFree(p); }
void operator delete[](void *p, std::size_t) noexcept { countedFree(p); }

namespace smartds {
namespace {

using middletier::Design;
using middletier::ReadCachePlacement;
using workload::ExperimentConfig;

std::int64_t
heapInUse()
{
    return liveBytes.load(std::memory_order_relaxed);
}

/** Restart the high-water mark from the current live heap. */
void
resetPeak()
{
    peakBytes.store(heapInUse(), std::memory_order_relaxed);
}

std::int64_t
peak()
{
    return peakBytes.load(std::memory_order_relaxed);
}

/**
 * The functional_ec_rw SmartDS run, shortened: real corpus bytes at
 * effort 8 through the codec cache, 40% zipf reads, RS(4, 2) over 12
 * nodes in 4 racks and a 16 MiB hot-block cache in HBM.
 */
ExperimentConfig
functionalSmartDs()
{
    ExperimentConfig c;
    c.design = Design::SmartDs;
    c.cores = 2;
    c.ports = 1;
    c.warmup = 500 * ticksPerMicrosecond;
    c.window = 1500 * ticksPerMicrosecond;
    c.seed = 1;
    c.functional = true;
    c.blockCache = true;
    c.effort = 8;
    c.readFraction = 0.4;
    c.zipfTheta = 0.99;
    c.virtualDiskBytes = mebibytes(64);
    c.replicationPolicy = middletier::ReplicationPolicy::ErasureCode;
    c.ecDataShards = 4;
    c.ecParityShards = 2;
    c.storageServers = 12;
    c.failureDomains = 4;
    c.readCacheBytes = mebibytes(16);
    c.readCachePlacement = ReadCachePlacement::DeviceHbm;
    return c;
}

/** A Fig 7 peak configuration: timing mode, SmartDS with 2 cores. */
ExperimentConfig
fig07Timing()
{
    ExperimentConfig c;
    c.design = Design::SmartDs;
    c.cores = 2;
    c.ports = 1;
    c.warmup = 1 * ticksPerMillisecond;
    c.window = 2 * ticksPerMillisecond;
    c.seed = 1;
    return c;
}

/**
 * Live heap before and after one run, measured after a first run has
 * paid the process-level set-up (ratio sampler, codec cache).
 */
struct HeapDelta
{
    std::int64_t before = 0;
    std::int64_t after = 0;
    std::int64_t highWater = 0; ///< peak live heap above `before`
    std::int64_t allocations = 0; ///< operator new calls during the run
    std::uint64_t requests = 0;   ///< requests the run completed
};

HeapDelta
measureRun(const ExperimentConfig &config)
{
    EXPECT_GT(workload::runWriteExperiment(config).requestsCompleted, 0u);
    HeapDelta d;
    d.before = heapInUse();
    resetPeak();
    const std::int64_t allocations_before =
        allocations.load(std::memory_order_relaxed);
    {
        const workload::ExperimentResult result =
            workload::runWriteExperiment(config);
        EXPECT_GT(result.requestsCompleted, 0u);
        d.requests = result.requestsCompleted;
    }
    d.allocations =
        allocations.load(std::memory_order_relaxed) - allocations_before;
    d.highWater = peak() - d.before;
    d.after = heapInUse();
    return d;
}

TEST(MemoryFootprint, FunctionalRunReturnsEveryByte)
{
    const HeapDelta d = measureRun(functionalSmartDs());
    EXPECT_EQ(d.after, d.before);
}

TEST(MemoryFootprint, TimingRunReturnsEveryByte)
{
    const HeapDelta d = measureRun(fig07Timing());
    EXPECT_EQ(d.after, d.before);
}

/**
 * Live-heap high-water mark of the functional run above its starting
 * level: 4.89 MiB (5,131,400 bytes of glibc usable size) when this budget
 * was set, which leaves about 10%. Sanitizer allocators report requested
 * sizes, which are smaller. It was 7.23 MiB before stored EC shards
 * became aliases of the codec cache's stripe memo; before HBM
 * reservations became accounting only, the 16 MiB cache reservation
 * alone added a zero-filled host buffer of that size.
 */
constexpr std::int64_t functionalHighWaterBudget = 5500 * 1024;

TEST(MemoryFootprint, FunctionalRunHighWaterStaysInBudget)
{
    const HeapDelta d = measureRun(functionalSmartDs());
    std::printf("functional run live-heap high water: %.2f MiB (%lld bytes)\n",
                static_cast<double>(d.highWater) / (1024.0 * 1024.0),
                static_cast<long long>(d.highWater));
    EXPECT_GT(d.highWater, 0);
    EXPECT_LE(d.highWater, functionalHighWaterBudget);
}

/**
 * Heap allocations per completed request of the functional run, a work
 * counter that does not depend on the host: the whole run's operator new
 * calls (set-up included) over its completed requests. When this bound
 * was set: 624.04 (537,302 for 861 requests) in the release, asan and
 * tsan builds and 625.73 in the checked build, whose EC ledger adds 1,450.
 * The bound leaves 0.3% over the release figure, which still fails a
 * SmartDS engine that RS-encodes every write again (6.73 more per
 * request). It was
 * 700.92 (603,488) while FairShareResource::reallocate() allocated a
 * fresh candidate vector per call, and 717.76 (617,988) before corpus EC
 * shards came from the stripe memo.
 */
constexpr double functionalAllocationsPerRequest = 625.9;

TEST(MemoryFootprint, FunctionalRunAllocationsPerRequest)
{
    const HeapDelta d = measureRun(functionalSmartDs());
    ASSERT_GT(d.requests, 0u);
    const double per_request =
        static_cast<double>(d.allocations) / static_cast<double>(d.requests);
    std::printf("functional run heap allocations: %lld for %llu requests "
                "(%.2f per request)\n",
                static_cast<long long>(d.allocations),
                static_cast<unsigned long long>(d.requests), per_request);
    EXPECT_LE(per_request, functionalAllocationsPerRequest);
}

/**
 * Live heap the functional runs' process-level set-up holds: the codec
 * cache of the 8 MiB corpus at effort 8 and its RS(4, 2) stripe memo.
 * 14.55 MiB (15,252,160 bytes of glibc usable size) when this budget was
 * set, which leaves 5%. It was 19.01 MiB (19,933,640) while the cache
 * kept a vector per plain and per compressed block and the memo a vector
 * per shard, its data shards a second copy of the compressed blocks.
 */
constexpr std::int64_t codecCacheSetUpBudget = 15640 * 1024;

TEST(MemoryFootprint, CodecCacheSetUpHeapStaysInBudget)
{
    const auto mib = [](std::int64_t bytes) {
        return static_cast<double>(bytes) / (1024.0 * 1024.0);
    };
    const std::int64_t before = heapInUse();
    std::int64_t cache_only = 0;
    std::int64_t held = 0;
    {
        const corpus::BlockCodecCache cache(
            corpus::SyntheticCorpus(8u << 20, 42), 4096, 8);
        cache_only = heapInUse() - before;
        cache.stripes(4, 2);
        held = heapInUse() - before;
    }
    std::printf("codec cache %.2f MiB + RS(4, 2) memo %.2f MiB = %.2f MiB "
                "(%lld bytes) of live heap\n",
                mib(cache_only), mib(held - cache_only), mib(held),
                static_cast<long long>(held));
    EXPECT_LE(held, codecCacheSetUpBudget);
}

TEST(MemoryFootprint, ReserveChargesCapacityWithoutBytes)
{
    sim::Simulator sim;
    device::DeviceMemory hbm(sim, "hbm", mebibytes(32),
                             calibration::smartdsHbmBandwidth,
                             /*functional=*/true);
    const std::int64_t before = heapInUse();
    EXPECT_EQ(hbm.reserve(mebibytes(16)), 0u);
    EXPECT_EQ(heapInUse(), before); // no backing bytes, even in functional mode
    EXPECT_EQ(hbm.used(), mebibytes(16));

    // Allocation continues after the reservation, with real bytes.
    const device::BufferRef buf = hbm.alloc(4096);
    EXPECT_EQ(buf->addr(), mebibytes(16));
    ASSERT_NE(buf->bytes(), nullptr);
    EXPECT_EQ(buf->bytes()->size(), 4096u);
    EXPECT_EQ(hbm.used(), mebibytes(16) + 4096);
}

TEST(MemoryFootprintDeathTest, ReserveIsFatalOnExhaustion)
{
    EXPECT_DEATH(
        {
            sim::Simulator sim;
            device::DeviceMemory hbm(sim, "hbm", mebibytes(1));
            hbm.reserve(kibibytes(512));
            hbm.reserve(kibibytes(768));
        },
        "device memory exhausted");
}

/**
 * A functional RS(4, 2) middle tier over six storage nodes, with the
 * codec cache of a 1 MiB corpus.
 */
struct EcRig
{
    sim::Simulator sim;
    net::Fabric fabric{sim};
    mem::MemorySystem memory{sim, "mem", {}};
    const corpus::SyntheticCorpus corpus{1u << 20, 42};
    const corpus::BlockCodecCache &cache =
        corpus::sharedBlockCache(corpus, 4096, 1);
    std::vector<std::unique_ptr<storage::StorageServer>> pool;
    middletier::ServerConfig config;

    EcRig()
    {
        storage::StorageServer::Config sc;
        sc.functionalStore = true;
        config.cores = 2;
        config.policy = middletier::ReplicationPolicy::ErasureCode;
        config.ec.dataShards = 4;
        config.ec.parityShards = 2;
        config.blockCache = &cache;
        for (unsigned i = 0; i < 6; ++i) {
            pool.push_back(std::make_unique<storage::StorageServer>(
                fabric, "st" + std::to_string(i), sc));
            config.storageNodes.push_back(pool.back()->nodeId());
            config.storageDomains.push_back(i % 3);
        }
    }

    std::unique_ptr<middletier::SmartDsServer>
    smartDs()
    {
        middletier::SmartDsServer::SmartDsConfig sd;
        sd.workersPerPort = 4;
        sd.device.functional = true;
        sd.device.blockCache = &cache;
        return std::make_unique<middletier::SmartDsServer>(fabric, memory,
                                                           config, sd);
    }

    /** Write corpus block @p block as @p tag through @p server. */
    void
    write(middletier::MiddleTierServer &server, std::uint64_t tag,
          std::size_t block)
    {
        const corpus::BlockCodecCache::Entry &e = cache.entry(block);
        middletier::StorageHeader hdr;
        hdr.tag = tag;
        hdr.payloadSize = 4096;
        hdr.blockChecksum = e.plainChecksum;
        net::Message w;
        w.kind = net::MessageKind::WriteRequest;
        w.headerBytes = middletier::StorageHeader::wireSize;
        w.headerData = hdr.encodeShared();
        w.tag = tag;
        w.payload.data = e.plain;
        w.payload.size = 4096;
        w.payload.blockId = static_cast<std::uint32_t>(block + 1);
        w.payload.compressibility = e.ratio;
        w.dst = server.frontNode();
        w.dstQp = server.frontQp();

        net::Port *vm = fabric.createPort("vm" + std::to_string(tag));
        unsigned acks = 0;
        vm->onReceive([&acks](net::Message msg) {
            acks += msg.kind == net::MessageKind::WriteReply;
        });
        vm->send(std::move(w));
        sim.run();
        EXPECT_EQ(acks, 1u);
    }
};

TEST(MemoryFootprint, EcShardsOfOneWriteShareOneHeaderBuffer)
{
    EcRig rig;
    const auto server = rig.smartDs();
    constexpr std::uint64_t tag = 42;
    rig.write(*server, tag, 5);

    const std::vector<std::uint8_t> *shared = nullptr;
    unsigned shards = 0;
    for (const auto &s : rig.pool) {
        const net::Payload *stored = s->storedBlock(tag);
        const auto header = s->storedHeader(tag);
        if (!stored || !header)
            continue;
        ++shards;
        EXPECT_GT(stored->ecK, 0u);
        if (!shared)
            shared = header.get();
        EXPECT_EQ(header.get(), shared) << "shard on " << s->nodeId();
        const auto decoded = middletier::StorageHeader::decode(*header);
        ASSERT_TRUE(decoded.has_value());
        EXPECT_EQ(decoded->tag, tag);
    }
    EXPECT_EQ(shards, 6u); // k + m
}

TEST(MemoryFootprint, EcShardsOfACorpusWriteAliasTheStripeMemo)
{
    // Storage keeps what it receives, so each stored shard of a corpus
    // block must be the memo's buffer itself, not a copy of it: on
    // SmartDS (HBM shard buffers, aliased at send) and on a host design.
    EcRig rig;
    const corpus::StripeTable &memo = rig.cache.stripes(4, 2);
    const auto smartds = rig.smartDs();
    middletier::CpuOnlyServer cpu_only(rig.fabric, rig.memory, rig.config);
    constexpr std::size_t block = 11;
    const std::pair<std::uint64_t, middletier::MiddleTierServer *> writes[] = {
        {100, smartds.get()},
        {200, &cpu_only}};
    for (const auto &[tag, server] : writes) {
        rig.write(*server, tag, block);
        unsigned shards = 0;
        for (const auto &s : rig.pool) {
            const net::Payload *stored = s->storedBlock(tag);
            if (!stored)
                continue;
            ++shards;
            ASSERT_LT(stored->ecShard, 6u);
            EXPECT_EQ(stored->data.get(),
                      memo.shard(block, stored->ecShard).get())
                << middletier::designName(server->design()) << " shard "
                << unsigned{stored->ecShard};
            EXPECT_EQ(stored->ecShardChecksum,
                      memo.checksum(block, stored->ecShard));
        }
        EXPECT_EQ(shards, 6u) << middletier::designName(server->design());
    }
}

} // namespace
} // namespace smartds
