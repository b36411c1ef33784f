/**
 * @file
 * Corpus block codec cache tests: cached entries must agree bit-for-bit
 * with the real codec, the content-hash corruption guard must reject
 * mutated bytes, aliased block handles must outlive the cache, and the
 * functional experiment harness must produce byte-identical results with
 * the cache on and off — including under bit-flip fault injection, where
 * flipped stored copies must miss the cache and still be detected end to
 * end. The RS stripe memo is held to the same rules: every memo shard is
 * what the real codec makes, the guard rejects mutated shards, and EC
 * experiments cannot tell the memo is there.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <thread>
#include <tuple>
#include <vector>

#include "common/checksum.h"
#include "corpus/block_cache.h"
#include "corpus/corpus.h"
#include "ec/reed_solomon.h"
#include "lz4/lz4.h"
#include "mem/memory_system.h"
#include "middletier/cpu_only_server.h"
#include "middletier/protocol.h"
#include "middletier/smartds_server.h"
#include "net/fabric.h"
#include "sim/simulator.h"
#include "storage/storage_server.h"
#include "workload/experiment.h"

namespace smartds::corpus {
namespace {

constexpr std::size_t blockBytes = 4096;

/** A copy of @p view's bytes, for comparing with vectors. */
std::vector<std::uint8_t>
bytesOf(ByteView view)
{
    return {view.begin(), view.end()};
}

TEST(BlockCodecCache, EntriesMatchTheRealCodec)
{
    const SyntheticCorpus corpus(1u << 20, 42);
    const BlockCodecCache cache(corpus, blockBytes, /*effort=*/2);
    ASSERT_EQ(cache.blocks(), corpus.blockCount(blockBytes));

    // The compressed slots lie back to back in one arena, each followed
    // by slotSlack zero bytes.
    const std::uint8_t *next_slot = cache.entry(0).compressed->data();
    double ratio_sum = 0.0;
    for (std::size_t i = 0; i < cache.blocks(); ++i) {
        const BlockCodecCache::Entry &e = cache.entry(i);
        const std::uint8_t *src = corpus.blockPtr(blockBytes, i);

        ASSERT_EQ(e.compressed->data(), next_slot) << "block " << i;
        for (std::size_t b = 0; b < BlockCodecCache::slotSlack; ++b)
            ASSERT_EQ(e.compressed->data()[e.compressed->size() + b], 0);
        next_slot += e.compressed->size() + BlockCodecCache::slotSlack;
        ratio_sum += e.ratio;

        ASSERT_TRUE(e.plain && e.compressed);
        ASSERT_EQ(e.plain->size(), blockBytes);
        EXPECT_EQ(0, std::memcmp(e.plain->data(), src, blockBytes));

        std::vector<std::uint8_t> out(lz4::maxCompressedSize(blockBytes));
        const auto n =
            lz4::compress(src, blockBytes, out.data(), out.size(), 2);
        ASSERT_TRUE(n.has_value());
        out.resize(*n);
        EXPECT_EQ(bytesOf(*e.compressed), out);

        EXPECT_EQ(e.ratio, lz4::compressionRatio(src, blockBytes, 2));
        EXPECT_EQ(e.plainChecksum, xxhash32(src, blockBytes));
        EXPECT_EQ(e.compressedChecksum, xxhash32(out));

        const auto plain = lz4::decompress(*e.compressed, blockBytes);
        ASSERT_TRUE(plain.has_value());
        EXPECT_EQ(*plain, bytesOf(*e.plain));
    }
    EXPECT_EQ(cache.meanRatio(),
              ratio_sum / static_cast<double>(cache.blocks()));
    EXPECT_EQ(cache.meanRatio(), meanBlockRatio(corpus, blockBytes, 2));
}

TEST(BlockCodecCache, GuardRejectsMutatedOrMiskeyedBytes)
{
    const SyntheticCorpus corpus(1u << 20, 42);
    const BlockCodecCache cache(corpus, blockBytes, 1);
    const BlockCodecCache::Entry &e = cache.entry(3);
    const std::uint32_t id = 4; // blockId is 1-based

    // Pointer-identity fast path: the cache's own buffer hits.
    EXPECT_EQ(&e, cache.lookupPlain(id, e.plain->data(), e.plain->size()));
    EXPECT_EQ(&e, cache.lookupCompressed(id, e.compressed->data(),
                                         e.compressed->size()));

    // Equal content at a different address hits via the hash guard (the
    // DMA-copied-through-a-device-buffer case).
    const std::vector<std::uint8_t> copy = bytesOf(*e.compressed);
    EXPECT_EQ(&e, cache.lookupCompressed(id, copy.data(), copy.size()));

    // A single flipped bit must miss: this is the corruption guard that
    // keeps fault injection observable through the cache.
    std::vector<std::uint8_t> flipped = bytesOf(*e.compressed);
    flipped[flipped.size() / 2] ^= 0x10;
    EXPECT_EQ(nullptr,
              cache.lookupCompressed(id, flipped.data(), flipped.size()));

    // Wrong key, zero key, out-of-range key, wrong size: all miss.
    EXPECT_EQ(nullptr, cache.lookupCompressed(id + 1, copy.data(),
                                              copy.size()));
    EXPECT_EQ(nullptr, cache.lookupCompressed(0, copy.data(), copy.size()));
    EXPECT_EQ(nullptr,
              cache.lookupCompressed(
                  static_cast<std::uint32_t>(cache.blocks()) + 1,
                  copy.data(), copy.size()));
    EXPECT_EQ(nullptr,
              cache.lookupPlain(id, e.plain->data(), e.plain->size() - 1));
}

TEST(BlockCodecCache, AliasedBlocksOutliveTheCache)
{
    // Payloads hold aliased shared_ptrs into cache-owned arenas; ASan
    // verifies the arenas stay alive after the cache itself is gone.
    SharedBytes plain;
    SharedBytes compressed;
    std::uint32_t checksum = 0;
    {
        const SyntheticCorpus corpus(1u << 20, 7);
        const auto cache =
            std::make_unique<BlockCodecCache>(corpus, blockBytes, 1);
        plain = cache->entry(0).plain;
        compressed = cache->entry(0).compressed;
        checksum = cache->entry(0).plainChecksum;
    } // corpus and cache destroyed; the aliased blocks must survive
    ASSERT_TRUE(plain && compressed);
    EXPECT_EQ(xxhash32(*plain), checksum);
    const auto decoded = lz4::decompress(*compressed, blockBytes);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, bytesOf(*plain));
}

TEST(BlockCodecCache, SharedRegistryReturnsOneTablePerKey)
{
    const SyntheticCorpus corpus(1u << 20, 42);
    const BlockCodecCache &a = sharedBlockCache(corpus, blockBytes, 1);
    const BlockCodecCache &b = sharedBlockCache(corpus, blockBytes, 1);
    const BlockCodecCache &c = sharedBlockCache(corpus, blockBytes, 2);
    EXPECT_EQ(&a, &b);
    EXPECT_NE(&a, &c);
    EXPECT_EQ(a.blocks(), corpus.blockCount(blockBytes));
}

// ---------------------------------------------------------------------
// The RS stripe memo
// ---------------------------------------------------------------------

/**
 * Every shard of every block of @p cache against RsCodec(@p k, @p m)
 * .encode: same bytes, same xxHash32. Data shards must be views of their
 * block's compressed slot, except a shard whose pad runs past the slot
 * slack; such shards and the parity lie back to back, block-major, in the
 * table's own arena, outside the compressed one. Returns the number of
 * such owned data shards.
 */
std::size_t
checkStripeLayout(const BlockCodecCache &cache, unsigned k, unsigned m)
{
    const StripeTable &memo = cache.stripes(k, m);
    const ec::RsCodec codec(k, m);
    const ByteView last = *cache.entry(cache.blocks() - 1).compressed;
    const std::uint8_t *const compressed_begin =
        cache.entry(0).compressed->data();
    const std::uint8_t *const compressed_end =
        last.data() + last.size() + BlockCodecCache::slotSlack;
    const std::uint8_t *next_owned = nullptr;
    std::size_t owned_data = 0;
    for (std::size_t b = 0; b < cache.blocks(); ++b) {
        const ByteView stripe = *cache.entry(b).compressed;
        const std::size_t shard = ec::RsCodec::shardSize(stripe.size(), k);
        const auto want = codec.encode(stripe.data(), stripe.size());
        for (unsigned s = 0; s < k + m; ++s) {
            const ByteView got = *memo.shard(b, s);
            EXPECT_EQ(bytesOf(got), want[s])
                << "block " << b << " shard " << s;
            EXPECT_EQ(memo.checksum(b, s), xxhash32(want[s]))
                << "block " << b << " shard " << s;
            const bool fits =
                (s + 1) * shard <= stripe.size() + BlockCodecCache::slotSlack;
            if (s < k && fits) {
                EXPECT_EQ(got.data(), stripe.data() + s * shard)
                    << "block " << b << " shard " << s;
                continue;
            }
            EXPECT_TRUE(got.data() + got.size() <= compressed_begin ||
                        got.data() >= compressed_end)
                << "block " << b << " shard " << s;
            if (next_owned) {
                EXPECT_EQ(got.data(), next_owned)
                    << "block " << b << " shard " << s;
            }
            next_owned = got.data() + got.size();
            owned_data += s < k;
        }
    }
    return owned_data;
}

TEST(StripeTable, ShardsAndChecksumsMatchTheRealCodec)
{
    const SyntheticCorpus corpus(1u << 20, 42);
    const BlockCodecCache cache(corpus, blockBytes, 1);
    for (const auto &[k, m] : {std::pair{4u, 2u}, std::pair{8u, 3u}}) {
        ASSERT_EQ(cache.stripes(k, m).k(), k);
        ASSERT_EQ(cache.stripes(k, m).m(), m);
        EXPECT_EQ(checkStripeLayout(cache, k, m), 0u);
    }
}

TEST(StripeTable, OneTablePerGeometryAcrossCallsAndThreads)
{
    const SyntheticCorpus corpus(1u << 20, 42);
    const BlockCodecCache cache(corpus, blockBytes, 1);
    // Two threads race to build the same geometry: both get one table.
    const StripeTable *seen[2] = {nullptr, nullptr};
    std::thread a([&] { seen[0] = &cache.stripes(4, 2); });
    std::thread b([&] { seen[1] = &cache.stripes(4, 2); });
    a.join();
    b.join();
    EXPECT_EQ(seen[0], seen[1]);
    EXPECT_EQ(&cache.stripes(4, 2), seen[0]);
    EXPECT_NE(&cache.stripes(8, 3), seen[0]);
}

TEST(StripeTable, GuardRejectsMutatedOrMiskeyedShards)
{
    const SyntheticCorpus corpus(1u << 20, 42);
    const BlockCodecCache cache(corpus, blockBytes, 1);
    const StripeTable &memo = cache.stripes(4, 2);
    const std::uint32_t id = 4; // blockId is 1-based
    const unsigned s = 5;       // a parity shard
    const StripeTable::Shard want = memo.shard(id - 1, s);

    // The memo's own view, and equal bytes elsewhere, both hit.
    EXPECT_EQ(want.get(),
              memo.lookupShard(id, s, want->data(), want->size()).get());
    const std::vector<std::uint8_t> copy = bytesOf(*want);
    EXPECT_EQ(want.get(),
              memo.lookupShard(id, s, copy.data(), copy.size()).get());

    std::vector<std::uint8_t> flipped = bytesOf(*want);
    flipped[flipped.size() / 3] ^= 0x04;
    EXPECT_EQ(nullptr,
              memo.lookupShard(id, s, flipped.data(), flipped.size()));

    // Wrong block, wrong shard, zero or out-of-range key, wrong size.
    EXPECT_EQ(nullptr, memo.lookupShard(id + 1, s, copy.data(), copy.size()));
    EXPECT_EQ(nullptr, memo.lookupShard(id, s - 1, copy.data(), copy.size()));
    EXPECT_EQ(nullptr, memo.lookupShard(id, 6, copy.data(), copy.size()));
    EXPECT_EQ(nullptr, memo.lookupShard(0, s, copy.data(), copy.size()));
    EXPECT_EQ(nullptr,
              memo.lookupShard(static_cast<std::uint32_t>(cache.blocks()) + 1,
                               s, copy.data(), copy.size()));
    EXPECT_EQ(nullptr, memo.lookupShard(id, s, copy.data(), copy.size() - 1));
}

TEST(BlockCodecCache, AdoptingTheCorpusEqualsCopyingIt)
{
    const SyntheticCorpus corpus(1u << 20, 42);
    const BlockCodecCache copied(corpus, blockBytes, 1);
    const BlockCodecCache adopted(SyntheticCorpus(1u << 20, 42), blockBytes, 1);
    ASSERT_EQ(adopted.blocks(), copied.blocks());
    for (std::size_t i = 0; i < adopted.blocks(); ++i) {
        const BlockCodecCache::Entry &a = adopted.entry(i);
        const BlockCodecCache::Entry &c = copied.entry(i);
        EXPECT_EQ(0, std::memcmp(a.plain->data(),
                                 corpus.blockPtr(blockBytes, i), blockBytes));
        EXPECT_EQ(bytesOf(*a.compressed), bytesOf(*c.compressed));
        EXPECT_EQ(a.ratio, c.ratio);
        EXPECT_EQ(a.plainChecksum, c.plainChecksum);
        EXPECT_EQ(a.compressedChecksum, c.compressedChecksum);
    }
    EXPECT_EQ(adopted.meanRatio(), copied.meanRatio());
}

TEST(StripeTable, DataShardsAreViewsOfTheCompressedArena)
{
    // The functional runs' cache: the 8 MiB corpus at effort 8.
    const BlockCodecCache cache(SyntheticCorpus(8u << 20, 42), blockBytes, 8);
    ASSERT_EQ(cache.blocks(), 2048u);
    // RS(4, 2) pads by at most 3 bytes: every data shard is a view.
    EXPECT_EQ(checkStripeLayout(cache, 4, 2), 0u);
    // RS(20, 4) pads by up to 19 bytes, past the 16-byte slack for some
    // blocks: their last data shard gets bytes of its own.
    EXPECT_GT(checkStripeLayout(cache, 20, 4), 0u);
}

TEST(StripeTable, AliasedShardsOutliveTheCache)
{
    StripeTable::Shard shard;
    std::uint32_t checksum = 0;
    {
        const SyntheticCorpus corpus(1u << 20, 7);
        const auto cache =
            std::make_unique<BlockCodecCache>(corpus, blockBytes, 1);
        shard = cache->stripes(4, 2).shard(0, 4);
        checksum = cache->stripes(4, 2).checksum(0, 4);
    }
    ASSERT_TRUE(shard);
    EXPECT_EQ(xxhash32(*shard), checksum);
}

// ---------------------------------------------------------------------
// End-to-end: experiments must not observe the cache
// ---------------------------------------------------------------------

/** Everything an experiment reports, as an exactly-comparable tuple. */
auto
resultKey(const workload::ExperimentResult &r)
{
    return std::make_tuple(
        r.throughputGbps, r.requestsCompleted, r.avgLatencyUs,
        r.p50LatencyUs, r.p99LatencyUs, r.p999LatencyUs,
        r.failover.replicaTimeouts, r.failover.replicaRetries,
        r.failover.replicaReplacements, r.failover.replicasAbandoned,
        r.failover.corruptionsDetected, r.failover.readFailovers,
        r.failover.readsUnserved, r.blocksCorrupted, r.crashesInjected);
}

workload::ExperimentResult
runFunctional(middletier::Design design, bool cache_on, double read_fraction,
              double corrupt_probability)
{
    workload::ExperimentConfig config;
    config.design = design;
    config.functional = true;
    config.blockCache = cache_on;
    config.cores = 4;
    config.ports = 1;
    config.effort = 1;
    config.readFraction = read_fraction;
    config.corruptProbability = corrupt_probability;
    config.warmup = ticksPerMillisecond / 2;
    config.window = 2 * ticksPerMillisecond;
    return workload::runWriteExperiment(config);
}

TEST(BlockCacheEndToEnd, ExperimentResultsIdenticalCacheOnAndOff)
{
    for (const auto design : {middletier::Design::CpuOnly,
                              middletier::Design::SmartDs}) {
        const auto on = runFunctional(design, true, 0.0, 0.0);
        const auto off = runFunctional(design, false, 0.0, 0.0);
        ASSERT_GT(on.requestsCompleted, 0u);
        EXPECT_EQ(resultKey(on), resultKey(off));
        EXPECT_EQ(on.usageGbps, off.usageGbps);
    }
}

TEST(BlockCacheEndToEnd, FaultInjectionResultsIdenticalCacheOnAndOff)
{
    // Bit-flipped stored copies miss the cache (hash guard) and fall
    // back to the real codec, so every detection counter must agree
    // with the cache-off run.
    for (const auto design : {middletier::Design::CpuOnly,
                              middletier::Design::SmartDs}) {
        const auto on = runFunctional(design, true, 0.3, 0.5);
        const auto off = runFunctional(design, false, 0.3, 0.5);
        ASSERT_GT(on.requestsCompleted, 0u);
        EXPECT_GT(on.blocksCorrupted, 0u);
        EXPECT_EQ(resultKey(on), resultKey(off));
    }
}

TEST(BlockCacheEndToEnd, FunctionalRunReportsTheCorpusMeanRatio)
{
    // Clients draw corpus blocks uniformly, so the run's expected ratio is
    // the mean over every block: the cache's mean, and the same number
    // without the cache.
    const auto on = runFunctional(middletier::Design::CpuOnly, true, 0.0, 0.0);
    const auto off =
        runFunctional(middletier::Design::CpuOnly, false, 0.0, 0.0);
    const double want =
        meanBlockRatio(SyntheticCorpus(8u << 20, 42), blockBytes, 1);
    EXPECT_EQ(want, sharedBlockCache(8u << 20, 42, blockBytes, 1).meanRatio());
    EXPECT_EQ(on.meanCompressionRatio, want);
    EXPECT_EQ(off.meanCompressionRatio, want);
}

/** An RS(4, 2) functional run, which serves corpus shards from the memo. */
workload::ExperimentResult
runFunctionalEc(middletier::Design design, bool cache_on,
                double corrupt_probability)
{
    workload::ExperimentConfig config;
    config.design = design;
    config.functional = true;
    config.blockCache = cache_on;
    config.cores = 4;
    config.ports = 1;
    config.effort = 1;
    config.readFraction = 0.3;
    config.corruptProbability = corrupt_probability;
    config.replicationPolicy = middletier::ReplicationPolicy::ErasureCode;
    config.ecDataShards = 4;
    config.ecParityShards = 2;
    config.warmup = ticksPerMillisecond / 2;
    config.window = 2 * ticksPerMillisecond;
    return workload::runWriteExperiment(config);
}

TEST(BlockCacheEndToEnd, ErasureCodedResultsIdenticalCacheOnAndOff)
{
    for (const auto design :
         {middletier::Design::CpuOnly, middletier::Design::Accelerator,
          middletier::Design::SmartDs}) {
        SCOPED_TRACE(static_cast<int>(design));
        const auto on = runFunctionalEc(design, true, 0.0);
        const auto off = runFunctionalEc(design, false, 0.0);
        ASSERT_GT(on.requestsCompleted, 0u);
        EXPECT_GT(on.failover.stripesEncoded, 0u);
        EXPECT_EQ(resultKey(on), resultKey(off));
        EXPECT_EQ(on.usageGbps, off.usageGbps);

        // Flipped shards miss the memo's guard, so every fault counter
        // agrees with the real-codec run. (Experiment reads key storage by
        // the read's own tag, so they never reach a stored shard; the
        // detection itself is checked on a stored stripe below.)
        const auto faulty_on = runFunctionalEc(design, true, 0.5);
        const auto faulty_off = runFunctionalEc(design, false, 0.5);
        EXPECT_GT(faulty_on.blocksCorrupted, 0u);
        EXPECT_EQ(resultKey(faulty_on), resultKey(faulty_off));
    }
}

// ---------------------------------------------------------------------
// End-to-end: a flipped stored replica is detected through the cache
// ---------------------------------------------------------------------

TEST(BlockCacheEndToEnd, BitFlippedReplicaMissesCacheAndIsDetected)
{
    using middletier::CpuOnlyServer;
    using middletier::ServerConfig;
    using middletier::StorageHeader;

    sim::Simulator sim;
    net::Fabric fabric(sim);
    mem::MemorySystem memory(sim, "mem", {});

    storage::StorageServer::Config sc;
    sc.functionalStore = true;
    std::vector<std::unique_ptr<storage::StorageServer>> storage;
    std::vector<net::NodeId> storage_nodes;
    for (unsigned i = 0; i < 3; ++i) {
        storage.push_back(std::make_unique<storage::StorageServer>(
            fabric, "st" + std::to_string(i), sc));
        storage_nodes.push_back(storage.back()->nodeId());
    }

    const SyntheticCorpus corpus(1u << 20, 42);
    const BlockCodecCache &cache = sharedBlockCache(corpus, blockBytes, 1);
    const BlockCodecCache::Entry &e = cache.entry(0);

    ServerConfig config;
    config.cores = 4;
    config.storageNodes = storage_nodes;
    config.blockCache = &cache;
    CpuOnlyServer server(fabric, memory, config);

    // Replicas 0 and 1 hold a bit-flipped copy of the cached compressed
    // block — same blockId, mutated bytes, exactly what the fault layer
    // produces. Replica 2 is clean.
    std::vector<std::uint8_t> flipped_bytes = bytesOf(*e.compressed);
    flipped_bytes[0] ^= 0x01;
    const SharedBytes flipped = shareBytes(std::move(flipped_bytes));

    constexpr std::uint64_t tag = 777;
    StorageHeader hdr;
    hdr.tag = tag;
    hdr.payloadSize = blockBytes;
    hdr.blockChecksum = e.plainChecksum;
    const auto header = hdr.encodeShared();

    net::Port *vm = fabric.createPort("vm-raw");
    unsigned replies = 0;
    vm->onReceive([&](net::Message msg) {
        if (msg.kind != net::MessageKind::ReadReply)
            return;
        ++replies;
        ASSERT_TRUE(msg.payload.data);
        EXPECT_EQ(msg.payload.data->size(), blockBytes);
        EXPECT_EQ(xxhash32(*msg.payload.data), e.plainChecksum);
    });

    for (unsigned i = 0; i < 3; ++i) {
        net::Message w;
        w.dst = storage_nodes[i];
        w.kind = net::MessageKind::WriteReplica;
        w.headerBytes = StorageHeader::wireSize;
        w.headerData = header;
        w.tag = tag;
        w.payload.data = i == 2 ? e.compressed : flipped;
        w.payload.size = w.payload.data->size();
        w.payload.compressed = true;
        w.payload.originalSize = blockBytes;
        w.payload.blockId = 1;
        vm->send(std::move(w));
    }
    sim.run();

    constexpr unsigned reads = 20;
    for (unsigned i = 0; i < reads; ++i) {
        net::Message r;
        r.dst = server.frontNode();
        r.kind = net::MessageKind::ReadRequest;
        r.headerBytes = StorageHeader::wireSize;
        r.tag = tag;
        r.payload.size = e.compressed->size();
        r.payload.originalSize = blockBytes;
        vm->send(std::move(r));
        sim.run();
    }

    EXPECT_EQ(replies, reads);
    const middletier::FailoverStats stats = server.failoverStats();
    EXPECT_GT(stats.corruptionsDetected, 0u);
    EXPECT_GT(stats.readFailovers, 0u);
    EXPECT_EQ(stats.readsUnserved, 0u);
}

// ---------------------------------------------------------------------
// End-to-end: flipped stored shards miss the memo and are detected
// ---------------------------------------------------------------------

/**
 * Store the RS(4, 2) memo stripe of one corpus block on six nodes, with
 * shards 0 and 1 replaced by bit-flipped copies (same key, same recorded
 * checksum: what the fault layer leaves behind), then read the block
 * through the server @p make_server builds. Every read must decode the
 * clean plaintext from the four intact shards and count the flipped ones
 * as corruption.
 */
template <typename MakeServer>
void
readThroughFlippedShards(MakeServer make_server)
{
    using middletier::ServerConfig;
    using middletier::StorageHeader;

    sim::Simulator sim;
    net::Fabric fabric(sim);
    mem::MemorySystem memory(sim, "mem", {});

    storage::StorageServer::Config sc;
    sc.functionalStore = true;
    std::vector<std::unique_ptr<storage::StorageServer>> storage;
    ServerConfig config;
    config.cores = 4;
    config.policy = middletier::ReplicationPolicy::ErasureCode;
    config.ec.dataShards = 4;
    config.ec.parityShards = 2;
    for (unsigned i = 0; i < 6; ++i) {
        storage.push_back(std::make_unique<storage::StorageServer>(
            fabric, "st" + std::to_string(i), sc));
        config.storageNodes.push_back(storage.back()->nodeId());
    }

    const SyntheticCorpus corpus(1u << 20, 42);
    const BlockCodecCache &cache = sharedBlockCache(corpus, blockBytes, 1);
    constexpr std::size_t block = 9;
    const BlockCodecCache::Entry &e = cache.entry(block);
    const StripeTable &memo = cache.stripes(4, 2);
    config.blockCache = &cache;
    const auto server = make_server(fabric, memory, config);

    constexpr std::uint64_t tag = 4242;
    StorageHeader hdr;
    hdr.tag = tag;
    hdr.payloadSize = blockBytes;
    hdr.blockChecksum = e.plainChecksum;
    const auto header = hdr.encodeShared();

    net::Port *vm = fabric.createPort("vm-raw");
    unsigned replies = 0;
    vm->onReceive([&](net::Message msg) {
        if (msg.kind != net::MessageKind::ReadReply)
            return;
        ++replies;
        ASSERT_TRUE(msg.payload.data);
        EXPECT_EQ(bytesOf(*msg.payload.data), bytesOf(*e.plain));
    });

    for (unsigned s = 0; s < 6; ++s) {
        net::Message w;
        w.dst = config.storageNodes[s];
        w.kind = net::MessageKind::WriteReplica;
        w.headerBytes = StorageHeader::wireSize;
        w.headerData = header;
        w.tag = tag;
        w.payload.data = memo.shard(block, s);
        if (s < 2) {
            std::vector<std::uint8_t> flipped = bytesOf(*w.payload.data);
            flipped[s * 7] ^= 0x20;
            w.payload.data = shareBytes(std::move(flipped));
        }
        w.payload.size = w.payload.data->size();
        w.payload.compressed = true;
        w.payload.originalSize = blockBytes;
        w.payload.blockId = static_cast<std::uint32_t>(block + 1);
        w.payload.ecK = 4;
        w.payload.ecM = 2;
        w.payload.ecShard = static_cast<std::uint8_t>(s);
        w.payload.ecShardChecksum = memo.checksum(block, s);
        w.payload.ecStripeBytes = e.compressed->size();
        vm->send(std::move(w));
    }
    sim.run();

    constexpr unsigned reads = 12;
    for (unsigned i = 0; i < reads; ++i) {
        net::Message r;
        r.dst = server->frontNode();
        r.dstQp = server->frontQp();
        r.kind = net::MessageKind::ReadRequest;
        r.headerBytes = StorageHeader::wireSize;
        r.headerData = header;
        r.tag = tag;
        r.payload.size = e.compressed->size();
        r.payload.originalSize = blockBytes;
        vm->send(std::move(r));
        sim.run();
    }

    EXPECT_EQ(replies, reads);
    const middletier::FailoverStats stats = server->failoverStats();
    EXPECT_GT(stats.corruptionsDetected, 0u);
    EXPECT_EQ(stats.readsUnserved, 0u);
}

TEST(BlockCacheEndToEnd, BitFlippedShardsMissTheMemoAndAreDetected)
{
    {
        SCOPED_TRACE("cpu_only");
        readThroughFlippedShards([](net::Fabric &fabric,
                                    mem::MemorySystem &memory,
                                    const middletier::ServerConfig &config) {
            return std::make_unique<middletier::CpuOnlyServer>(fabric, memory,
                                                               config);
        });
    }
    {
        SCOPED_TRACE("smartds");
        readThroughFlippedShards([](net::Fabric &fabric,
                                    mem::MemorySystem &memory,
                                    const middletier::ServerConfig &config) {
            middletier::SmartDsServer::SmartDsConfig sd;
            sd.device.functional = true;
            sd.device.blockCache = config.blockCache;
            return std::make_unique<middletier::SmartDsServer>(
                fabric, memory, config, sd);
        });
    }
}

} // namespace
} // namespace smartds::corpus
