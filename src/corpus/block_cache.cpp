#include "corpus/block_cache.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <mutex>
#include <tuple>
#include <utility>

#include "common/check.h"
#include "common/checksum.h"
#include "ec/reed_solomon.h"
#include "lz4/lz4.h"

namespace smartds::corpus {

BlockCodecCache::BlockCodecCache(SyntheticCorpus &&corpus,
                                 std::size_t block_bytes, int effort)
    : block_bytes_(block_bytes), effort_(effort)
{
    const std::size_t blocks = corpus.blockCount(block_bytes);
    auto arena = std::make_shared<Arena>();
    arena->plain = std::move(corpus).takeBytes();

    // Compress every block into a staging buffer sized for the worst
    // case, each slot followed by its zero slack, then keep an exact-size
    // copy: the arena is allocated once, at its final size, and the
    // staging buffer's unused tail is never written.
    const std::size_t slot_cap =
        lz4::maxCompressedSize(block_bytes) + slotSlack;
    const auto staging =
        std::make_unique_for_overwrite<std::uint8_t[]>(blocks * slot_cap);
    std::vector<std::size_t> offsets(blocks + 1, 0);
    lz4::Compressor compressor;
    for (std::size_t i = 0; i < blocks; ++i) {
        std::uint8_t *slot = staging.get() + offsets[i];
        const auto n = compressor.compress(arena->plain.data() +
                                               i * block_bytes,
                                           block_bytes, slot,
                                           slot_cap - slotSlack, effort);
        SMARTDS_CHECK(n.has_value(), "block cache compress failed");
        std::memset(slot + *n, 0, slotSlack);
        offsets[i + 1] = offsets[i] + *n + slotSlack;
    }
    arena->compressed.assign(staging.get(), staging.get() + offsets[blocks]);

    // Reserved up front, so the views never move once an entry points
    // at them.
    arena->plainViews.reserve(blocks);
    arena->compressedViews.reserve(blocks);
    entries_.reserve(blocks);
    double ratio_sum = 0.0;
    for (std::size_t i = 0; i < blocks; ++i) {
        Entry e;
        // Aliasing constructor: each view shares ownership of the whole
        // arena, so outstanding payloads keep it alive past the cache.
        e.plain = SharedBytes(
            arena, &arena->plainViews.emplace_back(
                       arena->plain.data() + i * block_bytes, block_bytes));
        e.compressed = SharedBytes(
            arena, &arena->compressedViews.emplace_back(
                       arena->compressed.data() + offsets[i],
                       offsets[i + 1] - offsets[i] - slotSlack));
        // Exactly lz4::compressionRatio()'s formula, so swapping a ratio
        // computation for a lookup is bit-identical.
        e.ratio = block_bytes == 0
                      ? 1.0
                      : std::min(1.0, static_cast<double>(e.compressed->size()) /
                                          static_cast<double>(block_bytes));
        e.plainChecksum = xxhash32(*e.plain);
        e.compressedChecksum = xxhash32(*e.compressed);
        ratio_sum += e.ratio;
        entries_.push_back(std::move(e));
    }
    if (blocks > 0)
        mean_ratio_ = ratio_sum / static_cast<double>(blocks);
    arena_ = std::move(arena);
}

BlockCodecCache::BlockCodecCache(const SyntheticCorpus &corpus,
                                 std::size_t block_bytes, int effort)
    : BlockCodecCache(SyntheticCorpus(corpus), block_bytes, effort)
{
}

const BlockCodecCache::Entry &
BlockCodecCache::entry(std::size_t block_index) const
{
    SMARTDS_CHECK(block_index < entries_.size(), "block index %zu out of %zu",
                   block_index, entries_.size());
    return entries_[block_index];
}

const BlockCodecCache::Entry *
BlockCodecCache::guarded(std::uint32_t block_id, const std::uint8_t *data,
                         std::size_t size, bool compressed) const
{
    if (block_id == 0 || block_id > entries_.size() || data == nullptr)
        return nullptr;
    const Entry &e = entries_[block_id - 1];
    const ByteView &want = compressed ? *e.compressed : *e.plain;
    if (size != want.size())
        return nullptr;
    // Fast path: the bytes ARE the cache's view (arena bytes are never
    // mutated — the fault layer copies before flipping bits), so identity
    // proves equality without hashing.
    if (data == want.data())
        return &e;
    // Slow path: equal content elsewhere in memory (e.g. bytes that were
    // DMA-copied through a device buffer). The hash is the guard: mutated
    // bytes miss here and the caller falls back to the real codec.
    const std::uint32_t checksum =
        compressed ? e.compressedChecksum : e.plainChecksum;
    return xxhash32(data, size) == checksum ? &e : nullptr;
}

const BlockCodecCache::Entry *
BlockCodecCache::lookupPlain(std::uint32_t block_id, const std::uint8_t *data,
                             std::size_t size) const
{
    return guarded(block_id, data, size, false);
}

const BlockCodecCache::Entry *
BlockCodecCache::lookupCompressed(std::uint32_t block_id,
                                  const std::uint8_t *data,
                                  std::size_t size) const
{
    return guarded(block_id, data, size, true);
}

const StripeTable &
BlockCodecCache::stripes(unsigned k, unsigned m) const
{
    const std::lock_guard<std::mutex> lock(stripes_mutex_);
    auto &table = stripes_[{k, m}];
    if (!table)
        table = std::make_unique<const StripeTable>(*this, k, m);
    return *table;
}

StripeTable::StripeTable(const BlockCodecCache &cache, unsigned k, unsigned m)
    : k_(k), m_(m)
{
    const ec::RsCodec codec(k, m);
    const std::size_t blocks = cache.blocks();
    // Data shard j of a stripe of S bytes is bytes [j * shard, (j + 1) *
    // shard) of the zero-padded stripe; it stays a view of the compressed
    // slot when that range ends within the slot's zero slack.
    const auto fits = [](std::size_t end, std::size_t stripe_bytes) {
        return end <= stripe_bytes + BlockCodecCache::slotSlack;
    };
    std::size_t owned = 0;
    for (std::size_t b = 0; b < blocks; ++b) {
        const std::size_t stripe_bytes = cache.entry(b).compressed->size();
        const std::size_t shard = ec::RsCodec::shardSize(stripe_bytes, k);
        owned += m * shard;
        for (unsigned j = 0; j < k; ++j)
            if (!fits((j + 1) * shard, stripe_bytes))
                owned += shard;
    }

    auto arena = std::make_shared<Arena>();
    // Every entry's view shares ownership of the whole compressed arena.
    if (blocks > 0)
        arena->compressed = cache.entry(0).compressed;
    arena->bytes.resize(owned);
    arena->views.reserve(blocks * n());
    checksums_.reserve(blocks * n());
    std::vector<ByteView> data(k);
    std::vector<std::span<std::uint8_t>> parity(m);
    std::uint8_t *next = arena->bytes.data();
    for (std::size_t b = 0; b < blocks; ++b) {
        const ByteView stripe = *cache.entry(b).compressed;
        const std::size_t shard = ec::RsCodec::shardSize(stripe.size(), k);
        for (unsigned j = 0; j < k; ++j) {
            const std::size_t off = j * shard;
            if (fits(off + shard, stripe.size())) {
                data[j] = {stripe.data() + off, shard};
                continue;
            }
            // The pad runs past the slack: a zero-padded copy of its own.
            if (off < stripe.size())
                std::memcpy(next, stripe.data() + off,
                            std::min(shard, stripe.size() - off));
            data[j] = {next, shard};
            next += shard;
        }
        for (unsigned p = 0; p < m; ++p) {
            parity[p] = {next, shard};
            next += shard;
        }
        codec.encodeParity(data, parity);
        for (const ByteView view : data) {
            arena->views.push_back(view);
            checksums_.push_back(xxhash32(view));
        }
        for (const ByteView view : parity) {
            arena->views.push_back(view);
            checksums_.push_back(xxhash32(view));
        }
    }
    SMARTDS_CHECK(next == arena->bytes.data() + owned,
                  "stripe memo arena sized %zu, filled %zu", owned,
                  static_cast<std::size_t>(next - arena->bytes.data()));
    arena_ = std::move(arena);
}

std::size_t
StripeTable::index(std::size_t block_index, unsigned s) const
{
    SMARTDS_CHECK(s < n() && block_index < checksums_.size() / n(),
                  "stripe memo shard (%zu, %u) out of range", block_index, s);
    return block_index * n() + s;
}

StripeTable::Shard
StripeTable::shard(std::size_t block_index, unsigned s) const
{
    return Shard(arena_, &arena_->views[index(block_index, s)]);
}

std::uint32_t
StripeTable::checksum(std::size_t block_index, unsigned s) const
{
    return checksums_[index(block_index, s)];
}

StripeTable::Shard
StripeTable::lookupShard(std::uint32_t block_id, unsigned s,
                         const std::uint8_t *data, std::size_t size) const
{
    if (block_id == 0 || block_id > checksums_.size() / n() || s >= n() ||
        data == nullptr)
        return nullptr;
    const std::size_t i = index(block_id - 1, s);
    const ByteView &want = arena_->views[i];
    if (size != want.size())
        return nullptr;
    // As BlockCodecCache::guarded: identity, else the hash guard.
    if (data == want.data() || xxhash32(data, size) == checksums_[i])
        return Shard(arena_, &want);
    return nullptr;
}

namespace {

/**
 * Registry lookup for (corpus seed, corpus size, block size, effort);
 * @p corpus supplies the corpus to build from on a miss.
 */
template <typename CorpusSource>
const BlockCodecCache &
registryLookup(std::uint64_t corpus_seed, std::size_t corpus_bytes,
               std::size_t block_bytes, int effort, CorpusSource &&corpus)
{
    using Key = std::tuple<std::uint64_t, std::size_t, std::size_t, int>;
    // simlint: allow(mutable-global, shared-sim-state): guards the
    // registry below; same audited pattern as the RatioSampler cache in
    // experiment.cpp, safe under concurrent SweepRunner jobs —
    // genuinely per-process, shareable across PDES shards read-only
    static std::mutex mutex;
    // simlint: allow(mutable-global, shared-sim-state): keyed by (corpus
    // seed, corpus size, block size, effort) whose build is
    // deterministic, so every thread observes identical tables;
    // protected by the mutex above and never iterated
    static std::map<Key, std::unique_ptr<BlockCodecCache>> registry;
    const Key key{corpus_seed, corpus_bytes, block_bytes, effort};
    const std::lock_guard<std::mutex> lock(mutex);
    auto it = registry.find(key);
    if (it == registry.end()) {
        it = registry
                 .emplace(key, std::make_unique<BlockCodecCache>(
                                   corpus(), block_bytes, effort))
                 .first;
    }
    return *it->second;
}

} // namespace

const BlockCodecCache &
sharedBlockCache(const SyntheticCorpus &corpus, std::size_t block_bytes,
                 int effort)
{
    return registryLookup(corpus.seed(), corpus.size(), block_bytes, effort,
                          [&corpus]() -> const SyntheticCorpus & {
                              return corpus;
                          });
}

const BlockCodecCache &
sharedBlockCache(std::size_t corpus_bytes, std::uint64_t corpus_seed,
                 std::size_t block_bytes, int effort)
{
    return registryLookup(corpus_seed, corpus_bytes, block_bytes, effort,
                          [corpus_bytes, corpus_seed]() {
                              return SyntheticCorpus(corpus_bytes,
                                                     corpus_seed);
                          });
}

} // namespace smartds::corpus
