#include "corpus/block_cache.h"

#include <algorithm>
#include <map>
#include <mutex>
#include <tuple>
#include <utility>

#include "common/check.h"
#include "common/checksum.h"
#include "ec/reed_solomon.h"
#include "lz4/lz4.h"

namespace smartds::corpus {

BlockCodecCache::BlockCodecCache(const SyntheticCorpus &corpus,
                                 std::size_t block_bytes, int effort)
    : block_bytes_(block_bytes),
      effort_(effort),
      plain_storage_(
          std::make_shared<std::vector<std::vector<std::uint8_t>>>()),
      compressed_storage_(
          std::make_shared<std::vector<std::vector<std::uint8_t>>>())
{
    const std::size_t blocks = corpus.blockCount(block_bytes);
    plain_storage_->reserve(blocks);
    compressed_storage_->reserve(blocks);
    entries_.reserve(blocks);
    // One context and one output buffer serve the whole build; each block
    // keeps an exact-size copy of its compressed bytes.
    lz4::Compressor compressor;
    std::vector<std::uint8_t> out(lz4::maxCompressedSize(block_bytes));
    for (std::size_t i = 0; i < blocks; ++i) {
        const std::uint8_t *src = corpus.blockPtr(block_bytes, i);
        plain_storage_->emplace_back(src, src + block_bytes);

        const auto n = compressor.compress(src, block_bytes, out.data(),
                                           out.size(), effort);
        SMARTDS_CHECK(n.has_value(), "block cache compress failed");
        compressed_storage_->emplace_back(out.begin(),
                                          out.begin() +
                                              static_cast<std::ptrdiff_t>(*n));
    }
    for (std::size_t i = 0; i < blocks; ++i) {
        Entry e;
        // Aliasing constructor: the Entry pointers share ownership of the
        // whole storage vector but point at one block, so outstanding
        // payloads keep the storage alive past the cache's destruction.
        e.plain = std::shared_ptr<const std::vector<std::uint8_t>>(
            plain_storage_, &(*plain_storage_)[i]);
        e.compressed = std::shared_ptr<const std::vector<std::uint8_t>>(
            compressed_storage_, &(*compressed_storage_)[i]);
        // Exactly lz4::compressionRatio()'s formula, so swapping a ratio
        // computation for a lookup is bit-identical.
        e.ratio = block_bytes == 0
                      ? 1.0
                      : std::min(1.0, static_cast<double>(e.compressed->size()) /
                                          static_cast<double>(block_bytes));
        e.plainChecksum = xxhash32(*e.plain);
        e.compressedChecksum = xxhash32(*e.compressed);
        entries_.push_back(std::move(e));
    }
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
    const std::vector<std::uint8_t> &want =
        compressed ? *e.compressed : *e.plain;
    if (size != want.size())
        return nullptr;
    // Fast path: the bytes ARE the cache's aliased buffer (shared const
    // vectors are never mutated in place — the fault layer copies before
    // flipping bits), so identity proves equality without hashing.
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
    : k_(k), m_(m),
      storage_(std::make_shared<std::vector<std::vector<std::uint8_t>>>())
{
    const ec::RsCodec codec(k, m);
    const std::size_t total = cache.blocks() * n();
    storage_->reserve(total);
    shards_.reserve(total);
    checksums_.reserve(total);
    for (std::size_t b = 0; b < cache.blocks(); ++b) {
        const std::vector<std::uint8_t> &stripe = *cache.entry(b).compressed;
        for (auto &shard : codec.encode(stripe.data(), stripe.size())) {
            checksums_.push_back(xxhash32(shard));
            storage_->push_back(std::move(shard));
        }
    }
    // Alias after the fill, as the cache's own storage does.
    for (const auto &shard : *storage_)
        shards_.emplace_back(storage_, &shard);
}

std::size_t
StripeTable::index(std::size_t block_index, unsigned s) const
{
    SMARTDS_CHECK(s < n() && block_index < shards_.size() / n(),
                  "stripe memo shard (%zu, %u) out of range", block_index, s);
    return block_index * n() + s;
}

const StripeTable::Shard &
StripeTable::shard(std::size_t block_index, unsigned s) const
{
    return shards_[index(block_index, s)];
}

std::uint32_t
StripeTable::checksum(std::size_t block_index, unsigned s) const
{
    return checksums_[index(block_index, s)];
}

const StripeTable::Shard *
StripeTable::lookupShard(std::uint32_t block_id, unsigned s,
                         const std::uint8_t *data, std::size_t size) const
{
    if (block_id == 0 || block_id > shards_.size() / n() || s >= n() ||
        data == nullptr)
        return nullptr;
    const std::size_t i = index(block_id - 1, s);
    const Shard &want = shards_[i];
    if (size != want->size())
        return nullptr;
    // As BlockCodecCache::guarded: identity, else the hash guard.
    if (data == want->data() || xxhash32(data, size) == checksums_[i])
        return &want;
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
