/**
 * @file
 * Corpus block codec cache: precomputed LZ4 + checksum results per block.
 *
 * The synthetic corpus holds only a couple thousand distinct blocks, yet
 * the functional datapath used to run the real codec on every issued
 * request. This table is built once, deterministically, per
 * (corpus, blockBytes, effort) and stores for every block-aligned corpus
 * offset the compressed bytes, the compression ratio, and the xxHash32
 * checksums of both forms. Datapath stages then serve compress /
 * decompress / ratio / checksum queries as O(1) lookups handing out
 * shared buffers instead of allocating and re-encoding.
 *
 * Safety rule (the corruption guard): a lookup succeeds only when the
 * caller's bytes are *provably* the cached block — either the exact
 * aliased buffer the cache handed out earlier (pointer identity) or a
 * byte range whose xxHash32 matches the cached checksum. Payloads whose
 * bytes were mutated after caching (fault-layer bit flips, trace-replay
 * bytes not backed by the corpus) therefore miss and fall back to the
 * real codec, keeping functional verification semantics unchanged.
 *
 * The same holds one level down for erasure coding: stripes(k, m) memoizes
 * the RS(k, m) shards of every block's compressed form, so an EC write of
 * a corpus block hands out aliases of k + m memo views instead of
 * encoding, hashing and storing fresh copies.
 *
 * Storage is a few arenas, not a buffer per block: the plain blocks are
 * views of the corpus buffer itself, the compressed blocks are slots of
 * one arena, and a stripe memo keeps only its parity (its data shards are
 * views of the compressed slots). Each view is a SharedBytes that shares
 * ownership of its arena, so handing bytes to a payload copies nothing.
 */

#ifndef SMARTDS_CORPUS_BLOCK_CACHE_H_
#define SMARTDS_CORPUS_BLOCK_CACHE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "common/shared_bytes.h"
#include "corpus/corpus.h"

namespace smartds::corpus {

class BlockCodecCache;

/**
 * The RS(k, m) stripe of every block's compressed form: for each block
 * the k + m shards of ec::RsCodec(k, m).encode(compressed) and their
 * xxHash32 checksums. The code is systematic, so data shard j is bytes
 * [j * shard, (j + 1) * shard) of the zero-padded stripe: its view points
 * straight into the cache's compressed arena, whose slots carry
 * BlockCodecCache::slotSlack zero bytes for the pad. Only the parity
 * shards, and a data shard whose pad does not fit that slack, have bytes
 * in the table's own arena. Every shard is an aliasing SharedBytes, so a
 * stored shard is a refcount bump and keeps both arenas alive past the
 * table and the cache.
 */
class StripeTable
{
  public:
    using Shard = SharedBytes;

    StripeTable(const BlockCodecCache &cache, unsigned k, unsigned m);

    unsigned k() const { return k_; }
    unsigned m() const { return m_; }
    unsigned n() const { return k_ + m_; }

    /** Shard @p s (0..n-1) of block @p block_index (0-based). */
    Shard shard(std::size_t block_index, unsigned s) const;
    /** xxHash32 of shard(@p block_index, @p s). */
    std::uint32_t checksum(std::size_t block_index, unsigned s) const;

    /**
     * Shard @p s of @p block_id (1-based, as Payload::blockId) when
     * @p data/@p size are provably its bytes: the memo's own view, or
     * equal size and xxHash32 (the corruption guard of BlockCodecCache).
     * Null otherwise.
     */
    Shard lookupShard(std::uint32_t block_id, unsigned s,
                      const std::uint8_t *data, std::size_t size) const;

  private:
    /** Shared owner of every shard view. */
    struct Arena
    {
        /** Keeps the cache's compressed arena (data-shard bytes) alive. */
        std::shared_ptr<const void> compressed;
        std::vector<std::uint8_t> bytes;
        /** Block-major, n() views per block. */
        std::vector<ByteView> views;
    };

    std::size_t index(std::size_t block_index, unsigned s) const;

    unsigned k_;
    unsigned m_;
    std::shared_ptr<const Arena> arena_;
    std::vector<std::uint32_t> checksums_;
};

class BlockCodecCache
{
  public:
    /**
     * Zero bytes after each compressed slot, so the padded last data
     * shard of a systematic RS(k, m) stripe, whose pad is at most k - 1
     * bytes, lies inside the arena for every k <= slotSlack + 1.
     */
    static constexpr std::size_t slotSlack = 16;

    /** Everything the codec could tell you about one corpus block. */
    struct Entry
    {
        /** The plain block bytes (a view of the cache's corpus arena). */
        SharedBytes plain;
        /** LZ4-compressed bytes at the cache's effort (a compressed slot). */
        SharedBytes compressed;
        /** compressed/plain size capped at 1.0 — lz4::compressionRatio(). */
        double ratio = 1.0;
        std::uint32_t plainChecksum = 0;
        std::uint32_t compressedChecksum = 0;
    };

    /**
     * Compress and checksum every whole @p block_bytes block of @p corpus
     * at @p effort, adopting the corpus buffer as the plain arena.
     * Deterministic: depends only on the corpus bytes, block size, and
     * effort.
     */
    BlockCodecCache(SyntheticCorpus &&corpus, std::size_t block_bytes,
                    int effort);

    /** As above, from a copy of @p corpus's buffer. */
    BlockCodecCache(const SyntheticCorpus &corpus, std::size_t block_bytes,
                    int effort);

    std::size_t blocks() const { return entries_.size(); }
    std::size_t blockBytes() const { return block_bytes_; }
    int effort() const { return effort_; }

    /**
     * Mean of every entry's ratio: the expected compression ratio of a
     * block drawn uniformly, as the workload clients draw them.
     */
    double meanRatio() const { return mean_ratio_; }

    /** Direct access by block index (0-based, < blocks()). */
    const Entry &entry(std::size_t block_index) const;

    /**
     * Payload::blockId is the wire form of the key: 1-based block index,
     * 0 meaning "not corpus-backed". These helpers resolve a blockId
     * against actual payload bytes under the corruption guard above:
     * non-null only when @p data/@p size match the cached plain
     * (respectively compressed) form of that block.
     */
    const Entry *lookupPlain(std::uint32_t block_id, const std::uint8_t *data,
                             std::size_t size) const;
    const Entry *lookupCompressed(std::uint32_t block_id,
                                  const std::uint8_t *data,
                                  std::size_t size) const;

    /**
     * The RS(@p k, @p m) stripe memo of every block, built on the first
     * call for that geometry (thread-safe) and kept for the cache's
     * lifetime, so the reference stays valid and callers may hold it.
     */
    const StripeTable &stripes(unsigned k, unsigned m) const;

  private:
    /**
     * Shared owner of every view the cache hands out. Both buffers are
     * filled before the first view is taken and never resized after, so
     * a view stays valid for as long as any shared_ptr to it lives.
     */
    struct Arena
    {
        /** The corpus buffer; block i at i * blockBytes(). */
        std::vector<std::uint8_t> plain;
        std::vector<std::uint8_t> compressed;
        std::vector<ByteView> plainViews;
        std::vector<ByteView> compressedViews;
    };

    const Entry *guarded(std::uint32_t block_id, const std::uint8_t *data,
                         std::size_t size, bool compressed) const;

    std::size_t block_bytes_;
    int effort_;
    double mean_ratio_ = 1.0;
    std::shared_ptr<const Arena> arena_;
    std::vector<Entry> entries_;
    mutable std::mutex stripes_mutex_;
    mutable std::map<std::pair<unsigned, unsigned>,
                     std::unique_ptr<const StripeTable>>
        stripes_;
};

/**
 * Process-wide registry of caches keyed by (corpus seed, corpus size,
 * blockBytes, effort), mirroring the RatioSampler registry in
 * experiment.cpp: sweeps running many configurations (possibly from
 * worker threads) build each table exactly once.
 */
const BlockCodecCache &sharedBlockCache(const SyntheticCorpus &corpus,
                                        std::size_t block_bytes, int effort);

/**
 * The same registry, keyed by the corpus's identity instead of a live
 * corpus: on a miss it synthesises SyntheticCorpus(@p corpus_bytes,
 * @p corpus_seed) and builds the table from it. The cache adopts the
 * corpus buffer as its plain arena, so the corpus is resident once and
 * never copied.
 */
const BlockCodecCache &sharedBlockCache(std::size_t corpus_bytes,
                                        std::uint64_t corpus_seed,
                                        std::size_t block_bytes, int effort);

} // namespace smartds::corpus

#endif // SMARTDS_CORPUS_BLOCK_CACHE_H_
