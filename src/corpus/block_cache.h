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
 * a corpus block hands out aliases of k + m memo buffers instead of
 * encoding, hashing and storing fresh copies.
 */

#ifndef SMARTDS_CORPUS_BLOCK_CACHE_H_
#define SMARTDS_CORPUS_BLOCK_CACHE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "corpus/corpus.h"

namespace smartds::corpus {

class BlockCodecCache;

/**
 * The RS(k, m) stripe of every block's compressed form: for each block
 * the k + m shards of ec::RsCodec(k, m).encode(compressed) and their
 * xxHash32 checksums. Shards alias table-owned storage exactly like the
 * cache's plain and compressed buffers, so a stored shard is a refcount
 * bump and outlives the table.
 */
class StripeTable
{
  public:
    using Shard = std::shared_ptr<const std::vector<std::uint8_t>>;

    StripeTable(const BlockCodecCache &cache, unsigned k, unsigned m);

    unsigned k() const { return k_; }
    unsigned m() const { return m_; }
    unsigned n() const { return k_ + m_; }

    /** Shard @p s (0..n-1) of block @p block_index (0-based). */
    const Shard &shard(std::size_t block_index, unsigned s) const;
    /** xxHash32 of shard(@p block_index, @p s). */
    std::uint32_t checksum(std::size_t block_index, unsigned s) const;

    /**
     * Shard @p s of @p block_id (1-based, as Payload::blockId) when
     * @p data/@p size are provably its bytes: the memo's own buffer, or
     * equal size and xxHash32 (the corruption guard of BlockCodecCache).
     * Null otherwise.
     */
    const Shard *lookupShard(std::uint32_t block_id, unsigned s,
                             const std::uint8_t *data, std::size_t size) const;

  private:
    std::size_t index(std::size_t block_index, unsigned s) const;

    unsigned k_;
    unsigned m_;
    // Block-major, n() entries per block; shards_ alias into storage_.
    std::shared_ptr<std::vector<std::vector<std::uint8_t>>> storage_;
    std::vector<Shard> shards_;
    std::vector<std::uint32_t> checksums_;
};

class BlockCodecCache
{
  public:
    /** Everything the codec could tell you about one corpus block. */
    struct Entry
    {
        /** The plain block bytes (aliases cache-owned storage). */
        std::shared_ptr<const std::vector<std::uint8_t>> plain;
        /** LZ4-compressed bytes at the cache's effort (aliased likewise). */
        std::shared_ptr<const std::vector<std::uint8_t>> compressed;
        /** compressed/plain size capped at 1.0 — lz4::compressionRatio(). */
        double ratio = 1.0;
        std::uint32_t plainChecksum = 0;
        std::uint32_t compressedChecksum = 0;
    };

    /**
     * Compress and checksum every whole @p block_bytes block of @p corpus
     * at @p effort. Deterministic: depends only on the corpus bytes,
     * block size, and effort.
     */
    BlockCodecCache(const SyntheticCorpus &corpus, std::size_t block_bytes,
                    int effort);

    std::size_t blocks() const { return entries_.size(); }
    std::size_t blockBytes() const { return block_bytes_; }
    int effort() const { return effort_; }

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
    const Entry *guarded(std::uint32_t block_id, const std::uint8_t *data,
                         std::size_t size, bool compressed) const;

    std::size_t block_bytes_;
    int effort_;
    // Blocks are materialised once into cache-owned vectors; Entry
    // pointers alias into these via the shared_ptr aliasing constructor,
    // so handing a block to a payload is a refcount bump, never a copy,
    // and the storage outlives the cache if payloads still reference it.
    std::shared_ptr<std::vector<std::vector<std::uint8_t>>> plain_storage_;
    std::shared_ptr<std::vector<std::vector<std::uint8_t>>> compressed_storage_;
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
 * @p corpus_seed), builds the table from it and drops the corpus again.
 * The cache holds its own copy of every block, so a caller that needs
 * only the cache keeps one resident copy of the corpus, not two.
 */
const BlockCodecCache &sharedBlockCache(std::size_t corpus_bytes,
                                        std::uint64_t corpus_seed,
                                        std::size_t block_bytes, int effort);

} // namespace smartds::corpus

#endif // SMARTDS_CORPUS_BLOCK_CACHE_H_
