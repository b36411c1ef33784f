/**
 * @file
 * Synthetic Silesia-like compression corpus.
 *
 * The paper evaluates on the Silesia corpus, "a data set of files that
 * covers the typical data types used nowadays". We cannot ship Silesia, so
 * this module synthesises data with the same *kinds* of redundancy the
 * corpus exhibits — natural-language text, markup, database rows, machine
 * code, scientific binary data, and near-incompressible imagery — and the
 * simulator compresses those blocks with the real LZ4 codec. What matters
 * downstream is the distribution of per-4KiB-block compression ratios,
 * which these profiles are tuned to match (documented per profile).
 */

#ifndef SMARTDS_CORPUS_CORPUS_H_
#define SMARTDS_CORPUS_CORPUS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/units.h"

namespace smartds::corpus {

/** The data-type profiles the synthetic corpus mixes. */
enum class Profile
{
    Text,       ///< natural-language prose (dickens/webster-like)
    Xml,        ///< nested markup, highly redundant (xml/nci-like)
    Database,   ///< fixed-schema records, low-cardinality columns (osdb)
    Executable, ///< machine-code-like byte stream (mozilla/ooffice)
    Scientific, ///< structured binary floats (sao-like), barely compressible
    Imaging,    ///< high-entropy medical imagery (x-ray-like)
};

/** All profiles, in declaration order. */
const std::vector<Profile> &allProfiles();

/** Human-readable profile name. */
const char *profileName(Profile p);

/** Generate @p size bytes of profile @p p data using @p rng. */
std::vector<std::uint8_t> generate(Profile p, std::size_t size, Rng &rng);

/**
 * A pre-generated mixture corpus from which the workload draws I/O blocks.
 *
 * The mixture weights approximate the Silesia composition (≈40% text-like,
 * ≈20% markup/db, ≈25% executable, ≈15% scientific/imaging), yielding a
 * mean LZ4 block ratio near the ~0.55 the paper's throughput arithmetic
 * implies for 4 KiB blocks.
 */
class SyntheticCorpus
{
  public:
    /**
     * @param total_bytes corpus size to synthesise
     * @param seed        RNG seed (corpus is deterministic per seed)
     */
    explicit SyntheticCorpus(std::size_t total_bytes = 8u << 20,
                             std::uint64_t seed = 42);

    /** Whole corpus bytes (profiles concatenated). */
    const std::vector<std::uint8_t> &bytes() const { return data_; }

    /**
     * Copy a block of @p block_size bytes starting at a random
     * (block-aligned) offset.
     */
    std::vector<std::uint8_t> sampleBlock(std::size_t block_size, Rng &rng) const;

    /**
     * Pointer to a random block without copying (valid while the corpus
     * lives). @p block_size must divide into the corpus size.
     */
    const std::uint8_t *sampleBlockPtr(std::size_t block_size,
                                       Rng &rng) const;

    /**
     * Draw a random block-aligned index in [0, blockCount(block_size)).
     * Consumes exactly the same single RNG draw as sampleBlockPtr() /
     * sampleBlock(), so swapping a call site from copying to index-based
     * zero-copy sampling leaves every downstream random stream — and with
     * it every result CSV — byte-identical.
     */
    std::size_t sampleBlockIndex(std::size_t block_size, Rng &rng) const;

    /** Number of whole @p block_size blocks the corpus holds. */
    std::size_t blockCount(std::size_t block_size) const;

    /** Pointer to block @p index (no copy; valid while the corpus lives). */
    const std::uint8_t *blockPtr(std::size_t block_size,
                                 std::size_t index) const;

    std::size_t size() const { return data_.size(); }

    /** Seed the corpus was synthesised from (cache-registry key part). */
    std::uint64_t seed() const { return seed_; }

    /** Hand the corpus buffer to a new owner, leaving this corpus empty. */
    std::vector<std::uint8_t> takeBytes() && { return std::move(data_); }

  private:
    std::vector<std::uint8_t> data_;
    std::uint64_t seed_;
};

/**
 * Precomputed per-block LZ4 compression-ratio distribution of a corpus,
 * so the discrete-event simulation can draw realistic compressed sizes in
 * O(1) without running the codec on the hot path.
 */
class RatioSampler
{
  public:
    /**
     * Compress @p samples random blocks of @p block_size at @p effort and
     * record their ratios.
     */
    RatioSampler(const SyntheticCorpus &corpus, std::size_t block_size,
                 int effort, std::size_t samples, std::uint64_t seed);

    /** Draw one compression ratio (compressed/original in (0, 1]). */
    double sample(Rng &rng) const;

    /** Mean ratio over the recorded population. */
    double mean() const { return mean_; }

    /** Number of recorded ratios. */
    std::size_t size() const { return ratios_.size(); }

  private:
    std::vector<double> ratios_;
    double mean_;
};

/**
 * Mean compression ratio of every whole @p block_size block of @p corpus
 * at @p effort, summed in block order: the expected ratio of a uniformly
 * drawn block, as functional clients draw them. Bit-identical to
 * BlockCodecCache::meanRatio() for the same corpus, block size and effort.
 */
double meanBlockRatio(const SyntheticCorpus &corpus, std::size_t block_size,
                      int effort);

} // namespace smartds::corpus

#endif // SMARTDS_CORPUS_CORPUS_H_
