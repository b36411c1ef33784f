/**
 * @file
 * Tests for the synthetic Silesia-like corpus: determinism, per-profile
 * compressibility ordering, block sampling and the ratio sampler.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <string>

#include "common/checksum.h"
#include "common/random.h"
#include "corpus/corpus.h"
#include "lz4/lz4.h"

namespace smartds::corpus {
namespace {

double
profileRatio(Profile p, int effort = 1)
{
    Rng rng(77);
    const auto data = generate(p, 512 * 1024, rng);
    double sum = 0.0;
    int n = 0;
    for (std::size_t off = 0; off + 4096 <= data.size(); off += 8192) {
        sum += lz4::compressionRatio(data.data() + off, 4096, effort);
        ++n;
    }
    return sum / n;
}

TEST(Corpus, GeneratorsAreDeterministicPerSeed)
{
    for (Profile p : allProfiles()) {
        Rng a(123), b(123);
        EXPECT_EQ(generate(p, 10000, a), generate(p, 10000, b))
            << profileName(p);
    }
}

TEST(Corpus, GeneratorsProduceRequestedSize)
{
    Rng rng(1);
    for (Profile p : allProfiles()) {
        for (std::size_t n : {std::size_t{1}, std::size_t{100},
                              std::size_t{4096}, std::size_t{100001}}) {
            EXPECT_EQ(generate(p, n, rng).size(), n) << profileName(p);
        }
    }
}

TEST(Corpus, ProfileCompressibilityOrdering)
{
    // Structured data compresses hardest, imagery barely at all — the
    // ordering that makes the mixture Silesia-like.
    const double db = profileRatio(Profile::Database);
    const double xml = profileRatio(Profile::Xml);
    const double text = profileRatio(Profile::Text);
    const double exe = profileRatio(Profile::Executable);
    const double sci = profileRatio(Profile::Scientific);
    const double img = profileRatio(Profile::Imaging);

    EXPECT_LT(db, text);
    EXPECT_LT(xml, text);
    EXPECT_LT(text, exe);
    EXPECT_LT(exe, sci);
    EXPECT_LE(sci, img);
    EXPECT_GT(img, 0.95);
    EXPECT_LT(db, 0.45);
}

TEST(Corpus, MixtureMeanRatioNearPaperImplied)
{
    // The paper's throughput arithmetic implies ~0.5-0.6 compressed size
    // for 4 KiB blocks of Silesia-like data under LZ4.
    SyntheticCorpus corpus(2u << 20, 42);
    RatioSampler sampler(corpus, 4096, 1, 256, 7);
    EXPECT_GT(sampler.mean(), 0.45);
    EXPECT_LT(sampler.mean(), 0.65);
}

TEST(Corpus, CorpusDeterministicPerSeed)
{
    SyntheticCorpus a(1u << 20, 5), b(1u << 20, 5), c(1u << 20, 6);
    EXPECT_EQ(a.bytes(), b.bytes());
    EXPECT_NE(a.bytes(), c.bytes());
}

TEST(Corpus, SampleBlockIsAlignedSlice)
{
    SyntheticCorpus corpus(1u << 20, 5);
    Rng rng(9);
    for (int i = 0; i < 100; ++i) {
        const std::uint8_t *p = corpus.sampleBlockPtr(4096, rng);
        const auto offset = static_cast<std::size_t>(
            p - corpus.bytes().data());
        EXPECT_EQ(offset % 4096, 0u);
        EXPECT_LE(offset + 4096, corpus.size());
    }
}

TEST(Corpus, SampleBlockCopiesMatchPointers)
{
    SyntheticCorpus corpus(1u << 20, 5);
    Rng a(9), b(9);
    const auto copy = corpus.sampleBlock(4096, a);
    const std::uint8_t *p = corpus.sampleBlockPtr(4096, b);
    EXPECT_EQ(0, std::memcmp(copy.data(), p, 4096));
}

TEST(Corpus, RatioSamplerDrawsFromRecordedPopulation)
{
    SyntheticCorpus corpus(1u << 20, 42);
    RatioSampler sampler(corpus, 4096, 1, 128, 3);
    EXPECT_EQ(sampler.size(), 128u);
    Rng rng(4);
    for (int i = 0; i < 1000; ++i) {
        const double r = sampler.sample(rng);
        EXPECT_GT(r, 0.0);
        EXPECT_LE(r, 1.0);
    }
}

TEST(Corpus, RatioSamplerMeanStableAcrossSampleCount)
{
    SyntheticCorpus corpus(2u << 20, 42);
    RatioSampler small(corpus, 4096, 1, 64, 3);
    RatioSampler big(corpus, 4096, 1, 512, 3);
    EXPECT_NEAR(small.mean(), big.mean(), 0.08);
}

TEST(Corpus, HigherEffortImprovesStructuredRatio)
{
    const double fast = profileRatio(Profile::Xml, 1);
    const double hard = profileRatio(Profile::Xml, 9);
    EXPECT_LE(hard, fast + 1e-9);
}

// ---------------------------------------------------------------------
// Cross-build pins. The corpus and the ratio distribution drawn from it
// feed every simulated result; a change to a generator, its draw order or
// the codec shows up here first, with the moved value.
// ---------------------------------------------------------------------

TEST(Corpus, SyntheticCorpusDigestsArePinned)
{
    struct Pin
    {
        std::uint64_t seed;
        std::size_t mib;
        std::uint32_t digest;
    };
    const Pin pins[] = {
        {42, 1, 0xe8e62c60u}, {42, 3, 0x1b6a8450u}, {42, 4, 0x39bd8b47u},
        {42, 8, 0x9e03a54eu}, {7, 1, 0xbc2e824bu},  {7, 3, 0xa42880c8u},
        {7, 4, 0xf531b7beu},  {7, 8, 0xdcd69c4eu},
    };
    for (const Pin &pin : pins) {
        const SyntheticCorpus corpus(pin.mib << 20, pin.seed);
        EXPECT_EQ(corpus.size(), pin.mib << 20);
        EXPECT_EQ(xxhash32(corpus.bytes()), pin.digest)
            << "seed " << pin.seed << ", " << pin.mib << " MiB";
    }
}

TEST(Corpus, RatioSamplerMeansArePinned)
{
    // The timing-mode sampler of every experiment: 512 draws (seed 7)
    // over the 4 MiB corpus of seed 42, one mean per effort.
    const double means[] = {
        0.54531574249267578, 0.5250544548034668,  0.51757717132568359,
        0.51313972473144531, 0.51042842864990234, 0.50879240036010742,
        0.50820398330688477, 0.50815534591674805, 0.50812864303588867,
    };
    const SyntheticCorpus corpus(4u << 20, 42);
    for (int effort = lz4::minEffort; effort <= lz4::maxEffort; ++effort) {
        const RatioSampler sampler(corpus, 4096, effort, 512, 7);
        EXPECT_EQ(sampler.size(), 512u);
        EXPECT_EQ(sampler.mean(), means[effort - 1]) << "effort " << effort;
    }
}

TEST(Corpus, GenerateMatchesTheCorpusPartItWrites)
{
    // generate() and the corpus share one in-place writer: the corpus's
    // first part is the text generator's output for the same stream.
    const SyntheticCorpus corpus(1u << 20, 42);
    Rng rng(42);
    const auto n = static_cast<std::size_t>(0.34 * (1u << 20));
    const auto text = generate(Profile::Text, n, rng);
    ASSERT_EQ(text.size(), n);
    EXPECT_EQ(0, std::memcmp(text.data(), corpus.bytes().data(), n));
}

TEST(Corpus, ProfileNamesAreUnique)
{
    std::set<std::string> names;
    for (Profile p : allProfiles())
        names.insert(profileName(p));
    EXPECT_EQ(names.size(), allProfiles().size());
}

} // namespace
} // namespace smartds::corpus
