/**
 * @file
 * Tests for the from-scratch LZ4 block codec: round-trip properties over
 * every corpus profile, size and effort; format edge cases; and safety
 * against malformed input.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <tuple>

#include "common/checksum.h"
#include "common/random.h"
#include "corpus/corpus.h"
#include "lz4/lz4.h"

namespace smartds::lz4 {
namespace {

std::vector<std::uint8_t>
roundTrip(const std::vector<std::uint8_t> &input, int effort)
{
    const auto compressed = compress(input, effort);
    const auto output = decompress(compressed, input.size());
    EXPECT_TRUE(output.has_value());
    return output.value_or(std::vector<std::uint8_t>{});
}

TEST(Lz4, EmptyInputRoundTrips)
{
    const std::vector<std::uint8_t> empty;
    const auto compressed = compress(empty, 1);
    EXPECT_EQ(compressed.size(), 1u); // a single zero token
    const auto out = decompress(compressed, 0);
    ASSERT_TRUE(out.has_value());
    EXPECT_TRUE(out->empty());
}

TEST(Lz4, TinyInputsAreLiteralOnly)
{
    for (std::size_t n = 1; n <= 12; ++n) {
        std::vector<std::uint8_t> input(n, 0x41);
        const auto out = roundTrip(input, 1);
        EXPECT_EQ(out, input) << "size " << n;
    }
}

TEST(Lz4, AllZerosCompressesHard)
{
    std::vector<std::uint8_t> input(4096, 0);
    const auto compressed = compress(input, 1);
    EXPECT_LT(compressed.size(), 64u);
    EXPECT_EQ(roundTrip(input, 1), input);
}

TEST(Lz4, RepeatingPatternCompresses)
{
    std::vector<std::uint8_t> input;
    for (int i = 0; i < 512; ++i)
        for (std::uint8_t b : {0xde, 0xad, 0xbe, 0xef})
            input.push_back(b);
    const auto compressed = compress(input, 1);
    EXPECT_LT(compressed.size(), input.size() / 4);
    EXPECT_EQ(roundTrip(input, 1), input);
}

TEST(Lz4, RandomDataDoesNotExplode)
{
    Rng rng(123);
    std::vector<std::uint8_t> input(4096);
    for (auto &b : input)
        b = static_cast<std::uint8_t>(rng.below(256));
    const auto compressed = compress(input, 1);
    EXPECT_LE(compressed.size(), maxCompressedSize(input.size()));
    // Random bytes are incompressible: output close to input size.
    EXPECT_GT(compressed.size(), input.size() * 99 / 100);
    EXPECT_EQ(roundTrip(input, 1), input);
}

TEST(Lz4, OverlappingMatchRle)
{
    // "abcabcabc..." forces matches with offset < length (RLE-style
    // overlapping copy), the classic LZ4 decoder trap.
    std::vector<std::uint8_t> input;
    for (int i = 0; i < 2000; ++i)
        input.push_back(static_cast<std::uint8_t>('a' + (i % 3)));
    EXPECT_EQ(roundTrip(input, 1), input);
    EXPECT_EQ(roundTrip(input, 5), input);
}

TEST(Lz4, LongLiteralRunsUseExtendedLengths)
{
    // >15 literals then a match: exercises extended literal encoding.
    Rng rng(7);
    std::vector<std::uint8_t> input(600);
    for (auto &b : input)
        b = static_cast<std::uint8_t>(rng.below(256));
    // Append a long repeat of the prefix to force a long match too
    // (copy first: inserting a range of a vector into itself is UB).
    const std::vector<std::uint8_t> prefix(input.begin(),
                                           input.begin() + 500);
    input.insert(input.end(), prefix.begin(), prefix.end());
    EXPECT_EQ(roundTrip(input, 1), input);
}

TEST(Lz4, CompressFailsGracefullyWhenDstTooSmall)
{
    Rng rng(9);
    std::vector<std::uint8_t> input(1024);
    for (auto &b : input)
        b = static_cast<std::uint8_t>(rng.below(256));
    std::vector<std::uint8_t> dst(16);
    const auto n = compress(input.data(), input.size(), dst.data(),
                            dst.size(), 1);
    EXPECT_FALSE(n.has_value());
}

TEST(Lz4, DecompressRejectsTruncatedInput)
{
    std::vector<std::uint8_t> input(1000, 'x');
    auto compressed = compress(input, 1);
    for (std::size_t cut = 1; cut < compressed.size();
         cut += compressed.size() / 7 + 1) {
        std::vector<std::uint8_t> truncated(compressed.begin(),
                                            compressed.begin() +
                                                static_cast<long>(cut));
        std::vector<std::uint8_t> out(input.size());
        const auto n = decompress(truncated.data(), truncated.size(),
                                  out.data(), out.size());
        // Either rejected or shorter than the original: never OOB.
        if (n.has_value()) {
            EXPECT_LT(*n, input.size());
        }
    }
}

TEST(Lz4, DecompressRejectsBadOffsets)
{
    // token: 1 literal + match; offset 0 is invalid.
    const std::uint8_t bad_zero_offset[] = {0x10, 'a', 0x00, 0x00, 0x00};
    std::uint8_t out[64];
    EXPECT_FALSE(decompress(bad_zero_offset, sizeof(bad_zero_offset), out,
                            sizeof(out))
                     .has_value());
    // Offset 5 with only 1 byte of history is also invalid.
    const std::uint8_t bad_far_offset[] = {0x10, 'a', 0x05, 0x00, 0x00};
    EXPECT_FALSE(decompress(bad_far_offset, sizeof(bad_far_offset), out,
                            sizeof(out))
                     .has_value());
}

TEST(Lz4, DecompressRejectsOutputOverflow)
{
    std::vector<std::uint8_t> input(1000, 'x');
    const auto compressed = compress(input, 1);
    std::vector<std::uint8_t> small(100);
    EXPECT_FALSE(decompress(compressed.data(), compressed.size(),
                            small.data(), small.size())
                     .has_value());
}

// --- Wildcopy bounds audit (lz4.cpp match copy) -----------------------
//
// The decoder's 8-byte wildcopy may overshoot a match by up to 7 bytes,
// guarded by `op + match_len + 7 <= dst_cap`. These tests pin the guard:
// an exactly-sized destination (zero slack after the last match) must
// round-trip via the byte-forward fallback without touching a single
// byte past the buffer, and a too-small destination must be rejected
// before any copy. Run under the ASan preset, any overshoot is a
// heap-buffer-overflow, not a silent pass.

TEST(Lz4, DecompressIntoExactlySizedBuffer)
{
    // Long match ending flush against the end of dst: heap-allocate at
    // the exact size so ASan redzones begin at byte input.size().
    std::vector<std::uint8_t> input;
    for (int i = 0; i < 4096; ++i)
        input.push_back(static_cast<std::uint8_t>('a' + (i % 17)));
    const auto compressed = compress(input, 1);
    std::vector<std::uint8_t> out(input.size());
    const auto n =
        decompress(compressed.data(), compressed.size(), out.data(),
                   out.size());
    ASSERT_TRUE(n.has_value());
    EXPECT_EQ(*n, input.size());
    EXPECT_EQ(out, input);
}

TEST(Lz4, DecompressIntoExactlySizedBufferAllProfiles)
{
    Rng rng(2024);
    for (auto profile :
         {corpus::Profile::Text, corpus::Profile::Database,
          corpus::Profile::Executable, corpus::Profile::Imaging}) {
        const auto input = corpus::generate(profile, 8192, rng);
        const auto compressed = compress(input, 3);
        std::vector<std::uint8_t> out(input.size());
        const auto n = decompress(compressed.data(), compressed.size(),
                                  out.data(), out.size());
        ASSERT_TRUE(n.has_value());
        EXPECT_EQ(out, input);
    }
}

TEST(Lz4, DecompressRejectsBufferShortByOneToSeven)
{
    // 1..7 bytes short covers every wildcopy overshoot length: if the
    // guard ever let a chunked copy spill, one of these would write past
    // the allocation instead of returning nullopt.
    std::vector<std::uint8_t> input;
    for (int i = 0; i < 2048; ++i)
        input.push_back(static_cast<std::uint8_t>('A' + (i % 23)));
    const auto compressed = compress(input, 1);
    for (std::size_t shortfall = 1; shortfall <= 7; ++shortfall) {
        std::vector<std::uint8_t> out(input.size() - shortfall);
        const auto n = decompress(compressed.data(), compressed.size(),
                                  out.data(), out.size());
        EXPECT_FALSE(n.has_value()) << "shortfall " << shortfall;
    }
}

TEST(Lz4, DecompressRejectsFuzzedGarbage)
{
    // Random bytes must never crash or read/write out of bounds; most
    // inputs should be rejected, and accepted ones must fit the buffer.
    Rng rng(31337);
    for (int trial = 0; trial < 500; ++trial) {
        std::vector<std::uint8_t> garbage(1 + rng.below(300));
        for (auto &b : garbage)
            b = static_cast<std::uint8_t>(rng.below(256));
        std::vector<std::uint8_t> out(512);
        const auto n = decompress(garbage.data(), garbage.size(), out.data(),
                                  out.size());
        if (n.has_value()) {
            EXPECT_LE(*n, out.size());
        }
    }
}

TEST(Lz4, HigherEffortNeverWorseRatioMuch)
{
    // Hash chains search strictly more candidates; on compressible data
    // the ratio should be at least as good (tiny tolerance for tie
    // breaks changing parse decisions).
    Rng rng(5);
    corpus::SyntheticCorpus corpus(1u << 20, 99);
    double sum1 = 0.0, sum9 = 0.0;
    for (int i = 0; i < 32; ++i) {
        const auto block = corpus.sampleBlock(4096, rng);
        sum1 += compressionRatio(block.data(), block.size(), 1);
        sum9 += compressionRatio(block.data(), block.size(), 9);
    }
    EXPECT_LE(sum9, sum1 * 1.01);
}

TEST(Lz4, EffortSpeedFactorMonotone)
{
    double prev = effortSpeedFactor(1);
    EXPECT_DOUBLE_EQ(prev, 1.0);
    for (int e = 2; e <= maxEffort; ++e) {
        const double f = effortSpeedFactor(e);
        EXPECT_LT(f, prev);
        EXPECT_GT(f, 0.0);
        prev = f;
    }
}

TEST(Lz4, CompressionRatioCappedAtOne)
{
    Rng rng(11);
    std::vector<std::uint8_t> noise(4096);
    for (auto &b : noise)
        b = static_cast<std::uint8_t>(rng.below(256));
    EXPECT_LE(compressionRatio(noise.data(), noise.size(), 1), 1.0);
}

// ---------------------------------------------------------------------
// Reusable compression context.
// ---------------------------------------------------------------------

/** Compress with a fresh context, as the free function does. */
std::vector<std::uint8_t>
freshCompress(const std::uint8_t *src, std::size_t n, int effort)
{
    std::vector<std::uint8_t> out(maxCompressedSize(n));
    const auto len = compress(src, n, out.data(), out.size(), effort);
    EXPECT_TRUE(len.has_value());
    out.resize(len.value_or(0));
    return out;
}

std::vector<std::uint8_t>
contextCompress(Compressor &context, const std::uint8_t *src, std::size_t n,
                int effort)
{
    std::vector<std::uint8_t> out(maxCompressedSize(n));
    const auto len = context.compress(src, n, out.data(), out.size(), effort);
    EXPECT_TRUE(len.has_value());
    out.resize(len.value_or(0));
    return out;
}

TEST(Lz4Compressor, ReusedContextMatchesFreshAcrossSizesAndEfforts)
{
    // Sizes straddle the literal-only cut-off (12 / 13), the 4 KiB block
    // and the 64 KiB window, up to an input longer than maxOffset; each
    // call leaves entries behind that the next must ignore.
    const corpus::SyntheticCorpus corpus(1u << 20, 42);
    const std::size_t sizes[] = {0, 12, 13, 4096, 65536, 200000};
    Compressor context;
    std::size_t offset = 0;
    for (int round = 0; round < 2; ++round) {
        for (int effort = minEffort; effort <= maxEffort; ++effort) {
            for (const std::size_t n : sizes) {
                const std::uint8_t *src = corpus.bytes().data() + offset;
                offset = (offset + 4099) % (corpus.size() - 200000);
                EXPECT_EQ(contextCompress(context, src, n, effort),
                          freshCompress(src, n, effort))
                    << "size " << n << ", effort " << effort;
                EXPECT_EQ(context.compressionRatio(src, n, effort),
                          compressionRatio(src, n, effort));
            }
        }
    }
}

TEST(Lz4Compressor, BaseOverflowResetKeepsTheBytes)
{
    const corpus::SyntheticCorpus corpus(1u << 20, 7);
    for (const int effort : {1, 8}) {
        Compressor context;
        // Warm the tables, then jump the base to a few blocks short of
        // the 32-bit limit; the entries left behind now lie below it.
        (void)contextCompress(context, corpus.bytes().data(), 65536, effort);
        context.setBaseForTesting(std::numeric_limits<std::uint32_t>::max() -
                                  3 * 4096);
        bool wrapped = false;
        for (std::size_t b = 0; b < 8; ++b) {
            const std::uint8_t *src = corpus.bytes().data() + b * 4096;
            const std::uint32_t before = context.base();
            EXPECT_EQ(contextCompress(context, src, 4096, effort),
                      freshCompress(src, 4096, effort))
                << "block " << b << ", effort " << effort;
            if (context.base() < before)
                wrapped = true;
        }
        EXPECT_TRUE(wrapped) << "the base never reset";
        EXPECT_LT(context.base(), 8u * 4096 + 2);
    }
}

TEST(Lz4CompressorDeathTest, BaseMayOnlyMoveForward)
{
    Compressor context;
    context.setBaseForTesting(1000);
    EXPECT_DEATH(context.setBaseForTesting(999), "only move forward");
}

/**
 * Every block of the 8 MiB functional corpus (seed 42) compressed at one
 * block size and effort, concatenated: its size and xxHash32.
 */
struct CorpusPin
{
    std::size_t block;
    int effort;
    std::size_t bytes;
    std::uint32_t digest;
};

TEST(Lz4, CorpusCompressionDigestsArePinned)
{
    const CorpusPin pins[] = {
        {4096, 1, 4603408, 0xb2db923au},   {4096, 2, 4414927, 0x7028e0e1u},
        {4096, 3, 4351359, 0x0583de4bu},   {4096, 4, 4314220, 0xb13e77c2u},
        {4096, 5, 4291902, 0xb29ace18u},   {4096, 6, 4278506, 0xcb60cafbu},
        {4096, 7, 4273007, 0x89333b70u},   {4096, 8, 4272630, 0x43b88d82u},
        {4096, 9, 4272472, 0x8d0ad344u},   {65536, 1, 4241405, 0x6da3334fu},
        {65536, 2, 4004122, 0xf79928adu},  {65536, 3, 3890609, 0x6b20aebfu},
        {65536, 4, 3802604, 0x13c13ae4u},  {65536, 5, 3733805, 0xc8e2f1a8u},
        {65536, 6, 3679701, 0x00a89a1bu},  {65536, 7, 3644611, 0x30d5fb0au},
        {65536, 8, 3625158, 0xe1240afcu},  {65536, 9, 3617945, 0x1e79f194u},
    };
    const corpus::SyntheticCorpus corpus(8u << 20, 42);
    for (const CorpusPin &pin : pins) {
        // One context per pin, reused over the blocks, as the codec
        // cache builds; the reuse test above ties it to the free function.
        Compressor context;
        std::vector<std::uint8_t> all;
        std::vector<std::uint8_t> out(maxCompressedSize(pin.block));
        for (std::size_t i = 0; i < corpus.blockCount(pin.block); ++i) {
            const auto n = context.compress(corpus.blockPtr(pin.block, i),
                                            pin.block, out.data(), out.size(),
                                            pin.effort);
            ASSERT_TRUE(n.has_value());
            all.insert(all.end(), out.begin(),
                       out.begin() + static_cast<std::ptrdiff_t>(*n));
        }
        EXPECT_EQ(all.size(), pin.bytes)
            << pin.block << " B blocks, effort " << pin.effort;
        EXPECT_EQ(xxhash32(all), pin.digest)
            << pin.block << " B blocks, effort " << pin.effort;
    }
}

// ---------------------------------------------------------------------
// Property sweep: round trip across profiles x sizes x efforts.
// ---------------------------------------------------------------------

using RoundTripParam = std::tuple<corpus::Profile, std::size_t, int>;

class Lz4RoundTrip : public ::testing::TestWithParam<RoundTripParam>
{
};

TEST_P(Lz4RoundTrip, Exact)
{
    const auto [profile, size, effort] = GetParam();
    Rng rng(static_cast<std::uint64_t>(size) * 31 +
            static_cast<std::uint64_t>(effort));
    const auto input = corpus::generate(profile, size, rng);
    const auto compressed = compress(input, effort);
    ASSERT_LE(compressed.size(), maxCompressedSize(input.size()));
    const auto output = decompress(compressed, input.size());
    ASSERT_TRUE(output.has_value());
    EXPECT_EQ(*output, input);
}

INSTANTIATE_TEST_SUITE_P(
    ProfilesSizesEfforts, Lz4RoundTrip,
    ::testing::Combine(
        ::testing::Values(corpus::Profile::Text, corpus::Profile::Xml,
                          corpus::Profile::Database,
                          corpus::Profile::Executable,
                          corpus::Profile::Scientific,
                          corpus::Profile::Imaging),
        ::testing::Values(std::size_t{13}, std::size_t{100},
                          std::size_t{4096}, std::size_t{65536}),
        ::testing::Values(1, 3, 6, 9)));

} // namespace
} // namespace smartds::lz4
