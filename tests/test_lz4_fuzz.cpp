/**
 * @file
 * Seeded round-trip and mutation fuzzer for the LZ4 block decoder.
 *
 * Fault injection flips bits in stored blocks, so lz4::decompress() sees
 * corrupt input in real runs and must fail closed: never read past the
 * source, never write past the destination capacity, and report at most
 * that capacity. Each iteration compresses a corpus or random input at a
 * random effort, checks the exact round trip, then feeds the decoder
 * mutants of the compressed stream (bit flips, byte overwrites,
 * truncation, extension, and splices of two streams) into buffers of
 * exactly the capacity given, so the address sanitizer (asan preset)
 * catches any write past it. The iteration budget and seeds are fixed, so
 * every run checks the same inputs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/random.h"
#include "corpus/corpus.h"
#include "lz4/lz4.h"

namespace smartds::lz4 {
namespace {

constexpr int iterations = 1500;
constexpr int mutantsPerInput = 12;

/** A random input: a slice of a profile, all one byte, or noise. */
std::vector<std::uint8_t>
randomInput(Rng &rng)
{
    const std::size_t n = rng.below(4) == 0 ? rng.below(32)
                                            : 1 + rng.below(12000);
    switch (rng.below(4)) {
      case 0: {
        const auto &profiles = corpus::allProfiles();
        return corpus::generate(profiles[rng.below(profiles.size())], n,
                                rng);
      }
      case 1:
        return std::vector<std::uint8_t>(
            n, static_cast<std::uint8_t>(rng.below(256)));
      default: {
        // Noise over a small alphabet: short, frequent matches.
        const std::uint64_t alphabet =
            2 + rng.below(rng.chance(0.5) ? 4 : 255);
        std::vector<std::uint8_t> v(n);
        for (auto &b : v)
            b = static_cast<std::uint8_t>(rng.below(alphabet));
        return v;
      }
    }
}

std::vector<std::uint8_t>
mutate(const std::vector<std::uint8_t> &stream,
       const std::vector<std::uint8_t> &other, Rng &rng)
{
    std::vector<std::uint8_t> m = stream;
    switch (rng.below(5)) {
      case 0: // bit flips
        for (std::uint64_t i = 1 + rng.below(4); i > 0 && !m.empty(); --i)
            m[rng.below(m.size())] ^=
                static_cast<std::uint8_t>(1u << rng.below(8));
        break;
      case 1: // byte overwrites, often with the length-extension value
        for (std::uint64_t i = 1 + rng.below(3); i > 0 && !m.empty(); --i)
            m[rng.below(m.size())] = rng.chance(0.5)
                                         ? std::uint8_t{255}
                                         : static_cast<std::uint8_t>(
                                               rng.below(256));
        break;
      case 2: // truncation
        m.resize(rng.below(m.size() + 1));
        break;
      case 3: // trailing garbage
        for (std::uint64_t i = 1 + rng.below(16); i > 0; --i)
            m.push_back(static_cast<std::uint8_t>(rng.below(256)));
        break;
      default: { // splice: a prefix of this stream, a suffix of the other
        const std::size_t cut = rng.below(m.size() + 1);
        const std::size_t from = rng.below(other.size() + 1);
        m.resize(cut);
        m.insert(m.end(), other.begin() + static_cast<std::ptrdiff_t>(from),
                 other.end());
        break;
      }
    }
    return m;
}

/** Decode @p src into exactly @p cap bytes; the result must fit. */
void
decodeFailsClosed(const std::vector<std::uint8_t> &src, std::size_t cap)
{
    // Exactly-sized heap buffers: any write past cap is a sanitizer
    // report, not a silent overrun into slack.
    std::vector<std::uint8_t> in(src);
    std::vector<std::uint8_t> out(cap);
    const auto n = decompress(in.empty() ? nullptr : in.data(), in.size(),
                              out.empty() ? nullptr : out.data(), cap);
    if (n.has_value()) {
        EXPECT_LE(*n, cap);
    }
}

TEST(Lz4Fuzz, RoundTripAndMutantsFailClosed)
{
    Rng rng(0x1245f00dULL);
    std::vector<std::uint8_t> previous = compress(randomInput(rng), 1);
    int rejected = 0;
    int mutants = 0;
    for (int it = 0; it < iterations; ++it) {
        const auto input = randomInput(rng);
        const int effort =
            minEffort + static_cast<int>(rng.below(maxEffort - minEffort + 1));
        const auto stream = compress(input, effort);
        ASSERT_LE(stream.size(), maxCompressedSize(input.size()));

        const auto back = decompress(stream, input.size());
        ASSERT_TRUE(back.has_value()) << "iteration " << it;
        ASSERT_EQ(*back, input) << "iteration " << it;
        // One byte short of the decoded size always fails.
        if (!input.empty()) {
            std::vector<std::uint8_t> shorter(input.size() - 1);
            EXPECT_FALSE(decompress(stream.data(), stream.size(),
                                    shorter.empty() ? nullptr
                                                    : shorter.data(),
                                    shorter.size())
                             .has_value())
                << "iteration " << it;
        }

        for (int k = 0; k < mutantsPerInput; ++k) {
            const auto m = mutate(stream, previous, rng);
            // Capacities around the true size, where the wildcopy guard
            // and the bounds checks sit, plus a roomy one.
            const std::size_t caps[] = {
                input.size(), input.size() + rng.below(8),
                input.size() > 8 ? input.size() - 1 - rng.below(8) : 0,
                input.size() + 64 + rng.below(4096)};
            for (const std::size_t cap : caps)
                decodeFailsClosed(m, cap);
            std::vector<std::uint8_t> out(input.size() + 64);
            if (!decompress(m.data(), m.size(), out.data(), out.size()))
                ++rejected;
            ++mutants;
        }
        previous = stream;
    }
    // Most mutants are malformed; a decoder that accepted nearly all of
    // them would not be checking its input.
    EXPECT_GT(rejected, mutants / 4);
}

TEST(Lz4Fuzz, ZeroCapacityAndEmptySource)
{
    Rng rng(99);
    for (int i = 0; i < 200; ++i) {
        std::vector<std::uint8_t> src(rng.below(8));
        for (auto &b : src)
            b = static_cast<std::uint8_t>(rng.below(256));
        decodeFailsClosed(src, 0);
    }
    decodeFailsClosed({}, 0);
    decodeFailsClosed({}, 16);
}

} // namespace
} // namespace smartds::lz4
