#include "layers.h"

#include <chrono>
#include <cstring>
#include <utility>
#include <vector>

#include "common/checksum.h"
#include "corpus/block_cache.h"
#include "corpus/corpus.h"
#include "ec/reed_solomon.h"
#include "lz4/lz4.h"
#include "metric_math.h"
#include "sim/simulator.h"

namespace smartds::perfbench {

namespace {

using Clock = std::chrono::steady_clock;

/** Each loop repeats whole sweeps until it has run this long. */
constexpr double minLoopSeconds = 0.2;

/** Run @p sweep until minLoopSeconds pass; returns (sweeps, seconds). */
template <typename F>
std::pair<std::uint64_t, double>
timeSweeps(F &&sweep)
{
    const auto start = Clock::now();
    std::uint64_t sweeps = 0;
    double elapsed = 0.0;
    do {
        sweep();
        ++sweeps;
        elapsed = std::chrono::duration<double>(Clock::now() - start).count();
    } while (elapsed < minLoopSeconds);
    return {sweeps, elapsed};
}

/** Sink that keeps the compiler from discarding timed work. */
volatile std::uint64_t sink = 0;

} // namespace

bool
measureLayers(const workload::ExperimentConfig &config, const SpanScope &span,
              LayerRates &out)
{
    // The experiment harness samples timing-mode ratios from a 4 MiB
    // corpus and carries functional payloads from an 8 MiB one, both
    // seeded 42; time the codecs over the same bytes.
    const corpus::SyntheticCorpus corpus(config.functional ? 8u << 20
                                                           : 4u << 20,
                                         42);
    const std::size_t block = config.blockBytes;
    const std::size_t n_blocks = corpus.blockCount(block);
    const double corpus_bytes = static_cast<double>(n_blocks * block);
    bool ok = true;

    std::vector<std::vector<std::uint8_t>> compressed(n_blocks);
    double compressed_bytes = 0.0;
    span("lz4.compress", [&] {
        std::vector<std::uint8_t> dst(lz4::maxCompressedSize(block));
        const auto [sweeps, s] = timeSweeps([&] {
            for (std::size_t i = 0; i < n_blocks; ++i) {
                const auto n = lz4::compress(corpus.blockPtr(block, i), block,
                                             dst.data(), dst.size(),
                                             config.effort);
                sink = sink + n.value_or(0);
            }
        });
        out.lz4CompressMBs = corpus_bytes * static_cast<double>(sweeps) / s /
                             1e6;
        for (std::size_t i = 0; i < n_blocks; ++i) {
            const auto n = lz4::compress(corpus.blockPtr(block, i), block,
                                         dst.data(), dst.size(),
                                         config.effort);
            compressed[i].assign(dst.begin(),
                                 dst.begin() + static_cast<std::ptrdiff_t>(
                                                   n.value_or(0)));
            compressed_bytes += static_cast<double>(compressed[i].size());
        }
    });
    out.lz4Ratio = compressed_bytes / corpus_bytes;

    span("lz4.decompress", [&] {
        std::vector<std::uint8_t> dst(block);
        for (std::size_t i = 0; i < n_blocks; ++i) {
            const auto n = lz4::decompress(compressed[i].data(),
                                           compressed[i].size(), dst.data(),
                                           dst.size());
            ok = ok && n == block &&
                 std::memcmp(dst.data(), corpus.blockPtr(block, i), block) ==
                     0;
        }
        const auto [sweeps, s] = timeSweeps([&] {
            for (const auto &c : compressed) {
                const auto n = lz4::decompress(c.data(), c.size(), dst.data(),
                                               dst.size());
                sink = sink + n.value_or(0);
            }
        });
        out.lz4DecompressMBs =
            corpus_bytes * static_cast<double>(sweeps) / s / 1e6;
    });

    span("xxhash", [&] {
        const auto [sweeps, s] = timeSweeps([&] {
            for (std::size_t i = 0; i < n_blocks; ++i)
                sink = sink + xxhash32(corpus.blockPtr(block, i), block);
        });
        out.xxhashGBs = corpus_bytes * static_cast<double>(sweeps) / s / 1e9;
    });

    // One RS stripe per corpus block, over a 256-block slice: enough to
    // leave the caches' working set realistic without a long set-up.
    const ec::RsCodec rs(config.ecDataShards, config.ecParityShards);
    const std::size_t ec_blocks = std::min<std::size_t>(n_blocks, 256);
    const double ec_bytes = static_cast<double>(ec_blocks * block);
    std::vector<std::vector<std::vector<std::uint8_t>>> stripes(ec_blocks);
    span("ec.encode", [&] {
        const auto [sweeps, s] = timeSweeps([&] {
            for (std::size_t i = 0; i < ec_blocks; ++i)
                sink = sink +
                       rs.encode(corpus.blockPtr(block, i), block).size();
        });
        out.ecEncodeGBs = ec_bytes * static_cast<double>(sweeps) / s / 1e9;
        for (std::size_t i = 0; i < ec_blocks; ++i)
            stripes[i] = rs.encode(corpus.blockPtr(block, i), block);
    });
    span("ec.decode", [&] {
        // Lose the first m data shards, so every decode inverts.
        std::vector<std::vector<std::pair<unsigned,
                                          const std::vector<std::uint8_t> *>>>
            survivors(ec_blocks);
        for (std::size_t i = 0; i < ec_blocks; ++i)
            for (unsigned s = rs.m(); s < rs.n(); ++s)
                survivors[i].emplace_back(s, &stripes[i][s]);
        for (std::size_t i = 0; i < ec_blocks; ++i) {
            const auto plain = rs.decode(survivors[i], block);
            ok = ok && plain && plain->size() == block &&
                 std::memcmp(plain->data(), corpus.blockPtr(block, i),
                             block) == 0;
        }
        const auto [sweeps, s] = timeSweeps([&] {
            for (const auto &sv : survivors)
                sink = sink + rs.decode(sv, block).value_or(
                                  std::vector<std::uint8_t>{}).size();
        });
        out.ecDecodeGBs = ec_bytes * static_cast<double>(sweeps) / s / 1e9;
    });

    span("corpus.codec_cache_build", [&] {
        // The functional datapath builds this table once per process
        // (corpus::sharedBlockCache); build private copies to time it.
        std::vector<double> builds;
        for (int r = 0; r < 3; ++r) {
            const auto start = Clock::now();
            const corpus::BlockCodecCache cache(corpus, block, config.effort);
            builds.push_back(
                std::chrono::duration<double>(Clock::now() - start).count());
            sink = sink + cache.blocks();
        }
        out.codecCacheBuildS = median(builds);
    });

    span("sim.kernel", [&] {
        std::uint64_t events = 0;
        const auto [sweeps, s] = timeSweeps([&] {
            sim::Simulator sim;
            std::uint64_t fired = 0;
            for (int i = 0; i < 1000; ++i)
                sim.schedule(static_cast<Tick>(i) * 10, [&fired] { ++fired; });
            sim.run();
            events += sim.eventsExecuted();
            sink = sink + fired;
        });
        (void)sweeps;
        out.kernelNsPerEvent = s * 1e9 / static_cast<double>(events);
    });
    return ok;
}

} // namespace smartds::perfbench
