/**
 * @file
 * Microbenchmarks of the functional LZ4 codec on the synthetic corpus
 * (google-benchmark): compression/decompression throughput per profile
 * and effort, plus the achieved ratios; compression of the 4 MiB set-up
 * corpus with a fresh context per block (the free function) and with one
 * reused lz4::Compressor; and corpus synthesis per profile. These are
 * the *functional* numbers of this host; the simulator's
 * software-compression *rate* is calibrated to the paper's platform
 * (2.1 Gbps/logical core at 2.2 GHz) in common/calibration.h.
 */

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/random.h"
#include "corpus/corpus.h"
#include "lz4/lz4.h"

namespace {

using namespace smartds;

const std::vector<std::uint8_t> &
profileData(corpus::Profile p)
{
    // simlint: allow(mutable-global): bench-process memo of generated
    // corpora; google-benchmark runs repetitions single-threaded and no
    // simulation state is derived from the cache's iteration order
    static std::map<corpus::Profile, std::vector<std::uint8_t>> cache;
    auto it = cache.find(p);
    if (it == cache.end()) {
        Rng rng(2024);
        it = cache.emplace(p, corpus::generate(p, 1u << 20, rng)).first;
    }
    return it->second;
}

void
compressProfile(benchmark::State &state, corpus::Profile profile,
                int effort)
{
    const auto &data = profileData(profile);
    std::vector<std::uint8_t> out(lz4::maxCompressedSize(4096));
    std::size_t offset = 0;
    std::size_t compressed_total = 0;
    std::size_t original_total = 0;
    for (auto _ : state) {
        const auto n = lz4::compress(data.data() + offset, 4096,
                                     out.data(), out.size(), effort);
        benchmark::DoNotOptimize(n);
        compressed_total += n.value_or(4096);
        original_total += 4096;
        offset = (offset + 4096) % (data.size() - 4096);
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(original_total));
    state.counters["ratio"] = static_cast<double>(compressed_total) /
                              static_cast<double>(original_total);
}

void
decompressProfile(benchmark::State &state, corpus::Profile profile)
{
    const auto &data = profileData(profile);
    // Pre-compress a set of blocks.
    std::vector<std::vector<std::uint8_t>> blocks;
    for (std::size_t off = 0; off + 4096 <= data.size() && blocks.size() < 64;
         off += 4096) {
        std::vector<std::uint8_t> block(data.begin() + off,
                                        data.begin() + off + 4096);
        blocks.push_back(lz4::compress(block, 1));
    }
    std::vector<std::uint8_t> out(4096);
    std::size_t i = 0;
    std::size_t bytes = 0;
    for (auto _ : state) {
        const auto n = lz4::decompress(blocks[i].data(), blocks[i].size(),
                                       out.data(), out.size());
        benchmark::DoNotOptimize(n);
        bytes += n.value_or(0);
        i = (i + 1) % blocks.size();
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}

/**
 * 4 KiB blocks of the 4 MiB ratio corpus in order, as set-up compresses
 * them: each with a fresh context (@p reuse false: the free function, which
 * allocates and fills the match tables per block) or all with one
 * lz4::Compressor.
 */
void
compressCorpus(benchmark::State &state, int effort, bool reuse)
{
    static const corpus::SyntheticCorpus corpus(4u << 20, 42);
    lz4::Compressor context;
    std::vector<std::uint8_t> out(lz4::maxCompressedSize(4096));
    std::size_t block = 0;
    std::size_t bytes = 0;
    for (auto _ : state) {
        const std::uint8_t *src = corpus.blockPtr(4096, block);
        const auto n =
            reuse ? context.compress(src, 4096, out.data(), out.size(), effort)
                  : lz4::compress(src, 4096, out.data(), out.size(), effort);
        benchmark::DoNotOptimize(n);
        bytes += 4096;
        block = (block + 1) % corpus.blockCount(4096);
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}

/** Synthesise 1 MiB of @p profile per iteration. */
void
synthesize(benchmark::State &state, corpus::Profile profile)
{
    Rng rng(2024);
    std::size_t bytes = 0;
    for (auto _ : state) {
        const auto data = corpus::generate(profile, 1u << 20, rng);
        benchmark::DoNotOptimize(data.data());
        bytes += data.size();
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}

/**
 * Console output as usual, plus each benchmark's MB/s, for the
 * bench_perf record main() appends.
 */
class RateCollector : public benchmark::ConsoleReporter
{
  public:
    void
    ReportRuns(const std::vector<Run> &runs) override
    {
        for (const Run &run : runs) {
            const auto it = run.counters.find("bytes_per_second");
            if (!run.error_occurred && it != run.counters.end())
                mbPerSecond[run.benchmark_name()] = it->second.value / 1e6;
        }
        ConsoleReporter::ReportRuns(runs);
    }

    std::map<std::string, double> mbPerSecond;
};

} // namespace

BENCHMARK_CAPTURE(compressCorpus, fresh_e1, 1, false);
BENCHMARK_CAPTURE(compressCorpus, reused_e1, 1, true);
BENCHMARK_CAPTURE(compressCorpus, fresh_e8, 8, false);
BENCHMARK_CAPTURE(compressCorpus, reused_e8, 8, true);

BENCHMARK_CAPTURE(synthesize, text, corpus::Profile::Text);
BENCHMARK_CAPTURE(synthesize, xml, corpus::Profile::Xml);
BENCHMARK_CAPTURE(synthesize, database, corpus::Profile::Database);
BENCHMARK_CAPTURE(synthesize, executable, corpus::Profile::Executable);
BENCHMARK_CAPTURE(synthesize, scientific, corpus::Profile::Scientific);
BENCHMARK_CAPTURE(synthesize, imaging, corpus::Profile::Imaging);

BENCHMARK_CAPTURE(compressProfile, text_e1, corpus::Profile::Text, 1);
BENCHMARK_CAPTURE(compressProfile, text_e6, corpus::Profile::Text, 6);
BENCHMARK_CAPTURE(compressProfile, xml_e1, corpus::Profile::Xml, 1);
BENCHMARK_CAPTURE(compressProfile, database_e1, corpus::Profile::Database,
                  1);
BENCHMARK_CAPTURE(compressProfile, executable_e1,
                  corpus::Profile::Executable, 1);
BENCHMARK_CAPTURE(compressProfile, scientific_e1,
                  corpus::Profile::Scientific, 1);
BENCHMARK_CAPTURE(compressProfile, imaging_e1, corpus::Profile::Imaging, 1);

BENCHMARK_CAPTURE(decompressProfile, text, corpus::Profile::Text);
BENCHMARK_CAPTURE(decompressProfile, xml, corpus::Profile::Xml);
BENCHMARK_CAPTURE(decompressProfile, executable,
                  corpus::Profile::Executable);
BENCHMARK_CAPTURE(decompressProfile, imaging, corpus::Profile::Imaging);

int
main(int argc, char **argv)
{
    smartds::bench::Harness harness(argc, argv, "micro_lz4");
    // Under --smoke, cap each benchmark's measuring time so the whole
    // binary finishes in seconds; explicit user flags still win because
    // google-benchmark takes the last occurrence.
    std::string min_time = "--benchmark_min_time=0.01";
    std::vector<char *> args(argv, argv + argc);
    if (harness.smoke())
        args.insert(args.begin() + 1, min_time.data());
    int bench_argc = static_cast<int>(args.size());
    benchmark::Initialize(&bench_argc, args.data());
    if (benchmark::ReportUnrecognizedArguments(bench_argc, args.data()))
        return 1;
    RateCollector reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);
    benchmark::Shutdown();

    // A second bench_perf record (besides the Harness line): MB/s per
    // benchmark, keyed by host, so codec and synthesis speed-ups have a
    // same-host before and after. perf_diff.py skips it.
    std::string cases;
    for (const auto &[name, mb_s] : reporter.mbPerSecond) {
        char buf[160];
        std::snprintf(buf, sizeof(buf), "%s\"%s\":%.1f",
                      cases.empty() ? "" : ",", name.c_str(), mb_s);
        cases += buf;
    }
    const std::string line =
        std::string("{\"bench\":\"micro_lz4\",\"metric\":\"mb_s\",") +
        "\"smoke\":" + (harness.smoke() ? "true" : "false") +
        ",\"cases\":{" + cases + "},\"host\":" + bench::hostJson() +
        ",\"unix_time\":" + std::to_string(bench::unixTime()) + "}";
    if (!appendLineAtomic("results/bench_perf.jsonl", line))
        warn("could not append to results/bench_perf.jsonl");
    std::printf("[bench_perf] %s\n", line.c_str());
    return 0;
}
