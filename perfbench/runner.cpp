/**
 * @file
 * Benchmark runner: runs one named workload through the public
 * workload::runWriteExperiment entry point and prints every metric by
 * name and unit, then one JSON result line. perfbench/run.py builds and
 * invokes it; README.md defines the metrics.
 *
 *   perfbench_runner --workload NAME --seed N --seconds S --trace 0|1
 *                    [--revision REV] [--out DIR]
 *
 * --trace 0 reports the end-to-end metrics from untraced runs; --trace 1
 * reports the per-layer metrics, adding request-traced runs and timing
 * loops over single layers.
 */

#include <sched.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "layers.h"
#include "metric_math.h"
#include "workloads.h"

extern char **environ;

namespace {

using namespace smartds;
using namespace smartds::perfbench;
using Clock = std::chrono::steady_clock;
using workload::ExperimentResult;

/** Paper values quoted in EXPERIMENTS.md for the Fig 7 peak. */
constexpr double paperSmartDs1PeakGbps = 58.0;
constexpr double paperAvgLatencyGain = 2.6;

/** Child processes that each time the process-level set-up once. */
constexpr int setupSamples = 5;

/** Stages the designs record when tracing (trace::stageName spelling). */
const std::vector<std::string> traceStages = {
    "net.wire",         "nic.dma",   "host.parse", "host.compute",
    "smartds.split",    "engine",    "smartds.assemble",
    "replicate",        "storage",   "ec.encode",  "ec.decode",
    "cache.hit",        "cache.miss"};

const middletier::Design allDesigns[] = {
    middletier::Design::CpuOnly, middletier::Design::Accelerator,
    middletier::Design::Bf2, middletier::Design::SmartDs};

/** Resource probes reported per design (usage.<design>.<probe>_gbps). */
const std::map<middletier::Design, std::vector<std::string>> usageProbes = {
    {middletier::Design::CpuOnly,
     {"mem.read", "mem.write", "pcie.nic.h2d", "pcie.nic.d2h"}},
    {middletier::Design::Accelerator,
     {"mem.read", "mem.write", "pcie.nic.h2d", "pcie.nic.d2h",
      "pcie.fpga.h2d", "pcie.fpga.d2h"}},
    {middletier::Design::Bf2, {"dev.mem.read", "dev.mem.write"}},
    {middletier::Design::SmartDs,
     {"mem.read", "mem.write", "pcie.smartds.h2d", "pcie.smartds.d2h"}},
};

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    int trace = -1;
    std::string revision = "unknown";
    std::string outDir = ".bench_out";
    bool setupProbe = false;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench_runner: %s\nusage: perfbench_runner --workload "
                 "NAME --seed N --seconds S --trace 0|1 [--revision REV] "
                 "[--out DIR]\n",
                 why);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--setup-probe") {
            o.setupProbe = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        const std::string v = argv[++i];
        char *end = nullptr;
        if (a == "--workload") {
            o.workload = v;
        } else if (a == "--seed") {
            o.seed = std::strtoull(v.c_str(), &end, 10);
            if (v.empty() || *end)
                usage("--seed takes a whole number");
        } else if (a == "--seconds") {
            o.seconds = std::strtod(v.c_str(), &end);
            if (v.empty() || *end || !(o.seconds > 0.0))
                usage("--seconds takes a positive number");
        } else if (a == "--trace") {
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            o.trace = v == "1";
        } else if (a == "--revision") {
            o.revision = v;
        } else if (a == "--out") {
            o.outDir = v;
        } else {
            usage(("unknown argument " + a).c_str());
        }
    }
    if (o.workload.empty())
        usage("--workload is required");
    if (!o.setupProbe && (o.seconds <= 0.0 || o.trace < 0))
        usage("--seconds and --trace are required");
    return o;
}

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/**
 * The benchmark's own spans around every call into a layer, kept in
 * memory and written as Chrome trace JSON at the end.
 */
class SpanLog
{
  public:
    SpanLog() : origin_(Clock::now()) {}

    void
    scope(const std::string &name, const std::function<void()> &body)
    {
        const std::size_t id = spans_.size();
        spans_.push_back({name, secondsSince(origin_), 0.0,
                          open_.empty() ? -1 : static_cast<long>(open_.back())});
        open_.push_back(id);
        body();
        open_.pop_back();
        spans_[id].end = secondsSince(origin_);
    }

    void
    write(const std::string &path) const
    {
        std::ofstream out(path);
        out << "{\"traceEvents\":[";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            char buf[160];
            std::snprintf(buf, sizeof(buf),
                          ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                          "\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%ld}}",
                          s.start * 1e6, (s.end - s.start) * 1e6, i,
                          s.parent);
            out << (i ? ",\n" : "\n") << "{\"name\":" << jsonString(s.name)
                << buf;
        }
        out << "\n]}\n";
    }

  private:
    struct Span
    {
        std::string name;
        double start;
        double end;
        long parent;
    };
    Clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<std::size_t> open_;
};

double
peakRssMb()
{
    struct rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/** One pass over a workload's experiment list. */
struct Pass
{
    bool traced = false;
    double seconds = 0.0;
    /** Peak resident memory of the process when the pass ended. */
    double peakRssMb = 0.0;
    std::vector<double> callSeconds;
    std::vector<ExperimentResult> results;
};

Pass
runPass(const Workload &w, bool traced, SpanLog &spans)
{
    Pass pass;
    pass.traced = traced;
    spans.scope(traced ? "pass.traced" : "pass", [&] {
        for (const Run &run : w.runs) {
            workload::ExperimentConfig config = run.config;
            config.traceSample = traced ? 1 : 0;
            spans.scope("runWriteExperiment." + run.label, [&] {
                const auto start = Clock::now();
                pass.results.push_back(workload::runWriteExperiment(config));
                pass.callSeconds.push_back(secondsSince(start));
            });
            pass.seconds += pass.callSeconds.back();
        }
    });
    pass.peakRssMb = peakRssMb();
    return pass;
}

/** The simulated outputs that must repeat exactly for a fixed config. */
bool
sameOutputs(const ExperimentResult &a, const ExperimentResult &b)
{
    return a.requestsCompleted == b.requestsCompleted &&
           a.eventsExecuted == b.eventsExecuted &&
           a.throughputGbps == b.throughputGbps &&
           a.p50LatencyUs == b.p50LatencyUs &&
           a.p99LatencyUs == b.p99LatencyUs &&
           a.failover.readsUnserved == b.failover.readsUnserved &&
           a.failover.replicasAbandoned == b.failover.replicasAbandoned &&
           a.cache.hits == b.cache.hits;
}

/** The workload's configs shrunk to a near-empty window. */
std::vector<workload::ExperimentConfig>
probeConfigs(const Workload &w)
{
    std::vector<workload::ExperimentConfig> configs;
    for (const Run &run : w.runs) {
        workload::ExperimentConfig c = run.config;
        c.warmup = ticksPerMicrosecond;
        c.window = ticksPerMicrosecond;
        configs.push_back(c);
    }
    return configs;
}

/**
 * --setup-probe: in a fresh process, the first near-empty pass pays the
 * process-level set-up (corpus, ratio sampler, codec cache) and the
 * second does not; print the difference in seconds.
 */
int
setupProbe(const Workload &w)
{
    const auto configs = probeConfigs(w);
    double pass_s[2];
    for (double &s : pass_s) {
        const auto start = Clock::now();
        for (const auto &c : configs)
            workload::runWriteExperiment(c);
        s = secondsSince(start);
    }
    std::printf("%.9f\n", pass_s[0] - pass_s[1]);
    return 0;
}

/** Run this binary with @p args, wait for it, return its stdout. */
bool
runChild(const std::vector<std::string> &args, std::string &out)
{
    char exe[4096];
    const ssize_t len = readlink("/proc/self/exe", exe, sizeof(exe) - 1);
    if (len <= 0)
        return false;
    exe[len] = '\0';
    int fds[2];
    if (pipe(fds) != 0)
        return false;
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, fds[0]);
    std::vector<char *> argv = {exe};
    for (const auto &a : args)
        argv.push_back(const_cast<char *>(a.c_str()));
    argv.push_back(nullptr);
    pid_t pid = 0;
    const int rc =
        posix_spawn(&pid, exe, &actions, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    close(fds[1]);
    if (rc == 0) {
        char buf[256];
        ssize_t n;
        while ((n = read(fds[0], buf, sizeof(buf))) > 0)
            out.append(buf, static_cast<std::size_t>(n));
    }
    close(fds[0]);
    if (rc != 0)
        return false;
    int status = 0;
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

template <typename F>
double
sumOver(const std::vector<ExperimentResult> &results, F &&field)
{
    double total = 0.0;
    for (const auto &r : results)
        total += static_cast<double>(field(r));
    return total;
}

double
ratioOr0(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    const auto workload_opt = makeWorkload(opt.workload, opt.seed);
    if (!workload_opt) {
        std::string known;
        for (const std::string &name : workloadNames())
            known += " " + name;
        usage(("unknown workload " + opt.workload + "; known:" + known)
                  .c_str());
    }
    const Workload &w = *workload_opt;
    if (opt.setupProbe)
        return setupProbe(w);

    // Keep the simulation on one core: migrations between cores showed up
    // as multi-second outliers in otherwise identical passes.
    const int cpu = sched_getcpu();
    if (cpu >= 0) {
        cpu_set_t only{};
        CPU_SET(cpu, &only);
        sched_setaffinity(0, sizeof(only), &only);
    }

    SpanLog spans;
    std::vector<std::string> problems;
    auto require = [&problems](bool ok, const std::string &what) {
        if (!ok)
            problems.push_back(what);
    };

    Manifest manifest;
    manifest.revision = opt.revision;
    manifest.nproc = std::thread::hardware_concurrency();
    manifest.cpuModel = cpuModel();
    manifest.workload = w.name;
    manifest.seed = opt.seed;
    std::string described;
    for (const Run &run : w.runs)
        described += "[" + run.label + "]\n" + describeConfig(run.config);
    manifest.configDigest = hex64(fnv1a64(described));
    std::printf("manifest %s\n", manifest.toJson().c_str());
    std::fflush(stdout);

    // --- Set-up: median over fresh processes ---------------------------
    std::vector<double> setup_samples;
    spans.scope("setup.probes", [&] {
        for (int i = 0; i < setupSamples; ++i) {
            std::string out;
            const bool ok = runChild({"--setup-probe", "--workload", w.name,
                                      "--seed", std::to_string(opt.seed)},
                                     out);
            require(ok, "set-up probe process failed");
            if (ok)
                setup_samples.push_back(std::strtod(out.c_str(), nullptr));
        }
    });
    const double setup_s = median(setup_samples);
    // This process pays the same set-up once, outside the timed passes.
    spans.scope("setup.warm", [&] {
        for (const auto &c : probeConfigs(w))
            workload::runWriteExperiment(c);
    });

    // --- Timed passes ----------------------------------------------------
    std::vector<Pass> passes;
    const auto measure_start = Clock::now();
    do {
        const bool traced = opt.trace == 1 && passes.size() % 2 == 1;
        passes.push_back(runPass(w, traced, spans));
        // Start another pass only if it should end within the budget.
    } while ((opt.trace == 1 && passes.size() < 2) ||
             secondsSince(measure_start) + passes.back().seconds <=
                 opt.seconds);

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    const Pass *first[2] = {nullptr, nullptr};
    for (const Pass &p : passes) {
        const Pass *&ref = first[p.traced];
        if (!ref)
            ref = &p;
        for (std::size_t i = 0; i < w.runs.size(); ++i) {
            ++attempted;
            const bool ok = p.results[i].requestsCompleted > 0 &&
                            sameOutputs(p.results[i], ref->results[i]);
            failed += !ok;
        }
    }
    require(failed == 0, "a run completed no request or did not repeat");
    const std::vector<ExperimentResult> &base = first[0]->results;
    for (std::size_t i = 0; i < w.runs.size(); ++i)
        require(p99Resolved(base[i].requestsCompleted),
                w.runs[i].label + ": fewer than 10 samples beyond p99");

    // --- Verification: dsan reruns of one config, outside the timing ----
    spans.scope("verify.dsan", [&] {
        workload::ExperimentConfig c = w.runs[w.verifyRun].config;
        c.dsan = true;
        const ExperimentResult a = workload::runWriteExperiment(c);
        const ExperimentResult b = workload::runWriteExperiment(c);
        attempted += 2;
        const ExperimentResult &timed = base[w.verifyRun];
        const bool ok = a.stateHash != 0 && a.stateHash == b.stateHash &&
                        a.requestsCompleted == b.requestsCompleted &&
                        a.eventsExecuted == b.eventsExecuted &&
                        a.requestsCompleted == timed.requestsCompleted &&
                        a.eventsExecuted == timed.eventsExecuted;
        failed += ok ? 0 : 2;
        require(ok, "dsan reruns disagree on stateHash, requests or events");
    });

    // --- Metrics ------------------------------------------------------------
    std::vector<double> untraced_s, traced_s;
    for (const Pass &p : passes)
        (p.traced ? traced_s : untraced_s).push_back(p.seconds);
    const double run_s = median(untraced_s);
    const double requests =
        sumOver(base, [](const auto &r) { return r.requestsCompleted; });
    const double events =
        sumOver(base, [](const auto &r) { return r.eventsExecuted; });
    const double unserved = sumOver(
        base, [](const auto &r) { return r.failover.readsUnserved; });
    const double abandoned = sumOver(
        base, [](const auto &r) { return r.failover.replicasAbandoned; });
    const double fail_ratio = failRatio(
        static_cast<std::uint64_t>(unserved),
        static_cast<std::uint64_t>(abandoned),
        static_cast<std::uint64_t>(requests));

    std::vector<double> sat_gbps, kiops, p50, p99;
    for (std::size_t i = 0; i < w.runs.size(); ++i) {
        const ExperimentResult &r = base[i];
        if (w.runs[i].saturating)
            sat_gbps.push_back(r.throughputGbps);
        kiops.push_back(static_cast<double>(r.requestsCompleted) /
                        toSeconds(w.runs[i].config.window) / 1e3);
        p50.push_back(r.p50LatencyUs);
        p99.push_back(r.p99LatencyUs);
    }

    std::vector<Metric> metrics;
    if (opt.trace == 0) {
        // Host time per pass is reported per layer (--trace 1), not here:
        // on a shared host its spread across runs exceeds any bound a
        // regression gate could use (README.md, "Run-to-run spread").
        metrics = {
            {"setup_s", setup_s, "s"},
            // After set-up and the first pass: later passes add the
            // memory each experiment fails to release (see README.md), so
            // a later reading would grow with the pass count.
            {"peak_rss_mb", first[0]->peakRssMb, "MiB"},
            {"sim_gbps", geomean(sat_gbps), "Gbit/s"},
            {"sim_kiops", geomean(kiops), "kreq/s"},
            {"sim_p50_us", geomean(p50), "us"},
            {"sim_p99_us", geomean(p99), "us"},
            {"served_ratio", 1.0 - fail_ratio, "fraction"},
        };
        for (const Metric &m : metrics)
            require(m.value > 0.0, m.name + " is not positive");
    } else {
        auto add = [&metrics](std::string name, double value,
                              std::string unit) {
            metrics.push_back({std::move(name), value, std::move(unit)});
        };
        // host cost of the whole list
        add("run_s", run_s, "s");
        add("sim_req_per_host_s", requests / run_s, "req/s");

        // sim
        double max_share = 0.0;
        for (const auto &r : base)
            for (std::uint64_t d : r.domainEvents)
                max_share = std::max(
                    max_share, ratioOr0(static_cast<double>(d),
                                        static_cast<double>(r.eventsExecuted)));
        add("sim.events_per_req", events / requests, "events/req");
        add("sim.host_ns_per_event", run_s * 1e9 / events, "ns");
        LayerRates rates;
        spans.scope("layers", [&] {
            const bool ok = measureLayers(
                w.runs.front().config,
                [&spans](const std::string &name,
                         const std::function<void()> &body) {
                    spans.scope(name, body);
                },
                rates);
            require(ok, "a codec round trip did not reproduce its input");
        });
        add("sim.kernel_ns_per_event", rates.kernelNsPerEvent, "ns");
        add("sim.max_domain_share", max_share, "fraction");
        add("sim.cross_events_per_req",
            sumOver(base, [](const auto &r) { return r.crossChannelEvents; }) /
                requests,
            "events/req");

        // middletier, per design: host cost and simulated throughput
        for (const auto design : allDesigns) {
            std::vector<double> us_per_req;
            for (const Pass &p : passes) {
                if (p.traced)
                    continue;
                double s = 0.0, n = 0.0;
                for (std::size_t i = 0; i < w.runs.size(); ++i) {
                    if (w.runs[i].config.design != design)
                        continue;
                    s += p.callSeconds[i];
                    n += static_cast<double>(p.results[i].requestsCompleted);
                }
                if (n > 0.0)
                    us_per_req.push_back(s * 1e6 / n);
            }
            std::vector<double> gbps;
            for (std::size_t i = 0; i < w.runs.size(); ++i)
                if (w.runs[i].config.design == design && w.runs[i].saturating)
                    gbps.push_back(base[i].throughputGbps);
            const std::string key =
                std::string("middletier.") + designKey(design);
            add(key + ".host_us_per_req", median(us_per_req), "us");
            add(key + ".sim_gbps", geomean(gbps), "Gbit/s");
        }
        // replicaBytesSent covers warmup and window; served bytes only
        // the window, so scale them to the whole run at the window rate.
        double served_bytes = 0.0;
        for (std::size_t i = 0; i < w.runs.size(); ++i) {
            const auto &c = w.runs[i].config;
            served_bytes += base[i].throughputGbps * 1e9 / 8.0 *
                            toSeconds(c.warmup + c.window);
        }
        add("middletier.net_amplification",
            ratioOr0(sumOver(base,
                             [](const auto &r) {
                                 return r.failover.replicaBytesSent;
                             }),
                     served_bytes),
            "ratio");
        add("middletier.retries_per_kreq",
            sumOver(base,
                    [](const auto &r) { return r.failover.replicaRetries; }) /
                requests * 1e3,
            "count/kreq");
        add("middletier.read_failovers",
            sumOver(base,
                    [](const auto &r) { return r.failover.readFailovers; }),
            "count");
        add("middletier.corruptions_detected",
            sumOver(base,
                    [](const auto &r) {
                        return r.failover.corruptionsDetected;
                    }),
            "count");
        add("middletier.reads_unserved", unserved, "count");
        add("middletier.replicas_abandoned", abandoned, "count");
        add("middletier.fail_ratio", fail_ratio, "fraction");

        // codec, checksum, EC, corpus
        add("lz4.compress_mb_s", rates.lz4CompressMBs, "MB/s");
        add("lz4.decompress_mb_s", rates.lz4DecompressMBs, "MB/s");
        add("lz4.ratio", rates.lz4Ratio, "ratio");
        add("xxhash.gb_s", rates.xxhashGBs, "GB/s");
        add("ec.encode_gb_s", rates.ecEncodeGBs, "GB/s");
        add("ec.decode_gb_s", rates.ecDecodeGBs, "GB/s");
        add("ec.stripes_encoded_per_req",
            sumOver(base,
                    [](const auto &r) { return r.failover.stripesEncoded; }) /
                requests,
            "count/req");
        add("ec.degraded_reads",
            sumOver(base,
                    [](const auto &r) { return r.failover.degradedReads; }),
            "count");
        add("corpus.codec_cache_build_s", rates.codecCacheBuildS, "s");

        // hot-block read cache
        const double hits =
            sumOver(base, [](const auto &r) { return r.cache.hits; });
        const double misses =
            sumOver(base, [](const auto &r) { return r.cache.misses; });
        add("cache.hit_ratio", ratioOr0(hits, hits + misses), "fraction");
        add("cache.evictions",
            sumOver(base, [](const auto &r) { return r.cache.evictions; }),
            "count");
        add("cache.invalidations",
            sumOver(base, [](const auto &r) { return r.cache.invalidations; }),
            "count");

        // simulated resources: mean byte-probe rate over saturating runs
        for (const auto &[design, probes] : usageProbes) {
            for (const std::string &probe : probes) {
                double total = 0.0;
                int n = 0;
                for (std::size_t i = 0; i < w.runs.size(); ++i) {
                    if (w.runs[i].config.design != design ||
                        !w.runs[i].saturating)
                        continue;
                    const auto it = base[i].usageGbps.find(probe);
                    total += it == base[i].usageGbps.end() ? 0.0 : it->second;
                    ++n;
                }
                add(std::string("usage.") + designKey(design) + "." + probe +
                        "_gbps",
                    n ? total / n : 0.0, "Gbit/s");
            }
        }

        // faults, maintenance, storage
        add("faults.crashes",
            sumOver(base, [](const auto &r) { return r.crashesInjected; }),
            "count");
        add("faults.acks_dropped",
            sumOver(base, [](const auto &r) { return r.acksDropped; }),
            "count");
        add("faults.blocks_corrupted",
            sumOver(base, [](const auto &r) { return r.blocksCorrupted; }),
            "count");
        add("maintenance.repairs_completed",
            sumOver(base, [](const auto &r) { return r.repairsCompleted; }),
            "count");
        add("storage.blocks_stored_per_req",
            sumOver(base,
                    [](const auto &r) { return r.storageBlocksStored; }) /
                requests,
            "count/req");

        // trace: per-stage simulated latency from the traced pass
        const std::vector<ExperimentResult> &traced = first[1]->results;
        for (const std::string &stage : traceStages) {
            std::vector<double> sp50, sp99;
            for (const auto &r : traced) {
                for (const auto &s : r.stages) {
                    if (stage == s.stage && s.count > 0) {
                        sp50.push_back(s.p50Us);
                        sp99.push_back(s.p99Us);
                    }
                }
            }
            add("trace." + stage + ".p50_us", geomean(sp50), "us");
            add("trace." + stage + ".p99_us", geomean(sp99), "us");
        }
        add("trace.overhead_ratio", median(traced_s) / run_s, "ratio");

        // accuracy against the paper (Fig 7 workload only; -1 elsewhere)
        double peak_err = -1.0, gain_err = -1.0;
        if (w.fig7Reference) {
            const ExperimentResult *cpu = nullptr, *sd = nullptr;
            for (std::size_t i = 0; i < w.runs.size(); ++i) {
                if (!w.runs[i].saturating)
                    continue;
                if (w.runs[i].config.design == middletier::Design::CpuOnly)
                    cpu = &base[i];
                if (w.runs[i].config.design == middletier::Design::SmartDs)
                    sd = &base[i];
            }
            if (cpu && sd) {
                peak_err = std::abs(sd->throughputGbps - paperSmartDs1PeakGbps) /
                           paperSmartDs1PeakGbps * 100.0;
                const double gain = cpu->avgLatencyUs / sd->avgLatencyUs;
                gain_err = std::abs(gain - paperAvgLatencyGain) /
                           paperAvgLatencyGain * 100.0;
            }
        }
        add("accuracy.fig7_peak_gbps_err_pct", peak_err, "%");
        add("accuracy.fig7_lat_gain_err_pct", gain_err, "%");
    }

    // --- Output -----------------------------------------------------------
    const bool correct = problems.empty();
    for (std::size_t i = 0; i < w.runs.size(); ++i) {
        const ExperimentResult &r = base[i];
        std::printf("run %-16s requests %llu  %.2f Gbit/s  p50 %.1f us  "
                    "p99 %.1f us  events %llu  unserved %llu  host %.3f s\n",
                    w.runs[i].label.c_str(),
                    static_cast<unsigned long long>(r.requestsCompleted),
                    r.throughputGbps, r.p50LatencyUs, r.p99LatencyUs,
                    static_cast<unsigned long long>(r.eventsExecuted),
                    static_cast<unsigned long long>(r.failover.readsUnserved),
                    first[0]->callSeconds[i]);
    }
    for (const std::string &p : problems)
        std::printf("check failed: %s\n", p.c_str());
    std::string metrics_json = "{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        std::printf("metric %-44s %.10g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
        char value[64];
        std::snprintf(value, sizeof(value), "%.17g", m.value);
        if (i)
            metrics_json += ',';
        metrics_json += jsonString(m.name) + ":{\"value\":" + value +
                        ",\"unit\":" + jsonString(m.unit) + "}";
    }
    metrics_json += "}";
    for (const Pass &p : passes)
        std::printf("pass%s wall %.3f s peak rss %.1f MiB\n",
                    p.traced ? " traced" : "", p.seconds, p.peakRssMb);
    std::printf("passes %zu untraced, %zu traced; requests per pass %.0f; "
                "median untraced pass %.3f s\n",
                untraced_s.size(), traced_s.size(), requests, run_s);

    std::error_code ec;
    std::filesystem::create_directories(opt.outDir, ec);
    if (!ec) {
        std::ofstream records(opt.outDir + "/records.jsonl", std::ios::app);
        records << "{\"manifest\":" << manifest.toJson()
                << ",\"trace\":" << opt.trace
                << ",\"correct\":" << (correct ? "true" : "false")
                << ",\"metrics\":" << metrics_json << "}\n";
        spans.write(opt.outDir + "/spans-" + w.name + "-seed" +
                    std::to_string(opt.seed) + "-trace" +
                    std::to_string(opt.trace) + ".json");
    }

    std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
                "\"metrics\":%s}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed), metrics_json.c_str());
    return 0;
}
