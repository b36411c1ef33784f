/**
 * @file
 * Golden pin of the middle tier's observable behaviour.
 *
 * Each case is a short run of one of the benchmark workloads (timing
 * replication through the chunk manager, the functional RS(4, 2) read
 * mix with a hot-block cache, a faulty 2-of-3 quorum pool, and a faulty
 * timing-mode EC pool) on one design. The test pins the dsan state hash
 * of the event stream, the completed requests, the executed events and
 * every FailoverStats and HotBlockCache::Stats field. Any change to the
 * order, timing or count of simulator events, or to a failure-handling
 * decision, moves at least one of them.
 *
 * On a mismatch the test prints the observed row in paste-ready form. A
 * change that moves a pinned row on purpose must say which rows moved,
 * and why, in CHANGES.md before re-baselining here.
 */

#include <gtest/gtest.h>

#include <array>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "workload/experiment.h"

namespace smartds::workload {
namespace {

using middletier::Design;
using middletier::ReadCachePlacement;

/** One pinned run: identity plus every observed counter. */
struct Pin
{
    std::string name;
    std::uint32_t stateHash = 0;
    std::uint64_t requests = 0;
    std::uint64_t events = 0;
    /** FailoverStats, in declaration order. */
    std::array<std::uint64_t, 14> failover{};
    /** HotBlockCache::Stats, in declaration order. */
    std::array<std::uint64_t, 6> cache{};

    bool
    operator==(const Pin &o) const
    {
        return name == o.name && stateHash == o.stateHash &&
               requests == o.requests && events == o.events &&
               failover == o.failover && cache == o.cache;
    }
};

struct Case
{
    std::string name;
    ExperimentConfig config;
};

ExperimentConfig
base(Design design, unsigned cores, unsigned ports)
{
    ExperimentConfig c;
    c.design = design;
    c.cores = cores;
    c.ports = ports;
    c.warmup = 300 * ticksPerMicrosecond;
    c.window = 700 * ticksPerMicrosecond;
    c.seed = 1;
    c.faultSeed = 0x9e3779b97f4a7c15ull + 0xfa17;
    c.dsan = true;
    // Sample spans so the trace hooks run; tracing never schedules
    // events, so it leaves every pinned value as it is.
    c.traceSample = 3;
    return c;
}

/** fig7_writes: timing mode, chunk-manager replication, writes only. */
ExperimentConfig
replicate(Design design, unsigned cores, unsigned ports)
{
    return base(design, cores, ports);
}

/** functional_ec_rw: real bytes, RS(4, 2), zipf reads, hot-block cache. */
ExperimentConfig
functionalEc(Design design, unsigned cores, ReadCachePlacement placement)
{
    ExperimentConfig c = base(design, cores, 1);
    c.functional = true;
    c.blockCache = true;
    c.effort = 8;
    c.readFraction = 0.4;
    c.zipfTheta = 0.99;
    c.virtualDiskBytes = mebibytes(4);
    c.replicationPolicy = middletier::ReplicationPolicy::ErasureCode;
    c.ecDataShards = 4;
    c.ecParityShards = 2;
    c.storageServers = 12;
    c.failureDomains = 4;
    c.readCacheBytes = mebibytes(1);
    c.readCachePlacement = placement;
    c.window = 2 * ticksPerMillisecond;
    return c;
}

/** faulty_pool: crashes, ack drops, bit flips, slow nodes, 2-of-3. */
ExperimentConfig
faulty(Design design, unsigned cores, unsigned ports)
{
    ExperimentConfig c = base(design, cores, ports);
    c.readFraction = 0.3;
    c.virtualDiskBytes = mebibytes(4);
    c.storageServers = 24;
    c.failureDomains = 4;
    c.crashMeanInterval = 150 * ticksPerMicrosecond;
    c.ackDropProbability = 0.2;
    c.corruptProbability = 0.1;
    c.slowNodes = 2;
    c.ackQuorum = 2;
    // A short timeout and one retry: within the window, replicas time
    // out twice, get abandoned and go to background repair.
    c.replicaAckTimeout = 100 * ticksPerMicrosecond;
    c.replicaMaxRetries = 1;
    c.readCacheBytes = mebibytes(1);
    c.window = 2 * ticksPerMillisecond;
    return c;
}

/** The faulty pool under timing-mode RS(4, 2): degraded EC reads. */
ExperimentConfig
faultyEc(Design design, unsigned cores, unsigned ports)
{
    ExperimentConfig c = faulty(design, cores, ports);
    c.replicationPolicy = middletier::ReplicationPolicy::ErasureCode;
    c.ecDataShards = 4;
    c.ecParityShards = 2;
    return c;
}

std::vector<Case>
cases()
{
    return {
        {"replicate/cpu_only", replicate(Design::CpuOnly, 48, 1)},
        {"replicate/accelerator", replicate(Design::Accelerator, 2, 1)},
        {"replicate/bf2", replicate(Design::Bf2, 4, 2)},
        {"replicate/smartds", replicate(Design::SmartDs, 2, 1)},
        {"functional_ec/cpu_only",
         functionalEc(Design::CpuOnly, 48, ReadCachePlacement::HostDram)},
        {"functional_ec/accelerator",
         functionalEc(Design::Accelerator, 2, ReadCachePlacement::HostDram)},
        {"functional_ec/smartds",
         functionalEc(Design::SmartDs, 2, ReadCachePlacement::DeviceHbm)},
        {"faulty/cpu_only", faulty(Design::CpuOnly, 24, 1)},
        {"faulty/accelerator", faulty(Design::Accelerator, 2, 1)},
        {"faulty/bf2", faulty(Design::Bf2, 4, 2)},
        {"faulty/smartds", faulty(Design::SmartDs, 2, 2)},
        {"faulty_ec/cpu_only", faultyEc(Design::CpuOnly, 24, 1)},
        {"faulty_ec/accelerator", faultyEc(Design::Accelerator, 2, 1)},
        {"faulty_ec/bf2", faultyEc(Design::Bf2, 4, 2)},
        {"faulty_ec/smartds", faultyEc(Design::SmartDs, 2, 2)},
    };
}

Pin
observe(const std::string &name, const ExperimentResult &r)
{
    const middletier::FailoverStats &f = r.failover;
    const middletier::HotBlockCache::Stats &c = r.cache;
    Pin p;
    p.name = name;
    p.stateHash = r.stateHash;
    p.requests = r.requestsCompleted;
    p.events = r.eventsExecuted;
    p.failover = {f.replicaTimeouts,     f.replicaRetries,
                  f.replicaReplacements, f.replicasAbandoned,
                  f.staleAcks,           f.nodesSuspected,
                  f.quorumCompletions,   f.repairsScheduled,
                  f.corruptionsDetected, f.readFailovers,
                  f.readsUnserved,       f.stripesEncoded,
                  f.degradedReads,       f.replicaBytesSent};
    p.cache = {c.hits,       c.misses,    c.hitBytes,
               c.insertions, c.evictions, c.invalidations};
    return p;
}

template <std::size_t N>
std::string
list(const std::array<std::uint64_t, N> &values)
{
    std::string out = "{";
    for (std::size_t i = 0; i < N; ++i) {
        out += std::to_string(values[i]);
        if (i + 1 < N)
            out += ", ";
    }
    return out + "}";
}

/** @p p as an initializer row of the golden table below. */
std::string
pasteReady(const Pin &p)
{
    char head[128];
    std::snprintf(head, sizeof(head),
                  "0x%08" PRIx32 "u, %" PRIu64 "u, %" PRIu64 "u",
                  p.stateHash, p.requests, p.events);
    return "    {\"" + p.name + "\", " + head + ",\n     " + list(p.failover) +
           ",\n     " + list(p.cache) + "},";
}

// clang-format off
const std::vector<Pin> golden = {
    {"replicate/cpu_only", 0x0b4513dau, 1190u, 117444u,
     {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 11023488},
     {0, 0, 0, 0, 0, 0}},
    {"replicate/accelerator", 0xfae8adfbu, 1098u, 114163u,
     {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 10057008},
     {0, 0, 0, 0, 0, 0}},
    {"replicate/bf2", 0x006401bbu, 855u, 69817u,
     {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 7970700},
     {0, 0, 0, 0, 0, 0}},
    {"replicate/smartds", 0x57466f5du, 1209u, 200212u,
     {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 11342841},
     {0, 0, 0, 0, 0, 0}},
    {"functional_ec/cpu_only", 0x0e15e826u, 206u, 41143u,
     {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 123, 117, 0, 372594},
     {0, 140, 0, 0, 0, 0}},
    {"functional_ec/accelerator", 0xc0191b67u, 912u, 170381u,
     {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 398, 655, 0, 2044506},
     {0, 471, 0, 0, 0, 0}},
    {"functional_ec/smartds", 0xafbbeaf8u, 1159u, 361122u,
     {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 515, 822, 0, 2587188},
     {0, 600, 0, 0, 0, 0}},
    {"faulty/cpu_only", 0x4fbfbbe7u, 3139u, 241397u,
     {2114, 1771, 621, 343, 422, 297, 2415, 343, 0, 27, 0, 0, 0, 20599881},
     {30, 1081, 122880, 1057, 748, 52}},
    {"faulty/accelerator", 0x5f19988du, 2681u, 224885u,
     {1834, 1556, 535, 278, 338, 251, 2092, 278, 0, 27, 0, 0, 0, 17809085},
     {26, 905, 106496, 882, 564, 61}},
    {"faulty/bf2", 0xbf719d2au, 2478u, 159085u,
     {1621, 1361, 368, 260, 277, 196, 1932, 260, 0, 31, 0, 0, 0, 16209452},
     {33, 822, 135168, 812, 493, 60}},
    {"faulty/smartds", 0x1ae3d7e5u, 3784u, 488249u,
     {2525, 2071, 690, 454, 437, 343, 2907, 454, 0, 43, 0, 0, 0, 24657591},
     {26, 1294, 106496, 1271, 958, 54}},
    {"faulty_ec/cpu_only", 0x48d6f921u, 1700u, 248197u,
     {2568, 2166, 736, 402, 605, 374, 1404, 402, 0, 960, 0, 1427, 376, 5982967},
     {11, 620, 45056, 531, 243, 25}},
    {"faulty_ec/accelerator", 0x7a4c8a7eu, 1200u, 189698u,
     {1886, 1576, 555, 310, 483, 289, 1008, 310, 0, 652, 0, 1027, 243, 4323146},
     {15, 426, 61440, 365, 91, 18}},
    {"faulty_ec/bf2", 0xfc04a4d5u, 1151u, 145096u,
     {1790, 1514, 483, 276, 441, 255, 965, 276, 0, 642, 0, 979, 248, 4105762},
     {15, 411, 61440, 349, 68, 24}},
    {"faulty_ec/smartds", 0xd010e53eu, 1682u, 480034u,
     {2969, 2364, 875, 605, 707, 464, 1485, 605, 0, 804, 0, 1513, 305, 6411752},
     {7, 639, 28672, 468, 190, 20}},
};
// clang-format on

const Pin *
pinned(const std::string &name)
{
    for (const Pin &p : golden)
        if (p.name == name)
            return &p;
    return nullptr;
}

void
PrintTo(const Case &c, std::ostream *os)
{
    *os << c.name;
}

class MiddleTierGolden : public ::testing::TestWithParam<Case>
{
};

TEST_P(MiddleTierGolden, RunMatchesThePinnedRow)
{
    const Case &c = GetParam();
    const Pin seen = observe(c.name, runWriteExperiment(c.config));
    const Pin *want = pinned(c.name);
    ASSERT_NE(want, nullptr) << "no golden row; observed:\n"
                             << pasteReady(seen);
    EXPECT_TRUE(seen == *want) << "observed:\n"
                               << pasteReady(seen) << "\npinned:\n"
                               << pasteReady(*want);
}

INSTANTIATE_TEST_SUITE_P(
    Runs, MiddleTierGolden, ::testing::ValuesIn(cases()),
    [](const ::testing::TestParamInfo<Case> &info) {
        std::string id = info.param.name;
        for (char &ch : id)
            if (ch == '/')
                ch = '_';
        return id;
    });

} // namespace
} // namespace smartds::workload
