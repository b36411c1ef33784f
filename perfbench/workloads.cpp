#include "workloads.h"

#include <sstream>

namespace smartds::perfbench {

namespace {

using middletier::Design;
using workload::ExperimentConfig;

/**
 * Closed-loop clients scaled to saturate the design (0 = the harness's
 * auto count), measured over 12 ms after 4 ms of warmup: the figure
 * benches' saturating point.
 */
ExperimentConfig
saturating(Design design, unsigned cores, unsigned ports, std::uint64_t seed)
{
    ExperimentConfig config;
    config.design = design;
    config.cores = cores;
    config.ports = ports;
    config.warmup = 4 * ticksPerMillisecond;
    config.window = 12 * ticksPerMillisecond;
    config.seed = seed;
    config.faultSeed = seed * 0x9e3779b97f4a7c15ull + 0xfa17;
    return config;
}

/** Two requests in flight per client, about one per serving unit. */
ExperimentConfig
moderate(Design design, unsigned cores, unsigned ports, std::uint64_t seed)
{
    ExperimentConfig config = saturating(design, cores, ports, seed);
    config.outstandingPerClient = 2;
    config.clients =
        design == Design::CpuOnly ? std::max(1u, cores / 2) : 8 * ports;
    return config;
}

/**
 * The paper's headline path: the four designs at their Fig 7 peak
 * configurations plus SmartDS and CPU-only at moderate load, writes
 * only, 3-way replication through the chunk manager.
 */
Workload
fig7Writes(std::uint64_t seed)
{
    Workload w;
    w.name = "fig7_writes";
    w.fig7Reference = true;
    w.runs = {
        {"cpu_only.sat", saturating(Design::CpuOnly, 48, 1, seed), true},
        {"accelerator.sat", saturating(Design::Accelerator, 2, 1, seed),
         true},
        {"bf2.sat", saturating(Design::Bf2, 4, 2, seed), true},
        {"smartds.sat", saturating(Design::SmartDs, 2, 1, seed), true},
        {"smartds.mod", moderate(Design::SmartDs, 2, 1, seed), false},
        {"cpu_only.mod", moderate(Design::CpuOnly, 48, 1, seed), false},
    };
    w.verifyRun = 4;
    return w;
}

/**
 * Functional datapath: real corpus bytes at effort 8 through the codec
 * cache, 40% zipf-0.99 reads over a 64 MiB disk, RS(4,2) over 12 nodes
 * in 4 racks, and a 16 MiB hot-block read cache.
 */
Workload
functionalEcRw(std::uint64_t seed)
{
    Workload w;
    w.name = "functional_ec_rw";
    auto make = [seed](Design design, unsigned cores,
                       middletier::ReadCachePlacement placement) {
        ExperimentConfig c = saturating(design, cores, 1, seed);
        c.functional = true;
        c.blockCache = true;
        c.effort = 8;
        // 40% reads, not 50%: the defect makes nearly every read fail
        // fast, so at a 50/50 mix the median sat on the boundary between
        // the read and write latency modes and flipped between them from
        // seed to seed (268-701 us over seeds 1-5).
        c.readFraction = 0.4;
        c.zipfTheta = 0.99;
        c.virtualDiskBytes = mebibytes(64);
        c.replicationPolicy = middletier::ReplicationPolicy::ErasureCode;
        c.ecDataShards = 4;
        c.ecParityShards = 2;
        c.storageServers = 12;
        c.failureDomains = 4;
        c.readCacheBytes = mebibytes(16);
        c.readCachePlacement = placement;
        c.window = 16 * ticksPerMillisecond;
        return c;
    };
    w.runs = {
        {"smartds.sat",
         make(Design::SmartDs, 2, middletier::ReadCachePlacement::DeviceHbm),
         true},
        {"cpu_only.sat",
         make(Design::CpuOnly, 48, middletier::ReadCachePlacement::HostDram),
         true},
    };
    w.verifyRun = 1;
    return w;
}

/**
 * A faulty 144-node pool in 8 racks: crash churn, gray failures, bit
 * flips and 8 slow nodes under 30% reads with a 2-of-3 write quorum.
 */
Workload
faultyPool(std::uint64_t seed)
{
    Workload w;
    w.name = "faulty_pool";
    auto make = [seed](Design design, unsigned cores, unsigned ports) {
        ExperimentConfig c = saturating(design, cores, ports, seed);
        c.readFraction = 0.3;
        c.storageServers = 144;
        c.failureDomains = 8;
        c.crashMeanInterval = 1 * ticksPerMillisecond;
        c.ackDropProbability = 0.01;
        c.corruptProbability = 0.005;
        // 8 slow nodes, not 4: with 4 of 144 fewer than 1% of requests
        // touched a slow node, so p99 sat on the edge of the slow mode and
        // jumped from 111 to 159 us between seeds; with 8 it lies inside
        // it (165-169 us over seeds 1-6).
        c.slowNodes = 8;
        c.ackQuorum = 2;
        // Twice the figure window: the tail is set by the crash timeline,
        // and a longer window averages over more crashes per run.
        c.window = 24 * ticksPerMillisecond;
        return c;
    };
    w.runs = {
        {"smartds.sat", make(Design::SmartDs, 2, 2), true},
        {"cpu_only.sat", make(Design::CpuOnly, 24, 1), true},
    };
    w.verifyRun = 1;
    return w;
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "fig7_writes", "functional_ec_rw", "faulty_pool"};
    return names;
}

std::optional<Workload>
makeWorkload(const std::string &name, std::uint64_t seed)
{
    if (name == "fig7_writes")
        return fig7Writes(seed);
    if (name == "functional_ec_rw")
        return functionalEcRw(seed);
    if (name == "faulty_pool")
        return faultyPool(seed);
    return std::nullopt;
}

const char *
designKey(Design design)
{
    switch (design) {
      case Design::CpuOnly:
        return "cpu_only";
      case Design::Accelerator:
        return "accelerator";
      case Design::Bf2:
        return "bf2";
      case Design::SmartDs:
        return "smartds";
    }
    return "unknown";
}

std::string
describeConfig(const ExperimentConfig &c)
{
    std::ostringstream out;
    out.precision(17);
    out << "design=" << designKey(c.design) << "\ncores=" << c.cores
        << "\nports=" << c.ports << "\nddio=" << c.ddio
        << "\nclients=" << c.clients
        << "\noutstandingPerClient=" << c.outstandingPerClient
        << "\nstorageServers=" << c.storageServers
        << "\nwarmup=" << c.warmup << "\nwindow=" << c.window
        << "\ntimingDomains=" << c.timingDomains << "\nshards=" << c.shards
        << "\nmlcDelayCycles=" << c.mlcDelayCycles
        << "\nmlcCores=" << c.mlcCores << "\neffort=" << c.effort
        << "\nlatencySensitiveFraction=" << c.latencySensitiveFraction
        << "\nreadFraction=" << c.readFraction
        << "\nblockBytes=" << c.blockBytes
        << "\nvirtualDiskBytes=" << c.virtualDiskBytes
        << "\nzipfTheta=" << c.zipfTheta;
    for (const auto &cls : c.workloadClasses)
        out << "\nworkloadClass=" << cls.readFraction << ","
            << cls.zipfTheta << "," << cls.latencySensitiveFraction;
    for (const auto &ph : c.loadPhases)
        out << "\nloadPhase=" << ph.duration << "," << ph.thinkScale;
    out << "\nreadCacheBytes=" << c.readCacheBytes
        << "\nreadCachePlacement="
        << static_cast<unsigned>(c.readCachePlacement)
        << "\nreplication=" << c.replication << "\nreplicationPolicy="
        << static_cast<unsigned>(c.replicationPolicy)
        << "\necDataShards=" << c.ecDataShards
        << "\necParityShards=" << c.ecParityShards
        << "\nfailureDomains=" << c.failureDomains << "\nseed=" << c.seed
        << "\nworkersPerPort=" << c.workersPerPort << "\ncards=" << c.cards
        << "\nmaintenance=" << static_cast<unsigned>(c.maintenance)
        << "\nmaintenanceCores=" << c.maintenanceCores
        << "\nmaintenanceBurstBytes=" << c.maintenanceBurstBytes
        << "\nmaintenanceMeanInterval=" << c.maintenanceMeanInterval
        << "\nuseChunkManager=" << c.useChunkManager
        << "\ncompactionThreshold=" << c.compactionThreshold
        << "\ncrashMeanInterval=" << c.crashMeanInterval
        << "\ncrashOutage=" << c.crashOutage
        << "\nackDropProbability=" << c.ackDropProbability
        << "\ncorruptProbability=" << c.corruptProbability
        << "\nslowNodes=" << c.slowNodes
        << "\nslowLatencyFactor=" << c.slowLatencyFactor
        << "\nslowBandwidthFactor=" << c.slowBandwidthFactor
        << "\ndomainCrashAt=" << c.domainCrashAt
        << "\ndomainCrashOutage=" << c.domainCrashOutage
        << "\nackQuorum=" << c.ackQuorum
        << "\nreplicaAckTimeout=" << c.replicaAckTimeout
        << "\nreplicaMaxRetries=" << c.replicaMaxRetries
        << "\nfaultSeed=" << c.faultSeed
        << "\ntraceSample=" << c.traceSample
        << "\ntraceEvents=" << c.traceEvents << "\ndsan=" << c.dsan
        << "\nfunctional=" << c.functional
        << "\nblockCache=" << c.blockCache << "\n";
    return out.str();
}

} // namespace smartds::perfbench
