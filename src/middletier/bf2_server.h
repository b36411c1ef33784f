/**
 * @file
 * SoC-based SmartNIC middle-tier server ("BF2", paper Figure 1d,
 * Section 3.4).
 *
 * A BlueField-2-like device serves requests entirely on-card: messages
 * land in the SmartNIC's DRAM, wimpy Arm cores parse headers, and an
 * off-path compression engine (~40 Gbps total) transforms payloads. The
 * host is never involved — which gives the lowest unloaded latency — but
 * the engine and the narrow device DRAM cap throughput, and Arm-core
 * queueing inflates the tails once more than one core's worth of load is
 * offered (Figure 7).
 */

#ifndef SMARTDS_MIDDLETIER_BF2_SERVER_H_
#define SMARTDS_MIDDLETIER_BF2_SERVER_H_

#include <memory>
#include <vector>

#include "host/core_pool.h"
#include "middletier/server_base.h"
#include "net/fabric.h"
#include "sim/bandwidth_server.h"
#include "sim/fair_share.h"
#include "sim/process.h"

namespace smartds::middletier {

/** The "BF2" baseline: SoC SmartNIC with on-card Arm cores + engine. */
class Bf2Server : public RequestEngine
{
  public:
    struct Bf2Config
    {
        /** Networking ports (BF2: 2x100GbE). */
        unsigned ports = calibration::bf2Ports;
        /** Total compression-engine throughput (paper: ~40 Gbps). */
        BytesPerSecond engineRate = calibration::bf2EngineBandwidth;
        /** Engine fixed latency per block. */
        Tick engineLatency = calibration::bf2EngineBlockLatency;
        /** Achievable device DRAM bandwidth. */
        BytesPerSecond memoryBandwidth = calibration::bf2DeviceMemoryBandwidth;
        /** Arm parse slowdown relative to the host Xeon. */
        double armSlowdown = calibration::bf2ArmSlowdown;
    };

    Bf2Server(net::Fabric &fabric, ServerConfig config);
    Bf2Server(net::Fabric &fabric, ServerConfig config, Bf2Config bf2);

    net::NodeId frontNode(unsigned port = 0) const override;
    unsigned frontPorts() const override { return bf2_.ports; }
    Design design() const override { return Design::Bf2; }
    void addUsageProbes(UsageProbes &probes) override;

    host::CorePool &armCores() { return arm_; }

  private:
    sim::Task<void> chargeWrite(WriteJob &job) override;
    sim::Task<void> chargeParse(const net::Message &msg) override;
    sim::Task<void> chargeCacheHit(const HotBlockCache::Entry &hit) override;
    sim::Task<void> chargeEcDecode(const net::Message &msg, Bytes in,
                                   Bytes out) override;
    sim::Task<void> chargeDecompress(const net::Message &msg, Bytes in,
                                     Bytes out) override;
    void postToStorage(net::Message m, unsigned lane, bool first) override;
    sim::Task<void> replyToVm(Front &front, net::Message reply,
                              Reply body) override;

    /** Off-path engine trip: DRAM read -> engine -> DRAM write. */
    sim::Task<void> engineTrip(Bytes in, Bytes engine, Bytes out);

    Bf2Config bf2_;
    std::vector<net::Port *> ports_;
    sim::FairShareResource devMemory_;
    sim::FairShareResource::Flow *rxWrite_;
    sim::FairShareResource::Flow *engineRead_;
    sim::FairShareResource::Flow *engineWrite_;
    sim::FairShareResource::Flow *txRead_;
    std::unique_ptr<sim::BandwidthServer> engine_;
    host::CorePool arm_;
    Tick armRequestCost_;
};

} // namespace smartds::middletier

#endif // SMARTDS_MIDDLETIER_BF2_SERVER_H_
