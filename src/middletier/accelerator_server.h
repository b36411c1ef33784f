/**
 * @file
 * Accelerator-enhanced middle-tier server (paper Figure 1b, Section 3.2).
 *
 * Like CPU-only, every message lands in host memory through the NIC; the
 * host CPU then directs a PCIe-attached FPGA card (Alveo U280) to DMA the
 * payload, compress it at 100 Gbps, and DMA the result back. Compression
 * no longer consumes CPU cores, but the payload crosses PCIe twice more,
 * and — depending on DDIO — host memory read or write bandwidth stays
 * loaded (Figures 7-9).
 */

#ifndef SMARTDS_MIDDLETIER_ACCELERATOR_SERVER_H_
#define SMARTDS_MIDDLETIER_ACCELERATOR_SERVER_H_

#include <memory>

#include "host/core_pool.h"
#include "mem/memory_system.h"
#include "middletier/server_base.h"
#include "nic/rdma_nic.h"
#include "sim/bandwidth_server.h"
#include "sim/process.h"

namespace smartds::middletier {

/** The "Acc" baseline: NIC + discrete FPGA compression card. */
class AcceleratorServer : public RequestEngine
{
  public:
    struct AccConfig
    {
        /** Engine throughput on the U280 (paper: up to 100 Gbps). */
        BytesPerSecond engineRate = calibration::smartdsEnginePerPort;
        /** Engine fixed latency per block (FPGA pipeline). */
        Tick engineLatency = calibration::fpgaEngineBlockLatency;
        /** Whether Intel DDIO is enabled (Figure 8a's w/ vs w/o). */
        bool ddio = true;
    };

    AcceleratorServer(net::Fabric &fabric, mem::MemorySystem &memory,
                      ServerConfig config);
    AcceleratorServer(net::Fabric &fabric, mem::MemorySystem &memory,
                      ServerConfig config, AccConfig acc);

    net::NodeId frontNode(unsigned port = 0) const override;
    Design design() const override { return Design::Accelerator; }
    void addUsageProbes(UsageProbes &probes) override;

    nic::RdmaNic &nic() { return *nic_; }
    pcie::PcieLink &fpgaLink() { return *fpgaPcie_; }
    host::CorePool &cores() { return cores_; }

  private:
    sim::Task<void> chargeWrite(WriteJob &job) override;
    sim::Task<void> chargeParse(const net::Message &msg) override;
    sim::Task<void> chargeCacheHit(const HotBlockCache::Entry &hit) override;
    sim::Task<void> chargeEcDecode(const net::Message &msg, Bytes in,
                                   Bytes out) override;
    sim::Task<void> chargeDecompress(const net::Message &msg, Bytes in,
                                     Bytes out) override;
    void postToStorage(net::Message m, unsigned lane, bool first) override;
    sim::Task<void> replyToVm(net::Message reply, unsigned port,
                              bool cached) override;

    /** The FPGA DMA-reads @p bytes from host memory through @p flow. */
    sim::Task<void> dmaIn(Bytes bytes, sim::FairShareResource::Flow *flow,
                          bool stall);
    /** The FPGA DMA-writes @p bytes of results back to host memory. */
    sim::Task<void> dmaOut(Bytes bytes);

    mem::MemorySystem &memory_;
    AccConfig acc_;
    std::unique_ptr<nic::RdmaNic> nic_;
    std::unique_ptr<pcie::PcieLink> fpgaPcie_;
    std::unique_ptr<pcie::DmaEngine> fpgaDma_;
    std::unique_ptr<sim::BandwidthServer> engine_;
    host::CorePool cores_;

    sim::FairShareResource::Flow *rxWrite_;
    sim::FairShareResource::Flow *fpgaRead_;
    sim::FairShareResource::Flow *fpgaWrite_;
    sim::FairShareResource::Flow *txRead_;
};

} // namespace smartds::middletier

#endif // SMARTDS_MIDDLETIER_ACCELERATOR_SERVER_H_
