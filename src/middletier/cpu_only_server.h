/**
 * @file
 * CPU-only middle-tier server (paper Figure 1a, Section 3.1).
 *
 * Every message lands in host memory in full via the NIC's DMA; host
 * cores parse headers and run LZ4 in software; the compressed block is
 * replicated to storage servers through the same NIC. Compression
 * throughput per core and SMT pairing follow the paper's measurements, so
 * this design needs nearly all 48 logical cores to approach line rate
 * while saturating host memory and the NIC's PCIe link (Figures 7-8).
 */

#ifndef SMARTDS_MIDDLETIER_CPU_ONLY_SERVER_H_
#define SMARTDS_MIDDLETIER_CPU_ONLY_SERVER_H_

#include <memory>

#include "host/core_pool.h"
#include "mem/memory_system.h"
#include "middletier/server_base.h"
#include "nic/rdma_nic.h"
#include "sim/process.h"

namespace smartds::middletier {

/** The traditional software middle tier. */
class CpuOnlyServer : public RequestEngine
{
  public:
    CpuOnlyServer(net::Fabric &fabric, mem::MemorySystem &memory,
                  ServerConfig config);

    net::NodeId frontNode(unsigned port = 0) const override;
    Design design() const override { return Design::CpuOnly; }
    void addUsageProbes(UsageProbes &probes) override;

    nic::RdmaNic &nic() { return *nic_; }
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

    /**
     * On one acquired core: run @p cpu ticks while @p in bytes stream in
     * from host memory and @p out bytes stream back.
     */
    sim::Task<void> stream(Tick cpu, Bytes in, Bytes out);

    mem::MemorySystem &memory_;
    std::unique_ptr<nic::RdmaNic> nic_;
    host::CorePool cores_;
    /** Software compression time for one block on one configured core. */
    Tick compressTicksPerByte_;

    sim::FairShareResource::Flow *rxWrite_;
    sim::FairShareResource::Flow *compressRead_;
    sim::FairShareResource::Flow *compressWrite_;
    sim::FairShareResource::Flow *txRead_;
};

} // namespace smartds::middletier

#endif // SMARTDS_MIDDLETIER_CPU_ONLY_SERVER_H_
