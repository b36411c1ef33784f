#include "middletier/accelerator_server.h"

#include <utility>

#include "common/check.h"
#include "sim/awaitables.h"

namespace smartds::middletier {

AcceleratorServer::AcceleratorServer(net::Fabric &fabric,
                                     mem::MemorySystem &memory,
                                     ServerConfig config)
    : AcceleratorServer(fabric, memory, std::move(config), AccConfig{})
{
}

AcceleratorServer::AcceleratorServer(net::Fabric &fabric,
                                     mem::MemorySystem &memory,
                                     ServerConfig config, AccConfig acc)
    : RequestEngine(fabric, std::move(config)), memory_(memory), acc_(acc),
      nic_(std::make_unique<nic::RdmaNic>(fabric, "acc.nic", &memory)),
      cores_(sim_, "acc.cores", config_.cores)
{
    fpgaPcie_ = std::make_unique<pcie::PcieLink>(sim_, "acc.fpga-pcie");
    pcie::DmaEngine::Config fpga_dma;
    fpga_dma.readWindowBytes = calibration::deviceDmaWindowBytes;
    fpga_dma.writeWindowBytes = calibration::deviceDmaWindowBytes;
    fpgaDma_ = std::make_unique<pcie::DmaEngine>(
        sim_, "acc.fpga-dma", &memory,
        std::vector<sim::BandwidthServer *>{&fpgaPcie_->h2d()},
        std::vector<sim::BandwidthServer *>{&fpgaPcie_->d2h()}, fpga_dma);
    engine_ = std::make_unique<sim::BandwidthServer>(
        sim_, "acc.engine", acc_.engineRate, acc_.engineLatency);

    rxWrite_ = memory.createFlow("acc.rx-write");
    fpgaRead_ = memory.createFlow("acc.fpga-read");
    fpgaWrite_ = memory.createFlow("acc.fpga-write");
    txRead_ = memory.createFlow("acc.tx-read");

    nic_->setRxDmaOptions({rxWrite_, false});
    nic_->onHostReceive([this](net::Message msg) { dispatch(std::move(msg)); });
}

net::NodeId
AcceleratorServer::frontNode(unsigned port) const
{
    SMARTDS_CHECK(port == 0, "Acc server has a single NIC port");
    return nic_->nodeId();
}

void
AcceleratorServer::addUsageProbes(UsageProbes &probes)
{
    probes.add("mem.read", [this]() {
        return fpgaRead_->deliveredBytes() + txRead_->deliveredBytes();
    });
    probes.add("mem.write", [this]() {
        return rxWrite_->deliveredBytes() + fpgaWrite_->deliveredBytes();
    });
    probes.add("pcie.nic.h2d", [this]() {
        return static_cast<double>(nic_->pcieLink().h2d().totalBytes());
    });
    probes.add("pcie.nic.d2h", [this]() {
        return static_cast<double>(nic_->pcieLink().d2h().totalBytes());
    });
    probes.add("pcie.fpga.h2d", [this]() {
        return static_cast<double>(fpgaPcie_->h2d().totalBytes());
    });
    probes.add("pcie.fpga.d2h", [this]() {
        return static_cast<double>(fpgaPcie_->d2h().totalBytes());
    });
}

sim::Task<void>
AcceleratorServer::dmaIn(Bytes bytes, sim::FairShareResource::Flow *flow,
                         bool stall)
{
    sim::Completion done(sim_);
    pcie::DmaEngine::Options opts;
    opts.memFlow = flow;
    opts.stallOnMemory = stall;
    fpgaDma_->read(bytes, opts, [done](Tick) mutable { done.complete(0); });
    co_await done;
}

sim::Task<void>
AcceleratorServer::dmaOut(Bytes bytes)
{
    sim::Completion done(sim_);
    pcie::DmaEngine::Options opts;
    opts.memFlow = fpgaWrite_;
    opts.stallOnMemory = false;
    fpgaDma_->write(bytes, opts, [done](Tick) mutable { done.complete(0); });
    co_await done;
}

sim::Task<void>
AcceleratorServer::chargeWrite(WriteJob &job)
{
    const net::Message &msg = job.msg;
    const Bytes payload = msg.payload.size;
    const Bytes compressed = job.block.size;

    // --- CPU phase 1: parse the header, program the accelerator --------
    co_await chargeParse(msg);
    // Doorbell + descriptor fetch before the card can start its DMA.
    co_await sim::delay(sim_, calibration::pcieIdleLatency);

    // --- FPGA phase: DMA payload in, compress, DMA result back ----------
    // With DDIO the payload was just DMA-written by the NIC and is still
    // LLC-resident, so the FPGA's read needs no DRAM bandwidth; without
    // DDIO it reads DRAM and stalls on loaded latency. The result write
    // allocates in LLC but spills (the intermediate buffer working set is
    // far larger than the DDIO ways), charging DRAM write bandwidth.
    // DDIO hits require the NIC-written lines to still be LLC-resident;
    // an antagonist loading the memory system also thrashes the cache,
    // so the hit rate collapses with utilisation (Figure 9's Acc curve).
    const double u = memory_.utilization();
    const bool ddio_hit = acc_.ddio && !rng_.chance(u * u);
    const Tick engine_start = sim_.now();
    co_await dmaIn(payload, ddio_hit ? nullptr : fpgaRead_, !ddio_hit);
    co_await sim::transferAsync(sim_, *engine_, payload);
    co_await dmaOut(compressed);
    span(msg.trace, trace::Stage::Engine, engine_start);

    // --- Optional EC pass: second trip through the accelerator ----------
    // The FPGA exposes the RS engine next to the compressor, so erasure
    // coding costs another DMA round trip: compressed stripe in, k + m
    // shards out.
    if (config_.policy == ReplicationPolicy::ErasureCode) {
        const Tick ec_start = sim_.now();
        co_await dmaIn(compressed, fpgaRead_, false);
        co_await sim::transferAsync(sim_, *engine_, compressed);
        co_await dmaOut(encodeStripe(job));
        span(msg.trace, trace::Stage::EcEncode, ec_start);
    }

    // --- CPU phase 2: completion handling, post the replicated sends ----
    // Completion notification crosses PCIe before software observes it.
    co_await sim::delay(sim_, calibration::pcieIdleLatency);
    co_await cores_.executeAsync(calibration::hostHeaderParseCost);
}

sim::Task<void>
AcceleratorServer::chargeParse(const net::Message &msg)
{
    const std::uint32_t depth =
        static_cast<std::uint32_t>(cores_.queueDepth());
    const Tick start = sim_.now();
    co_await cores_.executeAsync(calibration::hostHeaderParseCost);
    span(msg.trace, trace::Stage::HostParse, start, depth);
}

sim::Task<void>
AcceleratorServer::chargeCacheHit(const HotBlockCache::Entry &)
{
    // Hot-block cache in host DRAM: no storage fetch and no FPGA trip.
    co_await cores_.executeAsync(calibration::hostPerRequestSoftwareCost);
}

sim::Task<void>
AcceleratorServer::chargeEcDecode(const net::Message &msg, Bytes in,
                                  Bytes out)
{
    // RS decode trip through the card: k shards DMA in, the engine runs
    // the GF(256) math, the stripe DMAs back out.
    co_await sim::delay(sim_, calibration::pcieIdleLatency);
    const Tick decode_start = sim_.now();
    co_await dmaIn(in, fpgaRead_, false);
    co_await sim::transferAsync(sim_, *engine_, out);
    co_await dmaOut(out);
    span(msg.trace, trace::Stage::EcDecode, decode_start);
}

sim::Task<void>
AcceleratorServer::chargeDecompress(const net::Message &msg, Bytes in,
                                    Bytes out)
{
    // The host still fronts the read, but decompression is a round trip
    // through the FPGA card — doorbell and descriptor fetch, compressed
    // block in, decompressed block out, completion back to software.
    co_await sim::delay(sim_, calibration::pcieIdleLatency);
    const Tick engine_start = sim_.now();
    co_await dmaIn(in, fpgaRead_, true);
    co_await sim::transferAsync(sim_, *engine_, out);
    co_await dmaOut(out);
    span(msg.trace, trace::Stage::Engine, engine_start);
    co_await sim::delay(sim_, calibration::pcieIdleLatency);
    co_await cores_.executeAsync(calibration::hostHeaderParseCost);
}

void
AcceleratorServer::postToStorage(net::Message m, unsigned, bool first)
{
    // With DDIO the FPGA's result write is still LLC-resident for the
    // NIC's reads; without DDIO the first send fetches from DRAM.
    const bool from_dram = first && !acc_.ddio;
    pcie::DmaEngine::Options tx;
    tx.memFlow = from_dram ? txRead_ : nullptr;
    tx.stallOnMemory = from_dram;
    nic_->setTxDmaOptions(tx);
    nic_->sendFromHost(std::move(m));
}

sim::Task<void>
AcceleratorServer::replyToVm(net::Message reply, unsigned, bool)
{
    // Read replies DMA their plaintext out of host memory.
    const bool payload = reply.kind == net::MessageKind::ReadReply;
    nic_->setTxDmaOptions({payload ? txRead_ : nullptr, payload});
    nic_->sendFromHost(std::move(reply));
    co_return;
}

} // namespace smartds::middletier
