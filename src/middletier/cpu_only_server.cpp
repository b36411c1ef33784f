#include "middletier/cpu_only_server.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "lz4/lz4.h"
#include "sim/awaitables.h"

namespace smartds::middletier {

CpuOnlyServer::CpuOnlyServer(net::Fabric &fabric, mem::MemorySystem &memory,
                             ServerConfig config)
    : RequestEngine(fabric, std::move(config)), memory_(memory),
      nic_(std::make_unique<nic::RdmaNic>(fabric, "cpuonly.nic", &memory)),
      cores_(sim_, "cpuonly.cores", config_.cores)
{
    const BytesPerSecond per_core =
        host::perCoreCompressionRate(config_.cores) *
        lz4::effortSpeedFactor(config_.effort);
    compressTicksPerByte_ = transferTicks(1, per_core);

    rxWrite_ = memory.createFlow("cpuonly.rx-write");
    compressRead_ = memory.createFlow("cpuonly.compress-read");
    compressWrite_ = memory.createFlow("cpuonly.compress-write");
    txRead_ = memory.createFlow("cpuonly.tx-read");

    // Received messages DMA into host memory (posted writes).
    nic_->setRxDmaOptions({rxWrite_, false});
    nic_->onHostReceive([this](net::Message msg) { dispatch(std::move(msg)); });
}

net::NodeId
CpuOnlyServer::frontNode(unsigned port) const
{
    SMARTDS_CHECK(port == 0, "CPU-only server has a single NIC port");
    return nic_->nodeId();
}

void
CpuOnlyServer::addUsageProbes(UsageProbes &probes)
{
    probes.add("mem.read", [this]() {
        return compressRead_->deliveredBytes() + txRead_->deliveredBytes();
    });
    probes.add("mem.write", [this]() {
        return rxWrite_->deliveredBytes() + compressWrite_->deliveredBytes();
    });
    probes.add("pcie.nic.h2d", [this]() {
        return static_cast<double>(nic_->pcieLink().h2d().totalBytes());
    });
    probes.add("pcie.nic.d2h", [this]() {
        return static_cast<double>(nic_->pcieLink().d2h().totalBytes());
    });
}

sim::Task<void>
CpuOnlyServer::stream(Tick cpu, Bytes in, Bytes out)
{
    auto run = sim::timerAsync(sim_, cpu);
    auto mem_in = sim::transferAsync(sim_, *compressRead_, in);
    auto mem_out = sim::transferAsync(sim_, *compressWrite_, out);
    co_await run;
    co_await mem_in;
    co_await mem_out;
}

sim::Task<void>
CpuOnlyServer::chargeWrite(WriteJob &job)
{
    // --- CPU phase: parse header, decide placement, compress ------------
    // The core is held for the software time; concurrently the
    // compression streams the block through host memory (read the input,
    // write the compressed output). The phase ends when both are done.
    // LZ4's software speed depends on content: match-heavy blocks copy,
    // incompressible blocks skip-accelerate, and mixed blocks pay full
    // search cost — scale the calibrated mean rate by compressibility so
    // per-request times (and thus tails) vary the way real blocks do.
    // Software on a busy SMT core also jitters with cache/TLB pressure;
    // hardware engines do not (their pipelines are deterministic), which
    // is one reason the paper's software tails fan out under load.
    const net::Message &msg = job.msg;
    const Bytes payload = msg.payload.size;
    const Bytes compressed = job.block.size;
    const double content_factor = 0.7 + 0.55 * msg.payload.compressibility;
    const double smt_jitter = 0.9 + 0.35 * rng_.uniform();
    // A core keeps only hostCoreMlp cache-line misses in flight, so under
    // memory pressure its streaming bandwidth caps at mlp*64/latency and
    // software compression becomes memory-latency-bound (Figure 9).
    const double mem_bound_rate =
        static_cast<double>(calibration::hostCoreMlp) * 64.0 /
        toSeconds(memory_.loadedLatency());
    const double nominal_rate =
        1.0 / toSeconds(compressTicksPerByte_); // bytes/second
    const double effective_rate = std::min(nominal_rate, mem_bound_rate);
    const Tick compress_ticks = transferTicks(
        payload, effective_rate / (content_factor * smt_jitter));

    const std::uint32_t compute_depth =
        static_cast<std::uint32_t>(cores_.queueDepth());
    const Tick compute_start = sim_.now();
    co_await cores_.acquire();
    co_await stream(calibration::hostPerRequestSoftwareCost + compress_ticks,
                    payload, compressed);
    cores_.release();
    span(msg.trace, trace::Stage::HostCompute, compute_start, compute_depth);

    // --- Erasure-code the compressed block into k + m shards ------------
    // Under the EC policy the host pays the GF(256) multiply-accumulate
    // work in software: the compressed stripe streams back through the
    // core once for the parity products (NIC designs offload exactly
    // this; Di Girolamo et al.).
    if (config_.policy == ReplicationPolicy::ErasureCode) {
        const Tick encode_start = sim_.now();
        co_await cores_.acquire();
        const Bytes shard_total = encodeStripe(job);
        co_await stream(calibration::hostPerRequestSoftwareCost +
                            transferTicks(compressed,
                                          calibration::hostEcEncodeRate),
                        compressed, shard_total);
        cores_.release();
        span(msg.trace, trace::Stage::EcEncode, encode_start);
    }
}

sim::Task<void>
CpuOnlyServer::chargeParse(const net::Message &msg)
{
    const std::uint32_t depth =
        static_cast<std::uint32_t>(cores_.queueDepth());
    const Tick start = sim_.now();
    co_await cores_.executeAsync(calibration::hostHeaderParseCost);
    span(msg.trace, trace::Stage::HostParse, start, depth);
}

sim::Task<void>
CpuOnlyServer::chargeCacheHit(const HotBlockCache::Entry &)
{
    // The plaintext is already in host memory: one software pass.
    co_await cores_.executeAsync(calibration::hostPerRequestSoftwareCost);
}

sim::Task<void>
CpuOnlyServer::chargeEcDecode(const net::Message &msg, Bytes in, Bytes out)
{
    // Software decode: stream k shards through the core and write the
    // reconstructed stripe.
    const Tick decode_start = sim_.now();
    co_await cores_.acquire();
    co_await stream(calibration::hostPerRequestSoftwareCost +
                        transferTicks(out, calibration::hostEcDecodeRate),
                    in, out);
    cores_.release();
    span(msg.trace, trace::Stage::EcDecode, decode_start);
}

sim::Task<void>
CpuOnlyServer::chargeDecompress(const net::Message &msg, Bytes in, Bytes out)
{
    // Decompress in software (7x faster than compression per core).
    const Tick cpu_time =
        calibration::hostPerRequestSoftwareCost +
        compressTicksPerByte_ * out /
            static_cast<Tick>(calibration::lz4DecompressSpeedup);
    const std::uint32_t compute_depth =
        static_cast<std::uint32_t>(cores_.queueDepth());
    const Tick compute_start = sim_.now();
    co_await cores_.acquire();
    co_await stream(cpu_time, in, out);
    cores_.release();
    span(msg.trace, trace::Stage::HostCompute, compute_start, compute_depth);
}

void
CpuOnlyServer::postToStorage(net::Message m, unsigned, bool first)
{
    // The first replica read misses the LLC (the compressed block is
    // fetched once from memory); the remaining sends hit.
    pcie::DmaEngine::Options tx;
    tx.memFlow = first ? txRead_ : nullptr;
    tx.stallOnMemory = first;
    nic_->setTxDmaOptions(tx);
    nic_->sendFromHost(std::move(m));
}

sim::Task<void>
CpuOnlyServer::replyToVm(net::Message reply, unsigned, bool)
{
    // Read replies DMA their plaintext out of host memory.
    const bool payload = reply.kind == net::MessageKind::ReadReply;
    nic_->setTxDmaOptions({payload ? txRead_ : nullptr, payload});
    nic_->sendFromHost(std::move(reply));
    co_return;
}

} // namespace smartds::middletier
