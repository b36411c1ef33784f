#include "middletier/bf2_server.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "middletier/protocol.h"
#include "sim/awaitables.h"

namespace smartds::middletier {

Bf2Server::Bf2Server(net::Fabric &fabric, ServerConfig config)
    : Bf2Server(fabric, std::move(config), Bf2Config{})
{
}

Bf2Server::Bf2Server(net::Fabric &fabric, ServerConfig config, Bf2Config bf2)
    : RequestEngine(fabric, std::move(config)), bf2_(bf2),
      devMemory_(sim_, "bf2.dram", bf2.memoryBandwidth),
      arm_(sim_, "bf2.arm",
           std::min(config_.cores, calibration::bf2ArmCores))
{
    for (unsigned i = 0; i < bf2_.ports; ++i) {
        auto *port =
            fabric.createPort("bf2.p" + std::to_string(i));
        port->onReceive([this, i](net::Message msg) {
            if (msg.kind == net::MessageKind::WriteReplicaAck) {
                dispatch(std::move(msg), i);
                return;
            }
            // Requests and fetched blocks land in device DRAM before the
            // Arm cores see them.
            auto msg_ptr = std::make_shared<net::Message>(std::move(msg));
            rxWrite_->transfer(msg_ptr->wireBytes(), [this, i, msg_ptr]() {
                dispatch(std::move(*msg_ptr), i);
            });
        });
        ports_.push_back(port);
    }
    rxWrite_ = devMemory_.createFlow("bf2.rx-write");
    engineRead_ = devMemory_.createFlow("bf2.engine-read");
    engineWrite_ = devMemory_.createFlow("bf2.engine-write");
    txRead_ = devMemory_.createFlow("bf2.tx-read");
    engine_ = std::make_unique<sim::BandwidthServer>(
        sim_, "bf2.engine", bf2_.engineRate, bf2_.engineLatency);
    // BF2's software path is SmartDS-like (headers only, no payload
    // touch), but runs on wimpy Arm cores.
    // simlint: allow(tick-float): one-time setup from calibration
    // constants; every run of the same binary computes the same cost
    armRequestCost_ = static_cast<Tick>(
        static_cast<double>(calibration::smartdsHostRequestCost) *
        bf2_.armSlowdown);
}

net::NodeId
Bf2Server::frontNode(unsigned port) const
{
    SMARTDS_CHECK(port < ports_.size(), "BF2 port index out of range");
    return ports_[port]->id();
}

void
Bf2Server::addUsageProbes(UsageProbes &probes)
{
    // BF2 touches neither host memory nor host PCIe; its own device DRAM
    // traffic is reported under dev.* so benchmarks can show the 3.5x
    // device-memory amplification of Section 3.4.
    probes.add("mem.read", []() { return 0.0; });
    probes.add("mem.write", []() { return 0.0; });
    probes.add("dev.mem.read", [this]() {
        return engineRead_->deliveredBytes() + txRead_->deliveredBytes();
    });
    probes.add("dev.mem.write", [this]() {
        return rxWrite_->deliveredBytes() + engineWrite_->deliveredBytes();
    });
}

sim::Task<void>
Bf2Server::engineTrip(Bytes in, Bytes engine, Bytes out)
{
    co_await sim::transferAsync(sim_, *engineRead_, in);
    co_await sim::transferAsync(sim_, *engine_, engine);
    co_await sim::transferAsync(sim_, *engineWrite_, out);
}

sim::Task<void>
Bf2Server::chargeWrite(WriteJob &job)
{
    const net::Message &msg = job.msg;
    job.block = compressBlock(job);
    const Bytes payload = msg.payload.size;
    const Bytes compressed = job.block.size;

    // --- Arm phase: parse the header, drive the engine ------------------
    co_await chargeParse(msg);

    // --- Off-path engine: DRAM read -> compress -> DRAM write -----------
    if (job.compress) {
        const Tick engine_start = sim_.now();
        co_await engineTrip(payload, payload, compressed);
        span(msg.trace, trace::Stage::Engine, engine_start);
    }

    // --- Optional EC pass: another engine trip through device DRAM ------
    // BF2 runs erasure coding on the same off-path accelerator complex:
    // read the compressed stripe from DRAM, RS-encode, write k + m
    // shards back — more pressure on the already-narrow device DRAM.
    if (config_.policy == ReplicationPolicy::ErasureCode) {
        const Tick ec_start = sim_.now();
        co_await sim::transferAsync(sim_, *engineRead_, compressed);
        co_await sim::transferAsync(sim_, *engine_, compressed);
        co_await sim::transferAsync(sim_, *engineWrite_, encodeStripe(job));
        span(msg.trace, trace::Stage::EcEncode, ec_start);
    }
}

sim::Task<void>
Bf2Server::chargeParse(const net::Message &msg)
{
    const std::uint32_t depth = static_cast<std::uint32_t>(arm_.queueDepth());
    const Tick start = sim_.now();
    co_await arm_.executeAsync(armRequestCost_);
    span(msg.trace, trace::Stage::HostParse, start, depth);
}

sim::Task<void>
Bf2Server::chargeCacheHit(const HotBlockCache::Entry &hit)
{
    // Hot-block cache in device DRAM: a hit costs one DRAM read of the
    // plain bytes on the tx flow, no fabric fetch and no engine trip.
    co_await sim::transferAsync(sim_, *txRead_, hit.plainSize);
}

sim::Task<void>
Bf2Server::chargeEcDecode(const net::Message &msg, Bytes in, Bytes out)
{
    // RS decode on the engine: k shards from DRAM, stripe back.
    const Tick decode_start = sim_.now();
    co_await engineTrip(in, out, out);
    span(msg.trace, trace::Stage::EcDecode, decode_start);
}

sim::Task<void>
Bf2Server::chargeDecompress(const net::Message &msg, Bytes in, Bytes out)
{
    // The fetched block sits in device DRAM; the off-path engine
    // decompresses it, every byte crossing the narrow DRAM both ways.
    const Tick engine_start = sim_.now();
    co_await engineTrip(in, out, out);
    span(msg.trace, trace::Stage::Engine, engine_start);
}

void
Bf2Server::postToStorage(net::Message m, unsigned lane, bool)
{
    // Every send re-reads its bytes from device DRAM (the narrow on-card
    // DRAM is the 3.5x-traffic bottleneck of 3.4): a replica its block,
    // a fetch only its header. Sends rotate over the ports.
    const Bytes tx_bytes = m.kind == net::MessageKind::WriteReplica
                               ? m.payload.size
                               : StorageHeader::wireSize;
    auto *out_port = ports_[lane % ports_.size()];
    auto msg_ptr = std::make_shared<net::Message>(std::move(m));
    txRead_->transfer(tx_bytes, [out_port, msg_ptr]() {
        out_port->send(std::move(*msg_ptr));
    });
}

sim::Task<void>
Bf2Server::replyToVm(Front &front, net::Message reply, Reply body)
{
    // The reply leaves from device DRAM: its plaintext (unless the cache
    // hit already read it), or just the header of a write ack.
    if (body != Reply::Cached)
        co_await sim::transferAsync(sim_, *txRead_,
                                    reply.payload.size
                                        ? reply.payload.size
                                        : StorageHeader::wireSize);
    ports_[front.port]->send(std::move(reply));
}

} // namespace smartds::middletier
