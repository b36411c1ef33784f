#include "middletier/smartds_server.h"

#include <algorithm>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/checksum.h"
#include "common/check.h"
#include "lz4/lz4.h"
#include "middletier/protocol.h"
#include "sim/awaitables.h"

namespace smartds::middletier {

using device::SmartDsDevice;

namespace {

/**
 * The storage header that landed in host buffer @p h, decoded over the
 * bytes the split actually wrote there: nullopt (fail closed) when
 * fewer than StorageHeader::wireSize arrived.
 */
std::optional<StorageHeader>
landedHeader(const device::Buffer &h)
{
    const std::vector<std::uint8_t> &bytes = *h.bytes();
    return StorageHeader::decode(std::span<const std::uint8_t>(
        bytes.data(), std::min<std::size_t>(h.content.size, bytes.size())));
}

} // namespace

SmartDsServer::SmartDsServer(net::Fabric &fabric, mem::MemorySystem &memory,
                             ServerConfig config, SmartDsConfig smartds)
    : RequestEngine(fabric, std::move(config)), smartds_(smartds),
      cores_(sim_, "smartds.cores", config_.cores)
{
    smartds_.device.ports = smartds_.ports;
    smartds_.device.effort = config_.effort;
    // The EC policy loads the optional RS engine bitstream component.
    if (config_.policy == ReplicationPolicy::ErasureCode)
        smartds_.device.ecEngine = true;
    device_ = std::make_unique<SmartDsDevice>(fabric, "smartds", &memory,
                                              smartds_.device);
    if (readCache_ &&
        config_.readCache.placement == ReadCachePlacement::DeviceHbm) {
        // The cache's capacity comes out of the HBM budget (reserve is
        // fatal on exhaustion, so an oversized cache fails loudly), and
        // every hit's device-DRAM read is billed to a fair-share flow
        // competing with the datapath's own HBM traffic. The cached
        // blocks themselves live in the HotBlockCache entries, so the
        // reservation is accounting only and holds no host bytes.
        device_->hbm().reserve(config_.readCache.capacityBytes);
        cacheFlow_ = device_->hbm().createFlow("smartds.cache");
    }
    for (unsigned p = 0; p < smartds_.ports; ++p) {
        requestQps_.push_back(device_->createQp(p));
        for (unsigned w = 0; w < smartds_.workersPerPort; ++w)
            sim::spawn(sim_, worker(p));
    }
}

net::NodeId
SmartDsServer::frontNode(unsigned port) const
{
    return device_->nodeId(port);
}

net::QpId
SmartDsServer::frontQp(unsigned port) const
{
    SMARTDS_CHECK(port < requestQps_.size(), "port index out of range");
    return requestQps_[port].local;
}

void
SmartDsServer::addUsageProbes(UsageProbes &probes)
{
    probes.add("mem.read", [this]() {
        auto *f = device_->headerReadFlow();
        return f ? f->deliveredBytes() : 0.0;
    });
    probes.add("mem.write", [this]() {
        auto *f = device_->headerWriteFlow();
        return f ? f->deliveredBytes() : 0.0;
    });
    probes.add("pcie.smartds.h2d", [this]() {
        return static_cast<double>(device_->pcieLink().h2d().totalBytes());
    });
    probes.add("pcie.smartds.d2h", [this]() {
        return static_cast<double>(device_->pcieLink().d2h().totalBytes());
    });
}

void
SmartDsServer::forwardAck(SmartDsDevice::Event ack)
{
    // A plain callback, so a node that never answers leaks nothing; a
    // flushed receive completes at kind Raw and is ignored.
    ack.completion.onComplete([this, msg = ack.message](std::uint64_t) {
        if (msg && msg->kind == net::MessageKind::WriteReplicaAck)
            deliverAck(msg->tag, msg->src);
    });
}

sim::Process
SmartDsServer::repairReplica(unsigned port, net::NodeId dst,
                             device::BufferRef h, device::BufferRef d,
                             Bytes size, std::uint64_t tag, Tick issue)
{
    SmartDsDevice::Qp qp = device_->createQp(port);
    device_->connect(qp, dst, 0);
    // The node's ack usually counts as stale: the serving path already
    // gave this replica up.
    forwardAck(device_->mixedRecv(qp, h, StorageHeader::wireSize, nullptr, 0));
    auto sent = device_->mixedSend(qp, h, StorageHeader::wireSize, d, size,
                                   net::MessageKind::WriteReplica, tag,
                                   issue);
    co_await sent.completion;
}

sim::Process
SmartDsServer::worker(unsigned port)
{
    // --- Listing-1 setup: allocate buffers, connect queue pairs ---------
    const Bytes max_block = smartds_.maxBlockBytes;
    Worker w;
    w.port = port;
    w.hRecv = device_->hostAlloc(StorageHeader::wireSize);
    w.hSend = device_->hostAlloc(StorageHeader::wireSize);
    w.hFetch = device_->hostAlloc(StorageHeader::wireSize);
    w.dRecv = device_->devAlloc(max_block);
    w.dSend = device_->devAlloc(lz4::maxCompressedSize(max_block));
    const unsigned fanout = config_.writeFanout();
    for (unsigned r = 0; r < fanout; ++r) {
        w.replicaQps.push_back(device_->createQp(port));
        w.hAcks.push_back(device_->hostAlloc(StorageHeader::wireSize));
    }
    if (config_.policy == ReplicationPolicy::ErasureCode) {
        const Bytes shard_cap = ec::RsCodec::shardSize(
            lz4::maxCompressedSize(max_block), config_.ec.dataShards);
        for (unsigned s = 0; s < fanout; ++s)
            w.dShards.push_back(device_->devAlloc(shard_cap));
        w.dHint = device_->devAlloc(1);
    }
    w.fetchQp = device_->createQp(port);
    w.replyQp = device_->createQp(port);

    const SmartDsDevice::Qp &request_qp = requestQps_[port];
    while (true) {
        // --- Receive: header to host memory, payload stays in HBM ------
        auto recv = device_->mixedRecv(request_qp, w.hRecv,
                                       StorageHeader::wireSize, w.dRecv,
                                       max_block);
        co_await recv.completion;
        SMARTDS_CHECK(recv.message, "recv completed without a message");
        net::Message req = *recv.message;
        req.payload.size = recv.size();
        if (device_->config().functional && w.hRecv->bytes()) {
            // The host takes tag and latency class from the landed header.
            // One too short to decode fails closed to the message's own
            // metadata, with no block checksum to vouch for the data.
            StorageHeader hdr;
            hdr.vmId = req.vmId;
            hdr.blockOffset = req.blockOffset;
            hdr.tag = req.tag;
            hdr.latencySensitive = req.latencySensitive ? 1 : 0;
            hdr = landedHeader(*w.hRecv).value_or(hdr);
            req.tag = hdr.tag;
            req.latencySensitive = hdr.latencySensitive != 0;
            // host_fill_send_h_buf: the reply/replica header.
            hdr.payloadSize = static_cast<std::uint32_t>(req.payload.size);
            hdr.encodeInto(w.hSend->bytes()->data());
        }

        if (req.kind == net::MessageKind::ReadRequest) {
            co_await serveRead(w, std::move(req));
        } else {
            // The replica QPs and buffers are reused by the next request:
            // hold them until every straggler (late ack, retry or
            // abandonment) has arrived.
            sim::Completion all_replicas =
                co_await serveWrite(w, std::move(req));
            co_await all_replicas;
        }
    }
}

sim::Task<void>
SmartDsServer::chargeParse(const net::Message &msg)
{
    // Host CPU: flexibly parse the header, prepare the send.
    const std::uint32_t depth =
        static_cast<std::uint32_t>(cores_.queueDepth());
    const Tick start = sim_.now();
    co_await cores_.executeAsync(calibration::smartdsHostRequestCost);
    span(msg.trace, trace::Stage::HostParse, start, depth);
}

sim::Task<void>
SmartDsServer::chargeWrite(WriteJob &job)
{
    co_await chargeParse(job.msg);
    Worker &w = static_cast<Worker &>(job.front);
    // dev_func: compress HBM to HBM, unless the write is latency
    // sensitive and the replicas forward the received payload.
    w.block = w.dRecv;
    job.block.size = job.msg.payload.size;
    if (job.compress) {
        auto compressed = device_->devFunc(
            w.dRecv, job.msg.payload.size, w.dSend, w.dSend->capacity(),
            w.port, device::EngineOp::Compress, job.msg.trace);
        co_await compressed.completion;
        w.block = w.dSend;
        job.block.size = compressed.size();
    }
    // Erasure coding: RS-encode the stripe on-card into the k + m shard
    // buffers; each replica slot then sends one shard.
    if (config_.policy == ReplicationPolicy::ErasureCode) {
        auto encoded = device_->ecEncode(
            w.block, job.block.size, w.dShards, w.port, config_.ec.dataShards,
            config_.ec.parityShards, job.msg.trace);
        co_await encoded.completion;
        net::Payload shard;
        shard.size = encoded.size();
        job.shards.assign(w.dShards.size(), shard);
        noteStripe(job.msg.tag, static_cast<unsigned>(w.dShards.size()));
    }
}

void
SmartDsServer::bindReplica(WriteJob &job, ReplicaTask &task)
{
    Worker &w = static_cast<Worker &>(job.front);
    SMARTDS_CHECK(task.slot < w.replicaQps.size(),
                  "placement wider than the worker's replica QPs");
    SmartDsDevice::Qp *qp = &w.replicaQps[task.slot];
    const device::BufferRef h_ack = w.hAcks[task.slot], h_send = w.hSend;
    const device::BufferRef out_buf = task.ec ? w.dShards[task.slot] : w.block;
    const Bytes out_size = task.blockBytes;
    const std::uint64_t tag = job.msg.tag;
    const Tick issue = job.msg.issueTick;
    task.send = [this, qp, h_ack, h_send, out_buf, out_size, tag, issue,
                 tctx = job.msg.trace](net::NodeId dst) {
        // Re-targeting tears down the previous attempt first (QP reset),
        // so a late ack from the old peer cannot match the fresh
        // descriptor.
        device_->resetQp(*qp);
        device_->connect(*qp, dst, 0);
        forwardAck(device_->mixedRecv(*qp, h_ack, StorageHeader::wireSize,
                                      nullptr, 0));
        device_->mixedSend(*qp, h_send, StorageHeader::wireSize, out_buf,
                           out_size, net::MessageKind::WriteReplica, tag,
                           issue, tctx);
    };
    task.makeRepair = [this, port = w.port, h_send, out_buf, out_size, tag,
                       issue](net::NodeId dst) {
        // Snapshot header and payload now: the worker reuses its buffers
        // once every replica has arrived, but the repair runs later.
        const auto snapshot = [](device::BufferRef to,
                                 const device::BufferRef &from, Bytes n) {
            if (to->bytes() && from->bytes())
                std::copy_n(from->bytes()->begin(), n, to->bytes()->begin());
            to->content = from->content;
            return to;
        };
        auto h = snapshot(device_->hostAlloc(StorageHeader::wireSize), h_send,
                          StorageHeader::wireSize);
        auto d = snapshot(device_->devAlloc(out_size ? out_size : 1), out_buf,
                          out_size);
        return [this, port, h, d, out_size, tag, issue, dst]() {
            sim::spawn(sim_,
                       repairReplica(port, dst, h, d, out_size, tag, issue));
        };
    };
}

sim::Task<RequestEngine::Probe>
SmartDsServer::probe(Front &front, net::Message fetch, unsigned)
{
    // A header-only fetch on the worker's fetch QP. A probe that times
    // out resets the QP, which flushes the posted receive; a reply to an
    // earlier request that lands in the receive instead is stale.
    Worker &w = static_cast<Worker &>(front);
    const bool shard = fetch.payload.ecK > 0;
    device_->resetQp(w.fetchQp);
    device_->connect(w.fetchQp, fetch.dst, 0);
    w.landed = shard ? w.dShards[fetch.payload.ecShard] : w.dSend;
    auto reply = device_->mixedRecv(w.fetchQp, w.hFetch,
                                    StorageHeader::wireSize, w.landed,
                                    w.landed->capacity());
    device::BufferRef hint;
    if (shard) {
        hint = w.dHint;
        hint->content = device::BufferContent{};
        hint->content.compressibility = 0.0;
        hint->content.originalSize = fetch.payload.originalSize;
        hint->content.ecK = fetch.payload.ecK;
        hint->content.ecM = fetch.payload.ecM;
        hint->content.ecShard = fetch.payload.ecShard;
        hint->content.ecStripeBytes = fetch.payload.ecStripeBytes;
    }
    auto sent = device_->mixedSend(w.fetchQp, w.hSend,
                                   StorageHeader::wireSize, hint, 0,
                                   net::MessageKind::ReadFetch, fetch.tag,
                                   fetch.issueTick, fetch.trace);
    co_await sent.completion;
    sim::EventHandle timer;
    if (config_.failover.ackTimeout > 0)
        timer = sim_.schedule(
            config_.failover.ackTimeout,
            [this, &w]() { device_->resetQp(w.fetchQp); },
            sim::EventTag::Nic);
    co_await reply.completion;
    timer.cancel();

    Probe out;
    const net::Message *rep = reply.message.get();
    const bool fetched = rep && rep->kind == net::MessageKind::ReadFetchReply;
    if (fetched && rep->tag == fetch.tag) {
        out.reply = *rep;
        w.landedSize = reply.size();
    } else {
        out.stale = fetched;
    }
    co_return out;
}

sim::Task<SmartDsServer::VerifiedBlock>
SmartDsServer::verifyReplica(Front &front, const net::Message &msg,
                             const net::Message &)
{
    // Every fetched block is decompressed on-card, HBM to HBM, before the
    // host checks it against the stored header's checksum.
    Worker &w = static_cast<Worker &>(front);
    auto plain = device_->devFunc(w.dSend, w.landedSize, w.dRecv,
                                  w.dRecv->capacity(), w.port,
                                  device::EngineOp::Decompress, msg.trace);
    co_await plain.completion;
    VerifiedBlock out;
    out.corrupt = w.dRecv->content.corrupted;
    if (!out.corrupt && device_->config().functional && w.dRecv->bytes() &&
        w.hFetch->bytes()) {
        // A header too short to decode fails closed; a zero checksum
        // means the block was never stamped.
        const auto stored = landedHeader(*w.hFetch);
        out.corrupt = !stored ||
                      (stored->blockChecksum != 0 &&
                       xxhash32(w.dRecv->bytes()->data(), plain.size()) !=
                           stored->blockChecksum);
    }
    if (!out.corrupt && readCache_ && w.dRecv->bytes())
        out.plain = std::make_shared<const std::vector<std::uint8_t>>(
            w.dRecv->bytes()->begin(),
            w.dRecv->bytes()->begin() +
                static_cast<std::ptrdiff_t>(plain.size()));
    co_return out;
}

sim::Task<bool>
SmartDsServer::shardIntact(Front &front, const net::Message &msg,
                           const net::Message &reply)
{
    // Scrub the shard with the checksum engine before use.
    Worker &w = static_cast<Worker &>(front);
    auto scrub = device_->devFunc(w.landed, w.landedSize, w.dRecv,
                                  w.dRecv->capacity(), w.port,
                                  device::EngineOp::Checksum, msg.trace);
    co_await scrub.completion;
    co_return !reply.payload.corrupted &&
        !(w.landed->bytes() &&
          scrub.completion.value() != reply.payload.ecShardChecksum);
}

sim::Task<SmartDsServer::VerifiedBlock>
SmartDsServer::assembleStripe(Front &front, const net::Message &msg,
                              const std::vector<unsigned> &shard_idx,
                              const std::vector<net::Message> &shards,
                              Bytes stripe_bytes, bool)
{
    // The RS engine assembles every stripe in HBM, systematic or not
    // (shard i of the gather landed in shard buffer i), then the LZ4
    // engine decompresses it.
    Worker &w = static_cast<Worker &>(front);
    std::vector<std::pair<unsigned, device::BufferRef>> got;
    for (std::size_t i = 0; i < shard_idx.size(); ++i)
        got.emplace_back(shard_idx[i], w.dShards[i]);
    auto decoded =
        device_->ecDecode(got, stripe_bytes, w.dSend, w.port,
                          config_.ec.dataShards, config_.ec.parityShards,
                          msg.trace);
    co_await decoded.completion;
    // The stripe now sits where a fetched replica lands: verify it alike.
    w.landedSize = stripe_bytes;
    co_return co_await verifyReplica(front, msg, shards.front());
}

sim::Task<void>
SmartDsServer::chargeDecompress(const net::Message &, Bytes, Bytes)
{
    co_return; // each fetched block was decompressed on-card as verified
}

sim::Task<void>
SmartDsServer::chargeCacheHit(const HotBlockCache::Entry &hit)
{
    // In HBM a hit is one device-DRAM read of the plaintext (in host DRAM
    // a host pass): no fetch round trip, no RS decode, no decompression.
    if (cacheFlow_)
        co_await sim::transferAsync(sim_, *cacheFlow_, hit.plainSize);
    else
        co_await cores_.executeAsync(calibration::smartdsHostRequestCost);
}

sim::Task<void>
SmartDsServer::replyToVm(Front &front, net::Message reply, Reply body)
{
    // dev_mixed_send: the header from host memory, the plaintext (if
    // any) gathered from HBM.
    Worker &w = static_cast<Worker &>(front);
    if (body == Reply::Cached) {
        if (w.dRecv->bytes() && reply.payload.data)
            std::copy(reply.payload.data->begin(), reply.payload.data->end(),
                      w.dRecv->bytes()->begin());
        w.dRecv->content = device::BufferContent{};
        w.dRecv->content.size = reply.payload.size;
        w.dRecv->content.compressibility = reply.payload.compressibility;
    }
    const bool payload = body == Reply::Served || body == Reply::Cached;
    device_->connect(w.replyQp, reply.dst, reply.dstQp);
    auto sent = device_->mixedSend(
        w.replyQp, w.hSend, StorageHeader::wireSize,
        payload ? w.dRecv : nullptr, payload ? reply.payload.size : 0,
        reply.kind, reply.tag, reply.issueTick, reply.trace);
    co_await sent.completion;
}

} // namespace smartds::middletier
