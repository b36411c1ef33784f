#include "smartds/device.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/checksum.h"
#include "common/check.h"
#include "common/logging.h"
#include "corpus/block_cache.h"
#include "ec/reed_solomon.h"
#include "lz4/lz4.h"

namespace smartds::device {

SmartDsDevice::SmartDsDevice(net::Fabric &fabric, const std::string &name,
                             mem::MemorySystem *host_memory)
    : SmartDsDevice(fabric, name, host_memory, Config{})
{
}

SmartDsDevice::SmartDsDevice(net::Fabric &fabric, const std::string &name,
                             mem::MemorySystem *host_memory, Config config)
    : fabric_(fabric), sim_(fabric.simulator()), name_(name),
      config_(config), hostMemory_(host_memory),
      hbm_(sim_, name, config.hbmCapacity, config.hbmBandwidth,
           config.functional),
      pcie_(sim_, name + ".pcie", config.pcie),
      dma_(sim_, name + ".dma", host_memory,
           [this, &config] {
               std::vector<sim::BandwidthServer *> path{&pcie_.h2d()};
               path.insert(path.end(), config.h2dTail.begin(),
                           config.h2dTail.end());
               return path;
           }(),
           [this, &config] {
               std::vector<sim::BandwidthServer *> path{&pcie_.d2h()};
               path.insert(path.end(), config.d2hTail.begin(),
                           config.d2hTail.end());
               return path;
           }(),
           [&config] {
               // SmartDS crosses PCIe only with 64-byte headers and
               // descriptors; the hardware keeps hundreds of such small
               // DMAs in flight. Give the header engine a roomy byte
               // window so six ports' header traffic pipelines freely.
               auto dma = config.dma;
               dma.readWindowBytes =
                   std::max<Bytes>(dma.readWindowBytes, 64 * 1024);
               dma.writeWindowBytes =
                   std::max<Bytes>(dma.writeWindowBytes, 64 * 1024);
               return dma;
           }())
{
    SMARTDS_CHECK(config.ports >= 1 &&
                       config.ports <= calibration::smartdsMaxPorts,
                   "SmartDS supports 1..%u ports, got %u",
                   calibration::smartdsMaxPorts, config.ports);
    if (hostMemory_) {
        hdrWrite_ = hostMemory_->createFlow(name + ".hdr-write");
        hdrRead_ = hostMemory_->createFlow(name + ".hdr-read");
    }
    for (unsigned i = 0; i < config.ports; ++i) {
        auto state = std::make_unique<PortState>();
        const std::string pname = name + ".p" + std::to_string(i);
        state->port = fabric.createPort(pname, config.lineRate);
        state->compressEngine = std::make_unique<sim::BandwidthServer>(
            sim_, pname + ".comp", config.engineRate, config.engineLatency);
        state->decompressEngine = std::make_unique<sim::BandwidthServer>(
            sim_, pname + ".decomp", config.engineRate,
            config.engineLatency);
        if (config.ecEngine)
            state->ecEngine = std::make_unique<sim::BandwidthServer>(
                sim_, pname + ".ec", config.ecEngineRate,
                config.ecEngineLatency);
        state->splitWrite = hbm_.createFlow(pname + ".split-w");
        state->assembleRead = hbm_.createFlow(pname + ".assemble-r");
        state->engineRead = hbm_.createFlow(pname + ".engine-r");
        state->engineWrite = hbm_.createFlow(pname + ".engine-w");
        state->port->onReceive([this, i](net::Message msg) {
            onPortReceive(i, std::move(msg));
        });
        portStates_.push_back(std::move(state));
    }
}

BufferRef
SmartDsDevice::hostAlloc(Bytes size)
{
    const std::uint64_t addr = nextHostAddr_;
    nextHostAddr_ += size;
    return std::make_shared<Buffer>(MemorySpace::Host, addr, size,
                                    config_.functional);
}

BufferRef
SmartDsDevice::devAlloc(Bytes size)
{
    return hbm_.alloc(size);
}

net::NodeId
SmartDsDevice::nodeId(unsigned port) const
{
    SMARTDS_CHECK(port < portStates_.size(), "port index out of range");
    return portStates_[port]->port->id();
}

SmartDsDevice::Qp
SmartDsDevice::createQp(unsigned port)
{
    SMARTDS_CHECK(port < portStates_.size(), "port index out of range");
    Qp qp;
    qp.port = port;
    qp.local = portStates_[port]->nextQp++;
    return qp;
}

void
SmartDsDevice::connect(Qp &qp, net::NodeId remote_node, net::QpId remote_qp)
{
    qp.remoteNode = remote_node;
    qp.remoteQp = remote_qp;
}

void
SmartDsDevice::resetQp(const Qp &qp)
{
    SMARTDS_CHECK(qp.port < portStates_.size(), "bad qp port");
    auto &state = *portStates_[qp.port];
    if (const auto rq = state.recvQueues.find(qp.local);
        rq != state.recvQueues.end()) {
        // Flush-with-error: complete each posted descriptor with 0 and
        // its message still at kind Raw, like an RDMA flush error WQE.
        auto flushed = std::move(rq->second);
        rq->second.clear();
        for (auto &desc : flushed)
            desc.event.completion.complete(0);
    }
    if (const auto pm = state.pendingMsgs.find(qp.local);
        pm != state.pendingMsgs.end())
        pm->second.clear();
}

net::Port &
SmartDsDevice::port(unsigned i)
{
    SMARTDS_CHECK(i < portStates_.size(), "port index out of range");
    return *portStates_[i]->port;
}

sim::BandwidthServer &
SmartDsDevice::compressEngine(unsigned i)
{
    SMARTDS_CHECK(i < portStates_.size(), "port index out of range");
    return *portStates_[i]->compressEngine;
}

std::size_t
SmartDsDevice::pendingMessages() const
{
    std::size_t n = 0;
    for (const auto &state : portStates_)
        for (const auto &[qp, q] : state->pendingMsgs)
            n += q.size();
    return n;
}

void
SmartDsDevice::onPortReceive(unsigned port_index, net::Message msg)
{
    auto &state = *portStates_[port_index];
    auto &queue = state.recvQueues[msg.dstQp];
    if (queue.empty()) {
        // No descriptor posted yet: the message waits in device memory
        // (the RoCE stack has already landed it in HBM).
        state.pendingMsgs[msg.dstQp].push_back(std::move(msg));
        return;
    }
    RecvDescriptor desc = std::move(queue.front());
    queue.pop_front();
    performSplit(port_index, std::move(desc), std::move(msg));
}

void
SmartDsDevice::performSplit(unsigned port_index, RecvDescriptor desc,
                            net::Message msg)
{
    auto &state = *portStates_[port_index];
    const Bytes total = msg.wireBytes();
    const Bytes host_part = std::min(desc.hSize, total);
    const Bytes dev_part = total - host_part;
    SMARTDS_CHECK(dev_part <= desc.dSize,
                   "split overflow: %llu payload bytes into %llu-byte "
                   "device buffer",
                   static_cast<unsigned long long>(dev_part),
                   static_cast<unsigned long long>(desc.dSize));

    // Functional data movement: header bytes into the host buffer,
    // payload bytes into the device buffer.
    if (config_.functional) {
        if (desc.h && desc.h->bytes()) {
            // content.size is the header length that landed, 0 when the
            // message carried none, so a decoder never mistakes a
            // previous message's bytes for this one's header.
            const Bytes n =
                msg.headerData ? std::min<Bytes>(msg.headerData->size(),
                                                 desc.h->capacity())
                               : 0;
            if (n > 0)
                std::memcpy(desc.h->bytes()->data(),
                            msg.headerData->data(), n);
            desc.h->content.size = n;
        }
        if (desc.d && desc.d->bytes() && msg.payload.data) {
            const Bytes n = std::min<Bytes>(msg.payload.data->size(),
                                            desc.d->capacity());
            if (n > 0)
                std::memcpy(desc.d->bytes()->data(),
                            msg.payload.data->data(), n);
        }
    }
    if (desc.d) {
        desc.d->content.size = dev_part;
        desc.d->content.compressed = msg.payload.compressed;
        desc.d->content.originalSize = msg.payload.originalSize;
        desc.d->content.compressibility = msg.payload.compressibility;
        desc.d->content.corrupted = msg.payload.corrupted;
        desc.d->content.blockId = msg.payload.blockId;
        desc.d->content.ecK = msg.payload.ecK;
        desc.d->content.ecM = msg.payload.ecM;
        desc.d->content.ecShard = msg.payload.ecShard;
        desc.d->content.ecShardChecksum = msg.payload.ecShardChecksum;
        desc.d->content.ecStripeBytes = msg.payload.ecStripeBytes;
    }

    // Timing: fixed split latency, then the header DMA to host memory and
    // the payload write into HBM proceed in parallel.
    auto latch = std::make_shared<sim::CountLatch>(sim_, 2);
    auto event = desc.event;
    // The event's message slot was allocated with the descriptor, so all
    // Event copies the application holds observe the filled-in message.
    auto msg_ptr = event.message;
    *msg_ptr = std::move(msg);
    trace::Tracer *tracer = fabric_.tracer();
    const Tick split_start = sim_.now();
    const std::uint32_t split_depth = static_cast<std::uint32_t>(
        state.pendingMsgs[msg_ptr->dstQp].size());
    sim::spawn(sim_, [](sim::Simulator &sim, sim::Completion both_done,
                        Event ev, Bytes dev_part, trace::Tracer *tracer,
                        Tick start, std::uint32_t depth) -> sim::Process {
        co_await both_done;
        if (tracer && ev.message->trace) {
            tracer->record(ev.message->trace, trace::Stage::Split, start,
                           sim.now(), depth);
        }
        ev.completion.complete(dev_part);
    }(sim_, latch->wait(), event, dev_part, tracer, split_start,
      split_depth));

    sim_.schedule(
        config_.splitLatency,
        [this, &state, host_part, dev_part, latch, msg_ptr]() {
            pcie::DmaEngine::Options options;
            options.memFlow =
                config_.headerLlcSteering ? nullptr : hdrWrite_;
            options.stallOnMemory = false;
            dma_.write(host_part, options,
                       [latch](Tick) { latch->arrive(); });
            state.splitWrite->transfer(dev_part,
                                       [latch]() { latch->arrive(); });
            (void)msg_ptr; // keeps the message alive until the split lands
        },
        sim::EventTag::Device);
}

SmartDsDevice::Event
SmartDsDevice::mixedRecv(const Qp &qp, BufferRef h, Bytes h_size,
                         BufferRef d, Bytes d_size)
{
    SMARTDS_CHECK(qp.port < portStates_.size(), "bad qp port");
    auto &state = *portStates_[qp.port];
    RecvDescriptor desc{std::move(h), h_size, std::move(d), d_size,
                        Event{sim::Completion(sim_),
                              std::make_shared<net::Message>()}};
    Event event = desc.event;

    auto &pending = state.pendingMsgs[qp.local];
    if (!pending.empty()) {
        net::Message msg = std::move(pending.front());
        pending.pop_front();
        performSplit(qp.port, std::move(desc), std::move(msg));
    } else {
        state.recvQueues[qp.local].push_back(std::move(desc));
    }
    return event;
}

const corpus::StripeTable &
SmartDsDevice::stripeMemo(unsigned k, unsigned m)
{
    if (!stripes_ || stripes_->k() != k || stripes_->m() != m)
        stripes_ = &config_.blockCache->stripes(k, m);
    return *stripes_;
}

SharedBytes
SmartDsDevice::cachedBytes(const Buffer &d, Bytes size)
{
    const BufferContent &c = d.content;
    if (!config_.blockCache || c.blockId == 0)
        return nullptr;
    const std::uint8_t *data = d.bytes()->data();
    if (c.ecK > 0)
        return stripeMemo(c.ecK, c.ecM).lookupShard(c.blockId, c.ecShard,
                                                    data, size);
    const corpus::BlockCodecCache::Entry *cached =
        c.compressed ? config_.blockCache->lookupCompressed(c.blockId, data,
                                                            size)
                     : config_.blockCache->lookupPlain(c.blockId, data, size);
    if (!cached)
        return nullptr;
    return c.compressed ? cached->compressed : cached->plain;
}

SmartDsDevice::Event
SmartDsDevice::mixedSend(const Qp &qp, BufferRef h, Bytes h_size,
                         BufferRef d, Bytes d_size, net::MessageKind kind,
                         std::uint64_t tag, Tick issue_tick,
                         trace::TraceContext tctx)
{
    SMARTDS_CHECK(qp.port < portStates_.size(), "bad qp port");
    SMARTDS_CHECK(qp.remoteNode != 0, "sending on an unconnected qp");
    auto &state = *portStates_[qp.port];

    net::Message msg;
    msg.dst = qp.remoteNode;
    msg.dstQp = qp.remoteQp;
    msg.srcQp = qp.local;
    msg.kind = kind;
    msg.headerBytes = h_size;
    msg.tag = tag;
    msg.issueTick = issue_tick;
    msg.trace = tctx;
    msg.payload.size = d_size;
    if (d) {
        msg.payload.compressed = d->content.compressed;
        msg.payload.originalSize = d->content.originalSize;
        msg.payload.compressibility = d->content.compressibility;
        msg.payload.corrupted = d->content.corrupted;
        msg.payload.blockId = d->content.blockId;
        msg.payload.ecK = d->content.ecK;
        msg.payload.ecM = d->content.ecM;
        msg.payload.ecShard = d->content.ecShard;
        msg.payload.ecShardChecksum = d->content.ecShardChecksum;
        msg.payload.ecStripeBytes = d->content.ecStripeBytes;
        if (config_.functional && d->bytes()) {
            // Corpus-backed payloads (blocks and RS shards) are sent as
            // aliases of the cache's immutable buffer instead of copying
            // out of the (reusable) HBM buffer. The hash guard proves the
            // bytes are identical, so the message is byte-for-byte what
            // the copy would carry.
            msg.payload.data = cachedBytes(*d, d_size);
            if (!msg.payload.data)
                msg.payload.data = shareBytes(std::vector<std::uint8_t>(
                    d->bytes()->begin(),
                    d->bytes()->begin() +
                        static_cast<std::ptrdiff_t>(d_size)));
        }
    }
    if (config_.functional && h && h->bytes()) {
        // Header bytes are immutable once on the wire, so a send whose
        // header matches the previous one shares its buffer: the k + m
        // shard (or replica) sends of one request carry one header
        // buffer, not a copy each.
        const auto first = h->bytes()->cbegin();
        const auto last =
            first +
            static_cast<std::ptrdiff_t>(std::min(h_size, h->capacity()));
        if (!lastHeader_ ||
            !std::equal(first, last, lastHeader_->begin(), lastHeader_->end()))
            lastHeader_ =
                std::make_shared<const std::vector<std::uint8_t>>(first, last);
        msg.headerData = lastHeader_;
    }

    Event event{sim::Completion(sim_), nullptr};

    // Gather: header DMA read from host and payload read from HBM run in
    // parallel; the assembled message then serialises onto the wire.
    auto latch = std::make_shared<sim::CountLatch>(sim_, 2);
    pcie::DmaEngine::Options options;
    options.memFlow = hdrRead_;
    options.stallOnMemory = true;
    dma_.read(h_size, options, [latch](Tick) { latch->arrive(); });
    state.assembleRead->transfer(d_size, [latch]() { latch->arrive(); });

    auto *port = state.port;
    const Tick assemble_latency = config_.splitLatency;
    trace::Tracer *tracer = tctx ? fabric_.tracer() : nullptr;
    const Tick assemble_start = sim_.now();
    sim::spawn(sim_, [](sim::Simulator &sim, sim::Completion gathered,
                        net::Port *port, net::Message m, Event ev, Tick lat,
                        trace::Tracer *tracer, Tick start) -> sim::Process {
        co_await gathered;
        co_await sim::delay(sim, lat);
        if (tracer)
            tracer->record(m.trace, trace::Stage::Assemble, start,
                           sim.now());
        const Bytes sent = m.wireBytes();
        sim::Completion on_sent(sim);
        port->send(std::move(m),
                   [on_sent]() mutable { on_sent.complete(0); });
        co_await on_sent;
        ev.completion.complete(sent);
    }(sim_, latch->wait(), port, std::move(msg), event, assemble_latency,
      tracer, assemble_start));
    return event;
}

SmartDsDevice::Event
SmartDsDevice::devFunc(BufferRef src, Bytes src_size, BufferRef dst,
                       Bytes dst_cap, unsigned port, EngineOp op,
                       trace::TraceContext tctx)
{
    SMARTDS_CHECK(port < portStates_.size(), "engine index out of range");
    SMARTDS_CHECK(src && dst, "devFunc needs source and destination");
    auto &state = *portStates_[port];

    // Determine the functional result (and its size) up front; the timing
    // below charges HBM and engine time for it.
    Bytes result_size = 0;
    bool result_compressed = false;
    Bytes result_original = 0;
    bool result_corrupted = src->content.corrupted;
    double compressibility = src->content.compressibility;
    std::vector<std::uint8_t> result_bytes;
    // Cache hit: the result is a shared immutable buffer instead of
    // freshly coded bytes (the writeback below reads from either).
    SharedBytes result_shared;
    const std::uint32_t block_id = src->content.blockId;

    std::uint64_t completion_value = 0;
    if (op == EngineOp::Checksum) {
        // Scrubbing engine: stream the buffer, emit its checksum, write
        // nothing back. Timing mode completes with 0. (No cache lookup:
        // the lookup's own hash guard would cost exactly the checksum.)
        result_size = 0;
        result_compressed = src->content.compressed;
        result_original = src->content.originalSize;
        if (config_.functional && src->bytes()) {
            completion_value =
                xxhash32(src->bytes()->data(), src_size);
        }
    } else if (op == EngineOp::Compress) {
        if (config_.functional && src->bytes()) {
            const corpus::BlockCodecCache::Entry *cached =
                config_.blockCache
                    ? config_.blockCache->lookupPlain(
                          block_id, src->bytes()->data(), src_size)
                    : nullptr;
            if (cached) {
                result_shared = cached->compressed;
                result_size = cached->compressed->size();
                compressibility = cached->ratio;
            } else {
                result_bytes.resize(lz4::maxCompressedSize(src_size));
                const auto n = lz4::compress(src->bytes()->data(), src_size,
                                             result_bytes.data(),
                                             result_bytes.size(),
                                             config_.effort);
                SMARTDS_CHECK(n.has_value(), "engine compression failed");
                result_size = *n;
                compressibility =
                    std::min(1.0, static_cast<double>(*n) /
                                      static_cast<double>(src_size));
            }
        } else {
            result_size = static_cast<Bytes>(
                static_cast<double>(src_size) * compressibility);
            if (result_size == 0)
                result_size = 1;
        }
        result_compressed = true;
        result_original = src_size;
    } else {
        if (config_.functional && src->bytes()) {
            const corpus::BlockCodecCache::Entry *cached =
                config_.blockCache
                    ? config_.blockCache->lookupCompressed(
                          block_id, src->bytes()->data(), src_size)
                    : nullptr;
            if (cached && cached->plain->size() <= dst_cap) {
                // Guarded hit: these bytes decode to exactly the cached
                // plain block. Mutated (bit-flipped) copies hash
                // differently and take the real decoder below, keeping
                // corruption detection intact.
                result_shared = cached->plain;
                result_size = cached->plain->size();
            } else {
                result_bytes.resize(dst_cap);
                const auto n = lz4::decompress(src->bytes()->data(),
                                               src_size, result_bytes.data(),
                                               dst_cap);
                if (n.has_value()) {
                    result_size = *n;
                } else {
                    // A corrupt frame the engine cannot decode: surface
                    // it as detected corruption rather than crashing;
                    // charge timing for the advertised original size.
                    result_size = std::min<Bytes>(
                        dst_cap, src->content.originalSize
                                     ? src->content.originalSize
                                     : src_size);
                    result_bytes.clear();
                    result_corrupted = true;
                }
            }
        } else {
            result_size = src->content.originalSize
                              ? src->content.originalSize
                              : static_cast<Bytes>(
                                    static_cast<double>(src_size) /
                                    std::max(compressibility, 1e-6));
        }
        result_compressed = false;
        result_original = 0;
    }
    SMARTDS_CHECK(result_size <= dst_cap,
                   "engine output %llu exceeds destination capacity %llu",
                   static_cast<unsigned long long>(result_size),
                   static_cast<unsigned long long>(dst_cap));

    Event event{sim::Completion(sim_), nullptr};
    auto *engine = op == EngineOp::Decompress
                       ? state.decompressEngine.get()
                       : state.compressEngine.get();
    auto *read_flow = state.engineRead;
    auto *write_flow = state.engineWrite;
    const bool is_checksum = op == EngineOp::Checksum;
    trace::Tracer *tracer = tctx ? fabric_.tracer() : nullptr;
    const Tick engine_start = sim_.now();
    auto record_engine = [this, tracer, tctx, engine_start]() {
        if (tracer)
            tracer->record(tctx, trace::Stage::Engine, engine_start,
                           sim_.now());
    };

    // Pipeline: HBM read -> engine -> HBM write (nothing written back
    // for the scrubbing engine).
    read_flow->transfer(src_size, [this, engine, write_flow, src_size,
                                   result_size, result_compressed,
                                   result_original, result_corrupted,
                                   compressibility, dst, event, is_checksum,
                                   completion_value, record_engine, block_id,
                                   result_shared,
                                   result_bytes =
                                       std::move(result_bytes)]() mutable {
        engine->transfer(src_size, [this, write_flow, result_size,
                                    result_compressed, result_original,
                                    result_corrupted, compressibility, dst,
                                    event, is_checksum, completion_value,
                                    record_engine, block_id,
                                    result_shared = std::move(result_shared),
                                    result_bytes = std::move(
                                        result_bytes)]() mutable {
            write_flow->transfer(
                result_size,
                [result_size, result_compressed, result_original,
                 result_corrupted, compressibility, dst, event, is_checksum,
                 completion_value, record_engine, block_id,
                 result_shared = std::move(result_shared),
                 result_bytes = std::move(result_bytes)]() mutable {
                    record_engine();
                    if (is_checksum) {
                        event.completion.complete(completion_value);
                        return;
                    }
                    const std::uint8_t *result_src =
                        result_shared ? result_shared->data()
                                      : result_bytes.data();
                    if (dst->bytes() &&
                        (result_shared || !result_bytes.empty())) {
                        const Bytes n = std::min<Bytes>(
                            result_size, dst->capacity());
                        std::memcpy(dst->bytes()->data(), result_src, n);
                    }
                    dst->content.size = result_size;
                    dst->content.compressed = result_compressed;
                    dst->content.originalSize = result_original;
                    dst->content.compressibility = compressibility;
                    dst->content.corrupted = result_corrupted;
                    dst->content.blockId = block_id;
                    // Engine outputs are whole blocks, never RS shards:
                    // clear any stale shard identity left in the buffer.
                    dst->content.ecK = 0;
                    dst->content.ecM = 0;
                    dst->content.ecShard = 0;
                    dst->content.ecShardChecksum = 0;
                    dst->content.ecStripeBytes = 0;
                    event.completion.complete(result_size);
                });
        });
    });
    return event;
}

SmartDsDevice::Event
SmartDsDevice::ecEncode(BufferRef src, Bytes src_size,
                        const std::vector<BufferRef> &shards, unsigned port,
                        unsigned k, unsigned m, trace::TraceContext tctx)
{
    SMARTDS_CHECK(config_.ecEngine, "device built without the EC engine");
    SMARTDS_CHECK(port < portStates_.size(), "engine index out of range");
    SMARTDS_CHECK(src, "ecEncode needs a source buffer");
    SMARTDS_CHECK(shards.size() == static_cast<std::size_t>(k) + m,
                   "ecEncode wants k + m shard buffers, got %zu for "
                   "RS(%u, %u)",
                   shards.size(), k, m);
    auto &state = *portStates_[port];
    const Bytes shard_bytes = ec::RsCodec::shardSize(src_size, k);
    for (const auto &shard : shards)
        SMARTDS_CHECK(shard && shard->capacity() >= shard_bytes,
                       "EC shard buffer smaller than the shard");

    // Functional encode up front; the pipeline below charges time for it
    // and writes the results back when the HBM write lands. A corpus
    // block (hash-guarded) takes its shards and checksums from the
    // cache's stripe memo; anything else runs the codec.
    const corpus::StripeTable *memo = nullptr;
    std::size_t memo_block = 0;
    std::vector<std::vector<std::uint8_t>> encoded;
    if (config_.functional && src->bytes()) {
        if (config_.blockCache &&
            config_.blockCache->lookupCompressed(
                src->content.blockId, src->bytes()->data(), src_size)) {
            memo = &stripeMemo(k, m);
            memo_block = src->content.blockId - 1;
        } else {
            encoded = ec::RsCodec(k, m).encode(src->bytes()->data(), src_size);
        }
    }

    Event event{sim::Completion(sim_), nullptr};
    const Bytes shard_total = shard_bytes * static_cast<Bytes>(shards.size());
    trace::Tracer *tracer = tctx ? fabric_.tracer() : nullptr;
    const Tick start = sim_.now();
    auto finish = [this, src, shards, k, m, src_size, shard_bytes, event,
                   tracer, tctx, start, memo, memo_block,
                   encoded = std::move(encoded)]() mutable {
        for (unsigned s = 0; s < shards.size(); ++s) {
            auto &shard = *shards[s];
            std::uint32_t checksum = 0;
            if (memo && shard.bytes()) {
                // HBM still holds the bytes; the memo only spares the math.
                std::memcpy(shard.bytes()->data(),
                            memo->shard(memo_block, s)->data(), shard_bytes);
                checksum = memo->checksum(memo_block, s);
            } else if (!encoded.empty() && shard.bytes()) {
                std::memcpy(shard.bytes()->data(), encoded[s].data(),
                            shard_bytes);
                checksum = xxhash32(encoded[s].data(), shard_bytes);
            }
            shard.content.size = shard_bytes;
            shard.content.compressed = src->content.compressed;
            shard.content.originalSize = src->content.originalSize;
            shard.content.compressibility = src->content.compressibility;
            shard.content.corrupted = src->content.corrupted;
            shard.content.blockId = src->content.blockId;
            shard.content.ecK = static_cast<std::uint8_t>(k);
            shard.content.ecM = static_cast<std::uint8_t>(m);
            shard.content.ecShard = static_cast<std::uint8_t>(s);
            shard.content.ecShardChecksum = checksum;
            shard.content.ecStripeBytes = src_size;
        }
        if (tracer)
            tracer->record(tctx, trace::Stage::EcEncode, start, sim_.now());
        event.completion.complete(shard_bytes);
    };

    // Pipeline: HBM read -> GF(256) MAC array -> HBM write of all shards.
    state.engineRead->transfer(
        src_size, [&state, src_size, shard_total,
                   finish = std::move(finish)]() mutable {
            state.ecEngine->transfer(
                src_size, [&state, shard_total,
                           finish = std::move(finish)]() mutable {
                    state.engineWrite->transfer(shard_total,
                                                std::move(finish));
                });
        });
    return event;
}

SmartDsDevice::Event
SmartDsDevice::ecDecode(
    const std::vector<std::pair<unsigned, BufferRef>> &shards,
    Bytes stripe_bytes, BufferRef dst, unsigned port, unsigned k, unsigned m,
    trace::TraceContext tctx)
{
    SMARTDS_CHECK(config_.ecEngine, "device built without the EC engine");
    SMARTDS_CHECK(port < portStates_.size(), "engine index out of range");
    SMARTDS_CHECK(dst, "ecDecode needs a destination buffer");
    SMARTDS_CHECK(dst->capacity() >= stripe_bytes,
                   "EC destination smaller than the stripe");
    SMARTDS_CHECK(!shards.empty(), "ecDecode with no shards");
    auto &state = *portStates_[port];
    const Bytes shard_bytes = ec::RsCodec::shardSize(stripe_bytes, k);

    // Metadata travels on every shard; take it from the first.
    const Buffer &exemplar = *shards.front().second;
    bool corrupted = exemplar.content.corrupted;

    std::vector<std::uint8_t> result;
    if (config_.functional) {
        // Decode straight from views of the HBM shard buffers: the decode
        // runs now, before any of them can be reused.
        std::vector<std::pair<unsigned, ByteView>> present;
        present.reserve(shards.size());
        for (const auto &[index, buf] : shards) {
            if (!buf || !buf->bytes() ||
                buf->bytes()->size() < shard_bytes)
                continue;
            present.emplace_back(index,
                                 ByteView(buf->bytes()->data(), shard_bytes));
        }
        ec::RsCodec codec(k, m);
        auto stripe = codec.decode(present, stripe_bytes);
        if (stripe)
            result = std::move(*stripe);
        else
            corrupted = true;
    } else if (shards.size() < k) {
        corrupted = true;
    }

    Event event{sim::Completion(sim_), nullptr};
    const Bytes read_bytes = shard_bytes * static_cast<Bytes>(k);
    trace::Tracer *tracer = tctx ? fabric_.tracer() : nullptr;
    const Tick start = sim_.now();
    const BufferContent meta = exemplar.content;
    auto finish = [this, dst, stripe_bytes, corrupted, meta, event, tracer,
                   tctx, start, result = std::move(result)]() mutable {
        if (dst->bytes() && !result.empty()) {
            const Bytes n = std::min<Bytes>(result.size(), dst->capacity());
            std::memcpy(dst->bytes()->data(), result.data(), n);
        }
        dst->content.size = stripe_bytes;
        dst->content.compressed = meta.compressed;
        dst->content.originalSize = meta.originalSize;
        dst->content.compressibility = meta.compressibility;
        dst->content.corrupted = corrupted;
        dst->content.blockId = meta.blockId;
        dst->content.ecK = 0;
        dst->content.ecM = 0;
        dst->content.ecShard = 0;
        dst->content.ecShardChecksum = 0;
        dst->content.ecStripeBytes = 0;
        if (tracer)
            tracer->record(tctx, trace::Stage::EcDecode, start, sim_.now());
        event.completion.complete(stripe_bytes);
    };

    // Pipeline: read k shards from HBM -> MAC array -> write the stripe.
    state.engineRead->transfer(
        read_bytes, [&state, stripe_bytes,
                     finish = std::move(finish)]() mutable {
            state.ecEngine->transfer(
                stripe_bytes, [&state, stripe_bytes,
                               finish = std::move(finish)]() mutable {
                    state.engineWrite->transfer(stripe_bytes,
                                                std::move(finish));
                });
        });
    return event;
}

} // namespace smartds::device
