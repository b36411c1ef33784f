#include "middletier/server_base.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "common/check.h"
#include "common/checksum.h"
#include "common/logging.h"
#include "corpus/block_cache.h"
#include "ec/reed_solomon.h"
#include "lz4/lz4.h"
#include "middletier/maintenance.h"
#include "middletier/protocol.h"

namespace smartds::middletier {

const char *
designName(Design d)
{
    switch (d) {
      case Design::CpuOnly:
        return "CPU-only";
      case Design::Accelerator:
        return "Acc";
      case Design::Bf2:
        return "BF2";
      case Design::SmartDs:
        return "SmartDS";
    }
    panic("unknown design");
}

FailoverStats &
FailoverStats::operator+=(const FailoverStats &o)
{
    replicaTimeouts += o.replicaTimeouts;
    replicaRetries += o.replicaRetries;
    replicaReplacements += o.replicaReplacements;
    replicasAbandoned += o.replicasAbandoned;
    staleAcks += o.staleAcks;
    nodesSuspected += o.nodesSuspected;
    quorumCompletions += o.quorumCompletions;
    repairsScheduled += o.repairsScheduled;
    corruptionsDetected += o.corruptionsDetected;
    readFailovers += o.readFailovers;
    readsUnserved += o.readsUnserved;
    stripesEncoded += o.stripesEncoded;
    degradedReads += o.degradedReads;
    replicaBytesSent += o.replicaBytesSent;
    return *this;
}

std::vector<net::NodeId>
MiddleTierServer::chooseReplicas(const std::vector<net::NodeId> &candidates,
                                 unsigned replication, Rng &rng)
{
    SMARTDS_CHECK(candidates.size() >= replication,
                   "need at least %u storage servers, have %zu", replication,
                   candidates.size());
    // Partial Fisher-Yates over a scratch copy of indices.
    std::vector<net::NodeId> pool = candidates;
    std::vector<net::NodeId> chosen;
    chosen.reserve(replication);
    for (unsigned i = 0; i < replication; ++i) {
        const std::size_t j = i + rng.below(pool.size() - i);
        std::swap(pool[i], pool[j]);
        chosen.push_back(pool[i]);
    }
    return chosen;
}

std::vector<net::NodeId>
MiddleTierServer::chooseDomainSpreadReplicas(
    const std::vector<net::NodeId> &candidates, unsigned count,
    Rng &rng) const
{
    if (!health_.hasDomains())
        return chooseHealthyReplicas(candidates, count, rng);
    const std::vector<net::NodeId> healthy =
        health_.filterHealthy(candidates, count);
    SMARTDS_CHECK(healthy.size() >= count,
                  "need at least %u storage servers, have %zu", count,
                  healthy.size());
    // Group the healthy pool by domain, domains ordered by first
    // appearance (deterministic for a fixed candidate order).
    std::vector<unsigned> domain_ids;
    std::vector<std::vector<net::NodeId>> groups;
    for (const net::NodeId n : healthy) {
        const unsigned d = health_.domainOf(n);
        const auto it = std::find(domain_ids.begin(), domain_ids.end(), d);
        if (it == domain_ids.end()) {
            domain_ids.push_back(d);
            groups.push_back({n});
        } else {
            groups[it - domain_ids.begin()].push_back(n);
        }
    }
    // Shuffle the domain order, then deal one random node per domain per
    // round: shards co-locate in a domain only once every domain already
    // holds one (the "never co-locate when topology permits" rule).
    std::vector<std::size_t> order(groups.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    for (std::size_t i = 0; i + 1 < order.size(); ++i)
        std::swap(order[i], order[i + rng.below(order.size() - i)]);
    std::vector<net::NodeId> chosen;
    chosen.reserve(count);
    while (chosen.size() < count) {
        bool any = false;
        for (const std::size_t g : order) {
            auto &pool = groups[g];
            if (pool.empty())
                continue;
            const std::size_t j = rng.below(pool.size());
            std::swap(pool[j], pool.back());
            chosen.push_back(pool.back());
            pool.pop_back();
            any = true;
            if (chosen.size() == count)
                break;
        }
        SMARTDS_CHECK(any, "domain spread ran out of nodes at %zu of %u",
                      chosen.size(), count);
    }
    return chosen;
}

MiddleTierServer::Placement
MiddleTierServer::placeWrite(const ServerConfig &config,
                             const net::Message &msg, Rng &rng)
{
    Placement p;
    if (config.policy == ReplicationPolicy::ErasureCode) {
        // EC stripes are placed per request and domain-spread; the
        // chunk manager's sticky whole-chunk replica sets do not apply
        // to shard placement.
        p.nodes = chooseDomainSpreadReplicas(config.storageNodes,
                                             config.writeFanout(), rng);
        return p;
    }
    if (config.chunkManager) {
        p.chunk = config.chunkManager->locate(msg.vmId, msg.blockOffset);
        p.chunked = true;
        config.chunkManager->recordWrite(p.chunk);
        p.nodes = config.chunkManager->replicas(p.chunk, &health_);
        return p;
    }
    p.nodes = chooseDomainSpreadReplicas(config.storageNodes,
                                         config.replication, rng);
    return p;
}

std::vector<net::NodeId>
MiddleTierServer::readCandidates(const ServerConfig &config,
                                 const net::Message &msg)
{
    if (config.policy == ReplicationPolicy::ErasureCode)
        return config.storageNodes; // shards are placed per request
    if (config.chunkManager) {
        const ChunkRef chunk =
            config.chunkManager->locate(msg.vmId, msg.blockOffset);
        return config.chunkManager->replicas(chunk, &health_);
    }
    return config.storageNodes;
}

sim::Completion
MiddleTierServer::expectAck(sim::Simulator &sim, std::uint64_t tag,
                            net::NodeId node, Tick timeout)
{
    sim::Completion ack(sim);
    const AckKey key{tag, node};
    const auto [it, fresh] = pendingAcks_.emplace(key, AckEntry{ack, {}});
    SMARTDS_CHECK(fresh, "duplicate ack expectation for tag %llu",
                   static_cast<unsigned long long>(tag));
    if (timeout > 0) {
        // The timer completes the same completion the waiter holds, so a
        // lost ack needs no watcher coroutine and cannot leak one.
        it->second.timer = sim.schedule(
            timeout,
            [this, key]() {
                const auto entry = pendingAcks_.find(key);
                if (entry == pendingAcks_.end())
                    return;
                sim::Completion waiter = entry->second.completion;
                pendingAcks_.erase(entry);
                ++failover_.replicaTimeouts;
                waiter.complete(0);
            },
            sim::EventTag::Nic);
    }
    return ack;
}

void
MiddleTierServer::deliverAck(std::uint64_t tag, net::NodeId node)
{
    const auto it = pendingAcks_.find(AckKey{tag, node});
    if (it == pendingAcks_.end()) {
        // Late ack from a retired wait (the replica was retried or the
        // block repaired in the background). Expected under failover.
        ++failover_.staleAcks;
        return;
    }
    sim::Completion waiter = it->second.completion;
    it->second.timer.cancel();
    pendingAcks_.erase(it);
    waiter.complete(1);
}

sim::Completion
MiddleTierServer::expectFetch(sim::Simulator &sim, std::uint64_t tag,
                              Tick timeout)
{
    sim::Completion fetched(sim);
    const auto [it, fresh] =
        pendingFetches_.emplace(tag, FetchEntry{fetched, {}});
    SMARTDS_CHECK(fresh, "duplicate pending fetch for tag %llu",
                  static_cast<unsigned long long>(tag));
    if (timeout > 0) {
        // Holding the timer per-entry (and cancelling it on delivery)
        // is load-bearing: with a bare schedule(), a timer armed for an
        // earlier probe of the same tag would fire into a later probe's
        // wait and fail it spuriously.
        it->second.timer = sim.schedule(
            timeout,
            [this, tag]() {
                const auto entry = pendingFetches_.find(tag);
                if (entry == pendingFetches_.end())
                    return;
                sim::Completion waiter = entry->second.completion;
                pendingFetches_.erase(entry);
                waiter.complete(0);
            },
            sim::EventTag::Nic);
    }
    return fetched;
}

void
MiddleTierServer::deliverFetch(net::Message msg)
{
    const auto it = pendingFetches_.find(msg.tag);
    if (it == pendingFetches_.end()) {
        // The fetch timed out and moved on; late data is dropped.
        ++failover_.staleAcks;
        return;
    }
    sim::Completion done = it->second.completion;
    it->second.timer.cancel();
    pendingFetches_.erase(it);
    fetchReplies_[msg.tag] = std::move(msg);
    done.complete(1);
}

net::Message
MiddleTierServer::takeFetchReply(std::uint64_t tag)
{
    const auto it = fetchReplies_.find(tag);
    SMARTDS_CHECK(it != fetchReplies_.end(), "lost fetch reply");
    net::Message reply = std::move(it->second);
    fetchReplies_.erase(it);
    return reply;
}

MiddleTierServer::VerifiedBlock
MiddleTierServer::verifyFetchedBlock(const ServerConfig &config,
                                     const net::Message &reply)
{
    VerifiedBlock out;
    out.corrupt = reply.payload.corrupted;
    if (out.corrupt || !reply.payload.data)
        return out;
    std::optional<StorageHeader> hdr;
    if (reply.headerData)
        hdr = StorageHeader::decode(*reply.headerData);
    const corpus::BlockCodecCache::Entry *cached =
        config.blockCache
            ? config.blockCache->lookupCompressed(reply.payload.blockId,
                                                  reply.payload.data->data(),
                                                  reply.payload.data->size())
            : nullptr;
    if (cached) {
        // The hash guard proved the stored bytes are the cached
        // compressed block, so decompression is a lookup; the header
        // checksum is still compared, as on the slow path.
        if (hdr && hdr->blockChecksum != 0 &&
            cached->plainChecksum != hdr->blockChecksum) {
            out.corrupt = true;
            return out;
        }
        out.plain = cached->plain;
        return out;
    }
    const Bytes plain_size = reply.payload.originalSize
                                 ? reply.payload.originalSize
                                 : reply.payload.size;
    auto plain = lz4::decompress(*reply.payload.data, plain_size);
    if (!plain) {
        out.corrupt = true;
        return out;
    }
    if (hdr && hdr->blockChecksum != 0 &&
        xxhash32(*plain) != hdr->blockChecksum) {
        out.corrupt = true;
        return out;
    }
    out.plain =
        std::make_shared<const std::vector<std::uint8_t>>(std::move(*plain));
    return out;
}

MiddleTierServer::VerifiedBlock
MiddleTierServer::decodeEcStripe(const ServerConfig &config,
                                 const std::vector<unsigned> &shard_idx,
                                 const std::vector<net::Message> &shard_msgs,
                                 Bytes stripe_bytes)
{
    VerifiedBlock out;
    if (shard_msgs.empty() || !shard_msgs.front().payload.data)
        return out; // timing-only stripe: nothing to reassemble
    std::vector<std::pair<unsigned, const std::vector<std::uint8_t> *>>
        pairs;
    pairs.reserve(shard_idx.size());
    for (std::size_t i = 0; i < shard_idx.size(); ++i)
        pairs.emplace_back(shard_idx[i], shard_msgs[i].payload.data.get());
    auto stripe = ecCodec(config).decode(pairs, stripe_bytes);
    if (!stripe) {
        out.corrupt = true;
        return out;
    }
    // The stripe is the compressed block; decompress and verify the
    // header checksum the VM stamped at write time.
    const net::Message &stored = shard_msgs.front();
    const Bytes plain_size = stored.payload.originalSize
                                 ? stored.payload.originalSize
                                 : stripe_bytes;
    auto plain = lz4::decompress(*stripe, plain_size);
    if (!plain) {
        out.corrupt = true;
        return out;
    }
    if (stored.headerData) {
        const auto hdr = StorageHeader::decode(*stored.headerData);
        if (hdr && hdr->blockChecksum != 0 &&
            xxhash32(*plain) != hdr->blockChecksum) {
            out.corrupt = true;
            return out;
        }
    }
    out.plain =
        std::make_shared<const std::vector<std::uint8_t>>(std::move(*plain));
    return out;
}

net::NodeId
MiddleTierServer::pickReplacement(const ServerConfig &config, Rng &rng,
                                  const std::vector<net::NodeId> &placement,
                                  net::NodeId bad) const
{
    const auto placed = [&placement](net::NodeId n) {
        return std::find(placement.begin(), placement.end(), n) !=
               placement.end();
    };
    // With topology known, a domain already holding a shard/replica of
    // this block is as lost to a correlated failure as the bad node
    // itself — prefer nodes from untouched domains.
    const auto domain_used = [this, &placement](net::NodeId n) {
        if (!health_.hasDomains())
            return false;
        const unsigned d = health_.domainOf(n);
        for (const net::NodeId p : placement)
            if (p != n && health_.domainOf(p) == d)
                return true;
        return false;
    };
    std::vector<net::NodeId> candidates;
    for (const net::NodeId n : config.storageNodes)
        if (n != bad && !placed(n) && !health_.suspected(n) &&
            !domain_used(n))
            candidates.push_back(n);
    if (candidates.empty()) {
        // No untouched domain offers a healthy node; fall back to any
        // healthy node outside the placement.
        for (const net::NodeId n : config.storageNodes)
            if (n != bad && !placed(n) && !health_.suspected(n))
                candidates.push_back(n);
    }
    if (candidates.empty()) {
        // Every spare node is suspected; any distinct node still beats
        // hammering the one that just timed out.
        for (const net::NodeId n : config.storageNodes)
            if (n != bad && !placed(n))
                candidates.push_back(n);
    }
    if (candidates.empty())
        return bad;
    return candidates[rng.below(candidates.size())];
}

sim::Process
MiddleTierServer::replicateWithFailover(sim::Simulator &sim, Rng &rng,
                                        const ServerConfig &config,
                                        ReplicaTask task)
{
    Tick timeout = config.failover.ackTimeout;
    net::NodeId target = task.target;
    bool durable = false;
    for (unsigned attempt = 0;; ++attempt) {
        sim::Completion ack = expectAck(sim, task.tag, target, timeout);
        task.send(target);
        failover_.replicaBytesSent += task.blockBytes;
        if (co_await ack != 0) {
            health_.noteAck(target);
            durable = true;
            break;
        }
        if (health_.noteTimeout(target))
            ++failover_.nodesSuspected;
        if (attempt >= config.failover.maxRetries)
            break;
        ++failover_.replicaRetries;
        // First retry stays on the same node (a single timeout is often
        // transient); repeat offenders — or nodes already suspected —
        // get the replica moved to a healthy peer.
        if (attempt > 0 || health_.suspected(target)) {
            const net::NodeId next =
                pickReplacement(config, rng, *task.placement, target);
            if (next != target) {
                ++failover_.replicaReplacements;
                (*task.placement)[task.slot] = next;
                if (task.chunked && config.chunkManager)
                    config.chunkManager->replaceReplica(task.chunk, target,
                                                        next);
                target = next;
            }
        }
        timeout = std::min(timeout * 2, config.failover.ackTimeoutCap);
    }
    if (!durable) {
        ++failover_.replicasAbandoned;
        // The block is about to be rewritten by a background repair /
        // reconstruction; the cached copy must not outlive it.
        cacheInvalidate(task.vmId, task.blockOffset);
        if (maintenance_ && task.makeRepair) {
            // Move the replica off the failing node for good and hand the
            // resend to the background repair queue; the serving path
            // stops waiting on it.
            net::NodeId repair_target =
                pickReplacement(config, rng, *task.placement, target);
            if (repair_target != target) {
                (*task.placement)[task.slot] = repair_target;
                if (task.chunked && config.chunkManager)
                    config.chunkManager->replaceReplica(task.chunk, target,
                                                        repair_target);
            }
            // An abandoned EC shard is reconstructed from k surviving
            // shards; a whole-block replica is simply re-read and
            // re-sent. Keyed by (tag, slot) so a flapping node cannot
            // enqueue the same shard twice.
            const unsigned fan_in = task.ec ? config.ec.dataShards : 1;
            if (maintenance_->scheduleRepair({task.tag, task.slot},
                                             task.blockBytes, fan_in,
                                             task.makeRepair(repair_target)))
                ++failover_.repairsScheduled;
        }
    }
    if (task.ec)
        ecLedgerArrive(task.tag, task.slot);
    if (task.quorumLatch)
        task.quorumLatch->tryArrive();
    if (task.allLatch)
        task.allLatch->arrive();
}

const ec::RsCodec &
MiddleTierServer::ecCodec(const ServerConfig &config)
{
    if (!codec_)
        codec_ = std::make_unique<ec::RsCodec>(config.ec.dataShards,
                                               config.ec.parityShards);
    SMARTDS_CHECK(codec_->k() == config.ec.dataShards &&
                      codec_->m() == config.ec.parityShards,
                  "EC geometry changed mid-run: RS(%u, %u) vs RS(%u, %u)",
                  codec_->k(), codec_->m(), config.ec.dataShards,
                  config.ec.parityShards);
    return *codec_;
}

std::vector<net::Payload>
MiddleTierServer::encodeShards(const ServerConfig &config, std::uint64_t tag,
                               const net::Payload &block)
{
    const ec::RsCodec &codec = ecCodec(config);
    const unsigned n = codec.n();
    const Bytes shard_bytes = ec::RsCodec::shardSize(block.size, codec.k());
    std::vector<std::vector<std::uint8_t>> encoded;
    if (block.data)
        encoded = codec.encode(block.data->data(), block.data->size());
    std::vector<net::Payload> shards(n);
    for (unsigned s = 0; s < n; ++s) {
        net::Payload &p = shards[s];
        p.size = shard_bytes;
        p.compressibility = block.compressibility;
        p.compressed = block.compressed;
        p.originalSize = block.originalSize;
        p.ecK = static_cast<std::uint8_t>(codec.k());
        p.ecM = static_cast<std::uint8_t>(codec.m());
        p.ecShard = static_cast<std::uint8_t>(s);
        p.ecStripeBytes = block.size;
        if (!encoded.empty()) {
            auto bytes = std::make_shared<std::vector<std::uint8_t>>(
                std::move(encoded[s]));
            p.ecShardChecksum = xxhash32(*bytes);
            p.data = std::move(bytes);
        }
    }
    ++failover_.stripesEncoded;
    ecLedgerOpen(tag, n);
    return shards;
}

RequestEngine::RequestEngine(net::Fabric &fabric, ServerConfig config)
    : MiddleTierServer(fabric), sim_(fabric.simulator()),
      config_(std::move(config)), rng_(config_.seed)
{
    initFailover(config_);
}

void
RequestEngine::dispatch(net::Message msg, unsigned port)
{
    switch (msg.kind) {
      case net::MessageKind::WriteRequest:
        sim::spawn(sim_, serveWrite(std::move(msg), port));
        break;
      case net::MessageKind::WriteReplicaAck:
        deliverAck(msg.tag, msg.src);
        break;
      case net::MessageKind::ReadRequest:
        sim::spawn(sim_, serveRead(std::move(msg), port));
        break;
      case net::MessageKind::ReadFetchReply:
        deliverFetch(std::move(msg));
        break;
      default:
        panic("%s server: unexpected message kind %u", designName(design()),
              static_cast<unsigned>(msg.kind));
    }
}

namespace {

/** Reply to request @p req: routing, tag and trace, no payload. */
net::Message
replyTo(const net::Message &req, net::MessageKind kind)
{
    net::Message reply;
    reply.dst = req.src;
    reply.dstQp = req.srcQp;
    reply.kind = kind;
    reply.headerBytes = StorageHeader::wireSize;
    reply.tag = req.tag;
    reply.issueTick = req.issueTick;
    reply.trace = req.trace;
    return reply;
}

net::Message
readReply(const net::Message &req, Bytes size,
          std::shared_ptr<const std::vector<std::uint8_t>> data,
          double compressibility)
{
    net::Message reply = replyTo(req, net::MessageKind::ReadReply);
    reply.payload.size = size;
    reply.payload.data = std::move(data);
    reply.payload.compressibility = compressibility;
    return reply;
}

/** Storage fetch of read @p req from @p target, sized @p size_hint. */
net::Message
fetchFrom(const net::Message &req, net::NodeId target, Bytes size_hint)
{
    net::Message fetch;
    fetch.dst = target;
    fetch.kind = net::MessageKind::ReadFetch;
    fetch.headerBytes = StorageHeader::wireSize;
    fetch.tag = req.tag;
    fetch.issueTick = req.issueTick;
    fetch.payload.size = size_hint;
    fetch.payload.compressibility = req.payload.compressibility;
    fetch.payload.originalSize = req.payload.originalSize;
    fetch.trace = req.trace;
    return fetch;
}

} // namespace

net::Payload
RequestEngine::compressBlock(const net::Message &msg) const
{
    net::Payload block;
    block.compressed = true;
    block.originalSize = msg.payload.size;
    block.compressibility = msg.payload.compressibility;
    block.blockId = msg.payload.blockId;
    if (!msg.payload.data) {
        // Timing mode: the compressibility the corpus sampler attached.
        block.size = std::max<Bytes>(
            static_cast<Bytes>(static_cast<double>(msg.payload.size) *
                               msg.payload.compressibility),
            1);
        return block;
    }
    // Corpus-backed payloads resolve to the precomputed compressed buffer
    // (hash-guarded: mutated bytes fall through to the codec).
    const std::vector<std::uint8_t> &plain = *msg.payload.data;
    const corpus::BlockCodecCache::Entry *cached =
        config_.blockCache
            ? config_.blockCache->lookupPlain(msg.payload.blockId,
                                              plain.data(), plain.size())
            : nullptr;
    block.data = cached ? cached->compressed
                        : std::make_shared<const std::vector<std::uint8_t>>(
                              lz4::compress(plain, config_.effort));
    block.size = block.data->size();
    return block;
}

Bytes
RequestEngine::encodeStripe(WriteJob &job)
{
    job.shards = encodeShards(config_, job.msg.tag, job.block);
    return job.shards.front().size * static_cast<Bytes>(job.shards.size());
}

sim::Process
RequestEngine::serveWrite(net::Message msg, unsigned port)
{
    // Write-through coherence: the cached copy goes stale the moment the
    // write is accepted, before any concurrent read can hit it.
    if (cacheInvalidate(msg.vmId, msg.blockOffset))
        span(msg.trace, trace::Stage::CacheInvalidate, sim_.now());

    WriteJob job{msg, compressBlock(msg), {}};
    co_await chargeWrite(job);

    // Each replica (or RS shard) runs its own failover loop (timeout,
    // retry, re-placement); the VM is acknowledged once the quorum is
    // durable.
    Placement placement = placeWrite(config_, msg, rng_);
    auto nodes =
        std::make_shared<std::vector<net::NodeId>>(std::move(placement.nodes));
    const unsigned quorum = writeQuorum(config_, nodes->size());
    auto quorum_acks = std::make_shared<sim::CountLatch>(sim_, quorum);
    auto all_acks = std::make_shared<sim::CountLatch>(
        sim_, static_cast<unsigned>(nodes->size()));
    const Tick replicate_start = sim_.now();

    const bool ec = config_.policy == ReplicationPolicy::ErasureCode;
    for (unsigned r = 0; r < nodes->size(); ++r) {
        // Under EC, slot r carries shard r of the stripe; under
        // replication it carries a whole-block copy.
        net::Message replica;
        replica.kind = net::MessageKind::WriteReplica;
        replica.headerBytes = StorageHeader::wireSize;
        replica.tag = msg.tag;
        replica.issueTick = msg.issueTick;
        replica.trace = msg.trace;
        replica.payload = ec ? job.shards[r] : job.block;
        replica.headerData = msg.headerData;

        ReplicaTask task;
        task.tag = msg.tag;
        task.blockBytes = replica.payload.size;
        task.target = (*nodes)[r];
        task.slot = r;
        task.ec = ec;
        task.vmId = msg.vmId;
        task.blockOffset = msg.blockOffset;
        task.placement = nodes;
        task.chunk = placement.chunk;
        task.chunked = placement.chunked;
        task.quorumLatch = quorum_acks;
        task.allLatch = all_acks;
        task.send = [this, replica, lane = port + r,
                     first = (r == 0)](net::NodeId dst) mutable {
            net::Message m = replica;
            m.dst = dst;
            postToStorage(std::move(m), lane, first);
            first = false;
        };
        // The send closure is self-contained (it shares the compressed
        // bytes), so a deferred background repair can simply re-run it.
        task.makeRepair = [send = task.send](net::NodeId dst) {
            return [send, dst]() mutable { send(dst); };
        };
        sim::spawn(sim_, replicateWithFailover(sim_, rng_, config_,
                                               std::move(task)));
    }
    co_await quorum_acks->wait();
    span(msg.trace, trace::Stage::Replicate, replicate_start,
         static_cast<std::uint32_t>(nodes->size()));
    if (!all_acks->wait().done())
        ++failover_.quorumCompletions;

    co_await replyToVm(replyTo(msg, net::MessageKind::WriteReply), port,
                       false);
    noteCompleted(msg.payload.size);
}

sim::Process
RequestEngine::serveRead(net::Message msg, unsigned port)
{
    co_await chargeParse(msg);

    // Hot-block cache: a hit serves the verified plaintext, skipping the
    // storage fetch and decompression.
    if (readCache_) {
        if (const HotBlockCache::Entry *hit =
                readCache_->lookup(msg.vmId, msg.blockOffset)) {
            // Snapshot the entry: the lookup pointer dies if another
            // request inserts or invalidates while we are suspended.
            const HotBlockCache::Entry cached = *hit;
            const Tick hit_start = sim_.now();
            co_await chargeCacheHit(cached);
            span(msg.trace, trace::Stage::CacheHit, hit_start);
            co_await replyToVm(readReply(msg, cached.plainSize, cached.plain,
                                         cached.compressibility),
                               port, true);
            co_return;
        }
        span(msg.trace, trace::Stage::CacheMiss, sim_.now());
    }

    Fetched block;
    if (config_.policy == ReplicationPolicy::ErasureCode)
        block = co_await fetchStripe(msg, port);
    else
        block = co_await fetchReplica(msg, port);
    co_await chargeDecompress(msg, block.stored, block.plain);

    // Keep the verified plaintext for future hits on this block.
    if (block.served && readCache_)
        readCache_->insert(msg.vmId, msg.blockOffset,
                           {block.plain, block.compressibility, block.data});
    co_await replyToVm(readReply(msg, block.plain, block.data,
                                 block.compressibility),
                       port, false);
}

sim::Task<RequestEngine::Fetched>
RequestEngine::fetchReplica(const net::Message &msg, unsigned port)
{
    // Fetch the block from a storage server holding it (Fig. 3b). Crashed
    // or slow replicas time out and the fetch fails over; corrupt data is
    // caught by the end-to-end checksum and served from another replica.
    const auto candidates = readCandidates(config_, msg);
    SMARTDS_CHECK(!candidates.empty(), "read with no storage candidates");
    const std::size_t start = rng_.below(candidates.size());

    Fetched out;
    net::Message stored;
    for (std::size_t a = 0; a < candidates.size() && !out.served; ++a) {
        const net::NodeId target =
            candidates[(start + a) % candidates.size()];
        sim::Completion fetched =
            expectFetch(sim_, msg.tag, config_.failover.ackTimeout);
        postToStorage(fetchFrom(msg, target, msg.payload.size),
                      port + static_cast<unsigned>(a), false);
        if (co_await fetched == 0) {
            ++failover_.readFailovers;
            if (health_.noteTimeout(target))
                ++failover_.nodesSuspected;
            continue;
        }
        health_.noteAck(target);

        net::Message candidate = takeFetchReply(msg.tag);
        // End-to-end integrity: decompress, then verify the checksum the
        // VM stamped into the storage header at write time.
        const VerifiedBlock verified = verifyFetchedBlock(config_, candidate);
        out.data = verified.plain;
        if (verified.corrupt) {
            ++failover_.corruptionsDetected;
            ++failover_.readFailovers;
            // Checksum failover is a cache coherence point: drop any
            // cached copy of the block rather than trust it outlived
            // whatever corrupted the replica.
            if (cacheInvalidate(msg.vmId, msg.blockOffset))
                span(msg.trace, trace::Stage::CacheInvalidate, sim_.now());
            continue;
        }
        stored = std::move(candidate);
        out.served = true;
    }
    if (!out.served)
        ++failover_.readsUnserved;

    out.stored = std::max<Bytes>(
        out.served ? stored.payload.size : msg.payload.size, 1);
    out.plain = std::max<Bytes>(
        stored.payload.originalSize
            ? stored.payload.originalSize
            : (msg.payload.originalSize ? msg.payload.originalSize
                                        : out.stored),
        1);
    out.compressibility = stored.payload.compressibility;
    co_return out;
}

sim::Task<RequestEngine::Fetched>
RequestEngine::fetchStripe(const net::Message &msg, unsigned port)
{
    // Probe the pool for any k healthy shards of the stripe, then
    // reassemble: concat when the k data shards answered, RS decode from
    // parity otherwise. Each shard probe reuses the read-path
    // timeout/health machinery.
    const ec::RsCodec &codec = ecCodec(config_);
    const unsigned k = codec.k();
    const auto candidates = readCandidates(config_, msg);
    SMARTDS_CHECK(candidates.size() >= k,
                  "EC read needs %u storage nodes, have %zu", k,
                  candidates.size());
    const std::size_t ring_start = rng_.below(candidates.size());

    // Shard-size hint for timing-mode storage synthesis: the client's
    // compressed-size hint (or compressibility estimate) split k ways.
    const Bytes stripe_hint = std::max<Bytes>(
        msg.payload.size
            ? msg.payload.size
            : static_cast<Bytes>(
                  static_cast<double>(msg.payload.originalSize) *
                  msg.payload.compressibility),
        1);
    const Bytes shard_hint = ec::RsCodec::shardSize(stripe_hint, k);

    // Collected shards: index + reply (bytes in functional mode).
    std::vector<unsigned> shard_idx;
    std::vector<net::Message> shard_msgs;
    bool degraded = false;
    const Tick collect_start = sim_.now();
    for (std::size_t a = 0; a < candidates.size() && shard_idx.size() < k;
         ++a) {
        const net::NodeId target =
            candidates[(ring_start + a) % candidates.size()];
        net::Message fetch = fetchFrom(msg, target, shard_hint);
        fetch.payload.ecK = static_cast<std::uint8_t>(k);
        fetch.payload.ecM = static_cast<std::uint8_t>(codec.m());
        fetch.payload.ecShard = static_cast<std::uint8_t>(
            std::min<std::size_t>(shard_idx.size(), codec.n() - 1));
        fetch.payload.ecStripeBytes = stripe_hint;

        sim::Completion fetched =
            expectFetch(sim_, msg.tag, config_.failover.ackTimeout);
        postToStorage(std::move(fetch), port + static_cast<unsigned>(a),
                      false);
        if (co_await fetched == 0) {
            ++failover_.readFailovers;
            degraded = true;
            if (health_.noteTimeout(target))
                ++failover_.nodesSuspected;
            continue;
        }
        health_.noteAck(target);

        net::Message candidate = takeFetchReply(msg.tag);
        if (candidate.payload.ecK == 0) {
            // Functional mode: this node holds no shard of the stripe
            // (the stub reply) — normal when probing the whole pool.
            degraded = true;
            continue;
        }
        if (candidate.payload.corrupted ||
            (candidate.payload.data &&
             xxhash32(*candidate.payload.data) !=
                 candidate.payload.ecShardChecksum)) {
            ++failover_.corruptionsDetected;
            ++failover_.readFailovers;
            degraded = true;
            continue;
        }
        const unsigned idx = candidate.payload.ecShard;
        if (std::find(shard_idx.begin(), shard_idx.end(), idx) !=
            shard_idx.end())
            continue; // duplicate shard index (repaired copy)
        shard_idx.push_back(idx);
        shard_msgs.push_back(std::move(candidate));
    }
    span(msg.trace, trace::Stage::DegradedRead, collect_start,
         static_cast<std::uint32_t>(shard_idx.size()));

    const bool have = shard_idx.size() >= k;
    if (!have)
        ++failover_.readsUnserved;
    const bool systematic =
        have && std::all_of(shard_idx.begin(), shard_idx.end(),
                            [k](unsigned i) { return i < k; });
    if (have && (degraded || !systematic))
        ++failover_.degradedReads;

    const net::Message *stored = have ? &shard_msgs.front() : nullptr;
    const Bytes stripe_bytes = std::max<Bytes>(
        stored ? stored->payload.ecStripeBytes : stripe_hint, 1);
    if (have && !systematic)
        co_await chargeEcDecode(
            msg,
            ec::RsCodec::shardSize(stripe_bytes, k) * static_cast<Bytes>(k),
            stripe_bytes);

    Fetched out;
    out.served = have;
    if (stored && stored->payload.data) {
        // Functional reassembly, byte for byte; the recovered stripe is
        // decompressed and verified against the write-time checksum.
        const VerifiedBlock recovered =
            decodeEcStripe(config_, shard_idx, shard_msgs, stripe_bytes);
        out.served = !recovered.corrupt;
        out.data = recovered.plain;
        if (recovered.corrupt) {
            ++failover_.corruptionsDetected;
            ++failover_.readsUnserved;
            if (cacheInvalidate(msg.vmId, msg.blockOffset))
                span(msg.trace, trace::Stage::CacheInvalidate, sim_.now());
        }
    }
    out.stored = stripe_bytes;
    out.plain = std::max<Bytes>(
        stored && stored->payload.originalSize ? stored->payload.originalSize
                                               : msg.payload.originalSize,
        1);
    out.compressibility = stored ? stored->payload.compressibility
                                 : msg.payload.compressibility;
    co_return out;
}

} // namespace smartds::middletier
