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
    // A corpus block (the guard proves the bytes are the cached compressed
    // block) takes its shards and checksums from the cache's stripe memo,
    // as aliases; anything else runs the codec.
    const corpus::StripeTable *memo = nullptr;
    std::vector<std::vector<std::uint8_t>> encoded;
    if (block.data && config.blockCache &&
        config.blockCache->lookupCompressed(block.blockId, block.data->data(),
                                            block.data->size())) {
        if (!stripes_)
            stripes_ = &config.blockCache->stripes(codec.k(), codec.m());
        memo = stripes_;
    } else if (block.data) {
        encoded = codec.encode(block.data->data(), block.data->size());
    }
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
        if (memo) {
            p.data = memo->shard(block.blockId - 1, s);
            p.ecShardChecksum = memo->checksum(block.blockId - 1, s);
        } else if (!encoded.empty()) {
            p.data = shareBytes(std::move(encoded[s]));
            p.ecShardChecksum = xxhash32(*p.data);
        }
    }
    noteStripe(tag, n);
    return shards;
}

RequestEngine::RequestEngine(net::Fabric &fabric, ServerConfig config)
    : fabric_(fabric), sim_(fabric.simulator()), config_(std::move(config)),
      rng_(config_.seed)
{
    initFailover(config_);
}

void
RequestEngine::dispatch(net::Message msg, unsigned port)
{
    switch (msg.kind) {
      case net::MessageKind::WriteRequest:
      case net::MessageKind::ReadRequest:
        sim::spawn(sim_, serve(std::move(msg), port));
        break;
      case net::MessageKind::WriteReplicaAck:
        deliverAck(msg.tag, msg.src);
        break;
      case net::MessageKind::ReadFetchReply:
        deliverFetch(std::move(msg));
        break;
      default:
        panic("%s server: unexpected message kind %u", designName(design()),
              static_cast<unsigned>(msg.kind));
    }
}

sim::Process
RequestEngine::serve(net::Message msg, unsigned port)
{
    Front front{port};
    if (msg.kind == net::MessageKind::ReadRequest)
        co_await serveRead(front, std::move(msg));
    else
        co_await serveWrite(front, std::move(msg));
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
readReply(const net::Message &req, Bytes size, SharedBytes data,
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

/**
 * @p bytes (the block, or the stripe, @p stored describes) as @p
 * plain_size bytes of plaintext, checked against the checksum the VM
 * stamped into the stored header (0 = unchecked); null when they do not
 * decode or do not match. Corpus blocks resolve through @p cache, whose
 * hash guard proves the bytes are the cached compressed block, so
 * decompression is a lookup. Latency-sensitive writes store the block
 * uncompressed.
 */
SharedBytes
openBlock(const net::Message &stored, ByteView bytes, Bytes plain_size,
          const corpus::BlockCodecCache *cache)
{
    const corpus::BlockCodecCache::Entry *cached =
        cache ? cache->lookupCompressed(stored.payload.blockId, bytes.data(),
                                        bytes.size())
              : nullptr;
    SharedBytes plain;
    if (cached)
        plain = cached->plain;
    else if (auto raw = stored.payload.compressed
                            ? lz4::decompress(bytes, plain_size)
                            : std::optional(std::vector<std::uint8_t>(
                                  bytes.begin(), bytes.end())))
        plain = shareBytes(std::move(*raw));
    else
        return nullptr;
    if (stored.headerData) {
        const auto hdr = StorageHeader::decode(*stored.headerData);
        if (hdr && hdr->blockChecksum != 0 &&
            (cached ? cached->plainChecksum : xxhash32(*plain)) !=
                hdr->blockChecksum)
            return nullptr;
    }
    return plain;
}

} // namespace

RequestEngine::Placement
RequestEngine::placeWrite(const net::Message &msg)
{
    const ServerConfig &config = config_;
    Placement p;
    if (config.policy == ReplicationPolicy::ErasureCode) {
        // EC stripes are placed per request and domain-spread; the
        // chunk manager's sticky whole-chunk replica sets do not apply
        // to shard placement.
        p.nodes = chooseDomainSpreadReplicas(config.storageNodes,
                                             config.writeFanout(), rng_);
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
                                         config.replication, rng_);
    return p;
}

std::vector<net::NodeId>
RequestEngine::readCandidates(const net::Message &msg)
{
    const ServerConfig &config = config_;
    if (config.policy == ReplicationPolicy::ErasureCode)
        return config.storageNodes; // shards are placed per request
    if (config.chunkManager) {
        const ChunkRef chunk =
            config.chunkManager->locate(msg.vmId, msg.blockOffset);
        return config.chunkManager->replicas(chunk, &health_);
    }
    return config.storageNodes;
}

template <typename Map>
sim::Completion
RequestEngine::expect(Map &pending, typename Map::key_type key, Tick timeout,
                      std::uint64_t *timeouts)
{
    sim::Completion done(sim_);
    const auto [it, fresh] = pending.emplace(key, Pending{done, {}});
    SMARTDS_CHECK(fresh, "duplicate wait for one reply");
    if (timeout > 0) {
        // The timer completes the same completion the waiter holds, so a
        // lost reply needs no watcher coroutine and cannot leak one.
        it->second.timer = sim_.schedule(
            timeout,
            [&pending, key, timeouts]() {
                const auto entry = pending.find(key);
                if (entry == pending.end())
                    return;
                sim::Completion waiter = entry->second.completion;
                pending.erase(entry);
                if (timeouts)
                    ++*timeouts;
                waiter.complete(0);
            },
            sim::EventTag::Nic);
    }
    return done;
}

template <typename Map>
bool
RequestEngine::deliver(Map &pending, typename Map::key_type key)
{
    const auto it = pending.find(key);
    if (it == pending.end()) {
        // A late reply to a retired wait (the replica was retried, the
        // fetch moved on, or the block was repaired in the background):
        // expected under failover, and dropped.
        ++failover_.staleAcks;
        return false;
    }
    sim::Completion waiter = it->second.completion;
    it->second.timer.cancel();
    pending.erase(it);
    waiter.complete(1);
    return true;
}

void
RequestEngine::deliverAck(std::uint64_t tag, net::NodeId node)
{
    deliver(pendingAcks_, {tag, node});
}

void
RequestEngine::deliverFetch(net::Message msg)
{
    // The waiter resumes in a later event, after the reply is stashed.
    if (deliver(pendingFetches_, msg.tag))
        fetchReplies_[msg.tag] = std::move(msg);
}

sim::Process
RequestEngine::replicateWithFailover(ReplicaTask task)
{
    const ServerConfig &config = config_;
    Tick timeout = config.failover.ackTimeout;
    net::NodeId target = task.target;
    bool durable = false;
    for (unsigned attempt = 0;; ++attempt) {
        sim::Completion ack = expect(pendingAcks_, {task.tag, target}, timeout,
                                     &failover_.replicaTimeouts);
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
                pickReplacement(config, rng_, *task.placement, target);
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
                pickReplacement(config, rng_, *task.placement, target);
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

net::Payload
RequestEngine::compressBlock(const WriteJob &job) const
{
    const net::Message &msg = job.msg;
    if (!job.compress)
        return msg.payload; // replicated as received
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
    const ByteView plain = *msg.payload.data;
    const corpus::BlockCodecCache::Entry *cached =
        config_.blockCache
            ? config_.blockCache->lookupPlain(msg.payload.blockId,
                                              plain.data(), plain.size())
            : nullptr;
    block.data = cached ? cached->compressed
                        : shareBytes(lz4::compress(plain, config_.effort));
    block.size = block.data->size();
    return block;
}

Bytes
RequestEngine::encodeStripe(WriteJob &job)
{
    job.shards = encodeShards(config_, job.msg.tag, job.block);
    return job.shards.front().size * static_cast<Bytes>(job.shards.size());
}

sim::Task<sim::Completion>
RequestEngine::serveWrite(Front &front, net::Message msg)
{
    // Write-through coherence: the cached copy goes stale the moment the
    // write is accepted, before any concurrent read can hit it.
    if (cacheInvalidate(msg.vmId, msg.blockOffset))
        span(msg.trace, trace::Stage::CacheInvalidate, sim_.now());

    // Listing 1's is_latency_important branch: such writes are forwarded
    // uncompressed on every design.
    WriteJob job{front, msg, !msg.latencySensitive, {}, {}};
    co_await chargeWrite(job);

    // Each replica (or RS shard) runs its own failover loop (timeout,
    // retry, re-placement); the VM is acknowledged once the quorum is
    // durable.
    Placement placement = placeWrite(msg);
    auto nodes =
        std::make_shared<std::vector<net::NodeId>>(std::move(placement.nodes));
    // Acks before the VM reply (0 = all). Under EC the quorum never drops
    // below k: fewer durable shards cannot reconstruct the stripe.
    unsigned quorum = config_.failover.ackQuorum;
    if (quorum == 0 || quorum > nodes->size())
        quorum = static_cast<unsigned>(nodes->size());
    else if (config_.policy == ReplicationPolicy::ErasureCode)
        quorum = std::max(quorum, config_.ec.dataShards);
    auto quorum_acks = std::make_shared<sim::CountLatch>(sim_, quorum);
    auto all_acks = std::make_shared<sim::CountLatch>(
        sim_, static_cast<unsigned>(nodes->size()));
    const Tick replicate_start = sim_.now();

    const bool ec = config_.policy == ReplicationPolicy::ErasureCode;
    for (unsigned r = 0; r < nodes->size(); ++r) {
        // Under EC, slot r carries shard r of the stripe; under
        // replication it carries a whole-block copy.
        ReplicaTask task;
        task.tag = msg.tag;
        task.blockBytes = ec ? job.shards[r].size : job.block.size;
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
        bindReplica(job, task);
        sim::spawn(sim_, replicateWithFailover(std::move(task)));
    }
    co_await quorum_acks->wait();
    span(msg.trace, trace::Stage::Replicate, replicate_start,
         static_cast<std::uint32_t>(nodes->size()));
    if (!all_acks->wait().done())
        ++failover_.quorumCompletions;

    co_await replyToVm(front, replyTo(msg, net::MessageKind::WriteReply),
                       Reply::WriteAck);
    noteCompleted(msg.payload.size);
    co_return all_acks->wait();
}

void
RequestEngine::bindReplica(WriteJob &job, ReplicaTask &task)
{
    net::Message replica;
    replica.kind = net::MessageKind::WriteReplica;
    replica.headerBytes = StorageHeader::wireSize;
    replica.tag = job.msg.tag;
    replica.issueTick = job.msg.issueTick;
    replica.trace = job.msg.trace;
    replica.payload = task.ec ? job.shards[task.slot] : job.block;
    replica.headerData = job.msg.headerData;
    task.send = [this, replica, lane = job.front.port + task.slot,
                 first = (task.slot == 0)](net::NodeId dst) mutable {
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
}

sim::Task<void>
RequestEngine::serveRead(Front &front, net::Message msg)
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
            co_await replyToVm(front,
                               readReply(msg, cached.plainSize, cached.plain,
                                         cached.compressibility),
                               Reply::Cached);
            co_return;
        }
        span(msg.trace, trace::Stage::CacheMiss, sim_.now());
    }

    const Fetched block = co_await gather(front, msg);
    co_await chargeDecompress(msg, block.stored, block.plain);

    // Keep the verified plaintext for future hits on this block.
    if (block.served && readCache_)
        readCache_->insert(msg.vmId, msg.blockOffset,
                           {block.plain, block.compressibility, block.data});
    co_await replyToVm(front,
                       readReply(msg, block.plain, block.data,
                                 block.compressibility),
                       block.served ? Reply::Served : Reply::Unserved);
}

sim::Task<RequestEngine::Probe>
RequestEngine::probe(Front &front, net::Message fetch, unsigned attempt)
{
    const std::uint64_t tag = fetch.tag;
    sim::Completion fetched =
        expect(pendingFetches_, tag, config_.failover.ackTimeout, nullptr);
    postToStorage(std::move(fetch), front.port + attempt, false);
    Probe out;
    if (co_await fetched != 0) {
        const auto it = fetchReplies_.find(tag);
        SMARTDS_CHECK(it != fetchReplies_.end(), "lost fetch reply");
        out.reply = std::move(it->second);
        fetchReplies_.erase(it);
    }
    co_return out;
}

sim::Task<RequestEngine::VerifiedBlock>
RequestEngine::verifyReplica(Front &, const net::Message &,
                             const net::Message &reply)
{
    VerifiedBlock out;
    out.corrupt = reply.payload.corrupted;
    if (out.corrupt || !reply.payload.data)
        co_return out;
    out.plain = openBlock(reply, *reply.payload.data,
                          reply.payload.originalSize
                              ? reply.payload.originalSize
                              : reply.payload.size,
                          config_.blockCache);
    out.corrupt = !out.plain;
    co_return out;
}

sim::Task<bool>
RequestEngine::shardIntact(Front &, const net::Message &,
                           const net::Message &reply)
{
    co_return !reply.payload.corrupted &&
        !(reply.payload.data &&
          xxhash32(*reply.payload.data) != reply.payload.ecShardChecksum);
}

sim::Task<RequestEngine::VerifiedBlock>
RequestEngine::assembleStripe(Front &, const net::Message &msg,
                              const std::vector<unsigned> &shard_idx,
                              const std::vector<net::Message> &shard_msgs,
                              Bytes stripe_bytes, bool systematic)
{
    if (!systematic) {
        const unsigned k = config_.ec.dataShards;
        co_await chargeEcDecode(msg,
                                ec::RsCodec::shardSize(stripe_bytes, k) *
                                    static_cast<Bytes>(k),
                                stripe_bytes);
    }
    // Reassemble functional bytes; the stripe is the stored block.
    VerifiedBlock out;
    if (shard_msgs.empty() || !shard_msgs.front().payload.data)
        co_return out; // timing-only stripe: nothing to reassemble
    std::vector<std::pair<unsigned, ByteView>> pairs;
    pairs.reserve(shard_idx.size());
    for (std::size_t i = 0; i < shard_idx.size(); ++i) {
        const SharedBytes &bytes = shard_msgs[i].payload.data;
        pairs.emplace_back(shard_idx[i], bytes ? *bytes : ByteView());
    }
    const net::Message &stored = shard_msgs.front();
    if (const auto stripe = ecCodec(config_).decode(pairs, stripe_bytes))
        out.plain = openBlock(stored, *stripe,
                              stored.payload.originalSize
                                  ? stored.payload.originalSize
                                  : stripe_bytes,
                              config_.blockCache);
    out.corrupt = !out.plain;
    co_return out;
}

sim::Task<void>
RequestEngine::chargeEcDecode(const net::Message &, Bytes, Bytes)
{
    panic("%s server has no host EC decode", designName(design()));
    co_return;
}

void
RequestEngine::postToStorage(net::Message, unsigned, bool)
{
    panic("%s server has no message transport", designName(design()));
}

sim::Task<RequestEngine::Fetched>
RequestEngine::gather(Front &front, const net::Message &msg)
{
    // Probe the candidates round-robin from a random start until a
    // replica verifies end to end (Fig. 3b) or, under EC, until any k
    // shards pass their checksums. Crashed or slow nodes time out and
    // corrupt data fails its checksum; either way the read fails over.
    const bool ec = config_.policy == ReplicationPolicy::ErasureCode;
    const ec::RsCodec *codec = ec ? &ecCodec(config_) : nullptr;
    const unsigned k = ec ? codec->k() : 1;
    const auto candidates = readCandidates(msg);
    SMARTDS_CHECK(candidates.size() >= k,
                  "read needs %u storage nodes, have %zu", k,
                  candidates.size());
    const std::size_t start = rng_.below(candidates.size());

    // Size hint for timing-mode storage synthesis: the client's
    // compressed-size hint (or compressibility estimate), split k ways
    // for a shard.
    const Bytes stripe_hint = std::max<Bytes>(
        msg.payload.size
            ? msg.payload.size
            : static_cast<Bytes>(
                  static_cast<double>(msg.payload.originalSize) *
                  msg.payload.compressibility),
        1);

    Fetched out;
    std::vector<unsigned> shard_idx;
    std::vector<net::Message> got;
    bool degraded = false;
    const Tick collect_start = sim_.now();
    for (std::size_t a = 0; a < candidates.size() && got.size() < k; ++a) {
        const net::NodeId target =
            candidates[(start + a) % candidates.size()];
        net::Message fetch = fetchFrom(
            msg, target,
            ec ? ec::RsCodec::shardSize(stripe_hint, k) : msg.payload.size);
        if (ec) {
            fetch.payload.ecK = static_cast<std::uint8_t>(k);
            fetch.payload.ecM = static_cast<std::uint8_t>(codec->m());
            fetch.payload.ecShard = static_cast<std::uint8_t>(
                std::min<std::size_t>(got.size(), codec->n() - 1));
            fetch.payload.ecStripeBytes = stripe_hint;
        }
        Probe p =
            co_await probe(front, std::move(fetch), static_cast<unsigned>(a));
        if (!p.reply) {
            // A stale reply in the probe's place is no strike on the node.
            ++failover_.readFailovers;
            if (p.stale)
                ++failover_.staleAcks;
            else if (health_.noteTimeout(target))
                ++failover_.nodesSuspected;
            degraded = true;
            continue;
        }
        health_.noteAck(target);

        net::Message &reply = *p.reply;
        if (ec && reply.payload.ecK == 0) {
            // Functional mode: this node holds no shard of the stripe
            // (the stub reply) — normal when probing the whole pool.
            degraded = true;
            continue;
        }
        // End-to-end integrity: a shard's own checksum, or the block's
        // decompressed bytes against the header the VM stamped.
        VerifiedBlock verified;
        if (ec)
            verified.corrupt = !co_await shardIntact(front, msg, reply);
        else
            verified = co_await verifyReplica(front, msg, reply);
        if (verified.corrupt) {
            ++failover_.corruptionsDetected;
            ++failover_.readFailovers;
            // Checksum failover is a cache coherence point: drop any
            // cached copy of the block rather than trust it outlived
            // whatever corrupted the replica.
            if (cacheInvalidate(msg.vmId, msg.blockOffset))
                span(msg.trace, trace::Stage::CacheInvalidate, sim_.now());
            degraded = true;
            continue;
        }
        const unsigned idx = reply.payload.ecShard;
        if (ec && (idx >= codec->n() ||
                   std::find(shard_idx.begin(), shard_idx.end(), idx) !=
                       shard_idx.end()))
            continue; // out-of-range or duplicate index (repaired copy)
        shard_idx.push_back(idx);
        got.push_back(std::move(reply));
        out.data = verified.plain;
    }
    const bool have = got.size() >= k;
    if (!have)
        ++failover_.readsUnserved;
    const net::Message *stored = have ? &got.front() : nullptr;

    if (!ec) {
        out.served = have;
        out.stored = std::max<Bytes>(
            stored ? stored->payload.size : msg.payload.size, 1);
        const Bytes original =
            stored ? stored->payload.originalSize : Bytes{0};
        out.plain = std::max<Bytes>(
            original ? original
                     : (msg.payload.originalSize ? msg.payload.originalSize
                                                 : out.stored),
            1);
        out.compressibility = stored ? stored->payload.compressibility
                                     : net::Payload{}.compressibility;
        co_return out;
    }

    // Reassemble the stripe: concat when the k data shards answered, RS
    // decode from parity otherwise.
    span(msg.trace, trace::Stage::DegradedRead, collect_start,
         static_cast<std::uint32_t>(got.size()));
    const bool systematic =
        have && std::all_of(shard_idx.begin(), shard_idx.end(),
                            [k](unsigned i) { return i < k; });
    if (have && (degraded || !systematic))
        ++failover_.degradedReads;
    const Bytes stripe_bytes = std::max<Bytes>(
        stored ? stored->payload.ecStripeBytes : stripe_hint, 1);
    if (have) {
        const VerifiedBlock recovered = co_await assembleStripe(
            front, msg, shard_idx, got, stripe_bytes, systematic);
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
