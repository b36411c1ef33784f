/**
 * @file
 * Common interface and shared machinery of the four middle-tier designs
 * the paper compares: CPU-only, accelerator-enhanced ("Acc"), SoC-based
 * SmartNIC ("BF2") and SmartDS.
 *
 * MiddleTierServer is the interface benchmarks drive, plus the placement,
 * node-health and erasure-coding helpers. RequestEngine is the request
 * state machine itself — one write pipeline and one read pipeline, with
 * per-replica failover — which every design runs through datapath hooks.
 */

#ifndef SMARTDS_MIDDLETIER_SERVER_BASE_H_
#define SMARTDS_MIDDLETIER_SERVER_BASE_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/calibration.h"
#include "common/check.h"
#include "ec/reed_solomon.h"
#include "common/random.h"
#include "middletier/chunk_manager.h"
#include "middletier/hot_block_cache.h"
#include "middletier/node_health.h"
#include "net/fabric.h"
#include "sim/process.h"
#include "sim/simulator.h"

namespace smartds::corpus {
class BlockCodecCache;
class StripeTable;
}

namespace smartds::middletier {

class MaintenanceService;

/** Middle-tier design being simulated. */
enum class Design : std::uint8_t
{
    CpuOnly,
    Accelerator,
    Bf2,
    SmartDs,
};

/** Human-readable design label matching the paper's figure legends. */
const char *designName(Design d);

/** How a write's payload is made durable across storage nodes. */
enum class ReplicationPolicy : std::uint8_t
{
    /** Whole-block copies on `replication` nodes (paper: 3-way). */
    Replicate,
    /** RS(k, m) erasure-coded stripes on k + m nodes. */
    ErasureCode,
};

/** Erasure-coding geometry when policy is ErasureCode. */
struct EcConfig
{
    /** Data shards per stripe. */
    unsigned dataShards = 4;
    /** Parity shards per stripe (tolerated shard losses). */
    unsigned parityShards = 2;
};

/** Failure-handling knobs shared by all designs. */
struct FailoverConfig
{
    /** Initial per-replica ack timeout (0 disables timeouts entirely). */
    Tick ackTimeout = calibration::replicaAckTimeout;
    /** Ceiling for the exponential timeout backoff. */
    Tick ackTimeoutCap = calibration::replicaAckTimeoutCap;
    /** Retries per replica after the first attempt. */
    unsigned maxRetries = calibration::replicaMaxRetries;
    /** Consecutive timeouts before a node is suspected. */
    unsigned suspectThreshold = calibration::nodeSuspectThreshold;
    /**
     * Replica acks that complete the VM write (0 = all). With 2-of-3,
     * the VM ack leaves at the second ack and the straggler finishes in
     * the background (repaired via maintenance if it never does).
     */
    unsigned ackQuorum = 0;
};

/** Configuration shared by all designs. */
struct ServerConfig
{
    /** Logical cores the design may use (CPU cores; Arm cores for BF2). */
    unsigned cores = 2;
    /** Candidate storage servers for replica placement. */
    std::vector<net::NodeId> storageNodes;
    /** Replication factor for writes (paper: 3). */
    unsigned replication = calibration::replicationFactor;
    /** Durability policy: whole-block replication or RS(k, m) EC. */
    ReplicationPolicy policy = ReplicationPolicy::Replicate;
    /** RS geometry when policy is ErasureCode. */
    EcConfig ec;
    /**
     * Failure domain (rack / ToR) of each entry in storageNodes, parallel
     * by index. Empty = topology unknown: placement falls back to the
     * domain-oblivious uniform choice.
     */
    std::vector<unsigned> storageDomains;
    /** Storage targets one write fans out to under the current policy. */
    unsigned
    writeFanout() const
    {
        return policy == ReplicationPolicy::ErasureCode
                   ? ec.dataShards + ec.parityShards
                   : replication;
    }
    /** Compression effort the tier applies when not latency sensitive. */
    int effort = 1;
    /** Seed for replica placement and jitter. */
    std::uint64_t seed = 7;
    /**
     * Segment/chunk manager (Section 2.1). When set, replica placement
     * is per-chunk and sticky, and per-chunk write counters feed the
     * compaction bookkeeping; when null, placement is per-request
     * uniform (the simpler model).
     */
    ChunkManager *chunkManager = nullptr;
    /** Failure handling (timeouts, retries, quorum). */
    FailoverConfig failover;
    /**
     * Optional corpus codec cache for the functional datapath. Lookups
     * are hash-guarded (see corpus::BlockCodecCache), so enabling it
     * changes wall-clock cost only, never results.
     */
    const corpus::BlockCodecCache *blockCache = nullptr;
    /**
     * Hot-block read cache (capacityBytes == 0 disables it). Entries
     * hold checksum-verified plaintext keyed by (vmId, blockOffset) and
     * are invalidated on writes, checksum failovers and reconstruction
     * events, so enabling the cache never changes served bytes.
     */
    ReadCacheConfig readCache;
};

/** Cumulative failure-handling counters a server exposes. */
struct FailoverStats
{
    /** Replica ack timeouts observed. */
    std::uint64_t replicaTimeouts = 0;
    /** Replica sends re-issued after a timeout. */
    std::uint64_t replicaRetries = 0;
    /** Retries that moved the replica to a different node. */
    std::uint64_t replicaReplacements = 0;
    /** Replicas given up on after exhausting retries. */
    std::uint64_t replicasAbandoned = 0;
    /** Acks/fetch replies that arrived after their wait was retired. */
    std::uint64_t staleAcks = 0;
    /** Nodes that crossed the suspicion threshold. */
    std::uint64_t nodesSuspected = 0;
    /** Writes acknowledged to the VM at quorum (stragglers pending). */
    std::uint64_t quorumCompletions = 0;
    /** Background replica repairs handed to the maintenance service. */
    std::uint64_t repairsScheduled = 0;
    /** Read-path corruption detections (checksum / engine failures). */
    std::uint64_t corruptionsDetected = 0;
    /** Reads that failed over to another replica. */
    std::uint64_t readFailovers = 0;
    /** Reads that exhausted every replica without clean data. */
    std::uint64_t readsUnserved = 0;
    /** RS(k, m) stripes encoded on the write path. */
    std::uint64_t stripesEncoded = 0;
    /** EC reads that lost >= 1 shard and had to decode from parity. */
    std::uint64_t degradedReads = 0;
    /**
     * Payload bytes pushed to storage nodes, including retries — the
     * numerator of the network-amplification metric (3x for 3-rep,
     * (k+m)/k for RS(k, m), plus failover resends).
     */
    std::uint64_t replicaBytesSent = 0;

    FailoverStats &operator+=(const FailoverStats &o);
};

/**
 * Cumulative named counters a server exposes (bytes moved on memory
 * flows, PCIe directions, ...). Benchmarks snapshot them at the start and
 * end of the measurement window and report rates (Figure 8).
 */
struct UsageProbes
{
    struct Probe
    {
        std::string name;
        std::function<double()> cumulativeBytes;
    };
    std::vector<Probe> probes;

    void
    add(std::string name, std::function<double()> fn)
    {
        probes.push_back({std::move(name), std::move(fn)});
    }
};

/** Abstract middle-tier server. */
class MiddleTierServer
{
  public:
    virtual ~MiddleTierServer() = default;

    /** Node id VMs address write requests to, per front-end port. */
    virtual net::NodeId frontNode(unsigned port = 0) const = 0;

    /** Number of front-end ports accepting VM traffic. */
    virtual unsigned frontPorts() const { return 1; }

    /** Queue pair VMs address on @p port (designs without QPs return 0). */
    virtual net::QpId frontQp(unsigned port = 0) const
    {
        (void)port;
        return 0;
    }

    virtual Design design() const = 0;

    /** Register cumulative byte counters for usage reporting. */
    virtual void addUsageProbes(UsageProbes &probes) = 0;

    /** Write requests fully served (replicated + acknowledged). */
    std::uint64_t requestsCompleted() const { return requestsCompleted_; }

    /** Uncompressed payload bytes of served write requests. */
    Bytes payloadBytesServed() const { return payloadBytesServed_; }

    /** Failure-handling counters (aggregated over cards for MultiCard). */
    virtual FailoverStats failoverStats() const { return failover_; }

    /** Hot-block cache counters (zeros when the cache is disabled). */
    virtual HotBlockCache::Stats
    readCacheStats() const
    {
        return readCache_ ? readCache_->stats() : HotBlockCache::Stats{};
    }

    /** Health view fed by this server's timeout observations. */
    const NodeHealthView &nodeHealth() const { return health_; }

    /**
     * Background repair sink for abandoned replicas (quorum mode). Set
     * after construction because the maintenance service shares the
     * server's core pool and is built second.
     */
    virtual void setMaintenanceService(MaintenanceService *m)
    {
        maintenance_ = m;
    }

  protected:
    MiddleTierServer() = default;

    void
    noteCompleted(Bytes payload_bytes)
    {
        ++requestsCompleted_;
        payloadBytesServed_ += payload_bytes;
    }

    /** Adopt per-design failover knobs (call from the concrete ctor). */
    void
    initFailover(const ServerConfig &config)
    {
        health_.setSuspectThreshold(config.failover.suspectThreshold);
        for (std::size_t i = 0;
             i < config.storageDomains.size() &&
             i < config.storageNodes.size();
             ++i)
            health_.setDomain(config.storageNodes[i],
                              config.storageDomains[i]);
        if (config.readCache.capacityBytes > 0)
            readCache_ = std::make_unique<HotBlockCache>(
                config.readCache.capacityBytes);
    }

    /**
     * Drop a block from the read cache (write / failover / reconstruction
     * coherence point). Returns whether an entry was actually dropped, so
     * callers can record a CacheInvalidate trace stage only when one was.
     */
    bool
    cacheInvalidate(std::uint64_t vm_id, std::uint64_t block_offset)
    {
        return readCache_ && readCache_->invalidate(vm_id, block_offset);
    }

    /**
     * Choose @p replication distinct storage nodes (Section 2.2.1's
     * placement decision; the model picks uniformly).
     */
    static std::vector<net::NodeId>
    chooseReplicas(const std::vector<net::NodeId> &candidates,
                   unsigned replication, Rng &rng);

    /** chooseReplicas over the healthy subset of @p candidates. */
    std::vector<net::NodeId>
    chooseHealthyReplicas(const std::vector<net::NodeId> &candidates,
                          unsigned replication, Rng &rng) const
    {
        return chooseReplicas(health_.filterHealthy(candidates, replication),
                              replication, rng);
    }

    /**
     * Choose @p count distinct healthy nodes spread across failure
     * domains: round-robin over the domains (in shuffled order), one
     * random node per domain per round, so two picks share a domain only
     * when there are more picks than domains. Falls back to
     * chooseHealthyReplicas when no topology is registered.
     */
    std::vector<net::NodeId>
    chooseDomainSpreadReplicas(const std::vector<net::NodeId> &candidates,
                               unsigned count, Rng &rng) const;

    /**
     * A healthy node to move a failing replica to: not @p bad, not
     * already in @p placement, preferring unsuspected nodes — and, when
     * topology is known, nodes in domains the placement does not already
     * occupy. Returns @p bad when the pool offers nothing better (retry
     * in place).
     */
    net::NodeId pickReplacement(const ServerConfig &config, Rng &rng,
                                const std::vector<net::NodeId> &placement,
                                net::NodeId bad) const;

    /**
     * The RS codec for @p config's EC geometry (created on first use;
     * the geometry is fixed per server).
     */
    const ec::RsCodec &ecCodec(const ServerConfig &config);

    /**
     * Split one (compressed) block payload into k + m shard payloads.
     * Functional payloads are RS-encoded byte-for-byte, each shard
     * carrying an xxhash32 checksum of its bytes (corpus blocks alias the
     * config's block-cache stripe memo instead); timing-only payloads
     * get the shard geometry and sizes without data. Also counts the
     * stripe (noteStripe()).
     */
    std::vector<net::Payload> encodeShards(const ServerConfig &config,
                                           std::uint64_t tag,
                                           const net::Payload &block);

    /** Count one encoded stripe and open its checked-build ledger. */
    void
    noteStripe(std::uint64_t tag, unsigned shards)
    {
        ++failover_.stripesEncoded;
        ecLedgerOpen(tag, shards);
    }

    /**
     * Checked-build stripe accounting: every in-flight stripe tracks
     * which of its k + m shards have arrived (ack or abandon); a slot
     * arriving twice or out of range trips SMARTDS_SIM_INVARIANT.
     * No-ops outside checked builds.
     */
    void
    ecLedgerOpen(std::uint64_t tag, unsigned shards)
    {
#if SMARTDS_CHECKED_BUILD
        SMARTDS_SIM_INVARIANT(!ecLedger_.count(tag),
                              "stripe %llu opened twice",
                              static_cast<unsigned long long>(tag));
        ecLedger_[tag].assign(shards, false);
#else
        (void)tag;
        (void)shards;
#endif
    }

    void
    // simlint: allow(event-handle-misuse): RS shard index within the
    // stripe ledger, not a recycled event pool slot
    ecLedgerArrive(std::uint64_t tag, unsigned slot)
    {
#if SMARTDS_CHECKED_BUILD
        const auto it = ecLedger_.find(tag);
        SMARTDS_SIM_INVARIANT(it != ecLedger_.end(),
                              "shard arrival for unopened stripe %llu",
                              static_cast<unsigned long long>(tag));
        auto &arrived = it->second;
        SMARTDS_SIM_INVARIANT(slot < arrived.size(),
                              "stripe %llu shard slot %u out of range",
                              static_cast<unsigned long long>(tag), slot);
        SMARTDS_SIM_INVARIANT(!arrived[slot],
                              "stripe %llu shard %u arrived twice",
                              static_cast<unsigned long long>(tag), slot);
        arrived[slot] = true;
        if (std::all_of(arrived.begin(), arrived.end(),
                        [](bool b) { return b; }))
            ecLedger_.erase(it);
#else
        (void)tag;
        (void)slot;
#endif
    }

    FailoverStats failover_;
    NodeHealthView health_;
    MaintenanceService *maintenance_ = nullptr;
    /** Hot-block read cache (null when disabled). */
    std::unique_ptr<HotBlockCache> readCache_;

  private:
    std::uint64_t requestsCompleted_ = 0;
    Bytes payloadBytesServed_ = 0;
    std::unique_ptr<ec::RsCodec> codec_;
    /** ServerConfig::blockCache's memo for codec_'s geometry, once used. */
    const corpus::StripeTable *stripes_ = nullptr;
#if SMARTDS_CHECKED_BUILD
    std::map<std::uint64_t, std::vector<bool>> ecLedger_;
#endif
};

/**
 * The request state machine of all four designs.
 *
 * The write pipeline invalidates the cached copy, charges the design's
 * write datapath (compression unless the write is latency sensitive, RS
 * encoding under EC), places the block, fans out one
 * replicateWithFailover() task per replica or shard and acknowledges the
 * VM at the write quorum. The read pipeline charges the parse, serves
 * hot-block cache hits, otherwise gathers the first verified replica or
 * any k checksum-clean shards (failing over and updating node health),
 * assembles the stripe, charges decompression, fills the cache and
 * replies. The engine owns placement, the candidate walk, the cache and
 * every FailoverStats counter.
 *
 * A design supplies only the hooks below, which charge its datapath
 * resources, move its bytes and record its datapath spans. Hooks are
 * sim::Tasks, so awaiting one adds no simulator event. The transport and
 * verification hooks default to the host stack (whole messages through a
 * NIC, checksums in software); SmartDS overrides them with its
 * split/assemble queue pairs and on-card engines.
 */
class RequestEngine : public MiddleTierServer
{
  protected:
    RequestEngine(net::Fabric &fabric, ServerConfig config);

    /**
     * The front end a request came in through: its port, and whatever it
     * lends the request (a SmartDS worker adds its buffers and QPs).
     */
    struct Front
    {
        unsigned port = 0;
    };

    /** One write between compression and replication. */
    struct WriteJob
    {
        Front &front;
        const net::Message &msg;
        /** Whether to compress: latency-sensitive writes skip it. */
        bool compress = true;
        /** The block the replicas carry, and under EC its k + m shards. */
        net::Payload block;
        std::vector<net::Payload> shards;
    };

    /**
     * One replica of one write, driven by replicateWithFailover(). The
     * send callback must be safe to invoke repeatedly (retries) while the
     * owning request is in flight; makeRepair — called at most once, at
     * abandon time, while the request is still in flight — must return a
     * self-contained deferred send usable after the request retires.
     */
    struct ReplicaTask
    {
        std::uint64_t tag = 0;
        Bytes blockBytes = 0;
        net::NodeId target = 0;
        // simlint: allow(event-handle-misuse): replica/RS-shard index
        // within the placement, not a recycled event pool slot
        unsigned slot = 0;
        std::shared_ptr<std::vector<net::NodeId>> placement;
        ChunkRef chunk;
        bool chunked = false;
        std::function<void(net::NodeId)> send;
        std::function<std::function<void()>(net::NodeId)> makeRepair;
        std::shared_ptr<sim::CountLatch> quorumLatch;
        std::shared_ptr<sim::CountLatch> allLatch;
        /**
         * Whether this task carries one RS shard (slot = shard index)
         * rather than a whole-block replica. Abandoned shards are handed
         * to maintenance as k-fan-in reconstructions.
         */
        bool ec = false;
        /**
         * Block identity for read-cache coherence: abandoning a replica
         * schedules a repair whose reconstruction will rewrite the block,
         * so the cached copy is dropped at the same point.
         */
        std::uint64_t vmId = 0;
        std::uint64_t blockOffset = 0;
    };

    /**
     * One storage probe: the reply, or none after a timeout or when a
     * stale reply took its place (a failover with no health strike).
     */
    struct Probe
    {
        std::optional<net::Message> reply;
        bool stale = false;
    };

    /** A checksum-verified (and decompressed) fetched block. */
    struct VerifiedBlock
    {
        bool corrupt = false;
        /** Decompressed plaintext (null for timing-only payloads). */
        SharedBytes plain;
    };

    /** What a VM reply carries (an unserved read's is header-only). */
    enum class Reply : std::uint8_t { WriteAck, Served, Cached, Unserved };

    /** Route one arriving message; @p port is the front port it used. */
    void dispatch(net::Message msg, unsigned port = 0);

    /**
     * The write pipeline. Completes, after the VM reply, with the latch
     * of all replica tasks (durable or abandoned), which front ends that
     * reuse per-request buffers await.
     */
    sim::Task<sim::Completion> serveWrite(Front &front, net::Message msg);
    sim::Task<void> serveRead(Front &front, net::Message msg);

    /**
     * @p job's block as the host compresses it (no simulated cost): codec
     * cache or LZ4 on functional bytes, the sampled ratio in timing mode.
     */
    net::Payload compressBlock(const WriteJob &job) const;

    /**
     * RS-encode @p job's block into its k + m shards (called by the write
     * hook where its datapath runs the encoder); returns the shard bytes.
     */
    Bytes encodeStripe(WriteJob &job);

    /** Route an arriving replica ack into the table (stale ones counted). */
    void deliverAck(std::uint64_t tag, net::NodeId node);

    /**
     * Record the span [@p start, now] of @p stage for a sampled request
     * (no-op when tracing is off or the request is not sampled). A plain
     * call rather than a scope guard: early-return paths must not record
     * a stage that never ran.
     */
    void
    span(const trace::TraceContext &tctx, trace::Stage stage, Tick start,
         std::uint32_t depth = 0) const
    {
        if (!tctx)
            return;
        if (trace::Tracer *t = fabric_.tracer())
            t->record(tctx, stage, start, sim_.now(), depth);
    }

    // --- datapath hooks ----------------------------------------------

    /** Fill @p job's block (and shards under EC), charging the work. */
    virtual sim::Task<void> chargeWrite(WriteJob &job) = 0;
    /** Charge parsing the header of request @p msg (reads start here). */
    virtual sim::Task<void> chargeParse(const net::Message &msg) = 0;
    /** Charge serving @p hit from the hot-block cache. */
    virtual sim::Task<void> chargeCacheHit(const HotBlockCache::Entry &hit) = 0;
    /** Charge decompressing @p in stored bytes into @p out plain bytes. */
    virtual sim::Task<void> chargeDecompress(const net::Message &msg,
                                             Bytes in, Bytes out) = 0;
    /** Send @p reply to the VM through @p front. */
    virtual sim::Task<void> replyToVm(Front &front, net::Message reply,
                                      Reply body) = 0;

    // --- transport and verification hooks (host-stack defaults) ------

    /**
     * Set @p task's send and repair callbacks. The default sends a
     * self-contained message via postToStorage(); a repair re-sends it.
     */
    virtual void bindReplica(WriteJob &job, ReplicaTask &task);
    /**
     * Send @p fetch, probe @p attempt of its read, and await the reply or
     * the fetch timeout (default: postToStorage() and the fetch table).
     */
    virtual sim::Task<Probe> probe(Front &front, net::Message fetch,
                                   unsigned attempt);
    /**
     * End-to-end verify one fetched replica: decompress it and compare
     * the checksum the VM stamped into the stored header (timing-only
     * payloads: the `corrupted` fault-injection bit alone).
     */
    virtual sim::Task<VerifiedBlock>
    verifyReplica(Front &front, const net::Message &msg,
                  const net::Message &reply);
    /** Whether a fetched RS shard's bytes match its checksum. */
    virtual sim::Task<bool> shardIntact(Front &front, const net::Message &msg,
                                        const net::Message &reply);
    /**
     * Reassemble a stripe from k shards and verify the block like
     * verifyReplica(); the default charges chargeEcDecode() only when
     * parity is needed (@p systematic false).
     */
    virtual sim::Task<VerifiedBlock>
    assembleStripe(Front &front, const net::Message &msg,
                   const std::vector<unsigned> &shard_idx,
                   const std::vector<net::Message> &shards, Bytes stripe_bytes,
                   bool systematic);

    // Used only by the defaults above (SmartDS overrides those instead).

    /** Charge RS-decoding @p in shard bytes into an @p out-byte stripe. */
    virtual sim::Task<void> chargeEcDecode(const net::Message &msg, Bytes in,
                                           Bytes out);
    /**
     * Send @p m toward storage. @p lane counts the request's sends from
     * its front port (multi-port designs rotate over ports); @p first
     * marks the send that reads the block from memory.
     */
    virtual void postToStorage(net::Message m, unsigned lane, bool first);

    net::Fabric &fabric_;
    sim::Simulator &sim_;
    ServerConfig config_;
    Rng rng_;

  private:
    /** One write's storage targets, as handed to the failover loop. */
    struct Placement
    {
        std::vector<net::NodeId> nodes;
        ChunkRef chunk;
        bool chunked = false;
    };

    /** A read's block as gathered (and, under EC, reassembled). */
    struct Fetched
    {
        bool served = false;
        /** Stored (compressed) bytes the datapath decompresses. */
        Bytes stored = 0;
        /** Plain bytes the reply carries. */
        Bytes plain = 0;
        double compressibility = 0.0;
        SharedBytes data;
    };

    /** One dispatched request, served on its own process. */
    sim::Process serve(net::Message msg, unsigned port);
    /** Gather a verified replica, or k clean shards into a stripe. */
    sim::Task<Fetched> gather(Front &front, const net::Message &msg);

    /**
     * Placement for one write: per-chunk sticky placement through the
     * chunk manager when configured (also recording the write for
     * compaction bookkeeping), domain-spread otherwise. Suspected nodes
     * are excluded from fresh placement either way.
     */
    Placement placeWrite(const net::Message &msg);

    /**
     * Replica candidates for a read of the block @p msg addresses: the
     * chunk's replica set when a chunk manager is configured (reads must
     * hit nodes that hold the data), the whole pool otherwise.
     */
    std::vector<net::NodeId> readCandidates(const net::Message &msg);

    /**
     * Drive one replica to durability: send, await the ack with an
     * exponentially backed-off timeout, re-place onto a healthy node on
     * repeat failure, and after maxRetries hand the replica to the
     * maintenance repair queue. Arrives at the task's quorum/all latches
     * exactly once, whether the replica succeeded or was abandoned.
     */
    sim::Process replicateWithFailover(ReplicaTask task);

    /** Hand an arriving fetch reply to its probe (stale ones counted). */
    void deliverFetch(net::Message msg);

    /**
     * A completion that fires with 1 when @p key's reply is delivered and
     * with 0 after @p timeout (0 = never), from a per-entry timer that
     * delivery cancels: a timer armed for an earlier wait on the same key
     * can never fire into a later one, and a reply that never arrives
     * leaks no watcher coroutine.
     */
    template <typename Map>
    sim::Completion expect(Map &pending, typename Map::key_type key,
                           Tick timeout, std::uint64_t *timeouts);
    /** Complete @p key's wait with 1; false (a stale reply) if none. */
    template <typename Map>
    bool deliver(Map &pending, typename Map::key_type key);

    struct AckKey
    {
        std::uint64_t tag;
        net::NodeId node;
        bool
        operator==(const AckKey &o) const
        {
            return tag == o.tag && node == o.node;
        }
    };
    struct AckKeyHash
    {
        std::size_t
        operator()(const AckKey &k) const
        {
            return std::hash<std::uint64_t>()(
                k.tag * 0x9e3779b97f4a7c15ULL ^ k.node);
        }
    };
    /** One awaited reply; the timer is cancelled on delivery. */
    struct Pending
    {
        sim::Completion completion;
        sim::EventHandle timer;
    };

    std::unordered_map<AckKey, Pending, AckKeyHash> pendingAcks_;
    std::unordered_map<std::uint64_t, Pending> pendingFetches_;
    /** Fetch replies delivered and not yet taken by their probe. */
    std::unordered_map<std::uint64_t, net::Message> fetchReplies_;
};

} // namespace smartds::middletier

#endif // SMARTDS_MIDDLETIER_SERVER_BASE_H_
