/**
 * @file
 * SmartDS-based middle-tier server (paper Sections 4 and 5).
 *
 * This is the middle-tier *application*: host software written against
 * the SmartDS Table 2 API, structured exactly like the paper's Listing 1.
 * Worker coroutines post dev_mixed_recv descriptors so that request
 * headers land in host memory while payloads stay in device HBM, parse
 * the headers on the CPU, invoke on-card compression with dev_func, and
 * replicate with dev_mixed_send — the host never touches a payload byte.
 */

#ifndef SMARTDS_MIDDLETIER_SMARTDS_SERVER_H_
#define SMARTDS_MIDDLETIER_SMARTDS_SERVER_H_

#include <memory>
#include <vector>

#include "host/core_pool.h"
#include "mem/memory_system.h"
#include "middletier/server_base.h"
#include "sim/process.h"
#include "smartds/device.h"

namespace smartds::middletier {

/** Middle tier built on the SmartDS SmartNIC. */
class SmartDsServer : public RequestEngine
{
  public:
    struct SmartDsConfig
    {
        /** Networking ports to use on the card (the Fig. 10 sweep). */
        unsigned ports = 1;
        /**
         * Concurrent worker pipelines per port. Each worker owns its
         * buffers and queue pairs; enough workers must be in flight to
         * cover the request round-trip at line rate.
         */
        unsigned workersPerPort = 128;
        /** Largest data block a request may carry. */
        Bytes maxBlockBytes = calibration::storageBlockBytes;
        /** Device configuration overrides. */
        device::SmartDsDevice::Config device;
    };

    SmartDsServer(net::Fabric &fabric, mem::MemorySystem &memory,
                  ServerConfig config, SmartDsConfig smartds);

    net::NodeId frontNode(unsigned port = 0) const override;
    net::QpId frontQp(unsigned port = 0) const override;
    unsigned frontPorts() const override { return smartds_.ports; }
    Design design() const override { return Design::SmartDs; }
    void addUsageProbes(UsageProbes &probes) override;

    device::SmartDsDevice &smartNic() { return *device_; }
    host::CorePool &cores() { return cores_; }

  private:
    /**
     * One Listing-1 worker: the buffers and queue pairs it allocates once
     * and lends, as the engine's Front, to every request it serves.
     */
    struct Worker : Front
    {
        device::BufferRef hRecv, hSend, hFetch, dRecv, dSend;
        /**
         * A queue pair and ack header buffer per replica slot, so a retry
         * re-targeting one replica can reset its own QP without tearing
         * down a sibling's in-flight send or pending ack.
         */
        std::vector<device::SmartDsDevice::Qp> replicaQps;
        std::vector<device::BufferRef> hAcks;
        /**
         * EC: a shard buffer per slot (writes encode into them, reads
         * gather into them) and a zero-byte hint buffer riding on
         * header-only shard fetches, so timing-mode storage synthesises
         * shard-sized replies.
         */
        std::vector<device::BufferRef> dShards;
        device::BufferRef dHint;
        device::SmartDsDevice::Qp fetchQp, replyQp;
        /** The block the write's replicas send (dRecv, or dSend). */
        device::BufferRef block;
        /** Where the last probe's reply landed, and its payload bytes. */
        device::BufferRef landed;
        Bytes landedSize = 0;
    };

    /**
     * The receive front end: post split receives on @p port's request
     * QP and run each request through the engine with this worker's
     * buffers, holding them until every replica of a write has arrived.
     */
    sim::Process worker(unsigned port);

    sim::Task<void> chargeWrite(WriteJob &job) override;
    sim::Task<void> chargeParse(const net::Message &msg) override;
    sim::Task<void> chargeCacheHit(const HotBlockCache::Entry &hit) override;
    sim::Task<void> chargeDecompress(const net::Message &msg, Bytes in,
                                     Bytes out) override;
    sim::Task<void> replyToVm(Front &front, net::Message reply,
                              Reply body) override;
    void bindReplica(WriteJob &job, ReplicaTask &task) override;
    sim::Task<Probe> probe(Front &front, net::Message fetch,
                           unsigned attempt) override;
    sim::Task<VerifiedBlock> verifyReplica(Front &front,
                                           const net::Message &msg,
                                           const net::Message &reply) override;
    sim::Task<bool> shardIntact(Front &front, const net::Message &msg,
                                const net::Message &reply) override;
    sim::Task<VerifiedBlock>
    assembleStripe(Front &front, const net::Message &msg,
                   const std::vector<unsigned> &shard_idx,
                   const std::vector<net::Message> &shards, Bytes stripe_bytes,
                   bool systematic) override;

    /** Route the replica ack @p ack receives into the ack table. */
    void forwardAck(device::SmartDsDevice::Event ack);

    /**
     * Background resend of an abandoned replica: a one-shot queue pair
     * and snapshot buffers, so it survives the originating request's
     * buffer reuse (invoked from the maintenance repair queue).
     */
    sim::Process repairReplica(unsigned port, net::NodeId dst,
                               device::BufferRef h, device::BufferRef d,
                               Bytes size, std::uint64_t tag, Tick issue);

    SmartDsConfig smartds_;
    std::unique_ptr<device::SmartDsDevice> device_;
    host::CorePool cores_;
    /** The shared request queue pair of each port (clients send here). */
    std::vector<device::SmartDsDevice::Qp> requestQps_;
    /**
     * HBM-resident read cache: the bandwidth flow each hit's DRAM read is
     * billed to (its capacity is reserved from the HBM budget at
     * construction). Null when the cache is off or host-placed.
     */
    sim::FairShareResource::Flow *cacheFlow_ = nullptr;
};

} // namespace smartds::middletier

#endif // SMARTDS_MIDDLETIER_SMARTDS_SERVER_H_
