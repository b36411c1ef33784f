/**
 * @file
 * Back-end storage server model.
 *
 * Storage servers receive (compressed) replica blocks from the middle
 * tier, append them to disk, and acknowledge; for reads they fetch the
 * stored block and return it. The paper's evaluation keeps the storage
 * tier out of the bottleneck; this model gives it realistic NVMe append
 * latency and bounded ingest bandwidth, plus an optional functional store
 * that retains actual block bytes so integration tests can verify
 * write-read round trips byte-for-byte through the whole system.
 */

#ifndef SMARTDS_STORAGE_STORAGE_SERVER_H_
#define SMARTDS_STORAGE_STORAGE_SERVER_H_

#include <string>
#include <unordered_map>
#include <unordered_set>

#include "common/calibration.h"
#include "faults/fault_injector.h"
#include "net/fabric.h"
#include "sim/bandwidth_server.h"

namespace smartds::storage {

/** One storage server attached to the fabric. */
class StorageServer
{
  public:
    struct Config
    {
        /** NVMe append latency per block. */
        Tick appendLatency = calibration::storageAppendLatency;
        /** Disk ingest bandwidth. */
        BytesPerSecond ingestBandwidth = calibration::storageIngestBandwidth;
        /** Keep block bytes for functional read-back verification. */
        bool functionalStore = false;
    };

    StorageServer(net::Fabric &fabric, const std::string &name);
    StorageServer(net::Fabric &fabric, const std::string &name,
                  Config config);

    /** Node id VMs/middle tiers address replicas and fetches to. */
    net::NodeId nodeId() const { return port_->id(); }

    net::Port &port() { return *port_; }

    /** Number of blocks appended so far. */
    std::uint64_t blocksStored() const { return blocksStored_; }

    /** Total (compressed) bytes appended so far. */
    Bytes bytesStored() const { return bytesStored_; }

    /** Functional store lookup (null if absent). */
    const net::Payload *storedBlock(std::uint64_t tag) const;

    /** Stored storage header (functional mode; null if absent). */
    std::shared_ptr<const std::vector<std::uint8_t>>
    storedHeader(std::uint64_t tag) const;

    /**
     * Attach a fault profile (owned by a FaultInjector). The node id is
     * only known after construction, hence a setter rather than a Config
     * field. Null detaches.
     */
    void attachFaults(faults::FaultProfile *profile) { faults_ = profile; }

  private:
    void handle(net::Message msg);
    void handleReplica(net::Message msg);
    void finishReplica(net::Message msg);
    void handleFetch(net::Message msg);

    net::Fabric &fabric_;
    Config config_;
    net::Port *port_;
    sim::BandwidthServer disk_;
    faults::FaultProfile *faults_ = nullptr;
    std::uint64_t blocksStored_ = 0;
    Bytes bytesStored_ = 0;
    /** One functionally stored block: its bytes and its storage header. */
    struct Stored
    {
        net::Payload payload;
        /** Block-storage header for read-path verification (may be null). */
        std::shared_ptr<const std::vector<std::uint8_t>> header;
    };
    /** Functional store: one entry per written tag. */
    std::unordered_map<std::uint64_t, Stored> store_;
    /** Tags whose stored copy took a bit flip (timing mode bookkeeping). */
    std::unordered_set<std::uint64_t> corruptTags_;
};

} // namespace smartds::storage

#endif // SMARTDS_STORAGE_STORAGE_SERVER_H_
