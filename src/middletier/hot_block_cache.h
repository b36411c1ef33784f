/**
 * @file
 * Middle-tier hot-block read cache.
 *
 * Skewed tenant traffic (YCSB-style Zipfian address streams) re-reads a
 * small set of hot blocks; caching their verified plaintext at the
 * middle tier turns a storage fetch + decompress round trip into one
 * local memory read. The cache is capacity-accounted (it can live inside
 * the SmartNIC's HBM budget or in host DRAM) and strictly read-only
 * coherent: entries are inserted only after the end-to-end checksum
 * verified the bytes, and invalidated on every write, checksum failover
 * and reconstruction event touching the block, so a cache hit always
 * serves bytes byte-identical to a cache-off run.
 *
 * Determinism: plain LRU over a std::list + unordered_map keyed by
 * (vmId, blockOffset). Lookup/insert/evict order depends only on the
 * request stream, never on hash iteration order.
 */

#ifndef SMARTDS_MIDDLETIER_HOT_BLOCK_CACHE_H_
#define SMARTDS_MIDDLETIER_HOT_BLOCK_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/shared_bytes.h"
#include "common/units.h"

namespace smartds::middletier {

/** Where a middle tier places its read cache. */
enum class ReadCachePlacement : std::uint8_t
{
    /** Host DRAM (CPU-only / Acc; the designs' existing memory flows). */
    HostDram,
    /**
     * SmartNIC device memory. SmartDS charges the cache's capacity
     * against the HBM budget (DeviceMemory::alloc) and its hits against
     * an HBM bandwidth flow; designs without device memory fall back to
     * their local memory resource.
     */
    DeviceHbm,
};

/** Read-cache knobs shared by all middle-tier designs. */
struct ReadCacheConfig
{
    /** Cache capacity in bytes (0 = cache disabled). */
    Bytes capacityBytes = 0;
    /** Memory the capacity and per-hit bandwidth are charged to. */
    ReadCachePlacement placement = ReadCachePlacement::HostDram;
};

/** LRU cache of verified plaintext blocks, keyed by (vmId, blockOffset). */
class HotBlockCache
{
  public:
    struct Entry
    {
        /** Uncompressed block size (the capacity charge). */
        Bytes plainSize = 0;
        /** Compression ratio of the stored copy (timing-mode replies). */
        double compressibility = 0.0;
        /** Verified plaintext bytes (null in timing-only mode). */
        SharedBytes plain;
    };

    /** Cumulative counters (aggregated over cards for MultiCard). */
    struct Stats
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        /** Plain bytes served from the cache (fabric bytes saved). */
        std::uint64_t hitBytes = 0;
        std::uint64_t insertions = 0;
        std::uint64_t evictions = 0;
        std::uint64_t invalidations = 0;

        Stats &
        operator+=(const Stats &o)
        {
            hits += o.hits;
            misses += o.misses;
            hitBytes += o.hitBytes;
            insertions += o.insertions;
            evictions += o.evictions;
            invalidations += o.invalidations;
            return *this;
        }
    };

    explicit HotBlockCache(Bytes capacity) : capacity_(capacity) {}

    /**
     * Look the block up, bumping it to most-recently-used on a hit.
     * Counts the hit/miss; the returned pointer stays valid until the
     * next insert/invalidate.
     */
    const Entry *
    lookup(std::uint64_t vm_id, std::uint64_t block_offset)
    {
        const auto it = index_.find(Key{vm_id, block_offset});
        if (it == index_.end()) {
            ++stats_.misses;
            return nullptr;
        }
        lru_.splice(lru_.begin(), lru_, it->second);
        ++stats_.hits;
        stats_.hitBytes += it->second->entry.plainSize;
        return &it->second->entry;
    }

    /**
     * Insert (or refresh) a verified block, evicting from the LRU tail
     * until it fits. A block larger than the whole cache is skipped.
     */
    void
    insert(std::uint64_t vm_id, std::uint64_t block_offset, Entry entry)
    {
        if (entry.plainSize == 0 || entry.plainSize > capacity_)
            return;
        const Key key{vm_id, block_offset};
        if (const auto it = index_.find(key); it != index_.end()) {
            used_ -= it->second->entry.plainSize;
            lru_.erase(it->second);
            index_.erase(it);
        }
        while (used_ + entry.plainSize > capacity_ && !lru_.empty()) {
            const Node &victim = lru_.back();
            used_ -= victim.entry.plainSize;
            index_.erase(victim.key);
            lru_.pop_back();
            ++stats_.evictions;
        }
        used_ += entry.plainSize;
        lru_.push_front(Node{key, std::move(entry)});
        index_.emplace(key, lru_.begin());
        ++stats_.insertions;
    }

    /**
     * Drop the block if cached (write-through invalidation: called on
     * every write, checksum failover and reconstruction touching the
     * block). Returns whether an entry was actually dropped.
     */
    bool
    invalidate(std::uint64_t vm_id, std::uint64_t block_offset)
    {
        const auto it = index_.find(Key{vm_id, block_offset});
        if (it == index_.end())
            return false;
        used_ -= it->second->entry.plainSize;
        lru_.erase(it->second);
        index_.erase(it);
        ++stats_.invalidations;
        return true;
    }

    Bytes capacity() const { return capacity_; }
    Bytes used() const { return used_; }
    std::size_t entries() const { return lru_.size(); }
    const Stats &stats() const { return stats_; }

  private:
    struct Key
    {
        std::uint64_t vmId;
        std::uint64_t blockOffset;
        bool
        operator==(const Key &o) const
        {
            return vmId == o.vmId && blockOffset == o.blockOffset;
        }
    };
    struct KeyHash
    {
        std::size_t
        operator()(const Key &k) const
        {
            return std::hash<std::uint64_t>()(
                k.vmId * 0x9e3779b97f4a7c15ULL ^ k.blockOffset);
        }
    };
    struct Node
    {
        Key key;
        Entry entry;
    };

    Bytes capacity_;
    Bytes used_ = 0;
    std::list<Node> lru_;
    std::unordered_map<Key, std::list<Node>::iterator, KeyHash> index_;
    Stats stats_;
};

} // namespace smartds::middletier

#endif // SMARTDS_MIDDLETIER_HOT_BLOCK_CACHE_H_
