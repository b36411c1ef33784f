/**
 * @file
 * Shared, immutable byte views: the functional datapath's payload type.
 *
 * A payload names its bytes through a shared_ptr to a span, so the bytes
 * may live anywhere an owner keeps them alive: a slice of one of the
 * codec cache's arenas (the aliasing shared_ptr constructor, one control
 * block for thousands of views) or a vector of fresh bytes made by
 * shareBytes(). Either way a copy of the pointer is a refcount bump and
 * the bytes are never written after they are shared.
 */

#ifndef SMARTDS_COMMON_SHARED_BYTES_H_
#define SMARTDS_COMMON_SHARED_BYTES_H_

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

namespace smartds {

/** A read-only view of contiguous bytes. */
using ByteView = std::span<const std::uint8_t>;

/** Shared ownership of a read-only view; null when there are no bytes. */
using SharedBytes = std::shared_ptr<const ByteView>;

/**
 * Share fresh bytes: one allocation holds both @p bytes and the view of
 * them, as make_shared of the vector alone would.
 */
inline SharedBytes
shareBytes(std::vector<std::uint8_t> &&bytes)
{
    struct Owned
    {
        std::vector<std::uint8_t> bytes;
        ByteView view;
    };
    auto owned = std::make_shared<Owned>();
    owned->bytes = std::move(bytes);
    owned->view = owned->bytes;
    return SharedBytes(owned, &owned->view);
}

} // namespace smartds

#endif // SMARTDS_COMMON_SHARED_BYTES_H_
