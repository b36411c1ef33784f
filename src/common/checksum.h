/**
 * @file
 * xxHash32 checksum (from scratch, reference-compatible).
 *
 * Block-storage systems checksum every block end to end; the functional
 * datapaths use this to prove that split/assemble/compress round trips
 * preserve data. Implements the xxHash32 algorithm exactly, so values
 * match other xxHash implementations byte-for-byte.
 */

#ifndef SMARTDS_COMMON_CHECKSUM_H_
#define SMARTDS_COMMON_CHECKSUM_H_

#include <cstddef>
#include <cstdint>
#include <span>

namespace smartds {

/** Compute the xxHash32 of a byte range with the given seed. */
std::uint32_t xxhash32(const std::uint8_t *data, std::size_t size,
                       std::uint32_t seed = 0);

/** Convenience overload (vectors and shared byte views convert). */
inline std::uint32_t
xxhash32(std::span<const std::uint8_t> data, std::uint32_t seed = 0)
{
    return xxhash32(data.data(), data.size(), seed);
}

} // namespace smartds

#endif // SMARTDS_COMMON_CHECKSUM_H_
