/**
 * @file
 * From-scratch LZ4 block-format codec.
 *
 * Implements the LZ4 block format (token / literals / 16-bit offset /
 * extended lengths) with the standard end-of-block restrictions (the last
 * sequence is literal-only, matches must not run into the final 5 bytes).
 * Compression supports an *effort* knob: effort 1 is the classic
 * single-probe fast match finder; higher efforts search hash chains more
 * deeply, trading throughput for ratio — mirroring the paper's point that
 * the middle tier picks compression effort per service type (§2.2.1).
 *
 * The codec is functional, not a timing model: the simulator runs it on
 * corpus blocks to obtain real compressed sizes, while the *time* charged
 * for compression comes from calibrated rates in common/calibration.h.
 */

#ifndef SMARTDS_LZ4_LZ4_H_
#define SMARTDS_LZ4_LZ4_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace smartds::lz4 {

/** Smallest match the format can encode. */
constexpr std::size_t minMatch = 4;

/** Maximum backward offset the 16-bit field can express. */
constexpr std::size_t maxOffset = 65535;

/** Lowest / highest supported effort levels. */
constexpr int minEffort = 1;
constexpr int maxEffort = 9;

/**
 * Worst-case compressed size for @p src_size input bytes
 * (incompressible data expands by 1 byte per 255 plus a small constant).
 */
constexpr std::size_t
maxCompressedSize(std::size_t src_size)
{
    return src_size + src_size / 255 + 16;
}

/**
 * Compress @p src_size bytes from @p src into @p dst.
 *
 * @param src     input bytes (may be null only if src_size == 0)
 * @param src_size input length
 * @param dst     output buffer
 * @param dst_cap output capacity; use maxCompressedSize() to never fail
 * @param effort  match-search effort in [minEffort, maxEffort]
 * @return number of bytes written, or std::nullopt if dst was too small
 */
[[nodiscard]] std::optional<std::size_t> compress(const std::uint8_t *src,
                                    std::size_t src_size, std::uint8_t *dst,
                                    std::size_t dst_cap, int effort = 1);

/**
 * Decompress an LZ4 block.
 *
 * Fully bounds-checked: malformed input yields std::nullopt, never an
 * out-of-bounds access.
 *
 * @param src      compressed bytes
 * @param src_size compressed length
 * @param dst      output buffer
 * @param dst_cap  output capacity
 * @return number of bytes produced, or std::nullopt on malformed input
 *         or insufficient capacity
 */
[[nodiscard]] std::optional<std::size_t> decompress(const std::uint8_t *src,
                                      std::size_t src_size,
                                      std::uint8_t *dst,
                                      std::size_t dst_cap);

/** Convenience: compress a byte range, returning the compressed bytes. */
std::vector<std::uint8_t> compress(std::span<const std::uint8_t> src,
                                   int effort = 1);

/** Convenience: decompress a byte range given the decompressed size. */
[[nodiscard]] std::optional<std::vector<std::uint8_t>>
decompress(std::span<const std::uint8_t> src, std::size_t decompressed_size);

/**
 * Compressed-size / original-size for @p src at @p effort (1.0 when the
 * block is stored essentially uncompressed). Used by the simulator to turn
 * corpus blocks into wire sizes without keeping the compressed bytes.
 */
double compressionRatio(const std::uint8_t *src, std::size_t src_size,
                        int effort = 1);

/**
 * A reusable compression context: the match finder's tables, kept across
 * calls like LZ4's extState, so compressing many blocks pays for the
 * tables once instead of allocating and filling them per block. Output is
 * byte-identical to the free compress() for every input and effort.
 *
 * A head-table entry holds a position plus a per-call base; the base
 * moves past every position of the previous call, so entries below the
 * current base read as empty and a call never refills the table. Only
 * when the base would overflow 32 bits is the table cleared. The chain
 * table grows to the largest input seen and needs no fill: a call reads
 * only the links it wrote itself.
 *
 * Not thread-safe; hold one per thread, for the length of a loop.
 */
class Compressor
{
  public:
    /** As the free compress(). */
    [[nodiscard]] std::optional<std::size_t>
    compress(const std::uint8_t *src, std::size_t src_size, std::uint8_t *dst,
             std::size_t dst_cap, int effort = 1);

    /** As the free compressionRatio(), with a reused output buffer. */
    double compressionRatio(const std::uint8_t *src, std::size_t src_size,
                            int effort = 1);

    /** Base of the next call (for tests). */
    std::uint32_t base() const { return base_; }

    /**
     * Test seam: pretend earlier calls have advanced the base to
     * @p base (>= 1), to drive the overflow reset with small inputs.
     */
    void setBaseForTesting(std::uint32_t base);

  private:
    std::vector<std::uint32_t> head_;
    std::vector<std::uint32_t> prev_;
    std::vector<std::uint8_t> out_;
    std::uint32_t base_ = 1;
};

/**
 * Relative software throughput of @p effort compared to effort 1
 * (e.g. 0.5 means half the speed). Derived from the match-search depth;
 * the timing model multiplies the calibrated effort-1 rate by this.
 */
double effortSpeedFactor(int effort);

} // namespace smartds::lz4

#endif // SMARTDS_LZ4_LZ4_H_
