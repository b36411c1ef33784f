/**
 * @file
 * Systematic Reed-Solomon RS(k, m) erasure codec over GF(256).
 *
 * The generator matrix is [ I_k ; C ] where C is an m x k Cauchy
 * matrix, C[p][j] = 1 / (x_p + y_j) with x_p = k + p and y_j = j.
 * Every square submatrix of a Cauchy matrix is nonsingular, so the
 * code is MDS: any k of the k+m shards reconstruct the stripe. The
 * systematic form keeps the first k shards as verbatim slices of the
 * input, so healthy-path reads never pay decode math.
 *
 * A stripe of S bytes splits into k data shards of ceil(S/k) bytes
 * (the last one zero-padded) plus m parity shards of the same size.
 * Decode inverts the k x k submatrix of surviving rows with
 * Gauss-Jordan elimination — O(k^3) on 8-bit words, negligible next
 * to the O(k * shard) multiply-accumulate work.
 *
 * Like the LZ4 module this is functional, not a timing model: the
 * simulator runs it on real bytes for byte-accurate degraded reads,
 * while the *time* charged comes from calibrated rates.
 */

#ifndef SMARTDS_EC_REED_SOLOMON_H_
#define SMARTDS_EC_REED_SOLOMON_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

namespace smartds::ec {

/** Max total shards: x_p and y_j must be distinct field elements. */
constexpr unsigned maxTotalShards = 256;

class RsCodec {
public:
    /** Requires k >= 1, m >= 1, k + m <= maxTotalShards. */
    RsCodec(unsigned k, unsigned m);

    [[nodiscard]] unsigned k() const { return k_; }
    [[nodiscard]] unsigned m() const { return m_; }
    [[nodiscard]] unsigned n() const { return k_ + m_; }

    /** Shard size for a stripe of @p stripe_bytes: ceil(S/k), min 1. */
    [[nodiscard]] static std::size_t shardSize(std::size_t stripe_bytes,
                                               unsigned k);

    /**
     * Encode @p stripe_bytes bytes at @p stripe into k + m shards
     * (index order: data shards 0..k-1, parity shards k..k+m-1).
     */
    [[nodiscard]] std::vector<std::vector<std::uint8_t>>
    encode(const std::uint8_t *stripe, std::size_t stripe_bytes) const;

    /**
     * The m parity shards of @p data, k data shards of one size: parity
     * shard p is written to @p parity[p], which must be as large. Lets a
     * caller that already holds the data shards (or views of them) keep
     * them where they are; the parity equals encode()'s.
     */
    void encodeParity(std::span<const std::span<const std::uint8_t>> data,
                      std::span<const std::span<std::uint8_t>> parity) const;

    /**
     * Reconstruct the original stripe from any >= k shards, given as
     * (shard index, bytes) pairs with equal sizes. Returns the first
     * @p stripe_bytes bytes (padding stripped), or nullopt if fewer
     * than k distinct valid shards were supplied. A pair with a null
     * view counts as absent.
     */
    [[nodiscard]] std::optional<std::vector<std::uint8_t>>
    decode(const std::vector<std::pair<unsigned, std::span<const std::uint8_t>>>
               &shards,
           std::size_t stripe_bytes) const;

    /** As above, with shards given as vectors (null = absent). */
    [[nodiscard]] std::optional<std::vector<std::uint8_t>>
    decode(const std::vector<
               std::pair<unsigned, const std::vector<std::uint8_t> *>> &shards,
           std::size_t stripe_bytes) const;

    /**
     * Generator-matrix entry for shard @p row (0..n-1), data column
     * @p col (0..k-1). Exposed so tests can pin the construction
     * against brute-force GF math.
     */
    [[nodiscard]] std::uint8_t coefficient(unsigned row, unsigned col) const;

private:
    /** decode() over either form of shard list. */
    template <typename Bytes>
    [[nodiscard]] std::optional<std::vector<std::uint8_t>>
    decodeShards(const std::vector<std::pair<unsigned, Bytes>> &shards,
                 std::size_t stripe_bytes) const;

    unsigned k_;
    unsigned m_;
    std::vector<std::uint8_t> parity_; // m x k Cauchy block, row-major
};

} // namespace smartds::ec

#endif // SMARTDS_EC_REED_SOLOMON_H_
