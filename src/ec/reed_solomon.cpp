#include "ec/reed_solomon.h"

#include <algorithm>
#include <cstring>

#include "common/check.h"
#include "ec/gf256.h"

namespace smartds::ec {

RsCodec::RsCodec(unsigned k, unsigned m) : k_(k), m_(m)
{
    SMARTDS_CHECK(k >= 1 && m >= 1 && k + m <= maxTotalShards,
                  "invalid RS(%u, %u)", k, m);
    parity_.resize(static_cast<std::size_t>(m_) * k_);
    for (unsigned p = 0; p < m_; ++p)
        for (unsigned j = 0; j < k_; ++j)
            parity_[static_cast<std::size_t>(p) * k_ + j] =
                gfInv(static_cast<std::uint8_t>((k_ + p) ^ j));
}

std::size_t
RsCodec::shardSize(std::size_t stripe_bytes, unsigned k)
{
    return std::max<std::size_t>(1, (stripe_bytes + k - 1) / k);
}

std::uint8_t
RsCodec::coefficient(unsigned row, unsigned col) const
{
    SMARTDS_CHECK(row < n() && col < k_, "RS coefficient (%u, %u) out of range",
                  row, col);
    if (row < k_)
        return row == col ? 1 : 0;
    return parity_[static_cast<std::size_t>(row - k_) * k_ + col];
}

std::vector<std::vector<std::uint8_t>>
RsCodec::encode(const std::uint8_t *stripe, std::size_t stripe_bytes) const
{
    const std::size_t shard = shardSize(stripe_bytes, k_);
    std::vector<std::vector<std::uint8_t>> out(n());
    for (unsigned j = 0; j < k_; ++j) {
        out[j].assign(shard, 0);
        const std::size_t off = static_cast<std::size_t>(j) * shard;
        if (off < stripe_bytes)
            std::memcpy(out[j].data(), stripe + off,
                        std::min(shard, stripe_bytes - off));
    }
    for (unsigned p = 0; p < m_; ++p) {
        auto &par = out[k_ + p];
        par.assign(shard, 0);
        for (unsigned j = 0; j < k_; ++j)
            gfMulAdd(par.data(), out[j].data(),
                     parity_[static_cast<std::size_t>(p) * k_ + j], shard);
    }
    return out;
}

void
RsCodec::encodeParity(std::span<const std::span<const std::uint8_t>> data,
                      std::span<const std::span<std::uint8_t>> parity) const
{
    SMARTDS_CHECK(data.size() == k_ && parity.size() == m_,
                  "RS(%u, %u) parity of %zu data into %zu parity shards", k_,
                  m_, data.size(), parity.size());
    const std::size_t shard = data.front().size();
    for (const auto &d : data)
        SMARTDS_CHECK(d.size() == shard, "RS data shards of unequal size");
    for (unsigned p = 0; p < m_; ++p) {
        SMARTDS_CHECK(parity[p].size() >= shard, "parity shard too small");
        std::uint8_t *par = parity[p].data();
        std::memset(par, 0, shard);
        for (unsigned j = 0; j < k_; ++j)
            gfMulAdd(par, data[j].data(),
                     parity_[static_cast<std::size_t>(p) * k_ + j], shard);
    }
}

namespace {

/** A listed shard's bytes, or nullopt when the list marks it absent. */
std::optional<std::span<const std::uint8_t>>
listed(const std::vector<std::uint8_t> *bytes)
{
    if (bytes == nullptr)
        return std::nullopt;
    return std::span<const std::uint8_t>(*bytes);
}

std::optional<std::span<const std::uint8_t>>
listed(std::span<const std::uint8_t> bytes)
{
    if (bytes.data() == nullptr)
        return std::nullopt;
    return bytes;
}

} // namespace

std::optional<std::vector<std::uint8_t>>
RsCodec::decode(
    const std::vector<std::pair<unsigned, std::span<const std::uint8_t>>>
        &shards,
    std::size_t stripe_bytes) const
{
    return decodeShards(shards, stripe_bytes);
}

std::optional<std::vector<std::uint8_t>>
RsCodec::decode(
    const std::vector<std::pair<unsigned, const std::vector<std::uint8_t> *>>
        &shards,
    std::size_t stripe_bytes) const
{
    return decodeShards(shards, stripe_bytes);
}

template <typename Bytes>
std::optional<std::vector<std::uint8_t>>
RsCodec::decodeShards(const std::vector<std::pair<unsigned, Bytes>> &shards,
                      std::size_t stripe_bytes) const
{
    // Pick the first k distinct, in-range shards, preferring the order
    // given (callers list healthy shards first).
    std::vector<unsigned> rows;
    std::vector<std::span<const std::uint8_t>> data;
    for (const auto &[idx, bytes] : shards) {
        const auto view = listed(bytes);
        if (idx >= n() || !view)
            continue;
        if (std::find(rows.begin(), rows.end(), idx) != rows.end())
            continue;
        rows.push_back(idx);
        data.push_back(*view);
        if (rows.size() == k_)
            break;
    }
    if (rows.size() < k_)
        return std::nullopt;
    const std::size_t shard = shardSize(stripe_bytes, k_);
    for (const auto &bytes : data)
        if (bytes.size() != shard)
            return std::nullopt;

    // Fast path: all k data shards present — the stripe is a concat.
    const bool systematic =
        std::all_of(rows.begin(), rows.end(),
                    [this](unsigned r) { return r < k_; });

    // Invert the k x k submatrix of generator rows via Gauss-Jordan.
    std::vector<std::uint8_t> inv;
    if (!systematic) {
        const unsigned k = k_;
        std::vector<std::uint8_t> mat(static_cast<std::size_t>(k) * k);
        inv.assign(static_cast<std::size_t>(k) * k, 0);
        for (unsigned r = 0; r < k; ++r) {
            for (unsigned c = 0; c < k; ++c)
                mat[static_cast<std::size_t>(r) * k + c] =
                    coefficient(rows[r], c);
            inv[static_cast<std::size_t>(r) * k + r] = 1;
        }
        for (unsigned col = 0; col < k; ++col) {
            unsigned pivot = col;
            while (pivot < k && mat[static_cast<std::size_t>(pivot) * k + col] == 0)
                ++pivot;
            // Cauchy construction guarantees nonsingularity.
            SMARTDS_CHECK(pivot < k, "singular RS decode matrix");
            if (pivot != col) {
                for (unsigned c = 0; c < k; ++c) {
                    std::swap(mat[static_cast<std::size_t>(pivot) * k + c],
                              mat[static_cast<std::size_t>(col) * k + c]);
                    std::swap(inv[static_cast<std::size_t>(pivot) * k + c],
                              inv[static_cast<std::size_t>(col) * k + c]);
                }
            }
            const std::uint8_t d =
                gfInv(mat[static_cast<std::size_t>(col) * k + col]);
            for (unsigned c = 0; c < k; ++c) {
                mat[static_cast<std::size_t>(col) * k + c] =
                    gfMul(mat[static_cast<std::size_t>(col) * k + c], d);
                inv[static_cast<std::size_t>(col) * k + c] =
                    gfMul(inv[static_cast<std::size_t>(col) * k + c], d);
            }
            for (unsigned r = 0; r < k; ++r) {
                if (r == col)
                    continue;
                const std::uint8_t f =
                    mat[static_cast<std::size_t>(r) * k + col];
                if (f == 0)
                    continue;
                for (unsigned c = 0; c < k; ++c) {
                    mat[static_cast<std::size_t>(r) * k + c] ^= gfMul(
                        f, mat[static_cast<std::size_t>(col) * k + c]);
                    inv[static_cast<std::size_t>(r) * k + c] ^= gfMul(
                        f, inv[static_cast<std::size_t>(col) * k + c]);
                }
            }
        }
    }

    std::vector<std::uint8_t> stripe(static_cast<std::size_t>(k_) * shard, 0);
    for (unsigned j = 0; j < k_; ++j) {
        std::uint8_t *dst = stripe.data() + static_cast<std::size_t>(j) * shard;
        if (systematic) {
            const auto it = std::find(rows.begin(), rows.end(), j);
            std::memcpy(dst, data[it - rows.begin()].data(), shard);
            continue;
        }
        for (unsigned r = 0; r < k_; ++r)
            gfMulAdd(dst, data[r].data(),
                     inv[static_cast<std::size_t>(j) * k_ + r], shard);
    }
    stripe.resize(stripe_bytes);
    return stripe;
}

} // namespace smartds::ec
