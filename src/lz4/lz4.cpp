#include "lz4/lz4.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "common/check.h"
#include "common/logging.h"

namespace smartds::lz4 {

namespace {

// Format constants.
constexpr std::size_t lastLiterals = 5;  // final bytes must be literals
constexpr std::size_t mfLimit = 12;      // no match may start after n-12
constexpr unsigned tokenLiteralMax = 15; // 4-bit literal-length field
constexpr unsigned tokenMatchMax = 15;   // 4-bit match-length field

inline std::uint32_t
read32(const std::uint8_t *p)
{
    std::uint32_t v;
    std::memcpy(&v, p, sizeof(v));
    return v;
}

inline std::uint32_t
hash32(std::uint32_t v, unsigned bits)
{
    return (v * 2654435761u) >> (32 - bits);
}

/** Length of the common prefix of [a, limit) and [b, ...). */
inline std::size_t
matchLength(const std::uint8_t *a, const std::uint8_t *b,
            const std::uint8_t *a_limit)
{
    const std::uint8_t *start = a;
    while (a + 8 <= a_limit) {
        std::uint64_t va, vb;
        std::memcpy(&va, a, 8);
        std::memcpy(&vb, b, 8);
        const std::uint64_t diff = va ^ vb;
        if (diff != 0)
            return static_cast<std::size_t>(a - start) +
                   static_cast<std::size_t>(__builtin_ctzll(diff) >> 3);
        a += 8;
        b += 8;
    }
    while (a < a_limit && *a == *b) {
        ++a;
        ++b;
    }
    return static_cast<std::size_t>(a - start);
}

/** Emitter for the LZ4 sequence encoding, tracking output capacity. */
class Writer
{
  public:
    Writer(std::uint8_t *dst, std::size_t cap) : dst_(dst), cap_(cap) {}

    bool overflowed() const { return overflow_; }
    std::size_t size() const { return pos_; }

    void
    byte(std::uint8_t b)
    {
        if (pos_ >= cap_) {
            overflow_ = true;
            return;
        }
        dst_[pos_++] = b;
    }

    void
    bytes(const std::uint8_t *src, std::size_t n)
    {
        if (pos_ + n > cap_) {
            overflow_ = true;
            return;
        }
        std::memcpy(dst_ + pos_, src, n);
        pos_ += n;
    }

    /** Emit the 255-run extension encoding of @p value. */
    void
    extendedLength(std::size_t value)
    {
        while (value >= 255) {
            byte(255);
            value -= 255;
        }
        byte(static_cast<std::uint8_t>(value));
    }

    /**
     * Emit one full sequence: token, literal run, offset, match extension.
     * A match_len of 0 emits a literal-only final sequence.
     */
    void
    sequence(const std::uint8_t *literals, std::size_t lit_len,
             std::size_t offset, std::size_t match_len)
    {
        const unsigned lit_code =
            lit_len >= tokenLiteralMax
                ? tokenLiteralMax
                : static_cast<unsigned>(lit_len);
        unsigned match_code = 0;
        if (match_len > 0) {
            SMARTDS_CHECK(match_len >= minMatch, "match below minMatch");
            const std::size_t m = match_len - minMatch;
            match_code = m >= tokenMatchMax ? tokenMatchMax
                                            : static_cast<unsigned>(m);
        }
        byte(static_cast<std::uint8_t>((lit_code << 4) | match_code));
        if (lit_code == tokenLiteralMax)
            extendedLength(lit_len - tokenLiteralMax);
        bytes(literals, lit_len);
        if (match_len > 0) {
            byte(static_cast<std::uint8_t>(offset & 0xff));
            byte(static_cast<std::uint8_t>(offset >> 8));
            if (match_code == tokenMatchMax)
                extendedLength(match_len - minMatch - tokenMatchMax);
        }
    }

  private:
    std::uint8_t *dst_;
    std::size_t cap_;
    std::size_t pos_ = 0;
    bool overflow_ = false;
};

/**
 * Hash-chain match finder over a Compressor's tables; depth 1 behaves
 * like the classic fast path. Entries store position + @p base, and an
 * entry below the base belongs to an earlier call and reads as empty.
 */
class MatchFinder
{
  public:
    MatchFinder(const std::uint8_t *src, std::size_t n, int effort,
                std::uint32_t base, std::uint32_t *head, std::uint32_t *prev)
        : src_(src), n_(n),
          // Effort widens both the hash table and the chain search.
          hashBits_(hashBits(effort)),
          attempts_(1u << (effort - 1)), // 1, 2, 4, ... 256
          chained_(effort > 1), base_(base), head_(head), prev_(prev)
    {
    }

    /** log2 of the head-table entries used at @p effort. */
    static unsigned hashBits(int effort) { return effort <= 1 ? 13 : 15; }

    /** Record position @p pos in the index. */
    void
    insert(std::size_t pos)
    {
        if (pos + minMatch > n_)
            return;
        insertHashed(pos, hash32(read32(src_ + pos), hashBits_));
    }

    /**
     * Find the best match for @p pos within the offset window, then
     * record @p pos in the index. The four source bytes are loaded and
     * hashed once and shared between the search and the insertion. The
     * search runs before the insertion, so results are identical to a
     * find followed by insert().
     * @return match length (0 if none) and sets @p match_pos.
     */
    std::size_t
    findAndInsert(std::size_t pos, const std::uint8_t *limit,
                  std::size_t *match_pos)
    {
        const std::uint32_t v = read32(src_ + pos);
        const std::uint32_t h = hash32(v, hashBits_);
        std::uint32_t entry = head_[h];
        std::size_t best_len = 0;
        unsigned tries = attempts_;
        // Every entry at or above the base was inserted by this call at a
        // position below pos.
        while (entry >= base_ && tries-- > 0) {
            const std::size_t cpos = entry - base_;
            if (pos - cpos > maxOffset)
                break;
            // A candidate that differs at byte best_len matches for at
            // most best_len bytes and cannot beat the best so far. Both
            // reads stay inside the block: best_len never reaches past
            // limit, which lies lastLiterals bytes before the end.
            if (src_[cpos + best_len] == src_[pos + best_len] &&
                read32(src_ + cpos) == v) {
                const std::size_t len = matchLength(src_ + pos, src_ + cpos,
                                                    limit);
                if (len >= minMatch && len > best_len) {
                    best_len = len;
                    *match_pos = cpos;
                    // A match that runs to the limit cannot be beaten.
                    if (src_ + pos + len == limit)
                        break;
                }
            }
            if (!chained_)
                break;
            entry = prev_[cpos];
        }
        insertHashed(pos, h);
        return best_len;
    }

  private:
    void
    insertHashed(std::size_t pos, std::uint32_t h)
    {
        if (chained_)
            prev_[pos] = head_[h];
        head_[h] = base_ + static_cast<std::uint32_t>(pos);
    }

    const std::uint8_t *src_;
    std::size_t n_;
    unsigned hashBits_;
    unsigned attempts_;
    bool chained_;
    std::uint32_t base_;
    std::uint32_t *head_;
    std::uint32_t *prev_;
};

} // namespace

std::optional<std::size_t>
Compressor::compress(const std::uint8_t *src, std::size_t src_size,
                     std::uint8_t *dst, std::size_t dst_cap, int effort)
{
    SMARTDS_CHECK(effort >= minEffort && effort <= maxEffort,
                   "effort %d out of range", effort);
    Writer out(dst, dst_cap);
    if (src_size == 0) {
        // A zero-length block is a single empty literal-only sequence.
        out.byte(0);
        if (out.overflowed())
            return std::nullopt;
        return out.size();
    }

    if (src_size < mfLimit + 1) {
        // Too short to hold any match: literal-only block.
        out.sequence(src, src_size, 0, 0);
        if (out.overflowed())
            return std::nullopt;
        return out.size();
    }

    // After a reset the base is 1, so every position must fit below the
    // largest 32-bit value.
    SMARTDS_CHECK(src_size < std::numeric_limits<std::uint32_t>::max(),
                  "block of %zu bytes too large to compress", src_size);
    const std::size_t head_entries = std::size_t{1}
                                     << MatchFinder::hashBits(effort);
    // Grown entries are 0, below every base, so they read as empty.
    // (Value-initialisation lowers to memset; resize(n, 0) fills the
    // 128 KiB table with a scalar loop, which dominates a fresh call.)
    if (head_.size() < head_entries)
        head_.resize(head_entries);
    if (effort > 1 && prev_.size() < src_size)
        prev_.resize(src_size);
    if (src_size > std::numeric_limits<std::uint32_t>::max() - base_) {
        std::fill(head_.begin(), head_.end(), 0u);
        base_ = 1;
    }
    MatchFinder finder(src, src_size, effort, base_, head_.data(),
                       prev_.data());
    // The next call's base lies past every entry this call writes.
    base_ += static_cast<std::uint32_t>(src_size);
    const std::uint8_t *const match_limit = src + src_size - lastLiterals;
    const std::size_t last_match_start = src_size - mfLimit;

    std::size_t anchor = 0;
    std::size_t pos = 0;
    // Skip-acceleration: after repeated match failures the scan stride
    // grows, so incompressible data passes through quickly.
    unsigned misses = 0;

    while (pos < last_match_start) {
        std::size_t match_pos = 0;
        const std::size_t len =
            finder.findAndInsert(pos, match_limit, &match_pos);
        if (len == 0) {
            ++misses;
            pos += 1 + (misses >> 6);
            continue;
        }
        misses = 0;
        out.sequence(src + anchor, pos - anchor, pos - match_pos, len);
        if (out.overflowed())
            return std::nullopt;
        // Index the interior of the match sparsely (every other byte is
        // enough to keep the ratio while staying fast), then continue
        // right after it.
        const std::size_t end = pos + len;
        for (std::size_t p = pos + 2; p + minMatch <= end && p < last_match_start;
             p += 2)
            finder.insert(p);
        pos = end;
        anchor = end;
        if (pos >= last_match_start)
            break;
    }

    // Final literal-only sequence covering everything from the anchor.
    out.sequence(src + anchor, src_size - anchor, 0, 0);
    if (out.overflowed())
        return std::nullopt;
    return out.size();
}

double
Compressor::compressionRatio(const std::uint8_t *src, std::size_t src_size,
                             int effort)
{
    if (src_size == 0)
        return 1.0;
    const std::size_t cap = maxCompressedSize(src_size);
    if (out_.size() < cap)
        out_.resize(cap);
    const auto n = compress(src, src_size, out_.data(), cap, effort);
    SMARTDS_CHECK(n.has_value(), "maxCompressedSize() was insufficient");
    const double ratio =
        static_cast<double>(*n) / static_cast<double>(src_size);
    // Stored blocks can expand slightly; the storage layer would keep the
    // raw block instead, so the effective ratio is capped at 1.
    return std::min(ratio, 1.0);
}

void
Compressor::setBaseForTesting(std::uint32_t base)
{
    // Moving the base back would revive entries of earlier calls.
    SMARTDS_CHECK(base >= base_, "base may only move forward (%u < %u)",
                  base, base_);
    base_ = base;
}

std::optional<std::size_t>
compress(const std::uint8_t *src, std::size_t src_size, std::uint8_t *dst,
         std::size_t dst_cap, int effort)
{
    Compressor context;
    return context.compress(src, src_size, dst, dst_cap, effort);
}

std::optional<std::size_t>
decompress(const std::uint8_t *src, std::size_t src_size, std::uint8_t *dst,
           std::size_t dst_cap)
{
    std::size_t ip = 0;
    std::size_t op = 0;

    while (ip < src_size) {
        const std::uint8_t token = src[ip++];
        // --- literal run -----------------------------------------------
        std::size_t lit_len = token >> 4;
        if (lit_len == tokenLiteralMax) {
            std::uint8_t b;
            do {
                if (ip >= src_size)
                    return std::nullopt;
                b = src[ip++];
                lit_len += b;
            } while (b == 255);
        }
        if (ip + lit_len > src_size || op + lit_len > dst_cap)
            return std::nullopt;
        if (lit_len > 0) // dst may legally be null when dst_cap == 0
            std::memcpy(dst + op, src + ip, lit_len);
        ip += lit_len;
        op += lit_len;

        if (ip == src_size) {
            // Literal-only final sequence: done.
            return op;
        }

        // --- match ------------------------------------------------------
        if (ip + 2 > src_size)
            return std::nullopt;
        const std::size_t offset =
            static_cast<std::size_t>(src[ip]) |
            (static_cast<std::size_t>(src[ip + 1]) << 8);
        ip += 2;
        if (offset == 0 || offset > op)
            return std::nullopt;

        std::size_t match_len = (token & 0x0f);
        if (match_len == tokenMatchMax) {
            std::uint8_t b;
            do {
                if (ip >= src_size)
                    return std::nullopt;
                b = src[ip++];
                match_len += b;
            } while (b == 255);
        }
        match_len += minMatch;
        if (op + match_len > dst_cap)
            return std::nullopt;

        const std::uint8_t *from = dst + op - offset;
        std::uint8_t *to = dst + op;
        // Wildcopy: copy in 8-byte chunks, overshooting up to 7 bytes
        // past the match. Safe only when the source lags by at least 8
        // (no chunk reads bytes this copy is itself producing) and the
        // overshoot still lands inside dst's capacity — the spilled
        // bytes sit at positions the stream has yet to write, so they
        // are either overwritten by later sequences or beyond the
        // returned size. Overlapping or buffer-end copies take the
        // byte-forward loop.
        if (offset >= 8 && op + match_len + 7 <= dst_cap) {
            for (std::size_t i = 0; i < match_len; i += 8)
                std::memcpy(to + i, from + i, 8);
        } else {
            // Overlap (offset < len) requires byte-forward order.
            for (std::size_t i = 0; i < match_len; ++i)
                to[i] = from[i];
        }
        op += match_len;
    }
    // Ran out of input without a terminating literal-only sequence.
    return std::nullopt;
}

std::vector<std::uint8_t>
compress(std::span<const std::uint8_t> src, int effort)
{
    std::vector<std::uint8_t> out(maxCompressedSize(src.size()));
    const auto n = compress(src.data(), src.size(), out.data(), out.size(),
                            effort);
    SMARTDS_CHECK(n.has_value(), "maxCompressedSize() was insufficient");
    out.resize(*n);
    return out;
}

std::optional<std::vector<std::uint8_t>>
decompress(std::span<const std::uint8_t> src, std::size_t decompressed_size)
{
    std::vector<std::uint8_t> out(decompressed_size);
    const auto n = decompress(src.data(), src.size(), out.data(), out.size());
    if (!n)
        return std::nullopt;
    out.resize(*n);
    return out;
}

double
compressionRatio(const std::uint8_t *src, std::size_t src_size, int effort)
{
    Compressor context;
    return context.compressionRatio(src, src_size, effort);
}

double
effortSpeedFactor(int effort)
{
    SMARTDS_CHECK(effort >= minEffort && effort <= maxEffort,
                   "effort %d out of range", effort);
    // Doubling the chain-search attempts costs roughly 35% throughput per
    // step on mixed data; anchored at 1.0 for effort 1.
    double factor = 1.0;
    for (int e = 1; e < effort; ++e)
        factor *= 0.65;
    return factor;
}

} // namespace smartds::lz4
