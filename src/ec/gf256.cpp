#include "ec/gf256.h"

#include <array>
#include <cstddef>

#include "common/check.h"

namespace smartds::ec {
namespace {

struct Tables {
    // exp_ is doubled so gfMul can skip the mod-255 on the sum of logs.
    std::array<std::uint8_t, 512> exp_;
    std::array<std::uint8_t, 256> log_;
    // mul_[c][s] = c * s (64 KiB): gfMulAdd reads one 256-byte row per
    // coefficient, one lookup per byte with no zero test.
    std::array<std::array<std::uint8_t, 256>, 256> mul_;

    Tables()
    {
        std::uint16_t x = 1;
        for (unsigned i = 0; i < 255; ++i) {
            exp_[i] = static_cast<std::uint8_t>(x);
            exp_[i + 255] = static_cast<std::uint8_t>(x);
            log_[x] = static_cast<std::uint8_t>(i);
            x <<= 1;
            if (x & 0x100)
                x ^= gfPoly;
        }
        exp_[510] = exp_[0];
        exp_[511] = exp_[1];
        log_[0] = 0; // never read: callers guard zero operands
        for (unsigned a = 0; a < 256; ++a)
            for (unsigned b = 0; b < 256; ++b)
                mul_[a][b] = a == 0 || b == 0
                                 ? 0
                                 : exp_[log_[a] + log_[b]];
    }
};

const Tables &
tables()
{
    static const Tables t;
    return t;
}

} // namespace

std::uint8_t
gfMul(std::uint8_t a, std::uint8_t b)
{
    if (a == 0 || b == 0)
        return 0;
    const auto &t = tables();
    return t.exp_[t.log_[a] + t.log_[b]];
}

std::uint8_t
gfDiv(std::uint8_t a, std::uint8_t b)
{
    SMARTDS_CHECK(b != 0, "GF(256) division by zero");
    if (a == 0)
        return 0;
    const auto &t = tables();
    return t.exp_[t.log_[a] + 255 - t.log_[b]];
}

std::uint8_t
gfInv(std::uint8_t a)
{
    SMARTDS_CHECK(a != 0, "GF(256) inverse of zero");
    const auto &t = tables();
    return t.exp_[255 - t.log_[a]];
}

std::uint8_t
gfExp(unsigned power)
{
    return tables().exp_[power % 255];
}

std::uint8_t
gfMulSlow(std::uint8_t a, std::uint8_t b)
{
    std::uint16_t acc = 0;
    std::uint16_t aa = a;
    for (unsigned bit = 0; bit < 8; ++bit) {
        if (b & (1u << bit))
            acc ^= aa << bit;
    }
    // Reduce the degree-14 product modulo the field polynomial.
    for (int bit = 14; bit >= 8; --bit)
        if (acc & (1u << bit))
            acc ^= gfPoly << (bit - 8);
    return static_cast<std::uint8_t>(acc);
}

void
gfMulAdd(std::uint8_t *dst, const std::uint8_t *src, std::uint8_t c,
         std::size_t n)
{
    if (c == 0)
        return;
    if (c == 1) {
        for (std::size_t i = 0; i < n; ++i)
            dst[i] ^= src[i];
        return;
    }
    const std::array<std::uint8_t, 256> &row = tables().mul_[c];
    for (std::size_t i = 0; i < n; ++i)
        dst[i] ^= row[src[i]];
}

} // namespace smartds::ec
