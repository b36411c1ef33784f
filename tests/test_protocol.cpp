/**
 * @file
 * Tests for the block-storage wire protocol header.
 */

#include <gtest/gtest.h>

#include <vector>

#include "middletier/protocol.h"

namespace smartds::middletier {
namespace {

TEST(StorageHeader, WireSizeIs64)
{
    EXPECT_EQ(StorageHeader::wireSize, 64u);
    StorageHeader h;
    EXPECT_EQ(h.encode().size(), 64u);
}

TEST(StorageHeader, EncodeDecodeRoundTrip)
{
    StorageHeader h;
    h.vmId = 0x1122334455667788ULL;
    h.segmentId = 42;
    h.blockOffset = 0xdeadbeef;
    h.tag = 987654321;
    h.payloadSize = 4096;
    h.serviceType = 3;
    h.blockChecksum = 0xfeedf00d;
    h.latencySensitive = 1;
    h.compressionEffort = 7;

    const auto wire = h.encode();
    const StorageHeader back = StorageHeader::decode(wire.data());
    EXPECT_EQ(back.vmId, h.vmId);
    EXPECT_EQ(back.segmentId, h.segmentId);
    EXPECT_EQ(back.blockOffset, h.blockOffset);
    EXPECT_EQ(back.tag, h.tag);
    EXPECT_EQ(back.payloadSize, h.payloadSize);
    EXPECT_EQ(back.serviceType, h.serviceType);
    EXPECT_EQ(back.blockChecksum, h.blockChecksum);
    EXPECT_EQ(back.latencySensitive, h.latencySensitive);
    EXPECT_EQ(back.compressionEffort, h.compressionEffort);
}

TEST(StorageHeader, PaddingIsZeroed)
{
    StorageHeader h;
    h.tag = 1;
    const auto wire = h.encode();
    // Fields occupy the first 46 bytes; the rest must be zero padding.
    for (std::size_t i = 46; i < wire.size(); ++i)
        EXPECT_EQ(wire[i], 0u) << "at byte " << i;
}

TEST(StorageHeader, EncodeSharedMatchesEncode)
{
    StorageHeader h;
    h.vmId = 5;
    h.tag = 6;
    const auto arr = h.encode();
    const auto shared = h.encodeShared();
    ASSERT_EQ(shared->size(), arr.size());
    EXPECT_TRUE(std::equal(arr.begin(), arr.end(), shared->begin()));
}

TEST(StorageHeader, DefaultHeaderDecodesToDefaults)
{
    const StorageHeader def;
    const auto wire = def.encode();
    const StorageHeader back = StorageHeader::decode(wire.data());
    EXPECT_EQ(back.vmId, 0u);
    EXPECT_EQ(back.latencySensitive, 0u);
    EXPECT_EQ(back.compressionEffort, 1u);
}

TEST(StorageHeader, SpanDecodeFailsClosedOnShortInput)
{
    StorageHeader h;
    h.tag = 7;
    h.blockChecksum = 0xabcd;
    const auto wire = h.encode();
    const std::vector<std::uint8_t> bytes(wire.begin(), wire.end());
    const auto full = StorageHeader::decode(bytes);
    ASSERT_TRUE(full.has_value());
    EXPECT_EQ(*full, h);

    // Trailing bytes past the header are ignored.
    std::vector<std::uint8_t> longer = bytes;
    longer.push_back(0xff);
    EXPECT_EQ(StorageHeader::decode(longer), h);

    const std::vector<std::uint8_t> truncated(wire.begin(), wire.end() - 1);
    EXPECT_FALSE(StorageHeader::decode(truncated).has_value());
    EXPECT_FALSE(
        StorageHeader::decode(std::span<const std::uint8_t>{}).has_value());
}

} // namespace
} // namespace smartds::middletier
