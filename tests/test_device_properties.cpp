/**
 * @file
 * Property tests on the SmartDS datapath: for randomized header/payload
 * sizes, split boundaries and engine efforts, the AAMS split + assemble
 * + engine pipeline must preserve bytes exactly and account sizes
 * consistently.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <tuple>

#include "common/checksum.h"
#include "common/random.h"
#include "corpus/corpus.h"
#include "lz4/lz4.h"
#include "mem/memory_system.h"
#include "net/fabric.h"
#include "sim/simulator.h"
#include "smartds/device.h"

namespace smartds::device {
namespace {

/** payload size, split point (h_size), effort. */
using SplitParam = std::tuple<Bytes, Bytes, int>;

class SplitRoundTrip : public ::testing::TestWithParam<SplitParam>
{
};

TEST_P(SplitRoundTrip, SplitCompressAssemblePreservesBytes)
{
    const auto [payload_size, h_size, effort] = GetParam();

    sim::Simulator sim;
    net::Fabric fabric(sim);
    mem::MemorySystem memory(sim, "mem", {});
    SmartDsDevice::Config config;
    config.functional = true;
    config.effort = effort;
    SmartDsDevice dev(fabric, "dev", &memory, config);

    net::Port *client = fabric.createPort("client");
    client->onReceive([](net::Message) {});
    net::Port *sink = fabric.createPort("sink");
    net::Message forwarded;
    bool got = false;
    sink->onReceive([&](net::Message msg) {
        forwarded = std::move(msg);
        got = true;
    });

    // Random-but-seeded header and corpus payload.
    Rng rng(payload_size * 7 + h_size * 3 +
            static_cast<std::uint64_t>(effort));
    corpus::SyntheticCorpus corpus(1u << 20, 5);
    std::vector<std::uint8_t> header(h_size);
    for (auto &b : header)
        b = static_cast<std::uint8_t>(rng.below(256));
    std::vector<std::uint8_t> payload(payload_size);
    const auto sample = corpus.sampleBlock(
        std::min<Bytes>(payload_size ? payload_size : 1, 4096), rng);
    for (std::size_t i = 0; i < payload.size(); ++i)
        payload[i] = sample[i % sample.size()];

    auto qp = dev.createQp(0);
    auto h = dev.hostAlloc(std::max<Bytes>(h_size, 1));
    auto d_in = dev.devAlloc(payload_size + 64);
    auto d_out = dev.devAlloc(lz4::maxCompressedSize(payload_size) + 64);
    auto recv = dev.mixedRecv(qp, h, h_size, d_in, payload_size + 64);

    net::Message msg;
    msg.dst = dev.nodeId(0);
    msg.dstQp = qp.local;
    msg.headerBytes = h_size;
    msg.headerData =
        std::make_shared<const std::vector<std::uint8_t>>(header);
    msg.payload.size = payload_size;
    msg.payload.data = shareBytes(std::vector<std::uint8_t>(payload));
    client->send(std::move(msg));
    sim.run();

    ASSERT_TRUE(recv.completion.done());
    EXPECT_EQ(recv.size(), payload_size);
    if (h_size) {
        EXPECT_EQ(0, std::memcmp(h->bytes()->data(), header.data(),
                                 h_size));
    }
    if (payload_size) {
        EXPECT_EQ(0, std::memcmp(d_in->bytes()->data(), payload.data(),
                                 payload_size));
    }

    // Compress on the card, forward, and verify the wire bytes restore
    // the original payload.
    auto ce = dev.devFunc(d_in, payload_size, d_out, d_out->capacity(), 0,
                          EngineOp::Compress);
    sim.run();
    ASSERT_TRUE(ce.completion.done());

    SmartDsDevice::Qp out_qp = dev.createQp(0);
    dev.connect(out_qp, sink->id(), 0);
    auto send = dev.mixedSend(out_qp, h, h_size, d_out, ce.size(),
                              net::MessageKind::WriteReplica, 1, 0);
    sim.run();
    ASSERT_TRUE(got);
    ASSERT_TRUE(send.completion.done());
    EXPECT_EQ(forwarded.payload.size, ce.size());
    ASSERT_TRUE(forwarded.payload.data);
    const auto plain =
        lz4::decompress(*forwarded.payload.data, payload_size);
    ASSERT_TRUE(plain.has_value());
    EXPECT_EQ(xxhash32(*plain), xxhash32(payload));
}

INSTANTIATE_TEST_SUITE_P(
    SizesSplitsEfforts, SplitRoundTrip,
    ::testing::Combine(::testing::Values(Bytes{0}, Bytes{64}, Bytes{4096},
                                         Bytes{16384}),
                       ::testing::Values(Bytes{16}, Bytes{64},
                                         Bytes{256}),
                       ::testing::Values(1, 6)));

TEST(DeviceProperties, ManyConcurrentRequestsConserveBytes)
{
    // N interleaved splits on one port: every descriptor gets exactly
    // its message, device byte accounting matches, nothing is lost.
    sim::Simulator sim;
    net::Fabric fabric(sim);
    mem::MemorySystem memory(sim, "mem", {});
    SmartDsDevice::Config config;
    config.functional = true;
    SmartDsDevice dev(fabric, "dev", &memory, config);
    net::Port *client = fabric.createPort("client");
    client->onReceive([](net::Message) {});
    auto qp = dev.createQp(0);

    constexpr unsigned n = 32;
    std::vector<SmartDsDevice::Event> events;
    std::vector<BufferRef> bufs;
    for (unsigned i = 0; i < n; ++i) {
        auto h = dev.hostAlloc(64);
        auto d = dev.devAlloc(8192);
        bufs.push_back(d);
        events.push_back(dev.mixedRecv(qp, h, 64, d, 8192));
    }
    Rng rng(1);
    for (unsigned i = 0; i < n; ++i) {
        net::Message msg;
        msg.dst = dev.nodeId(0);
        msg.dstQp = qp.local;
        msg.headerBytes = 64;
        msg.tag = i;
        msg.payload.size = 512 + rng.below(3584);
        client->send(std::move(msg));
    }
    sim.run();
    for (unsigned i = 0; i < n; ++i) {
        ASSERT_TRUE(events[i].completion.done()) << i;
        EXPECT_EQ(events[i].message->tag, i); // FIFO matching held
        EXPECT_EQ(bufs[i]->content.size, events[i].size());
    }
}

} // namespace
} // namespace smartds::device
