/**
 * @file
 * Tests for the SmartDS device: AAMS split correctness (byte-exact in
 * functional mode), descriptor flow control, assemble/gather sends,
 * engine transforms and multi-port independence.
 */

#include <gtest/gtest.h>

#include <cstring>

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

using namespace smartds::time_literals;

struct DeviceFixture : ::testing::Test
{
    sim::Simulator sim;
    net::Fabric fabric{sim};
    mem::MemorySystem memory{sim, "mem", {}};

    SmartDsDevice::Config
    functionalConfig(unsigned ports = 1)
    {
        SmartDsDevice::Config config;
        config.ports = ports;
        config.functional = true;
        return config;
    }
};

TEST_F(DeviceFixture, SplitPutsHeaderInHostAndPayloadInDevice)
{
    SmartDsDevice dev(fabric, "dev", &memory, functionalConfig());
    net::Port *client = fabric.createPort("client");
    client->onReceive([](net::Message) {});

    auto qp = dev.createQp(0);
    auto h = dev.hostAlloc(64);
    auto d = dev.devAlloc(8192);
    auto event = dev.mixedRecv(qp, h, 64, d, 8192);

    // Build a request with known header and payload bytes.
    std::vector<std::uint8_t> header(64);
    std::vector<std::uint8_t> payload(4096);
    Rng rng(1);
    for (auto &b : header)
        b = static_cast<std::uint8_t>(rng.below(256));
    for (auto &b : payload)
        b = static_cast<std::uint8_t>(rng.below(256));

    net::Message msg;
    msg.dst = dev.nodeId(0);
    msg.dstQp = qp.local;
    msg.headerBytes = 64;
    msg.headerData =
        std::make_shared<const std::vector<std::uint8_t>>(header);
    msg.payload.size = 4096;
    msg.payload.data = shareBytes(std::vector<std::uint8_t>(payload));
    client->send(std::move(msg));
    sim.run();

    ASSERT_TRUE(event.completion.done());
    EXPECT_EQ(event.size(), 4096u);
    ASSERT_TRUE(event.message);
    EXPECT_EQ(event.message->payload.size, 4096u);
    // Byte-exact split: header landed in host memory...
    EXPECT_EQ(0, std::memcmp(h->bytes()->data(), header.data(), 64));
    // ...payload landed in device memory.
    EXPECT_EQ(0, std::memcmp(d->bytes()->data(), payload.data(), 4096));
    EXPECT_EQ(d->content.size, 4096u);
}

TEST_F(DeviceFixture, MessagesWaitForDescriptors)
{
    SmartDsDevice dev(fabric, "dev", &memory, functionalConfig());
    net::Port *client = fabric.createPort("client");
    client->onReceive([](net::Message) {});
    auto qp = dev.createQp(0);

    net::Message msg;
    msg.dst = dev.nodeId(0);
    msg.dstQp = qp.local;
    msg.headerBytes = 64;
    msg.payload.size = 1024;
    client->send(std::move(msg));
    sim.run();
    EXPECT_EQ(dev.pendingMessages(), 1u);

    // Posting the descriptor afterwards drains the queued message.
    auto h = dev.hostAlloc(64);
    auto d = dev.devAlloc(8192);
    auto event = dev.mixedRecv(qp, h, 64, d, 8192);
    sim.run();
    EXPECT_TRUE(event.completion.done());
    EXPECT_EQ(event.size(), 1024u);
    EXPECT_EQ(dev.pendingMessages(), 0u);
}

TEST_F(DeviceFixture, DescriptorsMatchFifoPerQp)
{
    SmartDsDevice dev(fabric, "dev", &memory, functionalConfig());
    net::Port *client = fabric.createPort("client");
    client->onReceive([](net::Message) {});
    auto qp = dev.createQp(0);

    auto h1 = dev.hostAlloc(64);
    auto d1 = dev.devAlloc(8192);
    auto h2 = dev.hostAlloc(64);
    auto d2 = dev.devAlloc(8192);
    auto e1 = dev.mixedRecv(qp, h1, 64, d1, 8192);
    auto e2 = dev.mixedRecv(qp, h2, 64, d2, 8192);

    for (std::uint64_t tag : {1u, 2u}) {
        net::Message msg;
        msg.dst = dev.nodeId(0);
        msg.dstQp = qp.local;
        msg.headerBytes = 64;
        msg.payload.size = 100 * tag;
        msg.tag = tag;
        client->send(std::move(msg));
    }
    sim.run();
    EXPECT_EQ(e1.message->tag, 1u);
    EXPECT_EQ(e2.message->tag, 2u);
    EXPECT_EQ(e1.size(), 100u);
    EXPECT_EQ(e2.size(), 200u);
}

TEST_F(DeviceFixture, MixedSendAssemblesHeaderAndPayload)
{
    SmartDsDevice dev(fabric, "dev", &memory, functionalConfig());
    net::Port *peer = fabric.createPort("peer");
    net::Message received;
    bool got = false;
    peer->onReceive([&](net::Message msg) {
        received = std::move(msg);
        got = true;
    });

    auto qp = dev.createQp(0);
    dev.connect(qp, peer->id(), 7);

    auto h = dev.hostAlloc(64);
    auto d = dev.devAlloc(4096);
    for (std::size_t i = 0; i < 64; ++i)
        (*h->bytes())[i] = static_cast<std::uint8_t>(i);
    for (std::size_t i = 0; i < 4096; ++i)
        (*d->bytes())[i] = static_cast<std::uint8_t>(i * 7);
    d->content.size = 4096;

    auto event = dev.mixedSend(qp, h, 64, d, 4096,
                               net::MessageKind::WriteReplica, 99, 0);
    sim.run();

    ASSERT_TRUE(got);
    EXPECT_TRUE(event.completion.done());
    EXPECT_EQ(event.size(), 64u + 4096u);
    EXPECT_EQ(received.dstQp, 7u);
    EXPECT_EQ(received.tag, 99u);
    EXPECT_EQ(received.headerBytes, 64u);
    EXPECT_EQ(received.payload.size, 4096u);
    ASSERT_TRUE(received.headerData);
    ASSERT_TRUE(received.payload.data);
    EXPECT_EQ(0, std::memcmp(received.headerData->data(),
                             h->bytes()->data(), 64));
    EXPECT_EQ(0, std::memcmp(received.payload.data->data(),
                             d->bytes()->data(), 4096));
}

TEST_F(DeviceFixture, EngineCompressDecompressRoundTrip)
{
    SmartDsDevice dev(fabric, "dev", &memory, functionalConfig());
    corpus::SyntheticCorpus corpus(1u << 20, 11);
    Rng rng(2);
    const auto block = corpus.sampleBlock(4096, rng);

    auto src = dev.devAlloc(4096);
    auto comp = dev.devAlloc(lz4::maxCompressedSize(4096));
    auto plain = dev.devAlloc(4096);
    std::memcpy(src->bytes()->data(), block.data(), 4096);
    src->content.size = 4096;

    auto ce = dev.devFunc(src, 4096, comp, comp->capacity(), 0,
                          EngineOp::Compress);
    sim.run();
    ASSERT_TRUE(ce.completion.done());
    const Bytes compressed = ce.size();
    EXPECT_LT(compressed, 4096u);
    EXPECT_TRUE(comp->content.compressed);
    EXPECT_EQ(comp->content.originalSize, 4096u);

    auto de = dev.devFunc(comp, compressed, plain, 4096, 0,
                          EngineOp::Decompress);
    sim.run();
    ASSERT_TRUE(de.completion.done());
    EXPECT_EQ(de.size(), 4096u);
    EXPECT_EQ(0, std::memcmp(plain->bytes()->data(), block.data(), 4096));
}

TEST_F(DeviceFixture, EngineTimingModeUsesCompressibility)
{
    SmartDsDevice::Config config; // timing mode
    SmartDsDevice dev(fabric, "dev", &memory, config);
    auto src = dev.devAlloc(4096);
    auto dst = dev.devAlloc(8192);
    src->content.size = 4096;
    src->content.compressibility = 0.5;
    auto e = dev.devFunc(src, 4096, dst, 8192, 0, EngineOp::Compress);
    sim.run();
    EXPECT_EQ(e.size(), 2048u);
    EXPECT_TRUE(dst->content.compressed);
}

TEST_F(DeviceFixture, EngineLatencyAndRateGovernCompletion)
{
    SmartDsDevice::Config config;
    config.engineRate = gbps(100.0);
    config.engineLatency = 10_us;
    SmartDsDevice dev(fabric, "dev", &memory, config);
    auto src = dev.devAlloc(4096);
    auto dst = dev.devAlloc(8192);
    src->content.size = 4096;
    src->content.compressibility = 0.5;
    auto e = dev.devFunc(src, 4096, dst, 8192, 0, EngineOp::Compress);
    sim.run();
    // ~0.33 us engine serialisation + 10 us pipeline + HBM transfers.
    EXPECT_NEAR(toMicroseconds(sim.now()), 10.35, 0.2);
    EXPECT_TRUE(e.completion.done());
}

TEST_F(DeviceFixture, PortsAreIndependent)
{
    SmartDsDevice dev(fabric, "dev", &memory, functionalConfig(2));
    EXPECT_NE(dev.nodeId(0), dev.nodeId(1));
    net::Port *client = fabric.createPort("client");
    client->onReceive([](net::Message) {});

    auto qp0 = dev.createQp(0);
    auto qp1 = dev.createQp(1);
    auto h0 = dev.hostAlloc(64);
    auto d0 = dev.devAlloc(8192);
    auto h1 = dev.hostAlloc(64);
    auto d1 = dev.devAlloc(8192);
    auto e0 = dev.mixedRecv(qp0, h0, 64, d0, 8192);
    auto e1 = dev.mixedRecv(qp1, h1, 64, d1, 8192);

    net::Message m0;
    m0.dst = dev.nodeId(0);
    m0.dstQp = qp0.local;
    m0.payload.size = 500;
    client->send(std::move(m0));
    net::Message m1;
    m1.dst = dev.nodeId(1);
    m1.dstQp = qp1.local;
    m1.payload.size = 700;
    client->send(std::move(m1));
    sim.run();
    // Split keeps hSize=64 of the wire bytes on the host; with no
    // header bytes in these raw messages the payload loses 64 to the
    // host part.
    EXPECT_TRUE(e0.completion.done());
    EXPECT_TRUE(e1.completion.done());
}

TEST_F(DeviceFixture, DeviceMemoryExhaustionIsFatalButTracked)
{
    SmartDsDevice::Config config;
    config.hbmCapacity = 1024;
    SmartDsDevice dev(fabric, "dev", &memory, config);
    auto b = dev.devAlloc(1000);
    EXPECT_EQ(dev.hbm().used(), 1000u);
    EXPECT_EQ(b->capacity(), 1000u);
    EXPECT_DEATH(dev.devAlloc(100), "device memory exhausted");
}

TEST_F(DeviceFixture, ResourceModelMatchesConfiguration)
{
    SmartDsDevice dev(fabric, "dev", &memory, functionalConfig(4));
    const ResourceVec r = dev.resources();
    EXPECT_NEAR(r.lutK, 627.0, 1.0);
    EXPECT_NEAR(r.regK, 571.0, 1.0);
    EXPECT_NEAR(r.bram, 1168.0, 0.5);
}

TEST_F(DeviceFixture, HostOnlyAckReceive)
{
    SmartDsDevice dev(fabric, "dev", &memory, functionalConfig());
    net::Port *storage = fabric.createPort("storage");
    storage->onReceive([](net::Message) {});
    auto qp = dev.createQp(0);
    auto h = dev.hostAlloc(64);
    auto event = dev.mixedRecv(qp, h, 64, nullptr, 0);

    net::Message ack;
    ack.dst = dev.nodeId(0);
    ack.dstQp = qp.local;
    ack.headerBytes = 64;
    ack.kind = net::MessageKind::WriteReplicaAck;
    storage->send(std::move(ack));
    sim.run();
    EXPECT_TRUE(event.completion.done());
    EXPECT_EQ(event.size(), 0u); // no device part
}

} // namespace
} // namespace smartds::device

namespace smartds::device {
namespace {

TEST_F(DeviceFixture, ChecksumEngineEmitsXxhash)
{
    SmartDsDevice dev(fabric, "dev", &memory, functionalConfig());
    corpus::SyntheticCorpus corpus(1u << 20, 21);
    Rng rng(6);
    const auto block = corpus.sampleBlock(4096, rng);
    auto src = dev.devAlloc(4096);
    auto dst = dev.devAlloc(16);
    std::memcpy(src->bytes()->data(), block.data(), 4096);
    src->content.size = 4096;

    auto e = dev.devFunc(src, 4096, dst, 16, 0, EngineOp::Checksum);
    sim.run();
    ASSERT_TRUE(e.completion.done());
    EXPECT_EQ(e.completion.value(), xxhash32(block));
    // The scrubbing engine writes nothing back.
    EXPECT_EQ(dst->content.size, 0u);
}

TEST_F(DeviceFixture, HeaderLlcSteeringSkipsDram)
{
    auto run = [this](bool steer) {
        sim::Simulator local_sim;
        net::Fabric local_fabric(local_sim);
        mem::MemorySystem local_memory(local_sim, "m", {});
        SmartDsDevice::Config config;
        config.headerLlcSteering = steer;
        SmartDsDevice dev(local_fabric, "dev", &local_memory, config);
        net::Port *client = local_fabric.createPort("client");
        client->onReceive([](net::Message) {});
        auto qp = dev.createQp(0);
        auto h = dev.hostAlloc(64);
        auto d = dev.devAlloc(8192);
        auto e = dev.mixedRecv(qp, h, 64, d, 8192);
        net::Message msg;
        msg.dst = dev.nodeId(0);
        msg.dstQp = qp.local;
        msg.headerBytes = 64;
        msg.payload.size = 4096;
        client->send(std::move(msg));
        local_sim.run();
        EXPECT_TRUE(e.completion.done());
        return dev.headerWriteFlow()->deliveredBytes();
    };
    EXPECT_GT(run(false), 0.0);
    EXPECT_DOUBLE_EQ(run(true), 0.0);
}

} // namespace
} // namespace smartds::device
