/**
 * @file
 * Tests for the storage tier: append latency/bandwidth, ack addressing,
 * the functional store, and timing-mode fetch synthesis.
 */

#include <gtest/gtest.h>

#include "net/fabric.h"
#include "sim/simulator.h"
#include "storage/storage_server.h"

namespace smartds::storage {
namespace {

using namespace smartds::time_literals;

struct StorageFixture : ::testing::Test
{
    sim::Simulator sim;
    net::Fabric fabric{sim};

    net::Message
    replica(net::NodeId dst, std::uint64_t tag, Bytes size)
    {
        net::Message msg;
        msg.dst = dst;
        msg.kind = net::MessageKind::WriteReplica;
        msg.headerBytes = 64;
        msg.tag = tag;
        msg.payload.size = size;
        msg.payload.compressed = true;
        msg.payload.originalSize = 4096;
        msg.payload.compressibility = 0.5;
        return msg;
    }
};

TEST_F(StorageFixture, AppendsAndAcks)
{
    StorageServer server(fabric, "st");
    net::Port *mt = fabric.createPort("mt");
    bool acked = false;
    Tick ack_at = 0;
    mt->onReceive([&](net::Message msg) {
        EXPECT_EQ(msg.kind, net::MessageKind::WriteReplicaAck);
        EXPECT_EQ(msg.tag, 5u);
        acked = true;
        ack_at = sim.now();
    });
    mt->send(replica(server.nodeId(), 5, 2048));
    sim.run();
    EXPECT_TRUE(acked);
    EXPECT_EQ(server.blocksStored(), 1u);
    EXPECT_EQ(server.bytesStored(), 2048u);
    // NVMe append latency (25 us) dominates the round trip.
    EXPECT_GT(toMicroseconds(ack_at), 25.0);
    EXPECT_LT(toMicroseconds(ack_at), 40.0);
}

TEST_F(StorageFixture, DiskSerialisesIngest)
{
    StorageServer::Config config;
    config.ingestBandwidth = 1e9; // 1 GB/s for visible serialisation
    StorageServer server(fabric, "st", config);
    net::Port *mt = fabric.createPort("mt");
    std::vector<Tick> acks;
    mt->onReceive([&](net::Message) { acks.push_back(sim.now()); });
    for (int i = 0; i < 4; ++i)
        mt->send(replica(server.nodeId(), static_cast<unsigned>(i),
                         1'000'000));
    sim.run();
    ASSERT_EQ(acks.size(), 4u);
    // Each 1 MB block takes 1 ms on the disk: acks ~1 ms apart.
    for (std::size_t i = 1; i < acks.size(); ++i)
        EXPECT_NEAR(toMicroseconds(acks[i] - acks[i - 1]), 1000.0, 150.0);
}

TEST_F(StorageFixture, FunctionalStoreKeepsBytes)
{
    StorageServer::Config config;
    config.functionalStore = true;
    StorageServer server(fabric, "st", config);
    net::Port *mt = fabric.createPort("mt");
    mt->onReceive([](net::Message) {});
    auto msg = replica(server.nodeId(), 9, 100);
    msg.payload.data = shareBytes(std::vector<std::uint8_t>(100, 0xab));
    mt->send(std::move(msg));
    sim.run();
    const net::Payload *p = server.storedBlock(9);
    ASSERT_NE(p, nullptr);
    ASSERT_TRUE(p->data);
    EXPECT_EQ(p->data->size(), 100u);
    EXPECT_EQ((*p->data)[50], 0xab);
    EXPECT_EQ(server.storedBlock(999), nullptr);
}

TEST_F(StorageFixture, FetchReturnsStoredBlock)
{
    StorageServer::Config config;
    config.functionalStore = true;
    StorageServer server(fabric, "st", config);
    net::Port *mt = fabric.createPort("mt");
    net::Message reply;
    int replies = 0;
    mt->onReceive([&](net::Message msg) {
        if (msg.kind == net::MessageKind::ReadFetchReply) {
            reply = std::move(msg);
            ++replies;
        }
    });
    auto w = replica(server.nodeId(), 3, 2222);
    w.payload.data = shareBytes(std::vector<std::uint8_t>(2222, 7));
    mt->send(std::move(w));
    sim.runUntil(1 * ticksPerMillisecond);

    net::Message fetch;
    fetch.dst = server.nodeId();
    fetch.kind = net::MessageKind::ReadFetch;
    fetch.headerBytes = 64;
    fetch.tag = 3;
    mt->send(std::move(fetch));
    sim.run();
    ASSERT_EQ(replies, 1);
    EXPECT_EQ(reply.payload.size, 2222u);
    ASSERT_TRUE(reply.payload.data);
}

TEST_F(StorageFixture, TimingFetchSynthesisesFromHints)
{
    StorageServer server(fabric, "st"); // no functional store
    net::Port *mt = fabric.createPort("mt");
    net::Message reply;
    mt->onReceive([&](net::Message msg) { reply = std::move(msg); });

    net::Message fetch;
    fetch.dst = server.nodeId();
    fetch.kind = net::MessageKind::ReadFetch;
    fetch.headerBytes = 64;
    fetch.tag = 1;
    fetch.payload.originalSize = 8192;
    fetch.payload.compressibility = 0.25;
    mt->send(std::move(fetch));
    sim.run();
    EXPECT_EQ(reply.kind, net::MessageKind::ReadFetchReply);
    EXPECT_EQ(reply.payload.size, 2048u); // 8192 x 0.25
    EXPECT_EQ(reply.payload.originalSize, 8192u);
    EXPECT_TRUE(reply.payload.compressed);
}

} // namespace
} // namespace smartds::storage
