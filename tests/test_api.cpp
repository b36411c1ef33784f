/**
 * @file
 * Tests for the Table-2 API facade: every paper call works end to end
 * through a coroutine, exactly like Listing 1.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "common/checksum.h"
#include "corpus/corpus.h"
#include "lz4/lz4.h"
#include "mem/memory_system.h"
#include "net/fabric.h"
#include "smartds/api.h"
#include "storage/storage_server.h"

namespace smartds::api {
namespace {

struct ApiFixture : ::testing::Test
{
    sim::Simulator sim;
    net::Fabric fabric{sim};
    mem::MemorySystem memory{sim, "mem", {}};

    device::SmartDsDevice::Config
    functionalConfig(unsigned ports = 1)
    {
        device::SmartDsDevice::Config config;
        config.ports = ports;
        config.functional = true;
        return config;
    }
};

TEST_F(ApiFixture, AllocationsComeFromTheRightSpaces)
{
    Session s(fabric, "dev", &memory, functionalConfig());
    Buffer h = s.host_alloc(64);
    Buffer d = s.dev_alloc(4096);
    EXPECT_EQ(h->space(), device::MemorySpace::Host);
    EXPECT_EQ(d->space(), device::MemorySpace::Device);
    EXPECT_EQ(s.device().hbm().used(), 4096u);
}

TEST_F(ApiFixture, OpenRoceInstancePerPort)
{
    Session s(fabric, "dev", &memory, functionalConfig(2));
    RoceInstance &i0 = s.open_roce_instance(0);
    RoceInstance &i1 = s.open_roce_instance(1);
    EXPECT_NE(i0.node_id(), i1.node_id());
    EXPECT_EQ(i0.index(), 0u);
    EXPECT_EQ(i1.index(), 1u);
}

TEST_F(ApiFixture, Listing1FlowEndToEnd)
{
    Session s(fabric, "dev", &memory, functionalConfig());
    storage::StorageServer::Config sc;
    sc.functionalStore = true;
    storage::StorageServer store(fabric, "storage", sc);
    net::Port *vm = fabric.createPort("vm");
    vm->onReceive([](net::Message) {});

    RoceInstance &ctx = s.open_roce_instance(0);
    Qp qp_recv = s.create_qp(ctx);
    Qp qp_send = s.connect_qp(ctx, store.nodeId());

    corpus::SyntheticCorpus corpus(1u << 20, 31);
    Rng rng(1);
    const auto block = corpus.sampleBlock(4096, rng);

    bool done = false;
    sim::spawn(sim, [](Session *s, Qp qp_recv, Qp qp_send,
                       bool *done) -> sim::Process {
        Buffer h_recv = s->host_alloc(64);
        Buffer h_send = s->host_alloc(64);
        Buffer d_recv = s->dev_alloc(8192);
        Buffer d_send = s->dev_alloc(8192);

        Event e = s->dev_mixed_recv(qp_recv, h_recv, 64, d_recv, 8192);
        const Bytes payload = co_await poll(e);
        Event c = s->dev_func(d_recv, payload, d_send, 8192,
                              COMPRESS_ENGINE_0);
        const Bytes compressed = co_await poll(c);
        EXPECT_LT(compressed, payload);
        Event out = s->dev_mixed_send(qp_send, h_send, 64, d_send,
                                      compressed,
                                      net::MessageKind::WriteReplica, 42,
                                      0);
        co_await poll(out);
        *done = true;
    }(&s, qp_recv, qp_send, &done));

    net::Message msg;
    msg.dst = ctx.node_id();
    msg.dstQp = qp_recv.local;
    msg.headerBytes = 64;
    msg.tag = 42;
    msg.payload.size = 4096;
    msg.payload.data = shareBytes(std::vector<std::uint8_t>(block));
    vm->send(std::move(msg));
    sim.run();

    ASSERT_TRUE(done);
    const net::Payload *stored = store.storedBlock(42);
    ASSERT_NE(stored, nullptr);
    ASSERT_TRUE(stored->data);
    const auto plain = lz4::decompress(*stored->data, 4096);
    ASSERT_TRUE(plain.has_value());
    EXPECT_EQ(0, std::memcmp(plain->data(), block.data(), 4096));
}

TEST_F(ApiFixture, ScrubEngineThroughTheFacade)
{
    Session s(fabric, "dev", &memory, functionalConfig());
    Buffer buf = s.dev_alloc(4096);
    Buffer scratch = s.dev_alloc(16);
    for (std::size_t i = 0; i < 4096; ++i)
        (*buf->bytes())[i] = static_cast<std::uint8_t>(i * 31);
    buf->content.size = 4096;
    Event e = s.dev_func(buf, 4096, scratch, 16, SCRUB_ENGINE_0);
    sim.run();
    EXPECT_TRUE(e.completion.done());
    EXPECT_EQ(e.completion.value(),
              xxhash32(buf->bytes()->data(), 4096));
}

TEST_F(ApiFixture, EngineSelectorsNamePortsAndOps)
{
    EXPECT_EQ(compress_engine(3).port, 3u);
    EXPECT_EQ(compress_engine(3).op, device::EngineOp::Compress);
    EXPECT_EQ(decompress_engine(1).op, device::EngineOp::Decompress);
    EXPECT_EQ(COMPRESS_ENGINE_0.port, 0u);
    EXPECT_EQ(SCRUB_ENGINE_0.op, device::EngineOp::Checksum);
}

TEST_F(ApiFixture, PollOnCompletedEventReturnsImmediately)
{
    Session s(fabric, "dev", &memory, functionalConfig());
    Buffer src = s.dev_alloc(1024);
    Buffer dst = s.dev_alloc(2048);
    src->content.size = 1024;
    src->content.compressibility = 0.5;
    Event e = s.dev_func(src, 1024, dst, 2048, COMPRESS_ENGINE_0);
    sim.run();
    ASSERT_TRUE(e.completion.done());
    // poll() on a finished event yields without suspension.
    bool resumed = false;
    sim::spawn(sim, [](Event e, bool *resumed) -> sim::Process {
        co_await poll(e);
        *resumed = true;
    }(e, &resumed));
    sim.run();
    EXPECT_TRUE(resumed);
}

} // namespace
} // namespace smartds::api
