/**
 * @file
 * Unit tests for the coroutine process layer: delays, completions,
 * latches and awaitable adapters.
 */

#include <gtest/gtest.h>

#include <memory>
#include <utility>

#include "sim/awaitables.h"
#include "sim/bandwidth_server.h"
#include "sim/process.h"
#include "sim/simulator.h"

namespace smartds::sim {
namespace {

using namespace smartds::time_literals;

TEST(Process, DelaySuspendsForExactTime)
{
    Simulator sim;
    Tick resumed = 0;
    spawn(sim, [](Simulator &s, Tick *out) -> Process {
        co_await delay(s, 250_ns);
        *out = s.now();
    }(sim, &resumed));
    sim.run();
    EXPECT_EQ(resumed, 250_ns);
}

TEST(Process, SequentialDelaysAccumulate)
{
    Simulator sim;
    Tick resumed = 0;
    spawn(sim, [](Simulator &s, Tick *out) -> Process {
        co_await delay(s, 100_ns);
        co_await delay(s, 100_ns);
        co_await delay(s, 100_ns);
        *out = s.now();
    }(sim, &resumed));
    sim.run();
    EXPECT_EQ(resumed, 300_ns);
}

TEST(Process, CompletionWakesWaiter)
{
    Simulator sim;
    Completion c(sim);
    std::uint64_t got = 0;
    spawn(sim, [](Completion c, std::uint64_t *out) -> Process {
        *out = co_await c;
    }(c, &got));
    sim.schedule(1_us, [c]() mutable { c.complete(77); });
    sim.run();
    EXPECT_EQ(got, 77u);
    EXPECT_TRUE(c.done());
}

TEST(Process, AwaitingCompletedCompletionDoesNotSuspend)
{
    Simulator sim;
    Completion c(sim);
    c.complete(5);
    std::uint64_t got = 0;
    Tick when = 999;
    spawn(sim, [](Simulator &s, Completion c, std::uint64_t *out,
                  Tick *t) -> Process {
        *out = co_await c;
        *t = s.now();
    }(sim, c, &got, &when));
    sim.run();
    EXPECT_EQ(got, 5u);
    EXPECT_EQ(when, 0u);
}

TEST(Process, MultipleWaitersAllWake)
{
    Simulator sim;
    Completion c(sim);
    int woken = 0;
    for (int i = 0; i < 5; ++i) {
        spawn(sim, [](Completion c, int *n) -> Process {
            co_await c;
            ++*n;
        }(c, &woken));
    }
    sim.schedule(10_ns, [c]() mutable { c.complete(0); });
    sim.run();
    EXPECT_EQ(woken, 5);
}

TEST(Process, CountLatchWaitsForAllArrivals)
{
    Simulator sim;
    auto latch = std::make_shared<CountLatch>(sim, 3);
    Tick done = 0;
    spawn(sim, [](Simulator &s, Completion c, Tick *out) -> Process {
        co_await c;
        *out = s.now();
    }(sim, latch->wait(), &done));
    sim.schedule(10_ns, [latch]() { latch->arrive(); });
    sim.schedule(20_ns, [latch]() { latch->arrive(); });
    sim.schedule(30_ns, [latch]() { latch->arrive(); });
    sim.run();
    EXPECT_EQ(done, 30_ns);
}

TEST(Process, ZeroCountLatchIsImmediatelyDone)
{
    Simulator sim;
    CountLatch latch(sim, 0);
    EXPECT_TRUE(latch.wait().done());
}

TEST(Process, LatchCompletionOutlivesLatchObject)
{
    Simulator sim;
    Completion waiter = [](Simulator &s) {
        auto latch = std::make_shared<CountLatch>(s, 1);
        Completion c = latch->wait();
        s.schedule(5_ns, [latch]() { latch->arrive(); });
        return c; // latch dies when the event releases it
    }(sim);
    bool woke = false;
    spawn(sim, [](Completion c, bool *out) -> Process {
        co_await c;
        *out = true;
    }(waiter, &woke));
    sim.run();
    EXPECT_TRUE(woke);
}

TEST(Process, TransferAsyncOnBandwidthServer)
{
    Simulator sim;
    BandwidthServer server(sim, "s", 1e9);
    Tick done = 0;
    std::uint64_t bytes = 0;
    spawn(sim, [](Simulator &s, BandwidthServer *srv, Tick *t,
                  std::uint64_t *b) -> Process {
        *b = co_await transferAsync(s, *srv, 2000);
        *t = s.now();
    }(sim, &server, &done, &bytes));
    sim.run();
    EXPECT_EQ(done, 2_us);
    EXPECT_EQ(bytes, 2000u);
}

TEST(Process, TimerAsyncFiresOnce)
{
    Simulator sim;
    Tick done = 0;
    spawn(sim, [](Simulator &s, Tick *t) -> Process {
        co_await timerAsync(s, 42_ns);
        *t = s.now();
    }(sim, &done));
    sim.run();
    EXPECT_EQ(done, 42_ns);
}

TEST(Process, ParallelAwaitViaTwoCompletions)
{
    Simulator sim;
    BandwidthServer fast(sim, "fast", 2e9);
    BandwidthServer slow(sim, "slow", 1e9);
    Tick done = 0;
    spawn(sim, [](Simulator &s, BandwidthServer *a, BandwidthServer *b,
                  Tick *t) -> Process {
        auto ca = transferAsync(s, *a, 1000); // 500 ns
        auto cb = transferAsync(s, *b, 1000); // 1000 ns
        co_await ca;
        co_await cb;
        *t = s.now();
    }(sim, &fast, &slow, &done));
    sim.run();
    // Both started together; total is the max, not the sum.
    EXPECT_EQ(done, 1_us);
}

// ---------------------------------------------------------------------
// Task<T>: lazily started, awaited inline (no scheduled events)
// ---------------------------------------------------------------------

/** Two timed phases and a completion, as a reusable Task. */
Task<std::uint64_t>
phases(Simulator &sim, Completion done)
{
    co_await delay(sim, 10_ns);
    auto wait = timerAsync(sim, 20_ns);
    co_await wait;
    co_return co_await done;
}

TEST(Task, AwaitingAddsNoEventsOverTheInlinedBody)
{
    // The same work once through a Task and once written inline must
    // produce the same event stream: same count, same dsan state hash.
    const auto run = [](bool through_task) {
        Simulator sim;
        sim.enableStateHash(true);
        Completion done(sim);
        sim.schedule(5_ns, [done]() mutable { done.complete(7); });
        std::uint64_t got = 0;
        if (through_task) {
            spawn(sim, [](Simulator &s, Completion c,
                          std::uint64_t *out) -> Process {
                *out = co_await phases(s, c);
            }(sim, done, &got));
        } else {
            spawn(sim, [](Simulator &s, Completion c,
                          std::uint64_t *out) -> Process {
                co_await delay(s, 10_ns);
                auto wait = timerAsync(s, 20_ns);
                co_await wait;
                *out = co_await c;
            }(sim, done, &got));
        }
        sim.run();
        EXPECT_EQ(got, 7u);
        EXPECT_EQ(sim.now(), 30_ns);
        return std::make_pair(sim.eventsExecuted(), sim.stateHash());
    };
    const auto inlined = run(false);
    const auto tasked = run(true);
    EXPECT_EQ(tasked.first, inlined.first);
    EXPECT_EQ(tasked.second, inlined.second);
}

TEST(Task, ReturnsItsValueWithOrWithoutSuspending)
{
    Simulator sim;
    int ready = 0;
    int suspended = 0;
    spawn(sim, [](Simulator &s, int *a, int *b) -> Process {
        *a = co_await []() -> Task<int> { co_return 41; }();
        *b = co_await [](Simulator &s2) -> Task<int> {
            co_await delay(s2, 1_us);
            co_return 42;
        }(s);
    }(sim, &ready, &suspended));
    sim.run();
    EXPECT_EQ(ready, 41);
    EXPECT_EQ(suspended, 42);
    EXPECT_EQ(sim.now(), 1_us);
}

Task<int>
leaf(Simulator &sim, int v)
{
    co_await delay(sim, 100_ns);
    co_return v;
}

Task<int>
middle(Simulator &sim)
{
    const int a = co_await leaf(sim, 1);
    const int b = co_await leaf(sim, 2);
    co_return a + b;
}

TEST(Task, NestedTasksRunInOrder)
{
    Simulator sim;
    int sum = 0;
    Tick when = 0;
    spawn(sim, [](Simulator &s, int *out, Tick *t) -> Process {
        *out = co_await middle(s) + co_await leaf(s, 10);
        *t = s.now();
    }(sim, &sum, &when));
    sim.run();
    EXPECT_EQ(sum, 13);
    EXPECT_EQ(when, 300_ns);
}

TEST(Task, FrameIsDestroyedOnCompletion)
{
    // The Task's parameter copy lives in its frame: the use count drops
    // back as soon as the awaited Task finishes.
    Simulator sim;
    auto token = std::make_shared<int>(0);
    long during = 0;
    long after = 0;
    spawn(sim, [](Simulator &s, std::shared_ptr<int> t, long *in,
                  long *out) -> Process {
        co_await [](Simulator &s2, std::shared_ptr<int> held,
                    long *seen) -> Task<void> {
            co_await delay(s2, 1_us);
            *seen = held.use_count();
        }(s, t, in);
        *out = t.use_count();
    }(sim, token, &during, &after));
    token.reset();
    sim.run();
    EXPECT_EQ(during, 2); // the process's copy and the Task frame's
    EXPECT_EQ(after, 1);  // the Task frame is gone
}

TEST(Process, FinishedProcessLeavesTheRegistry)
{
    Simulator sim;
    spawn(sim, [](Simulator &s) -> Process { co_await delay(s, 1_us); }(sim));
    EXPECT_EQ(sim.liveProcesses(), 1u);
    sim.run();
    EXPECT_EQ(sim.liveProcesses(), 0u);
    EXPECT_EQ(sim.reclaimProcesses(), 0u);
}

TEST(Process, ReclaimFreesSuspendedFramesAndPendingEvents)
{
    // One process waits on a completion nobody fires, another (and the
    // Task it awaits) sleeps past the end of the run: reclaiming frees
    // both frames, the Task's included, and drops the pending resume.
    Simulator sim;
    auto token = std::make_shared<int>(0);
    Completion never(sim);
    spawn(sim, [](Completion c, std::shared_ptr<int> held) -> Process {
        co_await c;
        (void)held;
    }(never, token));
    spawn(sim, [](Simulator &s, std::shared_ptr<int> held) -> Process {
        co_await [](Simulator &s2, std::shared_ptr<int> t) -> Task<void> {
            co_await delay(s2, 1_ms);
            (void)t;
        }(s, held);
    }(sim, token));
    sim.runUntil(1_us);
    EXPECT_EQ(sim.liveProcesses(), 2u);
    EXPECT_EQ(token.use_count(), 4); // ours, two frames, the Task frame
    EXPECT_EQ(sim.reclaimProcesses(), 2u);
    EXPECT_EQ(token.use_count(), 1);
    EXPECT_EQ(sim.liveProcesses(), 0u);
    EXPECT_EQ(sim.nextEventTick(), Simulator::kNoPendingEvent);
    sim.run(); // nothing left to resume
}

TEST(Process, SimulatorDestructorReclaimsSuspendedFrames)
{
    auto token = std::make_shared<int>(0);
    {
        Simulator sim;
        spawn(sim, [](Simulator &s, std::shared_ptr<int> held) -> Process {
            co_await delay(s, 1_ms);
            (void)held;
        }(sim, token));
        sim.runUntil(1_us);
        EXPECT_EQ(token.use_count(), 2);
    }
    EXPECT_EQ(token.use_count(), 1);
}

} // namespace
} // namespace smartds::sim
