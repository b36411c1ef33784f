/**
 * @file
 * Coroutine-based process layer over the event kernel.
 *
 * Models with sequential logic (the middle-tier request loops, the example
 * applications) read far more naturally as coroutines than as callback
 * chains. A Process is a fire-and-forget coroutine owned by the simulator:
 *
 * @code
 *   sim::Process serveOne(sim::Simulator &sim, ...)
 *   {
 *       co_await sim::delay(sim, 10_us);       // sleep
 *       co_await completion;                   // wait for a Completion
 *   }
 *   sim::spawn(sim, serveOne(sim, ...));
 * @endcode
 *
 * A Task<T> is the awaitable counterpart: a lazy coroutine a Process (or
 * another Task) co_awaits like a function call, at no event cost.
 *
 * Completion mirrors the asynchronous events returned by the SmartDS API
 * (Table 2 of the paper): it carries a 64-bit value (e.g. a byte count)
 * and wakes every awaiting process when complete() is called.
 *
 * Domain locality (PDES): a Process binds to exactly one Simulator — the
 * one it was spawned on — and every resume it schedules lands back on
 * that same heap. Under a multi-domain ClusterSim this means coroutines
 * never cross timing domains: a component's request loops run entirely
 * inside the component's own domain, and only fabric messages (which
 * route through the lookahead-checked channels) leave it. Nothing here
 * needed to change for sharded execution.
 */

#ifndef SMARTDS_SIM_PROCESS_H_
#define SMARTDS_SIM_PROCESS_H_

#include <coroutine>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/logging.h"
#include "common/time.h"
#include "sim/simulator.h"

namespace smartds::sim {

/**
 * Fire-and-forget coroutine task. The coroutine frame destroys itself on
 * completion; the returned object is only a token for spawn(). A frame
 * still suspended when its simulator is done is reclaimed by
 * Simulator::reclaimProcesses() (or the Simulator's destructor).
 */
class Process
{
  public:
    struct promise_type
    {
        /** Links the frame into its simulator's registry (spawn()). */
        ProcessHook hook;

        Process
        get_return_object()
        {
            return Process(
                std::coroutine_handle<promise_type>::from_promise(*this));
        }
        std::suspend_always initial_suspend() noexcept { return {}; }
        std::suspend_never final_suspend() noexcept { return {}; }
        void return_void() {}
        void
        unhandled_exception()
        {
            panic("unhandled exception escaped a sim::Process");
        }
    };

    explicit Process(std::coroutine_handle<promise_type> h) : handle_(h) {}

    std::coroutine_handle<promise_type>
    release()
    {
        auto h = handle_;
        handle_ = nullptr;
        return h;
    }

  private:
    std::coroutine_handle<promise_type> handle_;
};

namespace detail {

/** Where a Task's promise keeps its result (nothing for Task<void>). */
template <typename T>
struct TaskResult
{
    std::optional<T> value;
    void return_value(T v) { value = std::move(v); }
    T take() { return std::move(*value); }
};

template <>
struct TaskResult<void>
{
    void return_void() {}
    void take() {}
};

} // namespace detail

/**
 * Lazily started coroutine returning a T to the one coroutine that
 * awaits it. Unlike spawn() or Completion::complete(), awaiting a Task
 * schedules nothing: co_await transfers control straight into the body
 * and, when the body finishes, straight back to the awaiter. A Task is
 * therefore exactly equivalent to writing its body inline — same events,
 * same sequence numbers, same dsan state hash — which lets a shared
 * coroutine call per-component hooks without perturbing the event
 * stream. The frame is owned by the Task object and freed with it.
 *
 * @code
 *   sim::Task<Bytes> charge(sim::Simulator &sim, Bytes n)
 *   {
 *       co_await sim::delay(sim, 10_ns);
 *       co_return n;
 *   }
 *   // inside a Process:  const Bytes got = co_await charge(sim, 64);
 * @endcode
 */
template <typename T = void>
class [[nodiscard]] Task
{
  public:
    struct promise_type : detail::TaskResult<T>
    {
        std::coroutine_handle<> continuation;

        Task
        get_return_object()
        {
            return Task(
                std::coroutine_handle<promise_type>::from_promise(*this));
        }
        std::suspend_always initial_suspend() noexcept { return {}; }

        struct FinalAwaiter
        {
            bool await_ready() const noexcept { return false; }
            std::coroutine_handle<>
            await_suspend(std::coroutine_handle<promise_type> h) noexcept
            {
                return h.promise().continuation;
            }
            void await_resume() const noexcept {}
        };
        FinalAwaiter final_suspend() noexcept { return {}; }

        void
        unhandled_exception()
        {
            panic("unhandled exception escaped a sim::Task");
        }
    };

    Task(Task &&o) noexcept : handle_(std::exchange(o.handle_, nullptr)) {}
    Task(const Task &) = delete;
    Task &operator=(const Task &) = delete;
    Task &operator=(Task &&) = delete;
    ~Task()
    {
        if (handle_)
            handle_.destroy();
    }

    // --- awaitable interface (await once) -------------------------------
    bool await_ready() const noexcept { return false; }
    std::coroutine_handle<>
    await_suspend(std::coroutine_handle<> awaiting) noexcept
    {
        handle_.promise().continuation = awaiting;
        return handle_;
    }
    T
    await_resume()
    {
        SMARTDS_CHECK(handle_.done(), "sim::Task resumed before finishing");
        return handle_.promise().take();
    }

  private:
    explicit Task(std::coroutine_handle<promise_type> h) : handle_(h) {}

    std::coroutine_handle<promise_type> handle_;
};

/** Start @p p at the current simulated time (next event slot). */
inline void
spawn(Simulator &sim, Process p)
{
    auto h = p.release();
    SMARTDS_CHECK(h, "spawning an empty process");
    sim.adoptProcess(h.promise().hook, h);
    sim.schedule(0, [h]() { h.resume(); });
}

/** Awaitable that resumes the coroutine after @p d ticks. */
class DelayAwaiter
{
  public:
    DelayAwaiter(Simulator &sim, Tick d,
                 EventTag tag = EventTag::Generic)
        : sim_(sim), delay_(d), tag_(tag)
    {
    }

    bool await_ready() const noexcept { return delay_ == 0; }
    void
    await_suspend(std::coroutine_handle<> h)
    {
        sim_.schedule(delay_, [h]() { h.resume(); }, tag_);
    }
    void await_resume() const noexcept {}

  private:
    Simulator &sim_;
    Tick delay_;
    EventTag tag_;
};

/** Sleep for @p d ticks of simulated time. */
inline DelayAwaiter
delay(Simulator &sim, Tick d, EventTag tag = EventTag::Generic)
{
    return DelayAwaiter(sim, d, tag);
}

/**
 * A one-shot asynchronous completion carrying a 64-bit result value.
 *
 * Copies share state (shared_ptr semantics), so a Completion can be handed
 * to both the producer (device model) and consumers (awaiting processes).
 * Awaiting an already-complete Completion does not suspend.
 */
class Completion
{
  public:
    Completion(Simulator &sim)
        : state_(std::make_shared<State>(State{&sim, {}, 0, false, {}}))
    {
    }

    /** Mark complete with @p value and wake all waiters. */
    void
    complete(std::uint64_t value = 0)
    {
        SMARTDS_CHECK(!state_->done, "double completion");
        state_->done = true;
        state_->value = value;
        auto waiters = std::move(state_->waiters);
        state_->waiters.clear();
        for (auto h : waiters)
            state_->sim->schedule(0, [h]() { h.resume(); });
        auto callbacks = std::move(state_->callbacks);
        state_->callbacks.clear();
        for (auto &fn : callbacks)
            state_->sim->schedule(0,
                                  [fn = std::move(fn), value]() { fn(value); });
    }

    /**
     * Invoke @p fn(value) once complete (at the next event slot if already
     * done). Unlike awaiting, a callback holds no coroutine frame, so a
     * completion that never fires leaks nothing — the right tool for
     * consumers of events that may be abandoned (e.g. acks from a crashed
     * storage node).
     */
    void
    onComplete(std::function<void(std::uint64_t)> fn)
    {
        if (state_->done) {
            const std::uint64_t value = state_->value;
            state_->sim->schedule(0,
                                  [fn = std::move(fn), value]() { fn(value); });
            return;
        }
        state_->callbacks.push_back(std::move(fn));
    }

    bool done() const { return state_->done; }

    /** Result value; only meaningful once done(). */
    std::uint64_t value() const { return state_->value; }

    // --- awaitable interface -------------------------------------------
    bool await_ready() const noexcept { return state_->done; }
    void
    await_suspend(std::coroutine_handle<> h)
    {
        state_->waiters.push_back(h);
    }
    /** @return the completion value. */
    std::uint64_t await_resume() const noexcept { return state_->value; }

  private:
    struct State
    {
        Simulator *sim;
        std::vector<std::coroutine_handle<>> waiters;
        std::uint64_t value;
        bool done;
        std::vector<std::function<void(std::uint64_t)>> callbacks;
    };
    std::shared_ptr<State> state_;
};

/**
 * Counting latch: wait until @p n arrivals. Used for "wait for all three
 * replica acknowledgements" style joins.
 */
class CountLatch
{
  public:
    CountLatch(Simulator &sim, unsigned n)
        : completion_(sim), remaining_(n)
    {
        if (remaining_ == 0)
            completion_.complete(0);
    }

    /** Record one arrival; completes the latch on the last one. */
    void
    arrive()
    {
        SMARTDS_CHECK(remaining_ > 0, "latch arrive() past zero");
        if (--remaining_ == 0)
            completion_.complete(0);
    }

    /**
     * Record one arrival unless the latch is already complete. Quorum
     * joins (2-of-3 replica acks) use this: the straggler's arrival past
     * the quorum is expected, not a bug.
     *
     * @return whether the arrival was counted.
     */
    bool
    tryArrive()
    {
        if (remaining_ == 0)
            return false;
        arrive();
        return true;
    }

    /**
     * Awaitable that resumes when the count reaches zero. Returned by
     * value: a Completion copy shares state, so waiters stay valid even
     * if the latch object itself is destroyed first.
     */
    Completion wait() const { return completion_; }

  private:
    Completion completion_;
    unsigned remaining_;
};

} // namespace smartds::sim

#endif // SMARTDS_SIM_PROCESS_H_
