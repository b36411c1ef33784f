/**
 * @file
 * Discrete-event simulation kernel.
 *
 * The kernel is a cancellable pending-event priority queue over integer
 * picosecond ticks. Events scheduled for the same tick fire in scheduling
 * order (a monotonic sequence number breaks ties), which keeps simulations
 * deterministic.
 *
 * The hot path is allocation-averse: event records live in a slab pool and
 * are recycled through a free list, cancellation is a generation-counter
 * check (no shared control block), the pending queue is an implicit 4-ary
 * heap of 24-byte plain records, and callbacks are stored in a
 * small-buffer-optimized holder so the common capturing lambda never
 * touches the general-purpose heap. Figure sweeps push hundreds of
 * millions of events through this kernel, so every per-event allocation
 * removed here is minutes off a full reproduction run.
 */

#ifndef SMARTDS_SIM_SIMULATOR_H_
#define SMARTDS_SIM_SIMULATOR_H_

#include <algorithm>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/logging.h"
#include "common/time.h"

namespace smartds::sim {

class Simulator;

/**
 * Index of the timing domain the calling thread is currently executing
 * (or constructing components for). Defaults to 0 — the single-domain
 * case — and is maintained by Simulator::run()/runUntil() from the
 * simulator's own domain index, so any code running inside an event
 * (fabric routing, tracer discovery) can ask which logical process it
 * belongs to without threading a parameter through every layer.
 */
unsigned currentDomain() noexcept;

/**
 * RAII scope that pins currentDomain() for the calling thread. The
 * experiment wiring uses it while *constructing* the components of a
 * timing domain, so construction-time lookups (ports, tracers) resolve
 * to the same domain the component will later execute in.
 */
class DomainScope
{
  public:
    explicit DomainScope(unsigned domain) noexcept;
    ~DomainScope();
    DomainScope(const DomainScope &) = delete;
    DomainScope &operator=(const DomainScope &) = delete;

  private:
    unsigned saved_;
};

/**
 * Move-only callable holder for event callbacks with a small-buffer
 * optimisation: callables up to inlineCapacity bytes are stored inside the
 * event record itself; larger ones fall back to a heap box. Implicitly
 * constructible from any void() callable, so existing schedule() call
 * sites (lambdas, std::function, function pointers) compile unchanged.
 */
class EventCallback
{
  public:
    /** Inline storage: covers lambdas capturing up to 6 pointers. */
    static constexpr std::size_t inlineCapacity = 48;

    EventCallback() = default;

    template <typename F,
              typename Fn = std::decay_t<F>,
              typename = std::enable_if_t<
                  !std::is_same_v<Fn, EventCallback> &&
                  std::is_invocable_r_v<void, Fn &>>>
    EventCallback(F &&f) // NOLINT: implicit by design
    {
        if constexpr (sizeof(Fn) <= inlineCapacity &&
                      alignof(Fn) <= alignof(std::max_align_t) &&
                      std::is_nothrow_move_constructible_v<Fn>) {
            ::new (static_cast<void *>(buf_)) Fn(std::forward<F>(f));
            ops_ = &inlineOps<Fn>;
        } else {
            // simlint: allow(naked-new): the SBO fallback box; ownership
            // is carried by ops_ (boxedOps destroy deletes it), and a
            // unique_ptr would not fit the type-erased inline buffer
            ::new (static_cast<void *>(buf_))
                (Fn *)(new Fn(std::forward<F>(f)));
            ops_ = &boxedOps<Fn>;
        }
    }

    EventCallback(EventCallback &&other) noexcept { moveFrom(other); }

    EventCallback &
    operator=(EventCallback &&other) noexcept
    {
        if (this != &other) {
            reset();
            moveFrom(other);
        }
        return *this;
    }

    EventCallback(const EventCallback &) = delete;
    EventCallback &operator=(const EventCallback &) = delete;

    ~EventCallback() { reset(); }

    /** Whether a callable is held. */
    explicit operator bool() const { return ops_ != nullptr; }

    /** Invoke the held callable (must hold one). */
    void operator()() { ops_->invoke(buf_); }

    /** Destroy the held callable (and release its captures), if any. */
    void
    reset()
    {
        if (ops_) {
            ops_->destroy(buf_);
            ops_ = nullptr;
        }
    }

  private:
    struct Ops
    {
        void (*invoke)(void *);
        /** Move-construct dst's storage from src's, destroying src's. */
        void (*relocate)(void *dst, void *src);
        void (*destroy)(void *);
    };

    template <typename Fn>
    static constexpr Ops inlineOps = {
        [](void *p) { (*std::launder(reinterpret_cast<Fn *>(p)))(); },
        [](void *dst, void *src) {
            Fn *from = std::launder(reinterpret_cast<Fn *>(src));
            ::new (dst) Fn(std::move(*from));
            from->~Fn();
        },
        [](void *p) { std::launder(reinterpret_cast<Fn *>(p))->~Fn(); },
    };

    template <typename Fn>
    static constexpr Ops boxedOps = {
        [](void *p) { (**std::launder(reinterpret_cast<Fn **>(p)))(); },
        [](void *dst, void *src) {
            ::new (dst) (Fn *)(*std::launder(reinterpret_cast<Fn **>(src)));
        },
        [](void *p) { delete *std::launder(reinterpret_cast<Fn **>(p)); },
    };

    void
    moveFrom(EventCallback &other) noexcept
    {
        ops_ = other.ops_;
        if (ops_) {
            ops_->relocate(buf_, other.buf_);
            other.ops_ = nullptr;
        }
    }

    alignas(std::max_align_t) unsigned char buf_[inlineCapacity];
    const Ops *ops_ = nullptr;
};

/**
 * Handle to a scheduled event; allows cancellation. Default-constructed
 * handles are inert. Copies share the same underlying event: the handle is
 * a (slot, generation) ticket into the simulator's event pool, and a
 * generation mismatch means the event already fired or was cancelled (the
 * slot may since have been recycled for an unrelated event). Handles must
 * not outlive their Simulator.
 */
class EventHandle
{
  public:
    EventHandle() = default;

    /** Cancel the event if it has not fired yet. @return true if cancelled. */
    inline bool cancel();

    /** @return true if the event is still pending. */
    inline bool pending() const;

  private:
    friend class Simulator;
    EventHandle(Simulator *sim, std::uint32_t slot, std::uint32_t gen)
        : sim_(sim), slot_(slot), gen_(gen)
    {
    }

    Simulator *sim_ = nullptr;
    std::uint32_t slot_ = 0;
    std::uint32_t gen_ = 0;
};

/**
 * Stage tag recorded with every scheduled event, folded into the
 * determinism-sanitizer state hash alongside (tick, seq). Tagging is
 * optional (untagged events hash as Generic) but makes a divergence
 * report name the subsystem whose event stream first differed.
 */
enum class EventTag : std::uint8_t
{
    Generic = 0,
    Net,
    Nic,
    Host,
    Device,
    Storage,
    Client,
    Maintenance,
    Test,
};

/**
 * One window of the determinism sanitizer's event stream: the rolling
 * state hash after @ref events dispatches covering simulated time
 * [firstTick, lastTick]. Two runs of the same config must produce
 * identical window sequences; the first window whose hash differs
 * brackets the diverging dispatch.
 */
struct DsanWindow
{
    std::uint32_t hash = 0;       ///< rolling state hash at window end
    std::uint64_t firstEvent = 0; ///< ordinal of the window's first event
    std::uint64_t events = 0;     ///< dispatches folded into this window
    Tick firstTick = 0;
    Tick lastTick = 0;
};

/** Result of comparing two dsan window streams (see compareDsanWindows). */
struct DsanDivergence
{
    bool diverged = false;
    std::size_t windowIndex = 0;  ///< first differing window
    std::uint64_t firstEvent = 0; ///< event-ordinal range of that window
    std::uint64_t events = 0;
    Tick firstTick = 0;           ///< simulated-time range of that window
    Tick lastTick = 0;
};

/**
 * Compare two runs' window streams; returns the first divergence (hash
 * mismatch, or one stream ending early) with the offending window's
 * event/tick range, so nondeterminism localizes to ~one window of
 * dispatches instead of "the CSVs differ".
 */
DsanDivergence compareDsanWindows(const std::vector<DsanWindow> &a,
                                  const std::vector<DsanWindow> &b);

/**
 * Registry hook of one spawned coroutine frame. sim::Process embeds one
 * in its promise, and spawn() links it into the Simulator the process
 * runs on; the hook unlinks itself when the frame is destroyed (the
 * process finished, or its simulator reclaimed it). Linking and
 * unlinking are a few pointer writes and allocate nothing.
 */
class ProcessHook
{
  public:
    ProcessHook() = default;
    ProcessHook(const ProcessHook &) = delete;
    ProcessHook &operator=(const ProcessHook &) = delete;
    ~ProcessHook() { unlink(); }

    /** Whether the frame is registered with a simulator. */
    bool linked() const { return next_ != nullptr; }

  private:
    friend class Simulator;

    void
    unlink() noexcept
    {
        if (!next_)
            return;
        prev_->next_ = next_;
        next_->prev_ = prev_;
        prev_ = next_ = nullptr;
    }

    ProcessHook *prev_ = nullptr;
    ProcessHook *next_ = nullptr;
    std::coroutine_handle<> frame_;
};

/**
 * The discrete-event simulator: a clock plus a pending-event queue.
 *
 * Components hold a reference to the Simulator, schedule callbacks, and
 * query now(). One Simulator per experiment; no global state, so
 * independent Simulator instances may run on concurrent threads (see
 * workload::SweepRunner).
 */
class Simulator
{
  public:
    Simulator() { processes_.prev_ = processes_.next_ = &processes_; }
    /** Reclaims the frames of processes still suspended (see below). */
    ~Simulator() { reclaimProcesses(); }
    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /** Returned by nextEventTick() when no live event is pending. */
    static constexpr Tick kNoPendingEvent = ~Tick{0};

    /**
     * Tick of the earliest live pending event, or kNoPendingEvent when
     * the queue holds none. Drops cancelled shells from the heap top as
     * a side effect (they carry no information).
     */
    Tick
    nextEventTick()
    {
        dropStaleTop();
        return heap_.empty() ? kNoPendingEvent : heap_.front().when();
    }

    /**
     * Timing domain this simulator belongs to (0 for standalone
     * simulators; assigned by sim::ClusterSim for PDES shards). run()
     * and runUntil() publish it through currentDomain() while events
     * execute.
     */
    unsigned domainIndex() const { return domain_; }

    /** Assign the timing-domain index (called once, by ClusterSim). */
    void setDomainIndex(unsigned domain) { domain_ = domain; }

    /** Schedule @p fn to run @p delay ticks from now. */
    EventHandle
    schedule(Tick delay, EventCallback fn, EventTag tag = EventTag::Generic)
    {
        return scheduleAt(now_ + delay, std::move(fn), tag);
    }

    /** Schedule @p fn at absolute tick @p when (must be >= now). */
    EventHandle
    scheduleAt(Tick when, EventCallback fn,
               EventTag tag = EventTag::Generic)
    {
        SMARTDS_CHECK(when >= now_,
                       "scheduling into the past (when=%llu now=%llu)",
                       static_cast<unsigned long long>(when),
                       static_cast<unsigned long long>(now_));
        std::uint32_t slot;
        if (freeSlots_.empty()) {
            // Grow the slab 4x at a time: Event records are non-trivial
            // (they hold callbacks), so regrowth relocations are the one
            // remaining per-event cost worth amortising aggressively.
            if (pool_.size() == pool_.capacity())
                pool_.reserve(pool_.empty() ? 256 : pool_.size() * 4);
            slot = static_cast<std::uint32_t>(pool_.size());
            pool_.emplace_back();
        } else {
            slot = freeSlots_.back();
            freeSlots_.pop_back();
        }
        Event &event = pool_[slot];
        event.fn = std::move(fn);
        event.tag = tag;
        heapPush(HeapEntry{makeKey(when, nextSeq_++), slot, event.gen});
        return EventHandle(this, slot, event.gen);
    }

    /** Execute the next pending event. @return false if queue empty. */
    bool
    step()
    {
        while (!heap_.empty()) {
            const HeapEntry top = heap_.front();
            heapPop();
            Event &event = pool_[top.slot];
            if (event.gen != top.gen)
                continue; // cancelled; slot already recycled
            // Only live events must dispatch in (tick, seq) order.
            // Cancelled shells may legally pop "backwards": runUntil()'s
            // dropStaleTop() can discard a dead entry past its deadline
            // before time has advanced that far.
            SMARTDS_SIM_INVARIANT(
                top.key >= lastPoppedKey_,
                "event dispatched out of (tick, seq) order at tick %llu",
                static_cast<unsigned long long>(top.when()));
#if SMARTDS_CHECKED_BUILD
            lastPoppedKey_ = top.key;
#endif
            now_ = top.when();
            // Fold (tick, seq, stage tag) into the determinism hash
            // before the slot is recycled (recycling does not clear the
            // tag, but the callback below may overwrite it).
            if (hashOn_)
                foldEvent(top.when(),
                          static_cast<std::uint64_t>(top.key), event.tag);
            // Move the callback out and recycle the slot *before*
            // invoking, so the callback may schedule freely (including
            // reusing this very slot) without invalidating anything we
            // still touch.
            EventCallback fn = std::move(event.fn);
            releaseSlot(top.slot);
            ++executed_;
            fn();
            return true;
        }
        return false;
    }

    /** Run until the queue drains. @return the final time. */
    Tick run();

    /**
     * Run until simulated time reaches @p deadline (events at exactly
     * @p deadline still fire) or the queue drains. @return final time.
     */
    Tick runUntil(Tick deadline);

    /** Number of events executed so far. */
    std::uint64_t eventsExecuted() const { return executed_; }

    /** Number of events currently pending (including cancelled shells). */
    std::size_t pendingEvents() const { return heap_.size(); }

    /**
     * Size of the event slab (high-water mark of simultaneously pending
     * events). Exposed so tests can assert free-list reuse.
     */
    std::size_t eventPoolSlots() const { return pool_.size(); }

    // ---- process frames --------------------------------------------------
    //
    // A spawned sim::Process owns its own coroutine frame and frees it
    // when its body returns. A process still suspended when its
    // simulator stops being run (a server loop, a client issuer, an
    // await on an ack that never comes) would otherwise leak its frame
    // and everything the frame holds. The simulator keeps every frame
    // spawned on it in an intrusive list so it can free them.

    /** Register @p frame (spawn() calls this; @p hook lives in it). */
    void
    adoptProcess(ProcessHook &hook, std::coroutine_handle<> frame)
    {
        SMARTDS_CHECK(!hook.linked(), "process spawned twice");
        hook.frame_ = frame;
        hook.prev_ = processes_.prev_;
        hook.next_ = &processes_;
        processes_.prev_->next_ = &hook;
        processes_.prev_ = &hook;
    }

    /** Spawned processes that have not finished yet. */
    std::size_t liveProcesses() const;

    /**
     * Destroy the frame of every unfinished process and drop every
     * pending event, so nothing can resume a freed frame. Call it once
     * the simulation is over, while the components the frames refer to
     * are still alive; the destructor repeats it as a backstop.
     *
     * @return the number of frames reclaimed.
     */
    std::size_t reclaimProcesses();

    // ---- determinism sanitizer ------------------------------------------
    //
    // A rolling xxHash32 over every dispatched event's (tick, seq, stage
    // tag). On by default in checked builds (SMARTDS_CHECKED=ON), where
    // it costs one short hash per dispatch; release builds can opt in at
    // runtime (--dsan). Two runs of the same seeded config must end with
    // identical hashes — any divergence is nondeterminism in the event
    // stream itself, caught even when it cancels out of the CSV outputs.

    /** Turn the per-dispatch state hash on or off. */
    void enableStateHash(bool on) { hashOn_ = on; }

    /** Whether the per-dispatch state hash is being maintained. */
    bool stateHashEnabled() const { return hashOn_; }

    /**
     * Additionally record the hash every @p eventsPerWindow dispatches
     * (implies enableStateHash). Window streams let --dsan report the
     * first diverging event range instead of only "hashes differ".
     */
    void
    enableDsanWindows(std::uint32_t eventsPerWindow = 1024)
    {
        hashOn_ = true;
        windowEvents_ = eventsPerWindow == 0 ? 1 : eventsPerWindow;
    }

    /** Rolling (tick, seq, tag) hash over all dispatches so far. */
    std::uint32_t stateHash() const { return stateHash_; }

    /** Flush the partial window and return the recorded window stream. */
    std::vector<DsanWindow>
    takeDsanWindows()
    {
        if (windowCount_ > 0)
            flushWindow();
        return std::move(windows_);
    }

    /**
     * Seed so an empty run's hash is a recognizable nonzero value; also
     * the seed ClusterSim folds per-domain digests under, so a merged
     * multi-domain hash and a single-domain hash share a hash family.
     */
    static constexpr std::uint32_t kStateHashSeed = 0x534d4453u; // "SMDS"

  private:
    friend class EventHandle;

    /** Pooled event record; `when`/`seq` live in the heap entry only. */
    struct Event
    {
        EventCallback fn;
        std::uint32_t gen = 0;
        /** Stage tag for the determinism hash (fits existing padding). */
        EventTag tag = EventTag::Generic;
    };

    /**
     * 24-byte plain heap record. The sort key packs (when, seq) into one
     * 128-bit integer so heap ordering is a single branchless compare.
     */
    struct HeapEntry
    {
        unsigned __int128 key;
        std::uint32_t slot;
        std::uint32_t gen;

        Tick when() const { return static_cast<Tick>(key >> 64); }
    };

    static unsigned __int128
    makeKey(Tick when, std::uint64_t seq)
    {
        return (static_cast<unsigned __int128>(when) << 64) | seq;
    }

    bool
    live(std::uint32_t slot, std::uint32_t gen) const
    {
        return slot < pool_.size() && pool_[slot].gen == gen;
    }

    /** Retire a slot: drop the callback, invalidate handles, recycle. */
    void
    releaseSlot(std::uint32_t slot)
    {
        SMARTDS_SIM_INVARIANT(slot < pool_.size(),
                              "releasing slot %u beyond the %zu-slot pool",
                              slot, pool_.size());
        pool_[slot].fn.reset();
        ++pool_[slot].gen;
        freeSlots_.push_back(slot);
        SMARTDS_SIM_INVARIANT(
            freeSlots_.size() <= pool_.size(),
            "free list (%zu) larger than the pool (%zu): double release",
            freeSlots_.size(), pool_.size());
    }

    /** Drop cancelled entries sitting at the top of the heap. */
    void
    dropStaleTop()
    {
        while (!heap_.empty() &&
               pool_[heap_.front().slot].gen != heap_.front().gen)
            heapPop();
    }

    void
    heapPush(HeapEntry e)
    {
        // Hole-based sift-up: shift larger parents down, place once.
        heap_.push_back(e); // reserve the space (value overwritten below)
        HeapEntry *const h = heap_.data();
        std::size_t i = heap_.size() - 1;
        while (i > 0) {
            const std::size_t parent = (i - 1) / 4;
            if (h[parent].key <= e.key)
                break;
            h[i] = h[parent];
            i = parent;
        }
        h[i] = e;
    }

    void
    heapPop()
    {
#if SMARTDS_CHECKED_BUILD
        SMARTDS_SIM_INVARIANT(!heap_.empty(), "popping an empty event heap");
        SMARTDS_SIM_INVARIANT(
            heap_.front().slot < pool_.size(),
            "heap entry names slot %u beyond the %zu-slot pool",
            heap_.front().slot, pool_.size());
        // Full heap validation is O(n); amortise it across pops.
        if ((++popCount_ & 0xfffu) == 0)
            verifyHeapOrdering();
#endif
        const HeapEntry last = heap_.back();
        heap_.pop_back();
        const std::size_t n = heap_.size();
        if (n == 0)
            return;
        // Hole-based sift-down from the root: pull the smallest child up
        // until `last` fits, then place it once.
        HeapEntry *const h = heap_.data();
        std::size_t i = 0;
        while (true) {
            const std::size_t first = 4 * i + 1;
            if (first >= n)
                break;
            std::size_t best = first;
            const std::size_t end = std::min(first + 4, n);
            for (std::size_t c = first + 1; c < end; ++c) {
                if (h[c].key < h[best].key)
                    best = c;
            }
            if (h[best].key >= last.key)
                break;
            h[i] = h[best];
            i = best;
        }
        h[i] = last;
    }

#if SMARTDS_CHECKED_BUILD
    /** Full O(n) validation of the 4-ary heap property. */
    void
    verifyHeapOrdering() const
    {
        for (std::size_t i = 1; i < heap_.size(); ++i)
            SMARTDS_SIM_INVARIANT(
                heap_[(i - 1) / 4].key <= heap_[i].key,
                "heap property violated between index %zu and its parent",
                i);
    }
#endif

    /** Fold one dispatch into the state hash (simulator.cpp). */
    void foldEvent(Tick when, std::uint64_t seq, EventTag tag);

    /** Close the current dsan window (simulator.cpp). */
    void flushWindow();

    Tick now_ = 0;
    unsigned domain_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t executed_ = 0;
    std::vector<Event> pool_;
    std::vector<std::uint32_t> freeSlots_;
    std::vector<HeapEntry> heap_;
    bool hashOn_ = SMARTDS_CHECKED_BUILD != 0;
    std::uint32_t stateHash_ = kStateHashSeed;
    std::uint32_t windowEvents_ = 0; ///< 0 = window recording off
    std::uint64_t hashedEvents_ = 0;
    std::uint64_t windowCount_ = 0;
    std::uint64_t windowFirstEvent_ = 0;
    Tick windowFirstTick_ = 0;
    Tick windowLastTick_ = 0;
    std::vector<DsanWindow> windows_;
    /** Sentinel of the circular list of unfinished process frames. */
    ProcessHook processes_;
#if SMARTDS_CHECKED_BUILD
    /** Largest (tick, seq) key dispatched so far; must be monotone. */
    unsigned __int128 lastPoppedKey_ = 0;
    std::uint64_t popCount_ = 0;
#endif
};

bool
EventHandle::cancel()
{
    if (!sim_ || !sim_->live(slot_, gen_))
        return false;
    sim_->releaseSlot(slot_); // heap entry is dropped lazily at pop
    return true;
}

bool
EventHandle::pending() const
{
    return sim_ && sim_->live(slot_, gen_);
}

} // namespace smartds::sim

#endif // SMARTDS_SIM_SIMULATOR_H_
