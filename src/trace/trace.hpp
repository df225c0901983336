/**
 * @file
 * Zero-cost protocol-decision tracing: per-thread SPSC event rings.
 *
 * The reactive primitives switch protocols per object at runtime, but
 * until now the only way to see *why* a policy picked a rung was to
 * rerun a bench and stare at aggregate crossover tables. This layer
 * records the decisions themselves — protocol switches with the
 * triggering signal and estimator snapshot, probe begin/end, episode
 * cost samples, cohort handoff/abort edges — under the same discipline
 * the PR 4 `free_monitoring` finding forced on the primitives: events
 * are emitted only from code already in consensus (or otherwise
 * single-writer), reuse timestamps the caller already took, and touch
 * only host memory. The trace layer never performs a simulated memory
 * operation (`P::Atomic`), never calls `P::delay`/`P::pause`, and never
 * feeds anything back into a policy, so a traced simulation's schedule
 * and mem-op counts are bit-identical to an untraced one.
 *
 * Gating, two levels:
 *  - Compile time: `REACTIVE_TRACE` (CMake option, default OFF). When
 *    off, `kCompiled` is false, `enabled()` is a constexpr false, and
 *    every instrumentation site — written as
 *    `if constexpr (trace::kCompiled) { if (enabled()) ... }` — drops
 *    out of the binary entirely. Single-TU binaries (every test and
 *    bench here) may also `#define REACTIVE_TRACE 1` before their
 *    first include.
 *  - Runtime: `set_enabled(true)`. When compiled in but disabled, the
 *    per-site cost is one relaxed atomic bool load on a predicted
 *    branch.
 *
 * Recording: each OS thread lazily owns one `TraceRing`, a fixed-
 * capacity drop-oldest SPSC ring of 48-byte slots. The writer is the
 * owning thread; drains may run concurrently from any thread. Each
 * slot is a miniature seqlock whose payload words are relaxed atomics,
 * so a drain racing the writer is TSan-clean and torn reads are
 * detected and discarded (the writer lapped the reader; the event was
 * dropped-oldest and is accounted as such). On the simulator every
 * fiber shares the one host thread, so there is a single ring and the
 * drain order is the deterministic event order.
 */
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#ifndef REACTIVE_TRACE
#define REACTIVE_TRACE 0
#endif

namespace reactive::trace {

/// True when the tracing layer is compiled into this TU.
inline constexpr bool kCompiled = (REACTIVE_TRACE != 0);

// ---- event vocabulary -------------------------------------------------

enum class EventType : std::uint8_t {
    kNone = 0,
    kSwitch = 1,         ///< protocol change; from/to = protocol indices
    kProbeBegin = 2,     ///< calibrated policy started an off-home probe
    kProbeEnd = 3,       ///< probe settled; a0: 1=adopted 0=rejected
    kAcqSample = 4,      ///< slow-path acquisition latency sample (a0)
    kFastAcquire = 5,    ///< optimistic fast-path win (no queue, no spin)
    kEpisode = 6,        ///< barrier episode; a0 = cost sample, a1 = m
    kCohortGrant = 7,    ///< cohort pass: lock stayed on the socket
    kCohortHandoff = 8,  ///< budget exhausted: global handoff
    kCohortAbort = 9,    ///< protocol retired: waiters woken INVALID
    kRegret = 10,        ///< counterfactual regret sample (src/audit/)
    kPark = 11,          ///< a wait reached the parked phase (waiter-local)
    kWake = 12,          ///< a release broadcast to a parking site
    kWaitModeSwitch = 13,  ///< holder changed the wait-mode hint
};

/// Object class of the emitting primitive (drop accounting is per class).
enum class ObjectClass : std::uint8_t {
    kNone = 0,
    kLock = 1,
    kRwLock = 2,
    kBarrier = 3,
    kCohort = 4,
    kFetchOp = 5,
};
inline constexpr std::size_t kClassCount = 6;

/// One recorded decision point. Packs into five 64-bit slot words.
struct Event {
    std::uint64_t ts = 0;       ///< platform cycles (P::now() domain)
    std::uint32_t object = 0;   ///< per-object id from new_object()
    EventType type = EventType::kNone;
    ObjectClass cls = ObjectClass::kNone;
    std::uint8_t from = 0;      ///< protocol index before (where meaningful)
    std::uint8_t to = 0;        ///< protocol index after
    std::uint64_t a0 = 0, a1 = 0, a2 = 0;  ///< type-specific payload
};

// ---- per-class metric counters (single-writer shards) -----------------

enum class Metric : std::uint8_t {
    kAcquisitions = 0,
    kFastPathWins = 1,
    kSwitches = 2,
    kProbesStarted = 3,
    kProbesWon = 4,
    kProbesLost = 5,
    kEpisodes = 6,
    kHandoffs = 7,
    kAborts = 8,
    kRegretSamples = 9,
    kParks = 10,
    kWakes = 11,
    kWaitModeSwitches = 12,
};
inline constexpr std::size_t kMetricCount = 13;

/**
 * Lock-free drop-oldest SPSC ring of trace events.
 *
 * Exactly one writer (the owning thread) appends via publish(); any
 * thread may drain() concurrently — drains are serialized by the
 * caller (the Registry holds a mutex around them). Capacity is rounded
 * up to a power of two. When the writer laps the reader the oldest
 * unread event is overwritten and counted in drops(victim class); the
 * per-slot seqlock lets a concurrent drain detect the overwrite and
 * skip the torn slot instead of reading shredded data.
 *
 * Also carries the thread's metric shard: exact per-class counters
 * bumped by the writer on every publish, immune to ring drops.
 */
class TraceRing {
  public:
    static constexpr std::size_t kDefaultCapacity = 8192;

    explicit TraceRing(std::size_t capacity = kDefaultCapacity,
                       std::uint32_t id = 0)
        : id_(id)
    {
        std::size_t cap = 16;
        while (cap < capacity)
            cap <<= 1;
        slots_ = std::make_unique<Slot[]>(cap);
        capacity_ = cap;
        mask_ = cap - 1;
    }

    TraceRing(const TraceRing&) = delete;
    TraceRing& operator=(const TraceRing&) = delete;

    std::uint32_t id() const { return id_; }
    std::size_t capacity() const { return capacity_; }

    /// Appends @p e (writer thread only), dropping the oldest unread
    /// event when full.
    void publish(const Event& e)
    {
        const std::uint64_t h = head_.load(std::memory_order_relaxed);
        Slot& s = slots_[h & mask_];
        if (h >= capacity_ &&
            cursor_.load(std::memory_order_relaxed) <= h - capacity_) {
            // Overwriting an unread slot: account the victim by class.
            // (A drain racing exactly this slot may have copied it
            // already — the overcount is a diagnostic-only race that
            // cannot happen on the single-threaded simulator.)
            const std::uint64_t meta =
                s.word[1].load(std::memory_order_relaxed);
            bump_drop(static_cast<ObjectClass>((meta >> 8) & 0xff));
        }
        // Fence-free seqlock (TSan models release/acquire on the
        // words themselves; standalone fences it does not): each
        // release payload store carries the odd seq store before it,
        // so a reader that observes a new word must also observe the
        // odd seq on its recheck. Free on x86 (plain movs).
        s.seq.store(2 * h + 1, std::memory_order_relaxed);
        s.word[0].store(e.ts, std::memory_order_release);
        s.word[1].store(pack_meta(e), std::memory_order_release);
        s.word[2].store(e.a0, std::memory_order_release);
        s.word[3].store(e.a1, std::memory_order_release);
        s.word[4].store(e.a2, std::memory_order_release);
        s.seq.store(2 * h + 2, std::memory_order_release);
        head_.store(h + 1, std::memory_order_release);
        bump_counters(e);
    }

    /**
     * Drains every readable event in publish order into @p f(Event).
     * Events lost to wrap (or torn by a writer lapping mid-drain) are
     * skipped; the writer already counted them in drops(). Returns the
     * number of events delivered. One drain at a time (Registry mutex).
     */
    template <typename F>
    std::uint64_t drain(F&& f)
    {
        const std::uint64_t h = head_.load(std::memory_order_acquire);
        std::uint64_t c = cursor_.load(std::memory_order_relaxed);
        if (h > capacity_ && c < h - capacity_)
            c = h - capacity_;  // wrapped away; writer counted the drops
        std::uint64_t delivered = 0;
        for (; c < h; ++c) {
            Slot& s = slots_[c & mask_];
            const std::uint64_t s1 = s.seq.load(std::memory_order_acquire);
            if (s1 != 2 * c + 2)
                continue;  // lapped or in-flight: dropped-oldest
            Event e;
            // Acquire payload loads keep the seq recheck from moving
            // before them (and pair with the writer's release stores).
            e.ts = s.word[0].load(std::memory_order_acquire);
            const std::uint64_t meta =
                s.word[1].load(std::memory_order_acquire);
            e.a0 = s.word[2].load(std::memory_order_acquire);
            e.a1 = s.word[3].load(std::memory_order_acquire);
            e.a2 = s.word[4].load(std::memory_order_acquire);
            if (s.seq.load(std::memory_order_relaxed) != s1)
                continue;  // torn by a concurrent overwrite
            unpack_meta(meta, e);
            f(e);
            ++delivered;
        }
        cursor_.store(h, std::memory_order_release);
        return delivered;
    }

    /// Events ever published (including later-dropped ones).
    std::uint64_t published() const
    {
        return head_.load(std::memory_order_acquire);
    }

    /// Events overwritten before being drained, for @p cls.
    std::uint64_t drops(ObjectClass cls) const
    {
        return drops_[static_cast<std::size_t>(cls)].load(
            std::memory_order_relaxed);
    }

    std::uint64_t total_drops() const
    {
        std::uint64_t n = 0;
        for (const auto& d : drops_)
            n += d.load(std::memory_order_relaxed);
        return n;
    }

    /// Exact per-class metric counter (bumped on publish, never drops).
    std::uint64_t counter(ObjectClass cls, Metric m) const
    {
        return counters_[static_cast<std::size_t>(cls)]
                        [static_cast<std::size_t>(m)]
                            .load(std::memory_order_relaxed);
    }

  private:
    struct Slot {
        std::atomic<std::uint64_t> seq{0};
        std::array<std::atomic<std::uint64_t>, 5> word{};
    };

    static std::uint64_t pack_meta(const Event& e)
    {
        return (static_cast<std::uint64_t>(e.object) << 32) |
               (static_cast<std::uint64_t>(e.to) << 24) |
               (static_cast<std::uint64_t>(e.from) << 16) |
               (static_cast<std::uint64_t>(e.cls) << 8) |
               static_cast<std::uint64_t>(e.type);
    }

    static void unpack_meta(std::uint64_t meta, Event& e)
    {
        e.object = static_cast<std::uint32_t>(meta >> 32);
        e.to = static_cast<std::uint8_t>((meta >> 24) & 0xff);
        e.from = static_cast<std::uint8_t>((meta >> 16) & 0xff);
        e.cls = static_cast<ObjectClass>((meta >> 8) & 0xff);
        e.type = static_cast<EventType>(meta & 0xff);
    }

    void bump_drop(ObjectClass cls)
    {
        auto& d = drops_[static_cast<std::size_t>(cls) % kClassCount];
        d.store(d.load(std::memory_order_relaxed) + 1,
                std::memory_order_relaxed);
    }

    void bump(ObjectClass cls, Metric m)
    {
        auto& c = counters_[static_cast<std::size_t>(cls) % kClassCount]
                           [static_cast<std::size_t>(m)];
        c.store(c.load(std::memory_order_relaxed) + 1,
                std::memory_order_relaxed);
    }

    void bump_counters(const Event& e)
    {
        switch (e.type) {
        case EventType::kAcqSample:
            bump(e.cls, Metric::kAcquisitions);
            break;
        case EventType::kFastAcquire:
            bump(e.cls, Metric::kAcquisitions);
            bump(e.cls, Metric::kFastPathWins);
            break;
        case EventType::kSwitch:
            bump(e.cls, Metric::kSwitches);
            break;
        case EventType::kProbeBegin:
            bump(e.cls, Metric::kProbesStarted);
            break;
        case EventType::kProbeEnd:
            bump(e.cls, e.a0 != 0 ? Metric::kProbesWon : Metric::kProbesLost);
            break;
        case EventType::kEpisode:
            bump(e.cls, Metric::kEpisodes);
            break;
        case EventType::kCohortGrant:
            bump(e.cls, Metric::kAcquisitions);
            break;
        case EventType::kCohortHandoff:
            bump(e.cls, Metric::kHandoffs);
            break;
        case EventType::kCohortAbort:
            bump(e.cls, Metric::kAborts);
            break;
        case EventType::kRegret:
            bump(e.cls, Metric::kRegretSamples);
            break;
        case EventType::kPark:
            bump(e.cls, Metric::kParks);
            break;
        case EventType::kWake:
            bump(e.cls, Metric::kWakes);
            break;
        case EventType::kWaitModeSwitch:
            bump(e.cls, Metric::kWaitModeSwitches);
            break;
        default:
            break;
        }
    }

    // Writer-owned cursor; readers only load it.
    alignas(64) std::atomic<std::uint64_t> head_{0};
    // Reader-owned cursor; the writer only loads it (drop detection).
    alignas(64) std::atomic<std::uint64_t> cursor_{0};

    std::unique_ptr<Slot[]> slots_;
    std::size_t capacity_ = 0;
    std::uint64_t mask_ = 0;
    std::uint32_t id_ = 0;

    std::array<std::atomic<std::uint64_t>, kClassCount> drops_{};
    std::array<std::array<std::atomic<std::uint64_t>, kMetricCount>,
               kClassCount>
        counters_{};
};

// ---- global registry ---------------------------------------------------

namespace detail {

inline std::atomic<bool> g_enabled{false};
inline std::atomic<std::uint32_t> g_next_object{1};

/// Owns every thread's ring; rings outlive their threads so events
/// survive joins. reset() bumps the epoch so cached thread_local
/// pointers re-register instead of dangling.
class Registry {
  public:
    static Registry& instance()
    {
        static Registry r;
        return r;
    }

    TraceRing& create_ring()
    {
        std::lock_guard<std::mutex> g(mu_);
        rings_.push_back(std::make_unique<TraceRing>(
            ring_capacity_, static_cast<std::uint32_t>(rings_.size())));
        return *rings_.back();
    }

    /// Quiesced-only: drop all rings and recorded events (tests).
    void reset(std::size_t ring_capacity)
    {
        std::lock_guard<std::mutex> g(mu_);
        rings_.clear();
        ring_capacity_ = ring_capacity;
        epoch_.store(epoch_.load(std::memory_order_relaxed) + 1,
                     std::memory_order_relaxed);
    }

    std::uint64_t epoch() const
    {
        return epoch_.load(std::memory_order_relaxed);
    }

    /// Runs @p f(TraceRing&) over every ring under the registry lock
    /// (serializes drains against each other, not against writers).
    template <typename F>
    void for_each_ring(F&& f)
    {
        std::lock_guard<std::mutex> g(mu_);
        for (auto& r : rings_)
            f(*r);
    }

  private:
    std::mutex mu_;
    std::vector<std::unique_ptr<TraceRing>> rings_;
    std::size_t ring_capacity_ = TraceRing::kDefaultCapacity;
    std::atomic<std::uint64_t> epoch_{1};
};

struct TlRef {
    TraceRing* ring = nullptr;
    std::uint64_t epoch = 0;
};
inline thread_local TlRef t_ref;

inline TraceRing& local_ring()
{
    Registry& reg = Registry::instance();
    if (t_ref.ring == nullptr || t_ref.epoch != reg.epoch()) [[unlikely]] {
        t_ref.ring = &reg.create_ring();
        t_ref.epoch = reg.epoch();
    }
    return *t_ref.ring;
}

}  // namespace detail

// ---- public API --------------------------------------------------------

/// Runtime gate. Constexpr false when the layer is compiled out, so
/// `if (enabled())` folds away entirely.
inline bool enabled() noexcept
{
    if constexpr (!kCompiled)
        return false;
    else
        return detail::g_enabled.load(std::memory_order_relaxed);
}

inline void set_enabled(bool on) noexcept
{
    if constexpr (kCompiled)
        detail::g_enabled.store(on, std::memory_order_relaxed);
    else
        (void)on;
}

/// Drops all rings and recorded events and sets the capacity for rings
/// created afterwards. Call only while no thread is emitting.
inline void reset(std::size_t ring_capacity = TraceRing::kDefaultCapacity)
{
    if constexpr (kCompiled)
        detail::Registry::instance().reset(ring_capacity);
    else
        (void)ring_capacity;
}

/**
 * Allocates a per-object trace id (primitives call this once at
 * construction). Returns 0 — "untraced" — when the layer is compiled
 * out, so the member cost is a zeroed uint32_t either way.
 */
inline std::uint32_t new_object(ObjectClass cls) noexcept
{
    if constexpr (!kCompiled) {
        (void)cls;
        return 0;
    } else {
        (void)cls;
        return detail::g_next_object.fetch_add(1,
                                               std::memory_order_relaxed);
    }
}

/// Records @p e to the calling thread's ring. Callers check enabled()
/// first; this itself is unconditional.
inline void emit(const Event& e)
{
    if constexpr (kCompiled)
        detail::local_ring().publish(e);
    else
        (void)e;
}

/// Convenience form for one-line sites.
inline void emit(EventType type, ObjectClass cls, std::uint32_t object,
                 std::uint8_t from, std::uint8_t to, std::uint64_t ts,
                 std::uint64_t a0 = 0, std::uint64_t a1 = 0,
                 std::uint64_t a2 = 0)
{
    Event e;
    e.ts = ts;
    e.object = object;
    e.type = type;
    e.cls = cls;
    e.from = from;
    e.to = to;
    e.a0 = a0;
    e.a1 = a1;
    e.a2 = a2;
    emit(e);
}

/**
 * One-line instrumentation: a single predicted branch when compiled in,
 * nothing at all when compiled out (arguments are not evaluated).
 */
#if REACTIVE_TRACE
#define REACTIVE_TRACE_EVENT(...)                                        \
    do {                                                                 \
        if (::reactive::trace::enabled()) [[unlikely]]                   \
            ::reactive::trace::emit(__VA_ARGS__);                        \
    } while (0)
#else
#define REACTIVE_TRACE_EVENT(...) \
    do {                          \
    } while (0)
#endif

}  // namespace reactive::trace
