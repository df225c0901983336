/**
 * @file
 * The selection-policy interface and the thesis' switching policies
 * (thesis Section 3.4).
 *
 * The reactive algorithms monitor run-time contention while executing a
 * protocol (failed test&set attempts in TTS mode; empty-queue
 * acquisitions in queue mode) and feed each observation to a *policy*,
 * which names the protocol the object should run next. Every policy
 * speaks one interface, `next_protocol(ProtocolSignal) -> index`, over
 * a protocol set ordered by scalability (core/protocol_set.hpp); the
 * optional refinements below add cost samples, the socket-crossing
 * bit, fast-path wins and the waiting axis' release signal. The
 * reactive primitives deliver all of it through one consensus-point
 * pipeline (core/consensus_monitor.hpp).
 *
 * The thesis evaluates three policies, all written for two protocols:
 * protocol 0 plays the low-contention (TTS) role and protocol 1 the
 * queue role. A protocol-0 observation is "contended" when its drift is
 * +1; a protocol-1 observation is "empty" when its drift is -1.
 *
 *  - **always-switch** (the default in Section 3.3): switch as soon as
 *    the monitored signal says the current protocol is sub-optimal; a
 *    small signal-reliability streak (e.g. 4 consecutive empty-queue
 *    acquisitions, Section 3.7.1) guards against one-off noise. It is
 *    written for any number of protocols — one rung per decision, as
 *    the reactive fetch-and-op's three protocols need (Section 3.3.2)
 *    — and is the thesis rule exactly over two.
 *  - **3-competitive** (Section 3.4.1): accumulate the residual cost of
 *    servicing requests with the sub-optimal protocol — *across* breaks
 *    in the streak — and switch when the cumulative residual exceeds the
 *    round-trip cost of switching protocols. Derived from Borodin,
 *    Linial & Saks' nearly-oblivious algorithm; worst case 3x optimal.
 *  - **hysteresis(x, y)** (Section 3.5.5): switch only after x
 *    consecutive high-contention TTS acquisitions (TTS->queue) or y
 *    consecutive empty-queue acquisitions (queue->TTS); any break
 *    resets the streak.
 *
 * A policy's methods are invoked only by the process currently holding
 * the object (in-consensus), so policy state needs no synchronization
 * of its own — that is part of the consensus-object design.
 */
#pragma once

#include <concepts>
#include <cstdint>

namespace reactive {

/**
 * One per-acquisition observation handed to a selection policy: which
 * protocol serviced the request, and which direction along the set's
 * scalability order the request's contention evidence points.
 */
struct ProtocolSignal {
    std::uint32_t protocol = 0;  ///< index of the protocol that executed
    int drift = 0;  ///< +1 under-provisioned, -1 over-provisioned, 0 content
};

/**
 * One waiting-axis observation, assembled for free by the departing
 * holder at release (src/waiting/reactive/): the span it held the
 * object and the advisory count of parked/queued waiters it saw.
 * Consumed by WaitSelectPolicy (waiting/reactive/wait_select.hpp) to
 * pick spin / two-phase / park, and optionally by wait-aware selection
 * policies (WaitAwareSelect). Single-writer under the same in-consensus
 * serialization as every other estimator lane.
 */
struct WaitSignal {
    std::uint64_t hold_cycles = 0;  ///< acquisition -> release span
    std::uint32_t queue_depth = 0;  ///< waiters observed at release
    /// Release timestamp (P::now() at signal assembly). Lets the policy
    /// measure release-to-release intervals — the object's end-to-end
    /// service rate, the quantity mode probing compares. 0 = caller
    /// does not supply timestamps (interval probing disabled).
    std::uint64_t now_cycles = 0;
};

// clang-format off
/**
 * Selection policy: `next_protocol` returns the index the object should
 * run next (== signal.protocol means stay); `on_switch` reports that a
 * protocol change was performed.
 */
template <typename Pol>
concept SelectPolicy = requires(Pol p, ProtocolSignal s) {
    { p.next_protocol(s) } -> std::same_as<std::uint32_t>;
    { p.on_switch() } -> std::same_as<void>;
};

/**
 * Refinement for policies that consume runtime cost samples: the
 * two-argument observation carries the acquisition's measured latency,
 * and `on_switch_cycles` the measured in-consensus span of a change
 * (called after on_switch(), still in consensus).
 */
template <typename Pol>
concept CalibratingSelectPolicy =
    SelectPolicy<Pol> &&
    requires(Pol p, ProtocolSignal s, std::uint64_t c) {
        { p.next_protocol(s, c) } -> std::same_as<std::uint32_t>;
        { p.on_switch_cycles(c) } -> std::same_as<void>;
    };

/**
 * Policies that want to know about optimistic fast-path wins on
 * protocol 0 (a private counter increment by the new holder —
 * in-consensus, traffic-free; see
 * CalibratedCompetitive3Policy::on_tts_fast_acquire).
 */
template <typename Pol>
concept FastPathAwareSelect = requires(Pol p) {
    { p.on_tts_fast_acquire() } -> std::same_as<void>;
};

/**
 * Further refinement of CalibratingSelectPolicy: the three-argument
 * observation additionally carries the socket-of-previous-holder bit
 * (true = the handoff crossed a socket boundary), routing the cycle
 * sample into split latency populations (SocketSplitStat). The
 * decision logic is unchanged.
 */
template <typename Pol>
concept SocketAwareSelect =
    CalibratingSelectPolicy<Pol> &&
    requires(Pol p, ProtocolSignal s, std::uint64_t c, bool x) {
        { p.next_protocol(s, c, x) } -> std::same_as<std::uint32_t>;
    };

/**
 * Waiting-axis observation (src/waiting/reactive/): the departing
 * holder's WaitSignal — hold span and observed queue depth — delivered
 * in-consensus at release.
 */
template <typename Pol>
concept WaitAwareSelect = requires(Pol p, const WaitSignal& s) {
    { p.on_wait_signal(s) } -> std::same_as<void>;
};

/**
 * A policy that can drive a set of @p N protocols. Policies written for
 * the two-protocol case declare `static constexpr std::uint32_t
 * kMaxProtocols = 2`, so a primitive with a larger set rejects them at
 * compile time; every other policy is taken to be N-ary.
 */
template <typename Pol, std::uint32_t N>
concept SelectPolicyOver =
    SelectPolicy<Pol> &&
    (!requires { Pol::kMaxProtocols; } || N <= Pol::kMaxProtocols);
// clang-format on

/// A two-protocol policy's answer: the other protocol when @p sw, else
/// stay.
constexpr std::uint32_t switch_if(ProtocolSignal s, bool sw)
{
    return sw ? (s.protocol ^ 1u) : s.protocol;
}

/**
 * Default policy: switch immediately on a reliable signal, one rung at
 * a time along the set's scalability order.
 *
 * "Reliable" = one under-provisioned observation (drift +1: a contended
 * TTS acquisition, whose retry limit already filters noise within the
 * acquisition, or a long FIFO queue wait) moves up a rung at once;
 * `low_streak_limit` consecutive over-provisioned observations (drift
 * -1: empty-queue acquisitions, low combining rates at a tree root)
 * move down a rung (thesis Section 3.7.1 uses 4). Over two protocols
 * this is the thesis' always-switch rule exactly; the answer past the
 * top rung is clamped by the caller (ConsensusMonitor keeps the
 * current protocol for any index outside the set).
 */
class AlwaysSwitchPolicy {
  public:
    explicit AlwaysSwitchPolicy(std::uint32_t low_streak_limit = 4)
        : low_limit_(low_streak_limit)
    {
    }

    std::uint32_t next_protocol(ProtocolSignal s)
    {
        // Rung 0 leaves the streak alone (on_switch cleared it): its
        // uncontended acquisitions, the common case, store nothing.
        if (s.protocol == 0)
            return s.drift > 0 ? 1 : 0;
        if (s.drift < 0)
            return ++low_streak_ >= low_limit_ ? s.protocol - 1 : s.protocol;
        low_streak_ = 0;
        return s.drift > 0 ? s.protocol + 1 : s.protocol;
    }

    void on_switch() { low_streak_ = 0; }

  private:
    std::uint32_t low_limit_;
    std::uint32_t low_streak_ = 0;
};

/**
 * The 3-competitive policy of Section 3.4.1.
 *
 * Each request serviced by the sub-optimal protocol adds its residual
 * cost (the thesis measures ~150 cycles for a high-contention request
 * under TTS and ~15 cycles for a low-contention request under the MCS
 * protocol); the protocol is switched when the accumulated residual
 * exceeds the round-trip switching cost (~8000 + 800 cycles measured on
 * Alewife). The cumulative residual survives breaks in the streak —
 * the property that distinguishes it from hysteresis and yields the
 * competitive bound.
 */
class Competitive3Policy {
  public:
    static constexpr std::uint32_t kMaxProtocols = 2;

    struct Params {
        std::uint32_t residual_tts_contended = 150;
        std::uint32_t residual_queue_empty = 15;
        std::uint32_t switch_round_trip = 8800;
    };

    Competitive3Policy() = default;
    explicit Competitive3Policy(Params p) : params_(p) {}

    std::uint32_t next_protocol(ProtocolSignal s)
    {
        if (s.protocol == 0 && s.drift > 0)
            cumulative_ += params_.residual_tts_contended;
        else if (s.protocol != 0 && s.drift < 0)
            cumulative_ += params_.residual_queue_empty;
        return switch_if(s, cumulative_ >= params_.switch_round_trip);
    }

    void on_switch() { cumulative_ = 0; }

    std::uint64_t cumulative_residual() const { return cumulative_; }

  private:
    Params params_;
    std::uint64_t cumulative_ = 0;
};

/**
 * Hysteresis(x, y) policy of Section 3.5.5: x consecutive contended
 * TTS acquisitions switch to the queue protocol; y consecutive
 * empty-queue acquisitions switch back; any break resets the streak.
 */
class HysteresisPolicy {
  public:
    static constexpr std::uint32_t kMaxProtocols = 2;

    /// Defaults match the thesis' Hysteresis(20, 55) configuration,
    /// chosen there to mirror the 3-competitive policy's thresholds.
    explicit HysteresisPolicy(std::uint32_t to_queue_streak = 20,
                              std::uint32_t to_tts_streak = 55)
        : x_(to_queue_streak), y_(to_tts_streak)
    {
    }

    std::uint32_t next_protocol(ProtocolSignal s)
    {
        if (s.protocol == 0) {
            if (s.drift <= 0) {
                contended_streak_ = 0;
                return s.protocol;
            }
            return switch_if(s, ++contended_streak_ >= x_);
        }
        if (s.drift >= 0) {
            empty_streak_ = 0;
            return s.protocol;
        }
        return switch_if(s, ++empty_streak_ >= y_);
    }

    void on_switch()
    {
        contended_streak_ = 0;
        empty_streak_ = 0;
    }

  private:
    std::uint32_t x_;
    std::uint32_t y_;
    std::uint32_t contended_streak_ = 0;
    std::uint32_t empty_streak_ = 0;
};

static_assert(SelectPolicyOver<AlwaysSwitchPolicy, 3>);
static_assert(!SelectPolicyOver<Competitive3Policy, 3>);
static_assert(!CalibratingSelectPolicy<HysteresisPolicy>);

}  // namespace reactive
