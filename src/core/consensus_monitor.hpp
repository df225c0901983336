/**
 * @file
 * The consensus-point pipeline shared by the reactive primitives.
 *
 * Policy state needs no synchronization of its own because only an
 * in-consensus process touches it (thesis Sections 3.2.5 and 3.4): the
 * lock holder, the rwlock's writing holder, the barrier's episode
 * completer. `ConsensusMonitor` is the one place where that process's
 * bookkeeping happens. It owns the holder-side state — the selection
 * policy, the protocol-change count, the socket-of-previous-holder
 * tracker, the waiting axis' site and wait-policy state, and the trace
 * identity — and implements each hook once:
 *
 *  - `fast_acquired`: an unmonitored win (optimistic fast path or
 *    try). No contention observation; the new holder notes its socket
 *    and hold stamp, and a protocol-0 win is reported to fast-path-aware
 *    policies and traced (kFastAcquire).
 *  - `acquired` (locks) / `completed` (barrier): the slow-path
 *    decision. Calibrate (a cost sample only when its class is clean),
 *    split by socket, ask the policy, trace (kAcqSample / kEpisode,
 *    probe edges) and audit (kRegret).
 *  - `switched`: the bookkeeping of a protocol change (count,
 *    `on_switch`, the measured span to `on_switch_cycles`, kSwitch).
 *  - `waited` / `parked`: how a slow-path wait ran. A holder feeds the
 *    wait policy's W lane and wake latency; anyone else only traces
 *    (kPark).
 *  - `released` / `episode_released`: the departing holder (or
 *    completer) folds its WaitSignal into the wait policy, publishes the
 *    new wait hint, mirrors the signal into a wait-aware policy and
 *    traces mode changes (kWaitModeSwitch).
 *  - `wake`: the broadcast that follows every condition-changing store
 *    of a parking primitive (kWake).
 *
 * Each primitive keeps only its protocol words and its consensus
 * points. Every refinement is detected here with `if constexpr`: a
 * plain policy, a spin-waiting object or a build without tracing
 * compiles to the same operations as before the pipeline existed — no
 * timestamp is taken for a non-calibrating policy, no site state exists
 * under SpinWaiting, and no simulated memory operation is added or
 * moved anywhere.
 */
#pragma once

#include <cstdint>
#include <type_traits>
#include <utility>

#include "audit/audit.hpp"
#include "core/policy.hpp"
#include "platform/platform_concept.hpp"
#include "trace/instrument.hpp"
#include "waiting/reactive/wait_site.hpp"

namespace reactive {

namespace detail {
/// Default for the hooks' optional steps: does nothing.
struct Ignore {
    template <typename... Args>
    void operator()(const Args&...) const
    {
    }
};
}  // namespace detail

/**
 * Holder-side state and consensus-point hooks of one reactive object.
 *
 * @tparam P          Platform model.
 * @tparam Select     selection policy (core/policy.hpp).
 * @tparam N          number of protocols in the object's set.
 * @tparam Waiting    waiting tag (SpinWaiting / ParkWaiting).
 * @tparam WaitPolicy WaitSelectPolicy (ParkWaiting instantiations only).
 * @tparam Cls        trace class of the object.
 */
template <Platform P, typename Select, std::uint32_t N, typename Waiting,
          typename WaitPolicy, trace::ObjectClass Cls>
class ConsensusMonitor {
  public:
    static_assert(SelectPolicyOver<Select, N>,
                  "two-protocol policies cannot drive a larger protocol "
                  "set; N-protocol sets need an N-ary SelectPolicy");
    static_assert(WaitSelectPolicy<WaitPolicy>);

    using Site = WaitSite<P, Waiting>;
    static constexpr bool kParking = Site::kParking;

    /// Calibrating policies receive each clean slow-path sample and each
    /// switch's measured span; for plain policies no timestamp is taken.
    static constexpr bool kCalibrating = CalibratingSelectPolicy<Select>;

    /// Socket-aware policies also receive the socket-of-previous-holder
    /// bit. It is free: the new holder knows its own socket, and the
    /// previous holder's is holder-only plain state (SocketHandoffTracker).
    static constexpr bool kSocketAware = SocketAwareSelect<Select>;

    struct NoWaitStash {};
    /// A non-holder's parked wait, kept until that participant is next
    /// in consensus (barrier arrivals). Empty under SpinWaiting.
    using WaitStash = std::conditional_t<kParking, AwaitResult, NoWaitStash>;

    explicit ConsensusMonitor(Select select) : select_(std::move(select)) {}

    // ---- state access (in-consensus callers, tests) -------------------

    Select& select() { return select_; }
    std::uint64_t protocol_changes() const { return protocol_changes_; }
    Site& site() { return site_; }
    const Site& site() const { return site_; }

    WaitPolicy& wait_policy()
        requires kParking
    {
        return wait_.policy;
    }

    /// Wait-mode transitions published so far. Observability only: the
    /// *final* hint says nothing about a run — a calibrated policy
    /// correctly decays back to spin as contention drains at the end.
    std::uint64_t wait_mode_changes() const
        requires kParking
    {
        return wait_.mode_changes;
    }

    /// Start stamp of a slow-path cost sample (0, untimed, for plain
    /// policies).
    std::uint64_t sample_start() const
    {
        if constexpr (kCalibrating)
            return P::now();
        else
            return 0;
    }

    // ---- hooks ---------------------------------------------------------

    /**
     * Unmonitored win of @p protocol: the optimistic fast path or a
     * try. A fast-path win says nothing reliable about contention, and
     * feeding it to a streak-based policy as "uncontended" would break
     * streaks that spinning acquirers are legitimately building. The
     * winner is still the new holder: the *next* sample's socket bit is
     * measured against it, and it stamps its hold. A protocol-0 win is
     * also reported to fast-path-aware policies (a private counter
     * increment — in-consensus, no timestamp, no shared write).
     */
    void fast_acquired(std::uint32_t protocol)
    {
        if constexpr (FastPathAwareSelect<Select>) {
            if (protocol == 0)
                select_.on_tts_fast_acquire();
        }
        if constexpr (kSocketAware)
            (void)socket_.note_handoff();
        stamp_hold();
        if (protocol == 0)
            REACTIVE_TRACE_EVENT(trace::EventType::kFastAcquire, Cls,
                                 trace_id_, 0, 0, P::now());
    }

    /**
     * Slow-path win (lock holder, writing holder): stamp the hold and
     * return the policy's next protocol. The cost sample since
     * @p start is passed only when its class is @p clean — an immediate
     * win measures the uncontended protocol cost, a past-the-retry-limit
     * win the contended cost; wins that merely spun a while measure
     * *waiting*, which would poison the estimator's residuals (see
     * cost_model.hpp). The switch itself happens at release.
     */
    std::uint32_t acquired(ProtocolSignal sig, bool clean,
                           [[maybe_unused]] std::uint64_t start)
    {
        stamp_hold();
        const trace::ProbeWatch<Select> probe(select_, trace::enabled());
        std::uint64_t cycles = 0;
        if constexpr (kCalibrating) {
            if (clean)
                cycles = P::now() - start;
        }
        const std::uint32_t next = consult(sig, clean, cycles);
        if constexpr (trace::kCompiled) {
            if (trace::enabled()) [[unlikely]] {
                const std::uint64_t ts = P::now();
                const auto cur = static_cast<std::uint8_t>(sig.protocol);
                const auto to = static_cast<std::uint8_t>(next);
                trace::emit(trace::EventType::kAcqSample, Cls, trace_id_, cur,
                            to, ts, cycles,
                            trace::pack_signal(sig.protocol, sig.drift));
                probe.emit_edges(select_, Cls, trace_id_, cur, to, ts);
                note_regret(cur, to, ts, cycles);
            }
        }
        return next;
    }

    /**
     * The barrier completer's decision, made and applied in one
     * consensus step (there is no later release by a holder): trace the
     * episode at the consensus stamp @p end, ask the policy (passing
     * @p sample when @p sampled), and on a change call
     * @p store_mode(next) — the primitive's mode store — before the
     * switch bookkeeping.
     */
    template <typename StoreMode>
    std::uint32_t completed(ProtocolSignal sig, std::uint64_t end,
                            std::uint64_t sample, bool sampled,
                            [[maybe_unused]] std::uint32_t participants,
                            StoreMode&& store_mode)
    {
        const trace::ProbeWatch<Select> probe(select_, trace::enabled());
        const auto cur = static_cast<std::uint8_t>(sig.protocol);
        REACTIVE_TRACE_EVENT(trace::EventType::kEpisode, Cls, trace_id_, cur,
                             cur, end, sample, participants);
        const std::uint32_t next = consult(sig, sampled, sample);
        if (next != sig.protocol) {
            store_mode(next);
            switched(sig.protocol, next, sig.drift, end);
        }
        if constexpr (trace::kCompiled) {
            if (trace::enabled()) [[unlikely]] {
                const auto to = static_cast<std::uint8_t>(next);
                probe.emit_edges(select_, Cls, trace_id_, cur, to, P::now());
                note_regret(cur, to, end, sample);
            }
        }
        return next;
    }

    /**
     * Bookkeeping of a protocol change @p from -> @p to, made by the
     * holder after its mode store. @p dismantle runs between the policy
     * notification and the span measurement: the queue->simple
     * direction dismantles its queue there, which is part of the
     * measured in-consensus span (the expensive half of that change).
     * The span since @p start goes to a calibrating policy.
     */
    template <typename Dismantle = detail::Ignore>
    void switched([[maybe_unused]] std::uint32_t from,
                  [[maybe_unused]] std::uint32_t to, [[maybe_unused]] int drift,
                  [[maybe_unused]] std::uint64_t start,
                  Dismantle&& dismantle = {})
    {
        ++protocol_changes_;
        select_.on_switch();
        dismantle();
        std::uint64_t dur = 0;
        if constexpr (kCalibrating) {
            dur = P::now() - start;
            select_.on_switch_cycles(dur);
        }
        REACTIVE_TRACE_EVENT(trace::EventType::kSwitch, Cls, trace_id_,
                             static_cast<std::uint8_t>(from),
                             static_cast<std::uint8_t>(to), P::now(),
                             trace::pack_signal(from, drift),
                             trace::estimator_pair(select_, from, to), dur);
    }

    /// A slow-path winner reports how it waited. Called only once the
    /// caller *is* the holder, so feeding the measured wait and wake
    /// latency to the (single-writer) wait policy is in-consensus.
    void waited([[maybe_unused]] const AwaitResult& wr)
    {
        if constexpr (kParking) {
            if constexpr (requires(std::uint64_t c) {
                              wait_.policy.note_wait(c);
                          }) {
                if (wr.wait_cycles != 0)
                    wait_.policy.note_wait(wr.wait_cycles);
            }
            if (wr.blocked && wr.wake_latency != 0)
                wait_.policy.note_wake_latency(wr.wake_latency);
            (void)parked(wr);
        }
    }

    /// A wait outside consensus (rwlock readers, barrier arrivals):
    /// traced, never fed to the wait policy. True when it parked.
    bool parked([[maybe_unused]] const AwaitResult& wr)
    {
        if constexpr (kParking) {
            if (!wr.blocked)
                return false;
            if constexpr (trace::kCompiled) {
                if (trace::enabled()) [[unlikely]] {
                    const auto m = static_cast<std::uint8_t>(
                        unpack_wait_hint(site_.hint()).mode);
                    trace::emit(trace::EventType::kPark, Cls, trace_id_, m, m,
                                P::now(), wr.wait_cycles, wr.wake_latency);
                }
            }
            return true;
        } else {
            return false;
        }
    }

    /**
     * Departing holder (still in consensus): fold this hold's span and
     * the free queue-depth signal into the wait policy and publish the
     * new hint, so the waiters this release is about to signal dispatch
     * under it. @p forward(hint) hands the hint to slots that keep
     * sites of their own (CohortQueue's per-socket parking).
     */
    template <typename Forward = detail::Ignore>
    void released([[maybe_unused]] Forward&& forward = {})
    {
        if constexpr (kParking) {
            WaitSignal ws;
            const std::uint64_t now = P::now();
            ws.hold_cycles = now > wait_.stamp ? now - wait_.stamp : 0;
            ws.queue_depth = site_.waiters();
            ws.now_cycles = now;
            publish(ws, forward);
        }
    }

    /**
     * The barrier completer's release-side step: the episode period
     * stands in for the hold — an arrival's mean residual wait is about
     * half a period, so the depth multiplier is deliberately withheld
     * (queue_depth = 0 makes the policy's expected wait period/2) — and
     * the completer's own stashed wake latency from the last episode it
     * parked in is fed first.
     */
    void episode_released([[maybe_unused]] WaitStash& stash)
    {
        if constexpr (kParking) {
            WaitSignal ws;
            const std::uint64_t now = P::now();
            ws.hold_cycles = wait_.stamp != 0 && now > wait_.stamp
                                 ? now - wait_.stamp
                                 : 0;
            ws.queue_depth = 0;
            ws.now_cycles = now;
            wait_.stamp = now;
            if (stash.wake_latency != 0) {
                wait_.policy.note_wake_latency(stash.wake_latency);
                stash.wake_latency = 0;
            }
            publish(ws, detail::Ignore{});
        }
    }

    /// Broadcast on the site (no-op in spin builds). Parked waiters
    /// re-check their own predicate and re-park if it still fails.
    void wake()
    {
        if constexpr (kParking) {
            if constexpr (trace::kCompiled) {
                if (trace::enabled()) [[unlikely]] {
                    const std::uint32_t w = site_.waiters();
                    if (w > 0)
                        trace::emit(trace::EventType::kWake, Cls, trace_id_,
                                    0, 0, P::now(), w);
                }
            }
            site_.wake_all();
        }
    }

  private:
    /// Every successful holder acquisition stamps the hold start so the
    /// departing holder can report its span for free. The stamp also
    /// closes the release-to-acquire handoff gap, which the wait policy
    /// recovers from the release-stamped WaitSignal.
    void stamp_hold()
    {
        if constexpr (kParking)
            wait_.stamp = P::now();
    }

    /// The policy call: with a cost sample (and the socket bit) when
    /// @p sampled, else the bare observation. A socket-aware policy's
    /// tracker still records every new holder. An answer outside the
    /// set keeps the current protocol: a policy that steps past the top
    /// rung (AlwaysSwitchPolicy) or a policy bug must not wedge the set.
    std::uint32_t consult(ProtocolSignal sig, [[maybe_unused]] bool sampled,
                          [[maybe_unused]] std::uint64_t cycles)
    {
        const std::uint32_t next = [&] {
            if constexpr (kCalibrating) {
                if (sampled) {
                    if constexpr (kSocketAware)
                        return select_.next_protocol(sig, cycles,
                                                     socket_.note_handoff());
                    else
                        return select_.next_protocol(sig, cycles);
                }
                if constexpr (kSocketAware)
                    (void)socket_.note_handoff();
            }
            return select_.next_protocol(sig);
        }();
        return next < N ? next : sig.protocol;
    }

    /// Regret account (trace builds, tracing on): the cost sample
    /// against the policy's cheapest measured protocol. Host memory
    /// only (see src/audit/audit.hpp).
    void note_regret([[maybe_unused]] std::uint8_t cur,
                     [[maybe_unused]] std::uint8_t next,
                     [[maybe_unused]] std::uint64_t ts,
                     [[maybe_unused]] std::uint64_t cycles)
    {
        if constexpr (kCalibrating) {
            if (cycles == 0)
                return;
            if (const auto best = audit::best_alternative(select_, N)) {
                const std::uint64_t regret =
                    audit::record(Cls, trace_id_, cycles, *best);
                trace::emit(trace::EventType::kRegret, Cls, trace_id_, cur,
                            next, ts, cycles, *best, regret);
            }
        }
    }

    template <typename Forward>
    void publish(const WaitSignal& ws, Forward&& forward)
    {
        const auto old_mode = static_cast<std::uint8_t>(
            unpack_wait_hint(wait_.policy.hint()).mode);
        const std::uint32_t h = wait_.policy.on_release(ws);
        const auto new_mode =
            static_cast<std::uint8_t>(unpack_wait_hint(h).mode);
        if (new_mode != old_mode)
            ++wait_.mode_changes;
        site_.set_hint(h);
        forward(h);
        if constexpr (WaitAwareSelect<Select>)
            select_.on_wait_signal(ws);
        if constexpr (trace::kCompiled) {
            if (new_mode != old_mode && trace::enabled()) [[unlikely]] {
                std::uint64_t ests = 0;
                std::uint64_t ew = 0;
                if constexpr (requires {
                                  wait_.policy.hold_estimate();
                                  wait_.policy.block_estimate();
                                  wait_.policy.expected_wait();
                              }) {
                    ests = (wait_.policy.hold_estimate() << 32) |
                           (wait_.policy.block_estimate() & 0xffffffffull);
                    ew = wait_.policy.expected_wait();
                }
                trace::emit(trace::EventType::kWaitModeSwitch, Cls, trace_id_,
                            old_mode, new_mode, P::now(), h, ests, ew);
            }
        }
    }

    /// Park-axis holder state; the empty stand-in keeps SpinWaiting
    /// objects free of it.
    struct ParkWaitState {
        WaitPolicy policy{};
        /// Hold start (locks: stamped at every holder acquisition) or
        /// previous consensus (barrier: stamped at every completion).
        std::uint64_t stamp = 0;
        std::uint64_t mode_changes = 0;
    };
    struct NoWaitState {};

    Select select_;
    std::uint64_t protocol_changes_ = 0;
    SocketHandoffTracker<P> socket_;
    [[no_unique_address]] Site site_;
    [[no_unique_address]]
    std::conditional_t<kParking, ParkWaitState, NoWaitState> wait_;
    // Trace identity (0 when tracing is compiled out). Unconditional
    // member so object layout is identical in both build modes.
    std::uint32_t trace_id_ = trace::new_object(Cls);
};

}  // namespace reactive
