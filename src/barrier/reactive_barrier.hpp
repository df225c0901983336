/**
 * @file
 * The reactive barrier: dynamically selects among an N-protocol
 * `ProtocolSet` of barrier implementations (core/protocol_set.hpp).
 * The stock two-protocol set pairs the centralized sense-reversing
 * barrier (central_barrier.hpp, optimal at low participant counts and
 * skewed arrivals) with the fan-in-k combining tree
 * (combining_tree_barrier.hpp, optimal at high participant counts
 * under bunched arrivals); the three-protocol set adds the
 * dissemination barrier (dissemination_barrier.hpp, contended-RMW-free
 * log2 P critical path) as the most scalable rung.
 *
 * This is the consensus-object construction of the reactive lock
 * (thesis Sections 3.2.5-3.3.1) carried to a primitive with *no
 * holder*: nobody owns a barrier the way a process owns a lock, so the
 * lock subsystems' rule "protocol changes are made only by the lock
 * holder" has no direct analogue. The barrier substitutes a different
 * consensus point with a stronger property:
 *
 *  - **Each episode elects exactly one in-consensus completer.** Every
 *    slot protocol elects one such process per episode (the arrival
 *    that takes the central counter to zero; the climber that
 *    completes the root; the dissemination protocol's designated
 *    completer). Between that election and the release it performs,
 *    *every other participant is provably quiescent*: each has
 *    finished its arrival and cannot leave the episode's wait — let
 *    alone start the next episode — until the release. The completer
 *    therefore mutates policy state, the mode index, and any slot's
 *    idle state entirely race-free, with no INVALID sentinels, no
 *    retry dispatch, and no switch serialization beyond the episode
 *    order itself (consecutive completers are ordered by the
 *    release/acquire chain of the episodes between them).
 *  - **The mode index is exact, not a hint.** The switch is stored
 *    before the release; every participant's next arrival happens
 *    after acquiring that release, so all participants of an episode
 *    execute the same protocol. This is *stronger* than the lock case
 *    (where racing the mode hint is benign-but-possible) and is what
 *    removes the need for the locks' invalid-protocol retry loops. It
 *    also keeps each slot's episode bookkeeping trivially consistent:
 *    a participant's per-slot state advances exactly once per episode
 *    executed on that slot, uniformly across the participant set.
 *  - **Monitoring rides on arrival** (the analogue of Section 3.2.6):
 *    the completer samples the episode's *arrival spread* — the cycle
 *    gap between the first arrival (stamped for free by the slots: a
 *    single store in the central barrier, a min-combine up the tree,
 *    the same racing CAS in the dissemination protocol) and episode
 *    completion — plus its own arrival latency, which in central mode
 *    measures queueing at the counter's home directory. A small spread
 *    means the participants arrived together and serialization is the
 *    bottleneck (the scalable rungs' regime); a spread of many
 *    thousands of cycles means a straggler dominated and any tree or
 *    round structure is pure overhead (the central regime).
 *
 * Policy interface: the completer classifies the episode into a
 * `ProtocolSignal` — drift +1 (bunched arrivals, or a contended
 * counter RMW on the bottom rung: the current protocol is
 * under-provisioned), drift -1 (straggler-dominated: over-provisioned)
 * — and asks the policy for `next_protocol` through the shared
 * ConsensusMonitor (core/consensus_monitor.hpp). The thesis'
 * two-protocol policies (AlwaysSwitch, Competitive3, Hysteresis) apply
 * to the two-protocol set with an episode as the unit of observation
 * (a central-mode episode plays the TTS role, a top-rung episode the
 * queue role). N-protocol sets take an N-ary `SelectPolicy` (e.g.
 * CalibratedLadderPolicy, whose measured per-rung episode costs rank
 * protocols the drift signal alone cannot); a two-protocol policy over
 * a larger set is rejected at compile time.
 *
 * Calibration (core/cost_model.hpp): with `ReactiveBarrierParams::
 * calibrate` the bunched/contended classification thresholds are
 * re-derived each episode from the completer's measured counter-RMW
 * latency (a decaying minimum tracking the uncontended cost) instead
 * of compile-time cycle constants, and a calibrating policy receives
 * each episode's spread as a cost sample — all computed by the
 * completer from timestamps it already holds, so calibration adds no
 * shared-memory traffic.
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <tuple>
#include <type_traits>

#include "barrier/barrier_concepts.hpp"
#include "barrier/central_barrier.hpp"
#include "barrier/combining_tree_barrier.hpp"
#include "core/consensus_monitor.hpp"
#include "core/policy.hpp"
#include "core/protocol_set.hpp"
#include "platform/cache_line.hpp"
#include "platform/platform_concept.hpp"
#include "platform/thread_slots.hpp"
#include "waiting/reactive/wait_site.hpp"

namespace reactive {

/// Tunables for the reactive barrier's episode monitor.
struct ReactiveBarrierParams {
    /// Arrival fan-in of tree-shaped slot protocols.
    std::uint32_t fan_in = 4;
    /// Topology-aware slot placement (BarrierSlotOptions): with
    /// sockets >= 2, tree-shaped slots assign leaves by socket so
    /// fan-in groups never straddle a socket boundary.
    std::uint32_t sockets = 1;
    /// Participants per socket (0 = balanced, ceil(P / sockets)).
    std::uint32_t cores_per_socket = 0;
    /// An episode whose arrival spread is below participants * this is
    /// "bunched": the central counter would serialize the arrivals.
    /// Sized to a directory-serialized RMW plus slack on the simulated
    /// machine; on native hardware it is a TSC-cycle budget. With
    /// `calibrate` set this is only the *seed*: the per-arrival budget
    /// is re-derived from the measured RMW floor each episode.
    std::uint32_t bunched_cycles_per_arrival = 150;
    /// An episode whose spread exceeds the bunched threshold times this
    /// is "skewed": a straggler dominates and the tree buys nothing.
    std::uint32_t skew_factor = 4;
    /// A completer whose own counter RMW took this long observed
    /// directory queueing directly (central mode's second signal).
    /// Seed only when `calibrate` is set, like the bunched budget.
    std::uint32_t contended_rmw_cycles = 400;
    /// Derive the bunched/contended thresholds at run time from the
    /// completer's measured counter-RMW latency instead of the cycle
    /// constants above. The constants then act as seeds: the initial
    /// RMW floor is bunched_cycles_per_arrival / bunched_rmw_multiple,
    /// so a calibrated barrier starts numerically identical to a
    /// static one and adapts from the first central episode onward.
    bool calibrate = false;
    /// Bunched budget per arrival = this many uncontended RMWs (the
    /// slack over the raw serialization cost; 3 * 50 = the static 150).
    std::uint32_t bunched_rmw_multiple = 3;
    /// A completer RMW at or above this many uncontended RMWs observed
    /// directory queueing (8 * 50 = the static 400).
    std::uint32_t contended_rmw_multiple = 8;
    /**
     * Traffic-free monitoring: drop the arrival-spread machinery (the
     * first-arrival stamp CAS, the min-combine up the tree) and drive
     * the policy purely from quantities the completer owns anyway —
     * the episode *period* (difference of consecutive consensus
     * timestamps; the true wall cost per episode, and unlike the
     * spread directly comparable across protocols) as the cost
     * sample, completer-identity streaks for skew detection (a
     * straggler completes every episode it dominates; in-consensus
     * state only), and the completer's own arrival latency (central's
     * directory-queueing signal; the designated completer's
     * straggler-wait signal). Slots are then constructed with signal
     * tracking off, so the reactive barrier executes the *identical
     * shared-memory operations* as the static protocol it is parked
     * in — monitoring cost measured in the fig_barrier tables drops
     * from up to ~40% of a short bunched episode to zero. **Default
     * on** since the NUMA PR (the spread machinery measurably costs up
     * to ~40% of a short bunched episode; see DESIGN.md): a parked
     * reactive barrier executes the static protocol's exact memory
     * operations, asserted by a mem-op-count regression test. The
     * spread path stays available behind `= false` as the thesis-style
     * signal for one deprecation PR; fig_barrier's two-protocol tables
     * opt back into it to stay comparable with their historical
     * numbers.
     */
    bool free_monitoring = true;
    /// Consecutive episodes completed by the same participant that
    /// classify the regime as straggler-dominated (free monitoring).
    std::uint32_t skew_completer_streak = 3;
};

/// The stock barrier protocol sets, in scalability order.
template <Platform P>
using CentralTreeBarrierSet =
    ProtocolSet<CentralBarrier<P>, CombiningTreeBarrier<P>>;

/**
 * Reactive barrier selecting among the slots of a barrier ProtocolSet
 * between episodes.
 *
 * The waiting axis (waiting/reactive/): with Waiting = ParkWaiting,
 * slots exposing a site-dispatched wait_episode (the central barrier)
 * wait through one barrier-level WaitSite on the completer-published
 * hint; tree- and round-shaped slots keep their local spins (their
 * per-level waits are short by construction, and parking mid-combine
 * would serialize the fan-in). The completer is the consensus point:
 * it alone feeds the WaitSelectPolicy (episode period as the hold
 * analogue, plus its own stashed wake latency from the last episode it
 * parked in) and broadcasts on the site after the release.
 *
 * @tparam P          Platform model.
 * @tparam Policy     selection policy (core/policy.hpp): any N-ary
 *                    `SelectPolicy`, or — for two-protocol sets — a
 *                    two-protocol one (shared with the reactive
 *                    mutex/rwlock).
 * @tparam Set        `ProtocolSet` of BarrierProtocolSlot members,
 *                    ordered by scalability (index 0 = low-contention
 *                    protocol).
 * @tparam Waiting    SpinWaiting (default; byte-identical to the
 *                    pre-subsystem barrier) or ParkWaiting.
 * @tparam WaitPolicy WaitSelectPolicy choosing the waiting mode
 *                    (ParkWaiting instantiations only).
 */
template <Platform P, typename Policy = AlwaysSwitchPolicy,
          typename Set = CentralTreeBarrierSet<P>,
          typename Waiting = SpinWaiting,
          typename WaitPolicy = CalibratedWaitPolicy>
class ReactiveBarrier {
  public:
    /// Number of protocols in the set.
    static constexpr std::uint32_t kProtocols = Set::kCount;

    /**
     * Protocol executing the current episode (exact, not a hint). The
     * mode *is* the protocol index; the enumerators name the stock
     * sets' rungs for readability.
     */
    enum class Mode : std::uint32_t {
        kCentral = 0,
        kTree = 1,
        kDissemination = 2,
    };

  private:
    using Monitor = ConsensusMonitor<P, Policy, kProtocols, Waiting,
                                     WaitPolicy, trace::ObjectClass::kBarrier>;

  public:
    /// Whether episode waits may park (ParkWaiting instantiations).
    static constexpr bool kParking = Monitor::kParking;

    /// Per-participant state (one sub-node per slot); reuse the same
    /// Node across episodes.
    struct Node {
        typename Set::Nodes nodes;
        /// Last parked wait's cost, stashed until this participant is
        /// next in consensus (it feeds the wake-latency estimator only
        /// as a completer). Empty in spin instantiations.
        [[no_unique_address]] typename Monitor::WaitStash last_wait{};
    };

    explicit ReactiveBarrier(std::uint32_t participants)
        : ReactiveBarrier(participants, ReactiveBarrierParams{})
    {
    }

    ReactiveBarrier(std::uint32_t participants, ReactiveBarrierParams params,
                    Policy policy = Policy{})
        : set_(participants,
               BarrierSlotOptions{/*track_signals=*/!params.free_monitoring,
                                  /*fan_in=*/params.fan_in,
                                  /*sockets=*/params.sockets,
                                  /*cores_per_socket=*/
                                  params.cores_per_socket}),
          participants_(participants),
          params_(params),
          rmw_floor_(params.bunched_cycles_per_arrival /
                     (params.bunched_rmw_multiple ? params.bunched_rmw_multiple
                                                  : 1)),
          monitor_(std::move(policy))
    {
        // Initial protocol: index 0 (the low-contention choice, as the
        // reactive lock starts in TTS mode, Figure 3.27).
        mode_->store(0, std::memory_order_relaxed);
        // Runtime-sized ladder policies are sized to this set here (in
        // every build mode — a 2-rung policy over a 3-protocol set
        // would silently never reach the top rung, and an oversized
        // one would burn switching evidence on rungs that do not
        // exist). Explicitly configured sizes equal to kProtocols are
        // untouched, including their Params.
        if constexpr (requires(Policy& p) { p.resize_protocols(kProtocols); })
            monitor_.select().resize_protocols(kProtocols);
    }

    // ---- Barrier interface -------------------------------------------

    void arrive(Node& n)
    {
        set_.dispatch(protocol_index(), [&](auto& proto, auto index) {
            auto& pn = std::get<index.value>(n.nodes);
            const BarrierEpisode ep = proto.arrive_only(pn);
            if (!ep.last) {
                // Slots exposing a site-dispatched wait (the central
                // barrier) park under the hint; tree/round slots keep
                // their local spins.
                if constexpr (kParking) {
                    if constexpr (requires(AwaitResult& w) {
                                      proto.wait_episode(pn, monitor_.site(),
                                                         w);
                                  }) {
                        AwaitResult wr{};
                        proto.wait_episode(pn, monitor_.site(), wr);
                        // Not a consensus point: the cost is stashed
                        // until this participant next completes.
                        if (monitor_.parked(wr))
                            n.last_wait = wr;
                        return;
                    }
                }
                proto.wait_episode(pn);
                return;
            }
            // In consensus: select the next waiting mode first, so the
            // waiters this release is about to free dispatch under it.
            monitor_.episode_released(n.last_wait);
            episode_consensus(static_cast<std::uint32_t>(index.value), ep,
                              &n);
            proto.release_episode(pn);
            // Parking wake rule: the sense flip (and any mode store)
            // above is followed, in the same thread, by the broadcast.
            monitor_.wake();
        });
    }

    /// std::barrier-shaped arrival: the participant's persistent Node
    /// lives in a thread-local slot keyed by this barrier's unique
    /// instance token (platform/thread_slots.hpp — the address would
    /// hand a successor barrier at a reused address the predecessor's
    /// stale nodes), so one participant must equal one thread for the
    /// barrier's whole lifetime. arrive() with an explicit Node
    /// remains the primary interface (and the only correct one for
    /// simulated fibers, which share their host thread's slots).
    void arrive_and_wait()
    {
        arrive(*ThreadNodeSlots<Node>::claim(facade_key_));
    }

    std::uint32_t participants() const { return participants_; }

    // ---- monitoring (tests, experiments) -----------------------------

    /// Protocol index of the upcoming episode. Exact for participants
    /// (they read it after acquiring the previous release); racy
    /// inspection for everyone else.
    std::uint32_t protocol_index() const
    {
        return mode_->load(std::memory_order_relaxed);
    }

    /// protocol_index() under the stock sets' conventional names.
    Mode mode() const { return static_cast<Mode>(protocol_index()); }

    /// Number of completed protocol changes. Race-free for any
    /// *participant* between its own arrivals: no episode can complete
    /// (and no completer can touch this) until that participant
    /// arrives again. Racy inspection for non-participants.
    std::uint64_t protocol_changes() const
    {
        return monitor_.protocol_changes();
    }

    /// Policy state access (in-consensus callers only).
    Policy& policy() { return monitor_.select(); }

    /// Direct slot access (tests, experiments).
    template <std::size_t I>
    auto& slot()
    {
        return set_.template get<I>();
    }

    /// Measured uncontended-RMW floor driving the calibrated
    /// thresholds (in-consensus callers and tests).
    std::uint64_t rmw_floor() const { return rmw_floor_; }

    /// Wait-policy state access (in-consensus callers only).
    WaitPolicy& wait_policy()
        requires kParking
    {
        return monitor_.wait_policy();
    }

    /// The packed wait hint currently published to waiters (tests).
    std::uint32_t wait_hint() const { return monitor_.site().hint(); }

  private:
    /**
     * The completer's in-consensus step, run after its arrival and
     * before the release: classify the episode, consult the policy,
     * and perform any protocol change. Every other participant is
     * waiting inside the current protocol, so everything here is
     * race-free; the mode store is published by the release that
     * follows.
     */
    void episode_consensus(std::uint32_t m, const BarrierEpisode& ep,
                           const void* completer)
    {
        if (participants_ < 2)
            return;  // a 1-participant barrier has no contention axis
        const std::uint64_t end = P::now();
        // Classification thresholds: static cycle constants, or (with
        // calibrate) re-derived each episode from the measured RMW
        // floor — the episode-spread distribution's natural unit is
        // "uncontended counter RMWs", which the completer measures for
        // free on the bottom rung.
        std::uint64_t per_arrival = params_.bunched_cycles_per_arrival;
        std::uint64_t contended_rmw = params_.contended_rmw_cycles;
        if (params_.calibrate) {
            if (m == 0)
                sample_rmw_floor(ep.arrive_cycles);
            per_arrival = static_cast<std::uint64_t>(
                              params_.bunched_rmw_multiple) *
                          rmw_floor_;
            contended_rmw = static_cast<std::uint64_t>(
                                params_.contended_rmw_multiple) *
                            rmw_floor_;
        }
        const std::uint64_t bunched_threshold = per_arrival * participants_;
        // Drift along the set's scalability order: the bottom rung's
        // under-provisioning signals are bunched arrivals or direct
        // directory queueing at its counter; higher rungs are
        // over-provisioned when a straggler dominates (skewed) and
        // under-provisioned when arrivals stay bunched and a more
        // scalable rung exists above.
        int drift = 0;
        std::uint64_t sample = 0;
        if (params_.free_monitoring) {
            // Traffic-free signals (see ReactiveBarrierParams): the
            // straggler regime is read off completer-identity streaks
            // — the dominated episodes are completed by the straggler
            // itself, every time — or, for a designated completer, off
            // its own arrival latency (it sat inside its rounds
            // waiting out the straggle window). The cost sample is the
            // episode period: the difference of consecutive consensus
            // timestamps, i.e. the true wall cost of an episode, which
            // unlike the spread needs no stamps and compares across
            // protocols.
            bool skewed;
            bool rotating = false;
            if (ep.fixed_completer) {
                // The designated completer's own rounds wait out any
                // straggler it depends on, so its arrival latency is
                // the skew signal. Known blind spot: if the straggler
                // *is* the designated completer (ids are assigned by
                // first-arrival race, so probability ~1/P per run),
                // its own rounds finish instantly and skew goes
                // undetected — the barrier then idles in this rung
                // through the straggler regime, paying the rung's
                // O(log P) structure (a small constant against the
                // straggle window) until the regime changes.
                skewed = ep.arrive_cycles >=
                         bunched_threshold * params_.skew_factor;
            } else {
                completer_streak_ =
                    completer == prev_completer_ ? completer_streak_ + 1 : 1;
                prev_completer_ = completer;
                skewed = completer_streak_ >= params_.skew_completer_streak;
                // A completer that changed is weak bunched evidence
                // (arrivals raced); it gates the up-drift so a policy
                // that commits on drift alone cannot ratchet to the
                // top rung through signal-free episodes. Measured
                // policies (the intended pairing for free monitoring)
                // treat drift only as probe scheduling either way.
                rotating = completer_streak_ == 1;
            }
            if (m == 0)
                drift = ep.arrive_cycles >= contended_rmw ? +1 : 0;
            else if (skewed)
                drift = -1;
            else if (rotating && m + 1 < kProtocols)
                drift = +1;
            sample = prev_end_ != 0 && end > prev_end_ ? end - prev_end_ : 0;
            prev_end_ = end;
        } else {
            // Thesis-style spread signals: the gap between the
            // episode's first arrival (stamped by the slots) and its
            // completion. Calibrating policies also receive the spread
            // as this episode's cost sample: under a steady workload
            // the spread is the protocol-dependent part of the
            // episode's critical path.
            const std::uint64_t spread =
                end > ep.first_arrival ? end - ep.first_arrival : 0;
            const bool bunched = spread <= bunched_threshold;
            if (m == 0) {
                drift = (bunched || ep.arrive_cycles >= contended_rmw) ? +1
                                                                       : 0;
            } else {
                const bool skewed =
                    spread >= bunched_threshold * params_.skew_factor;
                if (skewed)
                    drift = -1;
                else if (bunched && m + 1 < kProtocols)
                    drift = +1;
            }
            sample = spread;
        }
        // The switching span runs from the consensus stamp to the end
        // of the switch bookkeeping: classification, policy and mode
        // store. The systemic remainder of a barrier change (the next
        // episode running the other protocol cold) is excluded by the
        // policy's first-sample-after-switch discard, and the policy's
        // switch-cost accounting scales the span to a disruption
        // estimate, exactly as for the locks. The mode store is
        // published by the release that follows.
        monitor_.completed({m, drift}, end, sample,
                           !params_.free_monitoring || sample != 0,
                           participants_, [&](std::uint32_t next) {
                               mode_->store(next, std::memory_order_relaxed);
                           });
    }

    /// Decaying minimum of the completer's bottom-rung counter-RMW
    /// latency: drops to a lower sample immediately, grows toward
    /// higher samples by ~1/16 per bottom-rung episode (1/4 for the
    /// first few, so a mis-seeded floor heals within a handful of
    /// episodes). Tracks the *uncontended* RMW cost because the min
    /// over any window that contains one quiet arrival is the quiet
    /// one.
    void sample_rmw_floor(std::uint64_t sample)
    {
        const std::uint32_t shift = floor_samples_ < 8 ? 2 : 4;
        if (floor_samples_ < 8)
            ++floor_samples_;
        const std::uint64_t grown =
            rmw_floor_ + (rmw_floor_ >> shift) + 1;
        rmw_floor_ = sample < grown ? sample : grown;
    }

    Set set_;
    const std::uint32_t participants_;

    // The mode word is written once per protocol change and read once
    // per arrival; it lives on its own mostly-read line (Section 3.2.6).
    CacheAligned<typename P::template Atomic<std::uint32_t>> mode_;

    ReactiveBarrierParams params_;
    const std::uint64_t facade_key_ = next_object_key();
    std::uint64_t rmw_floor_;             // mutated in-consensus only
    std::uint32_t floor_samples_ = 0;     // mutated in-consensus only
    // Free-monitoring state (mutated in-consensus only).
    std::uint64_t prev_end_ = 0;
    const void* prev_completer_ = nullptr;
    std::uint32_t completer_streak_ = 0;
    // Policy, socket tracker (of the previous completer: an episode
    // whose consensus moved across sockets carried its hot lines with
    // it), wait site and trace identity: completer-only state (the site
    // also by waiters).
    Monitor monitor_;
};

}  // namespace reactive
