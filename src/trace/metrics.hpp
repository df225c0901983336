/**
 * @file
 * MetricsRegistry: merged view of the per-thread trace shards.
 *
 * Each TraceRing doubles as its thread's single-writer metric shard:
 * exact per-class counters bumped on every publish (immune to ring
 * wrap) plus the event stream itself. A MetricsRegistry snapshot merges
 * both at drain time — counters by summation, latency histograms
 * (stats/histogram.hpp Log2) by replaying the drained events — so the
 * hot path never touches a histogram bucket and the merge runs on the
 * draining thread only. Counters are cumulative across drains; the
 * histograms cover only the events delivered to this snapshot (events
 * lost to drop-oldest are visible in dropped[] instead of silently
 * thinning the distribution).
 */
#pragma once

#include <array>
#include <cstdint>
#include <ostream>
#include <string>

#include "stats/histogram.hpp"
#include "trace/trace.hpp"

namespace reactive::trace {

inline const char* class_name(ObjectClass c)
{
    switch (c) {
    case ObjectClass::kLock:
        return "lock";
    case ObjectClass::kRwLock:
        return "rwlock";
    case ObjectClass::kBarrier:
        return "barrier";
    case ObjectClass::kCohort:
        return "cohort";
    case ObjectClass::kFetchOp:
        return "fetchop";
    default:
        return "none";
    }
}

inline const char* type_name(EventType t)
{
    switch (t) {
    case EventType::kSwitch:
        return "switch";
    case EventType::kProbeBegin:
        return "probe_begin";
    case EventType::kProbeEnd:
        return "probe_end";
    case EventType::kAcqSample:
        return "acq_sample";
    case EventType::kFastAcquire:
        return "fast_acquire";
    case EventType::kEpisode:
        return "episode";
    case EventType::kCohortGrant:
        return "cohort_grant";
    case EventType::kCohortHandoff:
        return "cohort_handoff";
    case EventType::kCohortAbort:
        return "cohort_abort";
    case EventType::kRegret:
        return "regret";
    case EventType::kPark:
        return "park";
    case EventType::kWake:
        return "wake";
    case EventType::kWaitModeSwitch:
        return "wait_mode_switch";
    default:
        return "none";
    }
}

/// Merged per-class metrics: exact counters + delivered-sample latency
/// histograms.
class MetricsRegistry {
  public:
    struct ClassRow {
        std::array<std::uint64_t, kMetricCount> counters{};
        std::uint64_t dropped = 0;
        /// Acquisition latencies (locks/rw) or episode cost samples
        /// (barriers), log2-bucketed as in the thesis' semi-log plots.
        stats::Log2Histogram latency{32};
        /// Counterfactual-regret rollup over *delivered* kRegret events
        /// (the exact drop-immune totals live in audit::snapshot()).
        std::uint64_t regret_cycles = 0;
        std::uint64_t regret_realized = 0;
        std::uint64_t regret_best = 0;
    };

    ClassRow& row(ObjectClass c)
    {
        return rows_[static_cast<std::size_t>(c) % kClassCount];
    }
    const ClassRow& row(ObjectClass c) const
    {
        return rows_[static_cast<std::size_t>(c) % kClassCount];
    }

    std::uint64_t counter(ObjectClass c, Metric m) const
    {
        return row(c).counters[static_cast<std::size_t>(m)];
    }

    /// Folds one ring's counter shard and drop counts into this view.
    void merge_shard(const TraceRing& ring)
    {
        for (std::size_t c = 0; c < kClassCount; ++c) {
            const auto cls = static_cast<ObjectClass>(c);
            for (std::size_t m = 0; m < kMetricCount; ++m)
                rows_[c].counters[m] +=
                    ring.counter(cls, static_cast<Metric>(m));
            rows_[c].dropped += ring.drops(cls);
        }
    }

    /// Feeds one delivered event's latency sample (if it carries one).
    void observe(const Event& e)
    {
        switch (e.type) {
        case EventType::kAcqSample:
        case EventType::kEpisode:
            row(e.cls).latency.add(static_cast<double>(e.a0));
            break;
        case EventType::kRegret: {
            ClassRow& r = row(e.cls);
            r.regret_realized += e.a0;
            r.regret_best += e.a1;
            r.regret_cycles += e.a2;
            break;
        }
        default:
            break;
        }
    }

    /// Compact per-class summary (bench stdout / audit dumps).
    void print(std::ostream& os) const
    {
        os << "trace metrics (per object class):\n";
        for (std::size_t c = 1; c < kClassCount; ++c) {
            const ClassRow& r = rows_[c];
            std::uint64_t any = r.dropped;
            for (std::uint64_t v : r.counters)
                any += v;
            if (any == 0)
                continue;
            os << "  " << class_name(static_cast<ObjectClass>(c)) << ": acq="
               << r.counters[0] << " fast=" << r.counters[1]
               << " switches=" << r.counters[2] << " probes=+"
               << r.counters[4] << "/-" << r.counters[5] << " (started "
               << r.counters[3] << ") episodes=" << r.counters[6]
               << " handoffs=" << r.counters[7] << " aborts="
               << r.counters[8] << " regret_samples=" << r.counters[9]
               << " regret_cycles=" << r.regret_cycles
               << " parks=" << r.counters[10] << " wakes=" << r.counters[11]
               << " wait_switches=" << r.counters[12]
               << " dropped=" << r.dropped << "\n";
            if (r.latency.stats().count() > 0)
                os << "    latency p50=" << r.latency.percentile(0.50)
                   << " p90=" << r.latency.percentile(0.90)
                   << " p99=" << r.latency.percentile(0.99)
                   << " (cycles, " << r.latency.stats().count()
                   << " delivered samples)\n";
        }
    }

  private:
    std::array<ClassRow, kClassCount> rows_{};
};

}  // namespace reactive::trace
