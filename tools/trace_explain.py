#!/usr/bin/env python3
"""Reconstruct protocol-decision timelines from a reactive trace.

Reads the Chrome trace-event JSON written by `--trace <file>` (see
src/trace/export.hpp for the event schema) and replays it into a
per-object decision narrative: which protocol each object started on,
every switch with its triggering signal / drift / estimator snapshot,
probe episodes and their outcomes, every *waiting-mode* switch with
the estimator snapshot that drove it (hold/block EWMAs, expected
wait), a park/wake rollup per object, and the per-class metric rollup
the binary embedded under "reactiveMetrics".

`--regret` switches to the decision-audit view: switch, probe and
regret events are merged into per-object *decision intervals* (the
span an object spends on one protocol), each annotated with the
counterfactual regret paid while that decision was in force — "who
paid what for which decision" — and the top mis-protocol intervals
are flagged. CI round-trips the traced fig_regret smoke run through
this mode.

Exits nonzero on a malformed trace — unparseable JSON, missing keys,
unknown event types or object classes, timestamps out of order in the
drained stream, or a broken switch chain (an object switching *from* a
protocol it was never *on*). CI runs this over the traced
fig_calibration smoke run as the round-trip validation of the whole
tracing pipeline.

If the binary dropped events (ring overflow), a warning is printed
with the per-class breakdown — the timeline is incomplete, the metric
rollup is not. `--strict` turns that warning into a nonzero exit.

Usage:
  tools/trace_explain.py TRACE.json [--min-events N] [--min-switches N]
                         [--regret] [--top N] [--strict] [--quiet]
"""

import argparse
import json
import sys
from collections import defaultdict

KNOWN_TYPES = {
    "switch",
    "probe_begin",
    "probe_end",
    "acq_sample",
    "fast_acquire",
    "episode",
    "cohort_grant",
    "cohort_handoff",
    "cohort_abort",
    "regret",
    "park",
    "wake",
    "wait_mode_switch",
}

# Object classes, as src/trace/metrics.hpp class_name() writes them
# into each event's "cat".
KNOWN_CLASSES = {"lock", "rwlock", "barrier", "cohort", "fetchop"}

# WaitMode encoding (src/waiting/reactive/wait_select.hpp).
WAIT_MODES = {0: "spin", 1: "two_phase", 2: "park"}


def wait_mode(v):
    return WAIT_MODES.get(v, f"mode{v}")

REQUIRED_EVENT_KEYS = ("name", "cat", "ph", "ts", "tid", "args")
REQUIRED_ARG_KEYS = ("object", "from", "to")


class MalformedTrace(Exception):
    pass


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise MalformedTrace(f"cannot parse {path}: {e}")
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        raise MalformedTrace("missing top-level traceEvents array")
    if not isinstance(doc["traceEvents"], list):
        raise MalformedTrace("traceEvents is not an array")
    return doc


def validate(doc):
    """Structural checks; returns the event list (may be empty)."""
    events = doc["traceEvents"]
    last_ts_per_ring = {}
    for i, e in enumerate(events):
        for k in REQUIRED_EVENT_KEYS:
            if k not in e:
                raise MalformedTrace(f"event {i}: missing key '{k}'")
        if e["name"] not in KNOWN_TYPES:
            raise MalformedTrace(f"event {i}: unknown type '{e['name']}'")
        if e["cat"] not in KNOWN_CLASSES:
            raise MalformedTrace(f"event {i}: unknown class '{e['cat']}'")
        if e["ph"] != "i":
            raise MalformedTrace(f"event {i}: expected instant ph, got "
                                 f"'{e['ph']}'")
        args = e["args"]
        for k in REQUIRED_ARG_KEYS:
            if k not in args:
                raise MalformedTrace(f"event {i}: args missing '{k}'")
        ts, tid = e["ts"], e["tid"]
        if not isinstance(ts, (int, float)) or ts < 0:
            raise MalformedTrace(f"event {i}: bad ts {ts!r}")
        # capture() sorts globally by ts (stable within a ring), so the
        # stream must be monotone overall, not just per ring.
        prev = last_ts_per_ring.get("global")
        if prev is not None and ts < prev:
            raise MalformedTrace(
                f"event {i}: ts {ts} precedes previous {prev} "
                f"(drain ordering broken)")
        last_ts_per_ring["global"] = ts
        _ = tid
    return events


def explain(events, quiet):
    """Replays events into per-object timelines; returns switch count."""
    # object id -> list of narrative lines; current protocol per object.
    timeline = defaultdict(list)
    current = {}
    cls_of = {}
    switches = 0
    # object id -> park/wake rollup (parks are per-wait samples, wakes
    # per-broadcast; too many for narrative lines, so they aggregate).
    waits = defaultdict(lambda: {"parks": 0, "wait_cycles": 0,
                                 "wakes": 0, "woken": 0,
                                 "wake_latency_sum": 0,
                                 "wake_latency_n": 0})
    for i, e in enumerate(events):
        a = e["args"]
        obj, frm, to = a["object"], a["from"], a["to"]
        cls_of[obj] = e["cat"]
        t = e["ts"]
        name = e["name"]
        if name == "switch":
            if obj in current and current[obj] != frm:
                raise MalformedTrace(
                    f"event {i}: object {obj} switches from protocol "
                    f"{frm} but its last known protocol is "
                    f"{current[obj]} (audit chain broken)")
            current[obj] = to
            switches += 1
            timeline[obj].append(
                f"  t={t}: switch {frm}->{to} "
                f"(signal protocol={a.get('signal_protocol', '?')} "
                f"drift={a.get('drift', '?')} "
                f"est={a.get('est_a', 0)}/{a.get('est_b', 0)} "
                f"dur={a.get('duration', 0)} cycles)")
        elif name == "probe_begin":
            timeline[obj].append(
                f"  t={t}: probe begin on protocol {frm} "
                f"(#{a.get('probes', '?')})")
        elif name == "probe_end":
            outcome = {0: "rejected", 1: "adopted", 2: "unknown"}.get(
                a.get("outcome"), "unknown")
            timeline[obj].append(f"  t={t}: probe end -> {outcome}")
        elif name == "episode":
            timeline[obj].append(
                f"  t={t}: episode on protocol {frm} "
                f"cost={a.get('cost', '?')} "
                f"arrivals={a.get('arrivals', '?')}")
        elif name == "cohort_handoff":
            timeline[obj].append(
                f"  t={t}: cohort budget exhausted after "
                f"{a.get('a0', '?')} passes, global handoff")
        elif name == "cohort_abort":
            timeline[obj].append(f"  t={t}: cohort queue invalidated")
        elif name == "wait_mode_switch":
            # The waiting-axis decision record: the holder's estimator
            # snapshot (hold/block EWMAs, expected wait) and the mode
            # it chose for the waiters it is about to signal.
            timeline[obj].append(
                f"  t={t}: wait mode {wait_mode(frm)}->{wait_mode(to)} "
                f"(hold_est={a.get('hold_est', '?')} "
                f"block_est={a.get('block_est', '?')} "
                f"expected_wait={a.get('expected_wait', '?')} "
                f"hint={a.get('hint', '?')})")
        elif name == "park":
            w = waits[obj]
            w["parks"] += 1
            w["wait_cycles"] += a.get("wait_cycles", 0)
            lat = a.get("wake_latency", 0)
            if lat > 0:
                w["wake_latency_sum"] += lat
                w["wake_latency_n"] += 1
        elif name == "wake":
            w = waits[obj]
            w["wakes"] += 1
            w["woken"] += a.get("woken", 0)
        # acq_sample / fast_acquire / cohort_grant / regret are
        # high-volume samples; they feed the stats (and the --regret
        # view), not the narrative.
    for obj, w in waits.items():
        if w["parks"] == 0 and w["wakes"] == 0:
            continue
        line = (f"  waiting: {w['parks']} waited acquisition(s) "
                f"({w['wait_cycles']} cycles), {w['wakes']} broadcast(s) "
                f"waking {w['woken']}")
        if w["wake_latency_n"] > 0:
            line += (f", mean wake latency "
                     f"{w['wake_latency_sum'] // w['wake_latency_n']} "
                     f"cycles ({w['wake_latency_n']} measured)")
        timeline[obj].append(line)
    if not quiet:
        for obj in sorted(timeline):
            print(f"{cls_of.get(obj, 'object')} #{obj}:")
            for line in timeline[obj]:
                print(line)
    return switches


def regret_report(events, quiet, top):
    """Decision-interval attribution: who paid what for which decision.

    A *decision interval* is the span an object spends on one protocol
    — opened by a switch (or by the first event seen for the object),
    closed by the next switch.  Every regret sample emitted inside the
    interval is charged to the decision that opened it, so each
    interval reads as "the policy kept object O on protocol P from t0
    to t1, and that choice cost R cycles over the estimator's best
    alternative".  The highest-regret intervals are the mis-protocol
    spans worth investigating first.

    Returns (total regret samples, total regret cycles).
    """
    closed = []            # finished interval dicts, all objects
    open_iv = {}           # object id -> interval in progress
    cls_of = {}

    def fresh(obj, proto, start):
        return {"object": obj, "proto": proto, "start": start,
                "end": start, "samples": 0, "realized": 0, "best": 0,
                "regret": 0, "probes": 0, "opened_by_switch": False}

    for e in events:
        a = e["args"]
        obj, t, name = a["object"], e["ts"], e["name"]
        cls_of[obj] = e["cat"]
        if name == "switch":
            if obj in open_iv:
                open_iv[obj]["end"] = t
                closed.append(open_iv.pop(obj))
            iv = fresh(obj, a["to"], t)
            iv["opened_by_switch"] = True
            open_iv[obj] = iv
        elif name == "regret":
            # from = the protocol that paid (the decision in force).
            iv = open_iv.setdefault(obj, fresh(obj, a["from"], t))
            iv["end"] = max(iv["end"], t)
            iv["samples"] += 1
            iv["realized"] += a.get("realized", 0)
            iv["best"] += a.get("best", 0)
            iv["regret"] += a.get("regret", 0)
        elif name == "probe_begin":
            iv = open_iv.setdefault(obj, fresh(obj, a["from"], t))
            iv["end"] = max(iv["end"], t)
            iv["probes"] += 1
        elif name in ("probe_end", "episode"):
            if obj in open_iv:
                open_iv[obj]["end"] = max(open_iv[obj]["end"], t)
    closed.extend(open_iv.values())

    total_samples = sum(iv["samples"] for iv in closed)
    total_regret = sum(iv["regret"] for iv in closed)

    if not quiet:
        print("regret timeline (who paid what for which decision):")
        by_obj = defaultdict(list)
        for iv in closed:
            by_obj[iv["object"]].append(iv)
        for obj in sorted(by_obj):
            print(f"{cls_of.get(obj, 'object')} #{obj}:")
            for iv in sorted(by_obj[obj], key=lambda v: v["start"]):
                how = ("switched to" if iv["opened_by_switch"]
                       else "started on")
                line = (f"  [t={iv['start']}..{iv['end']}] {how} "
                        f"protocol {iv['proto']}: ")
                if iv["samples"] > 0:
                    line += (f"{iv['samples']} samples, paid "
                             f"{iv['regret']} cycles over best-alt "
                             f"(realized {iv['realized']}, "
                             f"best {iv['best']})")
                else:
                    line += "no regret samples"
                if iv["probes"] > 0:
                    line += f", {iv['probes']} probe(s)"
                print(line)
        worst = sorted((iv for iv in closed if iv["regret"] > 0),
                       key=lambda v: v["regret"], reverse=True)[:top]
        if worst:
            print(f"top {len(worst)} mis-protocol interval(s):")
            for rank, iv in enumerate(worst, 1):
                print(f"  {rank}. {cls_of.get(iv['object'], 'object')} "
                      f"#{iv['object']} on protocol {iv['proto']} "
                      f"[t={iv['start']}..{iv['end']}]: "
                      f"{iv['regret']} cycles regret "
                      f"({iv['samples']} samples)")
        else:
            print("no interval accumulated regret (every realized cost "
                  "was at or under the estimator's best alternative)")
    return total_samples, total_regret


def drop_warning(doc):
    """Prints the incomplete-timeline warning; returns dropped count."""
    other = doc.get("otherData", {})
    # Exporter writes counters as quoted strings (JSON-safe uint64).
    try:
        dropped = int(other.get("dropped_total", "0"))
    except (TypeError, ValueError):
        dropped = 0
    if dropped > 0:
        by_class = other.get("dropped_by_class", {})
        detail = " ".join(f"{c}={n}" for c, n in sorted(by_class.items())
                          if str(n) not in ("0", ""))
        print(f"WARNING: {dropped} events dropped at the rings "
              f"({detail or 'no per-class breakdown'}) — the timeline "
              f"is incomplete; metric rollups are not affected",
              file=sys.stderr)
    return dropped


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("trace", help="Chrome trace JSON from --trace")
    ap.add_argument("--min-events", type=int, default=0,
                    help="fail unless the trace has at least N events")
    ap.add_argument("--min-switches", type=int, default=0,
                    help="fail unless at least N protocol switches")
    ap.add_argument("--regret", action="store_true",
                    help="decision-audit view: regret per decision "
                         "interval, top mis-protocol spans flagged")
    ap.add_argument("--top", type=int, default=5,
                    help="mis-protocol intervals to flag in --regret "
                         "mode (default 5)")
    ap.add_argument("--strict", action="store_true",
                    help="exit nonzero if the binary dropped events")
    ap.add_argument("--quiet", action="store_true",
                    help="validate only; no timeline dump")
    args = ap.parse_args()

    try:
        doc = load(args.trace)
        events = validate(doc)
        switches = explain(events, args.quiet or args.regret)
        regret_samples = regret_cycles = 0
        if args.regret:
            regret_samples, regret_cycles = regret_report(
                events, args.quiet, args.top)
    except MalformedTrace as e:
        print(f"MALFORMED TRACE: {e}", file=sys.stderr)
        return 2

    metrics = doc.get("reactiveMetrics", {})
    total = len(events)
    dropped = drop_warning(doc)
    print(f"{args.trace}: {total} events, {switches} switches, "
          f"{dropped} dropped")
    if args.regret:
        print(f"  regret: {regret_samples} samples, "
              f"{regret_cycles} cycles paid over best-alternative")
    for cls, row in sorted(metrics.items()):
        print(f"  {cls}: " + " ".join(f"{k}={v}" for k, v in row.items()))

    if total < args.min_events:
        print(f"FAIL: {total} events < required {args.min_events}",
              file=sys.stderr)
        return 1
    if switches < args.min_switches:
        print(f"FAIL: {switches} switches < required {args.min_switches}",
              file=sys.stderr)
        return 1
    if args.strict and dropped > 0:
        print(f"FAIL: --strict and {dropped} events dropped",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
