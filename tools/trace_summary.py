#!/usr/bin/env python3
"""Summarise (or validate) a packet-journey trace written by --trace-out.

The simulator's Chrome trace-event exporter (src/trace/tracer.hpp) maps
one sampled packet to one Perfetto process and each router the packet
visits to a thread of that process; hop spans carry the routing-decision
provenance in their args. This tool reads that JSON back and prints the
aggregate story:

  * packets traced / delivered, hop and queue-wait distributions;
  * a histogram of routing conditions (minimal, misroute-local/global,
    ring enter/ride/exit, waits) over every hop span;
  * the slowest packets end-to-end and the hops that queued longest;
  * the output ports with the most sampled grants and with the longest
    mean queue-wait, from the router / out_port / queue_wait args of the
    hop spans.

Exact per-link utilisation is not estimated here: telemetry's "links"
records (--metrics-out F --metrics-full) carry it.

--check switches to validation mode for CI: the file must parse as JSON,
carry a well-formed traceEvents list, and every traced packet must have a
named process, hop spans with provenance args (including the out_port and
queue_wait the port rankings read), and cycle-ordered events. Exits 0 when
valid, 1 with a diagnostic otherwise.

Usage:
  tools/trace_summary.py TRACE.json [--top N] [--check]
"""

import argparse
import json
import os
import sys
from collections import defaultdict

REQUIRED_SPAN_KEYS = ("ph", "pid", "tid", "name", "ts")
PROVENANCE_KEYS = ("condition", "router", "cycle", "seq", "out_port",
                   "queue_wait")


def fail(msg):
    print(f"trace_summary: FAIL: {msg}", file=sys.stderr)
    return 1


def load_trace(path):
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        raise ValueError("missing traceEvents object")
    events = doc["traceEvents"]
    if not isinstance(events, list):
        raise ValueError("traceEvents is not a list")
    return doc, events


def group_packets(events):
    """pid -> {"name": process name, "spans": [...], "instants": [...]}"""
    packets = defaultdict(lambda: {"name": "", "spans": [], "instants": []})
    for ev in events:
        ph = ev.get("ph")
        pid = ev.get("pid")
        if ph == "M":
            if ev.get("name") == "process_name":
                packets[pid]["name"] = ev.get("args", {}).get("name", "")
        elif ph == "X":
            packets[pid]["spans"].append(ev)
        elif ph == "i":
            packets[pid]["instants"].append(ev)
    return packets


def check(doc, events, path):
    if not events:
        return fail(f"{path}: empty traceEvents (no packets sampled?)")
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            return fail(f"event {i} is not an object")
        ph = ev.get("ph")
        if ph not in ("M", "X", "i"):
            return fail(f"event {i}: unexpected phase {ph!r}")
        if ph in ("X", "i"):
            missing = [k for k in REQUIRED_SPAN_KEYS if k not in ev]
            if missing:
                return fail(f"event {i}: missing keys {missing}")
        if ph == "X" and "dur" not in ev:
            return fail(f"event {i}: complete span without dur")

    packets = group_packets(events)
    traced = {pid: p for pid, p in packets.items() if p["spans"]}
    if not traced:
        return fail(f"{path}: no hop spans (tracer produced metadata only)")
    for pid, p in traced.items():
        if not p["name"]:
            return fail(f"packet pid={pid}: unnamed process")
        hops = [s for s in p["spans"] if s["name"] != "queued"]
        if not hops:
            return fail(f"packet pid={pid}: no routing hop spans")
        last_ts = -1
        for s in sorted(p["spans"], key=lambda s: s["ts"]):
            if s["ts"] < last_ts:
                return fail(f"packet pid={pid}: unordered span at ts={s['ts']}")
            last_ts = s["ts"]
        for s in hops:
            args = s.get("args")
            if not isinstance(args, dict):
                return fail(
                    f"packet pid={pid}: hop span {s['name']!r} without "
                    "provenance args"
                )
            missing = [k for k in PROVENANCE_KEYS if k not in args]
            if missing:
                return fail(
                    f"packet pid={pid}: provenance missing {missing} in "
                    f"hop span {s['name']!r}"
                )
            if args["condition"] != s["name"]:
                return fail(
                    f"packet pid={pid}: span name {s['name']!r} != "
                    f"args.condition {args['condition']!r}"
                )
    label = doc.get("otherData", {}).get("label", "")
    print(
        f"trace_summary: OK: {path}: {len(traced)} packet(s), "
        f"{sum(len(p['spans']) for p in traced.values())} span(s)"
        + (f", label {label!r}" if label else "")
    )
    return 0


def summarise(doc, events, top):
    packets = group_packets(events)
    traced = {pid: p for pid, p in packets.items() if p["spans"]}
    conditions = defaultdict(int)
    journeys = []  # (end-to-end cycles, queued cycles, hops, pid, name)
    worst_queues = []  # (wait, router tid, pid)
    ports = defaultdict(lambda: [0, 0])  # (router, port) -> [grants, wait]
    for pid, p in traced.items():
        hops = [s for s in p["spans"] if s["name"] != "queued"]
        queued = sum(s["dur"] for s in p["spans"] if s["name"] == "queued")
        for s in hops:
            conditions[s["name"]] += 1
            args = s.get("args") or {}
            if {"router", "out_port", "queue_wait"} <= args.keys():
                port = ports[(args["router"], args["out_port"])]
                port[0] += 1
                port[1] += args["queue_wait"]
        for s in p["spans"]:
            if s["name"] == "queued":
                worst_queues.append((s["dur"], s["tid"], pid))
        ts = [s["ts"] for s in p["spans"]]
        span = (max(ts) - min(ts)) if len(ts) > 1 else 0
        delivered = any(i["name"] == "deliver" for i in p["instants"])
        journeys.append((span, queued, len(hops), pid, p["name"], delivered))

    label = doc.get("otherData", {}).get("label", "")
    ndeliv = sum(1 for j in journeys if j[5])
    print(f"trace: {len(traced)} packet(s), {ndeliv} delivered" +
          (f"  [{label}]" if label else ""))
    if conditions:
        total = sum(conditions.values())
        print("routing conditions over hop spans:")
        for name, n in sorted(conditions.items(), key=lambda kv: -kv[1]):
            print(f"  {name:<16} {n:>8}  ({100.0 * n / total:.1f}%)")
    journeys.sort(reverse=True)
    if journeys:
        print(f"slowest packets (of {len(journeys)} traced):")
        for span, queued, hops, pid, name, delivered in journeys[:top]:
            state = "delivered" if delivered else "in flight"
            print(
                f"  {name:<28} {span:>6} cycles, {hops} hops, "
                f"{queued} queued  ({state})"
            )
    worst_queues.sort(reverse=True)
    if worst_queues:
        print("longest per-hop queue waits:")
        for wait, tid, pid in worst_queues[:top]:
            print(f"  router {tid:<5} pkt pid={pid:<8} {wait} cycles")
    if ports:
        print("busiest output ports (sampled grants):")
        busiest = sorted(ports.items(), key=lambda kv: (-kv[1][0], kv[0]))
        for (router, port), (grants, _) in busiest[:top]:
            print(f"  router {router:<5} port {port:<3} {grants:>8}")
        print("slowest output ports (mean queue-wait, cycles):")
        slowest = sorted(
            ((wait / grants, grants, key) for key, (grants, wait)
             in ports.items()),
            key=lambda t: (-t[0], t[2]),
        )
        for mean, grants, (router, port) in slowest[:top]:
            print(f"  router {router:<5} port {port:<3} {mean:>10.2f}  "
                  f"({grants} grants)")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("trace", help="Chrome trace JSON from --trace-out")
    ap.add_argument("--top", type=int, default=10, metavar="N",
                    help="rows per ranking (default 10)")
    ap.add_argument("--check", action="store_true",
                    help="validate instead of summarise (CI mode)")
    args = ap.parse_args()

    try:
        doc, events = load_trace(args.trace)
    except (OSError, ValueError, json.JSONDecodeError) as e:
        return fail(f"{args.trace}: {e}")

    if args.check:
        return check(doc, events, args.trace)
    return summarise(doc, events, args.top)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:  # e.g. `... | head`: truncated output is fine
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(0)
