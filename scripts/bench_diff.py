#!/usr/bin/env python3
"""Compare two bench-json records (see `make bench-json`) benchmark by
benchmark.

Usage:
    bench_diff.py OLD.json NEW.json [--min-ratio=KEY:FLOOR]... [--min-rel=KEY:FRAC]...

Both inputs are the JSON `make bench-json` emits: a "benchmarks" array of
objects keyed by benchmark name, plus top-level derived ratios
(warm_speedup, ...). For every
benchmark present in both records the script prints ns/op, B/op and
allocs/op side by side with the relative change (negative = NEW is better)
and the old/new speedup; benchmarks present in only one record are listed
so a renamed benchmark cannot silently vanish from the comparison. The
derived ratios of both records are printed last.

Each --min-ratio KEY:FLOOR asserts that NEW's top-level ratio KEY is at
least FLOOR and fails the run otherwise: a parity floor for short smoke
runs, where absolute ns/op is too noisy to gate on but a
derived ratio collapsing (e.g. warm_speedup dropping well below 1.0
because warm store decoding regressed) is still a reliable signal.

Each --min-rel KEY:FRAC asserts that NEW's top-level number KEY is at least
FRAC times OLD's — a relative floor for host-dependent throughput numbers
such as apps_per_sec, where no absolute floor is portable but a collapse to
a small fraction of the checked-in record (streaming pipeline gone serial,
release leak thrashing the GC) is still detectable with a generous FRAC.
"""

import json
import sys


def load(path):
    with open(path) as f:
        data = json.load(f)
    if "benchmarks" not in data:
        sys.exit(f"bench_diff: {path}: no \"benchmarks\" array "
                 "(not a bench-json record?)")
    return data


def by_name(data):
    return {b["name"]: b for b in data["benchmarks"]}


def fmt_delta(old, new):
    if not old:
        return "      n/a"
    return f"{(new - old) / old * 100.0:+8.1f}%"


def main(argv):
    floors = []
    rel_floors = []
    paths = []
    for arg in argv:
        if arg.startswith("--min-ratio") or arg.startswith("--min-rel"):
            opt = arg.split("=", 1)[0]
            spec = arg.split("=", 1)[1] if "=" in arg else None
            if spec is None:
                sys.exit(f"bench_diff: {opt} needs KEY:FLOOR "
                         f"(use {opt}=KEY:FLOOR)")
            key, _, floor = spec.partition(":")
            try:
                dest = floors if opt == "--min-ratio" else rel_floors
                dest.append((key, float(floor)))
            except ValueError:
                sys.exit(f"bench_diff: bad {opt} floor {floor!r}")
        else:
            paths.append(arg)
    if len(paths) != 2:
        sys.exit(__doc__.strip())

    old_path, new_path = paths
    old, new = load(old_path), load(new_path)
    olds, news = by_name(old), by_name(new)

    print(f"benchmark deltas: {old_path} -> {new_path} "
          f"(negative = better)")
    header = (f"{'benchmark':<26} {'ns/op old':>12} {'ns/op new':>12} "
              f"{'delta':>9} {'speedup':>8} {'B/op':>9} {'allocs':>9}")
    print(header)
    print("-" * len(header))
    for name in [b["name"] for b in old["benchmarks"]]:
        if name not in news:
            print(f"{name:<26} only in {old_path}")
            continue
        o, n = olds[name], news[name]
        ns_o, ns_n = o.get("ns_per_op", 0), n.get("ns_per_op", 0)
        speedup = f"{ns_o / ns_n:8.2f}x" if ns_n else "     n/a"
        print(f"{name:<26} {ns_o:>12} {ns_n:>12} {fmt_delta(ns_o, ns_n)} "
              f"{speedup} "
              f"{fmt_delta(o.get('bytes_per_op', 0), n.get('bytes_per_op', 0))} "
              f"{fmt_delta(o.get('allocs_per_op', 0), n.get('allocs_per_op', 0))}")
    for name in news:
        if name not in olds:
            print(f"{name:<26} only in {new_path}")

    ratios = sorted({k for d in (old, new)
                     for k, v in d.items()
                     if isinstance(v, (int, float)) and k != "host_cpus"})
    if ratios:
        print("\nderived ratios:")
        for k in ratios:
            print(f"  {k:<22} {old.get(k, '-'):>8} -> {new.get(k, '-'):>8}")

    failed = False
    for key, floor in floors:
        got = new.get(key)
        if not isinstance(got, (int, float)):
            print(f"FAIL: {new_path} has no ratio {key!r}")
            failed = True
        elif got < floor:
            print(f"FAIL: {key} = {got} < floor {floor}")
            failed = True
        else:
            print(f"ok: {key} = {got} >= {floor}")
    for key, frac in rel_floors:
        got, ref = new.get(key), old.get(key)
        if not isinstance(got, (int, float)):
            print(f"FAIL: {new_path} has no number {key!r}")
            failed = True
        elif not isinstance(ref, (int, float)):
            print(f"FAIL: {old_path} has no number {key!r} to compare against")
            failed = True
        elif got < frac * ref:
            print(f"FAIL: {key} = {got} < {frac} * old {ref}")
            failed = True
        else:
            print(f"ok: {key} = {got} >= {frac} * old {ref}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
