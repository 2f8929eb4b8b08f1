"""Benchmark of the treedesk workbench.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see workloads.py) in this process, from the root of
a source checkout, with the library imported from `src/` and the
reference oracles from `tests/`.

It repeats rounds of set-up plus one pass over the workload's items for
at most S seconds (at least one round).  With `--trace 0` it reports the
median set-up time (over at least five set-ups), the median pass time,
the median item time and the peak resident memory.  The times are
scaled to a reference host speed, measured by a fixed kernel sampled
between the items (hostspeed.py); the raw times go to the detail file.
With `--trace 1` it wraps the library's layer functions (spans.py) and
reports the median per round of every per-layer metric.  Either way the first pass's
results are checked after the timed region, and every later pass must
reproduce them.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  A failed check exits
with status 1, a missing source tree with status 2, before any result.
Details (pass times, item tails, per-round spans) go to `bench/out/`.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time

from hostspeed import SAMPLE_EVERY_S, Speedometer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
# Untraced runs time set-up at least SETUP_MIN times.
SETUP_MIN = 5


def _import_program():
    for sub in ("src", "tests"):
        path = os.path.join(ROOT, sub)
        if not os.path.isdir(path):
            raise ImportError("no %s/ directory under %s" % (sub, ROOT))
        sys.path.insert(0, path)
    import spans
    import workloads
    return spans, workloads


def run_pass(items, expected, tracer=None, speed=None):
    """Run every item once.  Returns (results, item_seconds, failed).

    With a Speedometer, the kernel is sampled before the first item and
    whenever SAMPLE_EVERY_S has passed since the last sample, and at the
    end; each item's time is scaled by the samples on either side of it,
    and the raw times are appended to `speed.raw_item_s`."""
    results, times, failed = [], [], 0
    clock = time.perf_counter
    if speed is not None:
        before, scaled_up_to, last = speed.sample(), 0, clock()
    for i, item in enumerate(items):
        if tracer is not None:
            tracer.current_item = i
        t0 = clock()
        try:
            res = item.call()
        except expected as exc:
            if not item.may_fail:
                raise
            res = exc
            failed += 1
        times.append(clock() - t0)
        results.append((item.label, res))
        if speed is not None and (i == len(items) - 1
                                  or clock() - last >= SAMPLE_EVERY_S):
            after = speed.sample()
            for j in range(scaled_up_to, i + 1):
                speed.raw_item_s.append(times[j])
                times[j] = speed.scaled(times[j], before, after)
            before, scaled_up_to, last = after, i + 1, clock()
    if tracer is not None:
        tracer.current_item = -1
    return results, times, failed


def _fingerprint(results):
    """What a later pass must reproduce: labels, outcomes and values,
    with exceptions compared by type and message."""
    out = []
    for label, res in results:
        if isinstance(res, Exception):
            out.append((label, type(res).__name__, str(res)))
        elif isinstance(res, dict):
            out.append((label, repr(sorted(
                (k, v) for k, v in res.items()
                if k not in ("fa", "fb", "ext")))))
        else:
            out.append((label, repr(res)))
    return out


def tail_ms(seconds):
    """The highest whole percentile with at least ten samples above it,
    its value in ms and the sample count; None below forty samples."""
    n = len(seconds)
    if n < 40:
        return None
    p = int(100 * (n - 10) / n)
    return {"percentile": p, "samples": n,
            "value_ms": 1000 * sorted(seconds)[int(p / 100 * n)]}


def _budget_spent(t_start, durations, seconds):
    """True when one more repetition of the median duration would end
    past `seconds` after t_start."""
    elapsed = time.perf_counter() - t_start
    return elapsed + statistics.median(durations) > seconds


def timed_setup(setup, seed, speed=None):
    """(state, set-up seconds), scaled to reference speed by kernel
    samples just before and after it when `speed` is given."""
    gc.collect()
    before = speed.sample() if speed is not None else None
    t0 = time.perf_counter()
    state = setup(seed)
    seconds = time.perf_counter() - t0
    if speed is not None:
        speed.raw_setup_s.append(seconds)
        seconds = speed.scaled(seconds, before, speed.sample())
    return state, seconds


def run_rounds(wl, expected, seed, seconds, tracer=None, speed=None):
    """Repeat rounds of set-up plus one pass while the next round fits
    in `seconds` (at least one round).  Set-up is timed in every round,
    so its samples span the run like the passes do.  With a tracer, each
    round's spans are summarised into `summaries`.  `pass_s` is the sum
    of a pass's item times, so with a Speedometer it is scaled like
    them; `round_s` is raw wall time."""
    setup, make_items, _ = wl
    r = {"setup_s": [], "pass_s": [], "round_s": [], "item_s": [],
         "raw_pass_s": [], "summaries": [], "attempted": 0, "failed": 0}
    first = state = reference = None
    deterministic = True
    t_start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.reset()
        t0 = time.perf_counter()
        round_state, setup_s = timed_setup(setup, seed, speed)
        items = make_items(round_state)
        results, times, nfail = run_pass(items, expected, tracer, speed)
        t3 = time.perf_counter()
        r["setup_s"].append(setup_s)
        r["pass_s"].append(sum(times))
        if speed is not None:
            r["raw_pass_s"].append(sum(speed.raw_item_s[-len(times):]))
        r["round_s"].append(t3 - t0)
        r["item_s"] += times
        r["attempted"] += len(items)
        r["failed"] += nfail
        if tracer is not None:
            r["summaries"].append(tracer.summary())
        if first is None:
            first, state = results, round_state
            reference = _fingerprint(results)
        elif _fingerprint(results) != reference:
            deterministic = False
        if _budget_spent(t_start, r["round_s"], seconds):
            break
    r.update(first=first, state=state, deterministic=deterministic)
    return r


def check(wl, r):
    """Faults found by the workload's check and the repeat check."""
    errs = wl[2](r["state"], r["first"])
    if not r["deterministic"]:
        errs.append("a later pass did not reproduce the first pass")
    return errs


def untraced_metrics(wl, seed, r, speed):
    """End-to-end metrics; set-up is topped up to SETUP_MIN samples."""
    while len(r["setup_s"]) < SETUP_MIN:
        r["setup_s"].append(timed_setup(wl[0], seed, speed)[1])
    metrics = {
        "setup_s": (statistics.median(r["setup_s"]), "s"),
        "run_s": (statistics.median(r["pass_s"]), "s"),
        "item_p50_ms": (1000 * statistics.median(r["item_s"]), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }
    detail = {"setup_s": r["setup_s"], "pass_s": r["pass_s"],
              "item_tail": tail_ms(r["item_s"]),
              "raw_setup_s": speed.raw_setup_s,
              "raw_pass_s": r["raw_pass_s"],
              "raw_round_s": r["round_s"],
              "raw_item_tail": tail_ms(speed.raw_item_s),
              "raw_item_p50_ms": 1000 * statistics.median(speed.raw_item_s),
              "kernel_s": speed.samples}
    return metrics, detail


def traced_metrics(spans, r):
    """Median per round of every per-layer metric."""
    metrics = {name: (statistics.median(s[name] for s in r["summaries"]),
                      unit)
               for name, unit in spans.metric_specs()}
    detail = {"traced_pass_s": r["pass_s"], "rounds": r["summaries"]}
    return metrics, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        spans, workloads = _import_program()
    except ImportError as exc:
        print("bench: cannot import the program: %s" % exc, file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        ap.error("unknown workload %r (choose from %s)"
                 % (args.workload, ", ".join(workloads.WORKLOADS)))
    wl = workloads.WORKLOADS[args.workload]
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
        try:
            r = run_rounds(wl, workloads.EXPECTED_FAILURES, args.seed,
                           args.seconds, tracer)
        finally:
            tracer.uninstall()
        metrics, detail = traced_metrics(spans, r)
    else:
        speed = Speedometer()
        r = run_rounds(wl, workloads.EXPECTED_FAILURES, args.seed,
                       args.seconds, speed=speed)
        metrics, detail = untraced_metrics(wl, args.seed, r, speed)
    errs, attempted, failed = check(wl, r), r["attempted"], r["failed"]
    for e in errs:
        print("bench: check failed: %s" % e, file=sys.stderr)
    result = {
        "correct": not errs,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u}
                    for name, (v, u) in metrics.items()},
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, "%s-seed%d-trace%d.json" % (
            args.workload, args.seed, args.trace)), "w") as fh:
        json.dump({"args": vars(args), "result": result, "detail": detail,
                   "errors": errs}, fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0 if not errs else 1


if __name__ == "__main__":
    sys.exit(main())
