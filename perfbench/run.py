#!/usr/bin/env python3
"""The repository benchmark: host time and memory of the simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. It builds `csap_cli` and the
in-process runner (perfbench/harness) with dune in the release profile
under .bench_build/, generates the workload's inputs from the seed,
measures for S seconds and prints report lines followed by one JSON
result line. --trace 0 prints the end-to-end metrics, --trace 1 the
per-layer metrics. See perfbench/README.md for the workloads, metrics
and what each layer figure should move.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

import gen  # noqa: E402
import metrics  # noqa: E402
import stats  # noqa: E402

ROOT = os.getcwd()
BUILD_DIR = os.path.join(ROOT, ".bench_build", "dune")
HARNESS_TARGET = os.path.join(os.path.relpath(HERE, ROOT), "harness",
                              "bench_trace.exe")
CLI = os.path.join(BUILD_DIR, "default", "bin", "csap_cli.exe")
HARNESS = os.path.join(BUILD_DIR, "default", HARNESS_TARGET)

BUILD_LIMIT_S = 850
RUN_LIMIT_S = 170
CLI_START_SAMPLES = 15


class BenchError(Exception):
    pass


def ratio(num, den):
    return num / den if den else 0.0


def say(line):
    print(line, flush=True)


# ---------------------------------------------------------------------
# Child processes

def run_child(args, deadline, workdir):
    """Run args to completion with stdout piped and stderr in a file,
    killing it at the deadline. Returns its output lines, stderr, exit
    code and peak RSS (from its rusage), and the times it was spawned,
    printed its first line and exited."""
    err_path = os.path.join(workdir, "stderr.txt")
    with open(err_path, "w") as err:
        spawn_wall = time.time()
        spawn_perf = time.perf_counter()
        p = subprocess.Popen(args, stdout=subprocess.PIPE, stderr=err,
                             text=True, cwd=workdir)
    timer = threading.Timer(max(0.0, deadline - time.perf_counter()),
                            p.kill)
    timer.start()
    try:
        lines = []
        first_perf = None
        for line in p.stdout:
            if first_perf is None:
                first_perf = time.perf_counter()
            lines.append(line.rstrip("\n"))
        p.stdout.close()
        _, status, rusage = os.wait4(p.pid, 0)
        exit_perf = time.perf_counter()
        p.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
        if p.returncode is None:
            p.kill()
            p.wait()
    if exit_perf > deadline:
        raise BenchError("timed out: %s" % " ".join(args))
    with open(err_path) as f:
        err_text = f.read()
    return {"lines": lines, "stderr": err_text, "code": p.returncode,
            "rss_mb": rusage.ru_maxrss / 1024.0, "spawn_wall": spawn_wall,
            "spawn_perf": spawn_perf, "first_perf": first_perf,
            "exit_perf": exit_perf}


def build():
    """Build the CLI and the in-process runner from this checkout."""
    for need in ("dune-project", os.path.join("bin", "csap_cli.ml"), "lib"):
        if not os.path.exists(os.path.join(ROOT, need)):
            raise BenchError("not a source checkout: %s is missing" % need)
    os.makedirs(os.path.dirname(BUILD_DIR), exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        p = subprocess.run(
            ["dune", "build", "--root", ROOT, "--profile", "release",
             "--build-dir", BUILD_DIR, "./bin/csap_cli.exe",
             "./" + HARNESS_TARGET],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=BUILD_LIMIT_S)
    except FileNotFoundError:
        raise BenchError("dune is not installed")
    if p.returncode != 0:
        raise BenchError("build failed:\n" + p.stderr[-4000:])


# ---------------------------------------------------------------------
# Sweeps: one `csap_cli sweep -j <cpus>` process per batch

def workers():
    return len(os.sched_getaffinity(0))


def read_jsonl(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def sweep_batch(cells_path, ncells, farm_dir, deadline, workdir):
    r = run_child([CLI, "sweep", "--dir", farm_dir, "--cells", cells_path,
                   "-j", str(workers()), "--quiet"], deadline, workdir)
    # Exit 1 means "some cells failed"; those are counted, not fatal.
    if r["code"] not in (0, 1):
        raise BenchError("sweep exited %d: %s" % (r["code"], r["stderr"]))
    started = [e["at"] for e in read_jsonl(os.path.join(farm_dir,
                                                        "events.jsonl"))
               if e["event"] == "started"]
    results = {}
    res_dir = os.path.join(farm_dir, "results")
    for name in os.listdir(res_dir):
        with open(os.path.join(res_dir, name)) as f:
            rec = json.load(f)
        results[rec["id"]] = rec
    if sorted(results) != list(range(ncells)):
        raise BenchError("sweep left %d of %d result files"
                         % (len(results), ncells))
    done = [rec for rec in results.values() if rec["state"] == "done"]
    return {
        "wall_s": r["exit_perf"] - r["spawn_perf"],
        "setup_s": min(started) - r["spawn_wall"],
        "rss_mb": r["rss_mb"],
        "results": results,
        "cell_ms": [rec["wall_ms"] for rec in results.values()],
        "sim_msgs": sum(rec["messages"] for rec in done),
        "sim_s": sum(rec["wall_ms"] for rec in done) / 1000.0,
    }


# ---------------------------------------------------------------------
# run-large: one `csap_cli run ... --check` at a time

MEASURES = re.compile(r"^\S+\s+comm=(\d+) time=(\S+) msgs=(\d+)$")
TRANSPORT = re.compile(r"^transport: retransmissions=(\d+)")


def run_instance(c, deadline, workdir):
    r = run_child([CLI] + gen.run_args(c), deadline, workdir)
    graph_seen = bool(r["lines"]) and r["lines"][0].startswith("graph:")
    sim_start = r["first_perf"] if graph_seen else r["exit_perf"]
    rec = {"state": "failed", "code": r["code"],
           "error": (r["stderr"].strip().splitlines() or [""])[-1]}
    if r["code"] == 0:
        m = [MEASURES.match(line) for line in r["lines"]]
        m = [x for x in m if x]
        if len(m) != 1 or "invariant: ok" not in r["lines"]:
            raise BenchError("unexpected `csap_cli run` output: %r"
                             % r["lines"])
        retx = [int(t.group(1)) for t in map(TRANSPORT.match, r["lines"])
                if t]
        rec = {"state": "done", "comm": int(m[0].group(1)),
               "time": float(m[0].group(2)), "messages": int(m[0].group(3)),
               "retransmissions": retx[0] if retx else 0}
    return {
        "setup_s": sim_start - r["spawn_perf"],
        "sim_s": r["exit_perf"] - sim_start,
        "cell_ms": (r["exit_perf"] - r["spawn_perf"]) * 1000.0,
        "rss_mb": r["rss_mb"],
        "result": rec,
    }


def run_loop(cells, deadline, workdir):
    t0 = time.perf_counter()
    runs = [run_instance(c, deadline, workdir) for c in cells]
    done = [r for r in runs if r["result"]["state"] == "done"]
    return {
        "wall_s": time.perf_counter() - t0,
        "setup_s": sum(r["setup_s"] for r in runs),
        "rss_mb": max(r["rss_mb"] for r in runs),
        "results": {i: r["result"] for i, r in enumerate(runs)},
        "cell_ms": [r["cell_ms"] for r in runs],
        "sim_msgs": sum(r["result"]["messages"] for r in done),
        "sim_s": sum(r["sim_s"] for r in done),
    }


# ---------------------------------------------------------------------
# Correctness: determinism across batches, parity with the in-process run

def same_outcome(a, b, cli_time):
    """Farm/CLI record a against in-process record b. `csap_cli run`
    prints time with one decimal, so its time is compared at that
    precision; the farm's result files carry every digit."""
    if a["state"] != b["state"]:
        return False
    if a["state"] != "done":
        return a["code"] == b["code"]
    if cli_time:
        time_ok = "%.1f" % b["time"] == "%.1f" % a["time"]
    else:
        time_ok = float(a["time"]) == float(b["time"])
    return (time_ok and a["comm"] == b["comm"]
            and a["messages"] == b["messages"]
            and a["retransmissions"] == b["retransmissions"])


def check_parity(reference, inproc, cells, cli_time):
    bad = [i for i in range(len(cells))
           if i not in inproc or not same_outcome(reference[i], inproc[i],
                                                  cli_time)]
    for i in bad:
        say("parity MISMATCH cell %d: program %s, in-process %s; cell %s"
            % (i, stats.sim_key(reference[i]),
               stats.sim_key(inproc[i]) if i in inproc else "missing",
               json.dumps(cells[i])))
    say("parity %s: %d/%d cells agree with the in-process run"
        % ("ok" if not bad else "FAILED", len(cells) - len(bad), len(cells)))
    return not bad


def harness(mode, cells_path, deadline, workdir):
    args = [HARNESS, mode, cells_path] + ([workdir] if mode == "trace"
                                          else [])
    r = run_child(args, deadline, workdir)
    if r["code"] != 0:
        raise BenchError("in-process runner exited %d: %s"
                         % (r["code"], r["stderr"]))
    recs = [json.loads(line) for line in r["lines"]]
    results = {x["cell"]: x for x in recs if x["kind"] == "result"}
    spans = [x for x in recs if x["kind"] == "span"]
    return results, spans


def report_failures(results, cells):
    for i in sorted(results):
        rec = results[i]
        if rec["state"] != "done":
            say("failed-cell exit=%d error=%s cell=%s"
                % (rec["code"], json.dumps(rec.get("error")),
                   json.dumps(cells[i])))


def known_defects(deadline, workdir):
    """Run the fixed known-defect cells once through `csap_cli run` and
    once in-process, outside the timed window, and list each with its
    exit class. Returns (parity ok, cells failed, cells run)."""
    cells = gen.KNOWN_DEFECTS
    probe_dir = os.path.join(workdir, "defects")
    os.makedirs(probe_dir)
    probe_path = os.path.join(probe_dir, "cells.jsonl")
    with open(probe_path, "w") as f:
        f.write(gen.to_jsonl(cells))
    program = {i: run_instance(c, deadline, probe_dir)["result"]
               for i, c in enumerate(cells)}
    inproc, _ = harness("parity", probe_path, deadline, probe_dir)
    say("known defects, run outside the timed window:")
    parity = check_parity(program, inproc, cells, cli_time=True)
    failed = 0
    for i, c in enumerate(cells):
        rec = program[i]
        if rec["state"] == "done":
            say("known-defect fixed: cell=%s" % json.dumps(c))
        else:
            failed += 1
            say("known-defect exit=%d error=%s cell=%s"
                % (rec["code"], json.dumps(rec["error"]), json.dumps(c)))
    return parity, failed, len(cells)


# ---------------------------------------------------------------------
# Untraced run: end-to-end metrics

def untraced(workload, cells, cells_path, seconds, deadline, workdir):
    sweep = workload != "run-large"
    batches = []
    t0 = time.perf_counter()
    # Start another batch while at least half of one still fits in the
    # window, so a run ends within half a batch of --seconds.
    while (not batches or time.perf_counter() - t0
           + batches[-1]["wall_s"] / 2 < seconds):
        if sweep:
            farm_dir = os.path.join(workdir, "farm-%d" % len(batches))
            b = sweep_batch(cells_path, len(cells), farm_dir, deadline,
                            workdir)
            shutil.rmtree(farm_dir)
        else:
            b = run_loop(cells, deadline, workdir)
        batches.append(b)

    first = batches[0]["results"]
    deterministic = all(
        stats.sim_key(b["results"][i]) == stats.sim_key(first[i])
        for b in batches for i in first)
    say("determinism %s: %d batches of %d cells"
        % ("ok" if deterministic else "FAILED", len(batches), len(cells)))
    inproc, _ = harness("parity", cells_path, deadline, workdir)
    parity = check_parity(first, inproc, cells, cli_time=not sweep)
    report_failures(first, cells)
    say("digest sim-stats sha256:%s" % stats.digest(first))
    defects_ok, defects_failed, defects_n = known_defects(deadline, workdir)

    nb = len(batches)
    say("batch walls s: %s"
        % " ".join("%.3f" % b["wall_s"] for b in batches))
    cell_ms = [x for b in batches for x in b["cell_ms"]]
    failed = sum(1 for b in batches for r in b["results"].values()
                 if r["state"] != "done")
    attempted = nb * len(cells)
    values = {
        "cells_per_s": (stats.median([len(cells) / b["wall_s"]
                                      for b in batches]), nb, "batches"),
        "sim_msgs_per_s": (stats.median([ratio(b["sim_msgs"], b["sim_s"])
                                         for b in batches]), nb, "batches"),
        "cell_ms_p50": (stats.median(cell_ms), len(cell_ms), "cells"),
        "setup_s": (stats.median([b["setup_s"] for b in batches]), nb,
                    "batches"),
        "peak_rss_mb": (max(b["rss_mb"] for b in batches),
                        nb if sweep else attempted, "processes"),
    }
    units = {name: unit for name, unit, _, _ in metrics.END_TO_END}
    for name, (v, n, what) in values.items():
        say("metric %s = %.6g %s (n=%d %s)" % (name, v, units[name], n, what))
    p90 = stats.percentile(cell_ms, 90)
    if p90:
        say("metric cell_ms_p90 = %.6g ms (n=%d cells, %d beyond)"
            % (p90[0], p90[2], p90[1]))
    else:
        say("metric cell_ms_p90 not reported: n=%d cells, fewer than %d "
            "beyond it" % (len(cell_ms), stats.MIN_BEYOND))
    say("metric cells_failed_frac = %.6g frac (n=%d cells, %d failed: "
        "%d of %d timed, %d of %d known-defect)"
        % ((failed + defects_failed) / (attempted + defects_n),
           attempted + defects_n, failed + defects_failed, failed,
           attempted, defects_failed, defects_n))
    out = {name: {"value": values[name][0], "unit": units[name]}
           for name, _, _, _ in metrics.END_TO_END}
    return deterministic and parity and defects_ok, attempted, failed, out


# ---------------------------------------------------------------------
# Traced run: per-layer metrics from the in-process runner's spans

def span_ms(s):
    return (s["t1"] - s["t0"]) * 1000.0


def layer_metrics(spans, entry_spans, cli_start_ms):
    by = {}
    for s in spans:
        by.setdefault(s["span"], []).append(s)

    def total(name, field=None):
        return sum(span_ms(s) if field is None else s[field]
                   for s in by.get(name, []))

    out = {}
    build_ms = total("Cell.graph")
    out["graph.build_ms"] = build_ms
    out["graph.edges_per_s"] = ratio(total("Cell.graph", "m"),
                                     build_ms / 1000.0)
    out["graph.words_per_edge"] = ratio(total("Cell.graph", "words"),
                                        total("Cell.graph", "m"))

    params_ms = total("Params.compute")
    domains = max([s["domains"] for s in by.get("Params.compute", [])] or [1])
    out["params.compute_ms"] = params_ms
    out["params.sources_per_s"] = ratio(total("Params.compute", "sources"),
                                        params_ms / 1000.0)
    out["params.pool_busy_frac"] = ratio(total("Params.compute", "busy_ms"),
                                         params_ms * domains)

    noop_msgs = total("Engine.run", "messages")
    out["engine.noop_ns_per_msg"] = ratio(total("Engine.run") * 1e6,
                                          noop_msgs)
    out["engine.noop_words_per_msg"] = ratio(total("Engine.run", "words"),
                                             noop_msgs)

    execs = by.get("Protocol.execute", [])
    exec_ms = sum(span_ms(s) for s in execs)
    msgs = sum(s["messages"] for s in execs)
    out["protocol.exec_ms"] = exec_ms
    out["protocol.ns_per_msg"] = ratio(exec_ms * 1e6, msgs)
    out["protocol.words_per_msg"] = ratio(sum(s["words"] for s in execs),
                                          msgs)
    for p in metrics.PROTOCOLS:
        mine = [s for s in entry_spans if s["span"] == "Protocol.execute"
                and s["protocol"] == p]
        out["protocol.%s.ns_per_msg" % p] = ratio(
            sum(span_ms(s) for s in mine) * 1e6,
            sum(s["messages"] for s in mine))

    check_ms = total("M.invariant")
    out["oracle.check_ms"] = check_ms
    out["oracle.share"] = ratio(check_ms, exec_ms + check_ms)

    # Shimmed cells against their clean twins (same cell ids).
    twins = {s["cell"]: s for s in by.get("Protocol.execute.clean", [])}
    shim = [s for s in execs if s["cell"] in twins]
    wire = sum(s["messages"] for s in shim)
    out["transport.overhead_x"] = ratio(
        sum(span_ms(s) for s in shim),
        sum(span_ms(twins[s["cell"]]) for s in shim))
    out["transport.wire_msgs_per_app_msg"] = ratio(
        wire, sum(twins[s["cell"]]["messages"] for s in shim))
    out["transport.retx_frac"] = ratio(
        sum(s["retransmissions"] for s in shim), wire)
    out["transport.words_per_wire_msg"] = ratio(
        sum(s["words"] for s in shim), wire)

    codec = by["Cell.codec"][0]
    out["farm.codec_us_per_cell"] = span_ms(codec) * 1000.0 / codec["cells"]
    man = by["Manifest"][0]
    out["farm.manifest_ms_per_cell"] = span_ms(man) / man["cells"]
    farm = by["Farm.sweep"][0]
    out["farm.overhead_ms_per_cell"] = ((span_ms(farm) - farm["cell_ms"])
                                        / farm["cells"])
    out["cli.start_ms"] = cli_start_ms
    return out


def cli_start_ms(deadline, workdir):
    samples = []
    for _ in range(CLI_START_SAMPLES):
        r = run_child([CLI, "list", "--names"], deadline, workdir)
        if r["code"] != 0:
            raise BenchError("`csap_cli list --names` exited %d" % r["code"])
        samples.append((r["exit_perf"] - r["spawn_perf"]) * 1000.0)
    return stats.median(samples)


def traced(workload, seed, cells, cells_path, deadline, workdir):
    sweep = workload != "run-large"
    # The program's own results for these cells, for parity.
    if sweep:
        farm_dir = os.path.join(workdir, "farm")
        reference = sweep_batch(cells_path, len(cells), farm_dir, deadline,
                                workdir)["results"]
    else:
        reference = run_loop(cells, deadline, workdir)["results"]
    inproc, spans = harness("trace", cells_path, deadline, workdir)
    parity = check_parity(reference, inproc, cells, cli_time=not sweep)
    report_failures(inproc, cells)
    say("digest sim-stats sha256:%s" % stats.digest(reference))
    defects_ok, _, _ = known_defects(deadline, workdir)
    # Per-entry figures always come from the seed's sweep-small cells,
    # the one workload every registry entry appears in, so each traced
    # run reports every entry from the same kind of input.
    entry_spans = spans
    if workload != "sweep-small":
        probe_dir = os.path.join(workdir, "entries")
        os.makedirs(probe_dir)
        probe_path = os.path.join(probe_dir, "cells.jsonl")
        with open(probe_path, "w") as f:
            f.write(gen.to_jsonl(gen.sweep_small(seed)))
        _, entry_spans = harness("trace", probe_path, deadline, probe_dir)
    values = layer_metrics(spans, entry_spans,
                           cli_start_ms(deadline, workdir))
    units = {name: unit for name, unit, _ in metrics.PER_LAYER}
    for name, _, _ in metrics.PER_LAYER:
        say("metric %s = %.6g %s" % (name, values[name], units[name]))
    failed = sum(1 for r in inproc.values() if r["state"] != "done")
    out = {name: {"value": values[name], "unit": units[name]}
           for name, _, _ in metrics.PER_LAYER}
    return parity and defects_ok, len(cells), failed, out


# ---------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    workdir = os.path.join(ROOT, ".bench_build",
                           "work-%s-%d" % (args.workload, os.getpid()))
    try:
        build()
        deadline = time.perf_counter() + RUN_LIMIT_S
        os.makedirs(workdir)
        cells = gen.WORKLOADS[args.workload](args.seed)
        cells_path = os.path.join(workdir, "cells.jsonl")
        with open(cells_path, "w") as f:
            f.write(gen.to_jsonl(cells))
        say("workload %s seed %d: %d cells, %d workers, trace %d"
            % (args.workload, args.seed, len(cells), workers(), args.trace))
        if args.trace:
            correct, attempted, failed, out = traced(
                args.workload, args.seed, cells, cells_path, deadline,
                workdir)
        else:
            correct, attempted, failed, out = untraced(
                args.workload, cells, cells_path, args.seconds, deadline,
                workdir)
    except BenchError as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
