#!/usr/bin/env python3
"""Benchmark of the figure pipeline: how long regenerating the paper's
figures takes, end to end and layer by layer. See perfbench/README.md.

  python3 perfbench/run.py --workload NAME|all [--seed N] [--seconds S]
                           [--trace 0|1]
  python3 perfbench/run.py --compare BASE_DIR NEW_DIR

Builds the figure binaries and the layer probe from source into
.bench_build/perfbench, then either times the shipped binaries with their
default serial flags (--trace 0: wall_s, setup_s, sim_mips, peak_rss_mb)
or makes one traced pass that times every layer from outside
(--trace 1). Every output is checked; the last stdout line is one JSON
object with correct/attempted/failed/metrics. Each run also leaves a
result record with the host fingerprint in .bench_build/results/, and
--compare compares two directories of such records.
"""

import argparse
import collections
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import benchlib as bl

ROOT = Path(__file__).resolve().parent.parent
BENCH_BUILD = ROOT / ".bench_build"
BUILD = BENCH_BUILD / "perfbench"
WORK = BENCH_BUILD / "work"
RESULTS = BENCH_BUILD / "results"

KERNELS = ["SNP", "SVM-RFE", "MDS", "SHOT", "FIMI", "VIEWTYPE", "PLSA",
           "RSEARCH"]
# The seed the committed references (tests/golden, results/) were made at.
REFERENCE_SEED = 42
# Every run ends well inside the 180 s a run may take.
RUN_LIMIT_S = 170.0
# Repetitions per untraced run at least; more while --seconds allows.
MIN_REPS = 2


def figure(exe, fig, args, kernels, digest=None, reference=None):
    """One binary of a workload. @p digest: committed golden stream
    digests (--quick); @p reference: committed CSV at REFERENCE_SEED."""
    return {"exe": exe, "figure": fig, "args": args, "kernels": kernels,
            "digest": digest, "reference": reference}


# Why each workload exists is in BENCHMARK.json and perfbench/README.md.
WORKLOADS = {
    "quick-figures": {
        "scale": 0.05,
        "binaries": [
            figure(exe, fig, ["--quick"], KERNELS,
                   digest=f"tests/golden/{exe}.quick.digest")
            for exe, fig in (("fig4_scmp", "fig4"), ("fig5_mcmp", "fig5"),
                             ("fig6_lcmp", "fig6"),
                             ("fig7_linesize", "fig7"))
        ],
    },
    "size-sweep": {
        "scale": 1.0,
        "binaries": [figure("fig4_scmp", "fig4",
                            ["--scale=1", "--workloads=FIMI"], ["FIMI"],
                            reference="results/fig4_scmp.csv")],
    },
    "line-size-sweep": {
        "scale": 1.0,
        "binaries": [figure("fig7_linesize", "fig7",
                            ["--scale=1", "--workloads=MDS,SHOT"],
                            ["MDS", "SHOT"],
                            reference="results/fig7_linesize.csv")],
    },
    "characterize": {
        "scale": 1.0,
        "binaries": [figure("table2_characteristics", "table2",
                            ["--scale=1"], KERNELS,
                            reference="results/table2.csv")],
    },
}

CONFIGS = ([f"{mb}MB-64B" for mb in (4, 8, 16, 32, 64, 128, 256)] +
           [f"32MB-{line}" for line in ("128B", "256B", "512B", "1KB",
                                        "2KB", "4KB")])

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "sim_mips": "MIPS",
                    "peak_rss_mb": "MB"}

PER_LAYER_UNITS = {
    "workloads.setup_s": "s",
    "softsdv.run_s": "s",
    "softsdv.ns_per_inst": "ns",
    "softsdv.insts": "count",
    "cache.l1_accesses": "count",
    "cache.l1_misses": "count",
    "cache.l2_misses": "count",
    "mem.fsb_txns": "count",
    "mem.delivery_residual_s": "s",
    "dragonhead.observe_s": "s",
    **{f"dragonhead.{c}.ns_per_txn": "ns" for c in CONFIGS},
    **{f"dragonhead.{c}.misses": "count" for c in CONFIGS},
    "trace.encode_ns_per_txn": "ns",
    "trace.decode_ns_per_txn": "ns",
    "trace.bytes_per_txn": "B",
    "core.rig_build_s": "s",
    "harness.overhead_s": "s",
    "perfbench.trace_overhead_s": "s",
}


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------- build

def build(deadline):
    missing = [p for p in ("src/CMakeLists.txt", "bench/fig4_scmp.cc",
                           "results/table2.csv",
                           "tests/golden/fig4_scmp.quick.digest")
               if not (ROOT / p).is_file()]
    if missing:
        raise BenchError("not a cosim source tree; missing "
                         + ", ".join(missing))
    BENCH_BUILD.mkdir(exist_ok=True)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = [["cmake", "--build", str(BUILD), "-j", jobs]]
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.insert(0, ["cmake", "-S", str(ROOT / "perfbench"), "-B",
                         str(BUILD), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    for argv in steps:
        status = run_process(argv, BENCH_BUILD / "build.log",
                             BENCH_BUILD / "build.log", deadline,
                             append=True)[2]
        if status != 0:
            tail = (BENCH_BUILD / "build.log").read_text()[-2000:]
            raise BenchError(f"build failed ({' '.join(argv)}):\n{tail}")


# -------------------------------------------------------------- process

def run_process(argv, stdout_path, stderr_path, deadline, append=False):
    """Run @p argv from the checkout root; (wall s, peak RSS MB, exit
    code). Killed at @p deadline (monotonic)."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before " + Path(argv[0]).name)
    mode = "ab" if append else "wb"
    with open(stdout_path, mode) as out:
        err = out if stderr_path == stdout_path else open(stderr_path, mode)
        try:
            t0 = time.perf_counter()
            proc = subprocess.Popen([str(a) for a in argv], cwd=ROOT,
                                    stdout=out, stderr=err)
            killer = threading.Timer(remaining, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                # Interrupted (SIGINT/SIGTERM): leave no child behind.
                proc.kill()
                os.wait4(proc.pid, 0)
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
        finally:
            if err is not out:
                err.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


# ------------------------------------------------------- figure binaries

def run_binary(spec, seed, out, deadline):
    """Run one figure binary; its timings, phases and outputs."""
    out.mkdir(parents=True, exist_ok=True)
    for old in out.iterdir():
        old.unlink()
    exe = spec["exe"]
    argv = [BUILD / exe, *spec["args"], f"--seed={seed}", f"--out={out}",
            f"--manifest={out / 'run.json'}"]
    if spec["digest"]:
        argv.append(f"--digest={out / (exe + '.digest')}")
    wall, rss, status = run_process(argv, out / "stdout.log",
                                    out / "stderr.log", deadline)
    res = {"wall_s": wall, "rss_mb": rss, "status": status,
           "setup_s": None, "run_s": None, "insts": 0, "verified": {}}
    manifest = out / "run.json"
    if status == 0 and manifest.is_file():
        m = json.loads(manifest.read_text())
        phases = {p["name"]: p["seconds"] for p in m["host"]["phases"]}
        res["setup_s"] = phases.get("setup", 0.0)
        res["run_s"] = phases.get("run", 0.0)
        for w in m["workloads"]:
            res["insts"] += w["insts"]
            res["verified"][w["name"]] = w["verified"]
    return res


def csv_name(exe):
    return "table2.csv" if exe == "table2_characteristics" else exe + ".csv"


def check_binary(spec, res, seed, out):
    """({cell: [problems]}, {output name: values}) for one binary run;
    a cell is one kernel of one binary."""
    kernels = spec["kernels"]
    cells = {f"{spec['exe']}/{k}": [] for k in kernels}
    outputs = {}
    if res["status"] != 0:
        fail_all(cells, f"exit status {res['status']}")
        return cells, outputs
    csv_path = out / csv_name(spec["exe"])
    try:
        _, table = bl.read_csv_table(csv_path)
    except (OSError, ValueError) as e:
        table = {}
        fail_all(cells, f"unreadable CSV: {e}")
    digests = {}
    if spec["digest"]:
        try:
            digests = bl.read_digest(out / (spec["exe"] + ".digest"))
        except (OSError, ValueError) as e:
            fail_all(cells, f"unreadable digest: {e}")
    golden = (bl.read_digest(ROOT / spec["digest"])
              if spec["digest"] else {})
    for k in kernels:
        cell = cells[f"{spec['exe']}/{k}"]
        if k not in table:
            cell.append("no CSV row")
        if spec["exe"] != "table2_characteristics" and \
                not res["verified"].get(k, False):
            cell.append("verified=false")
        outputs[f"{spec['exe']}/{k}"] = {"csv": table.get(k),
                                         "digest": digests.get(k)}
        if seed != REFERENCE_SEED:
            continue
        if spec["digest"]:
            cell.extend(bl.compare_digest(digests, golden, k))
        if spec["reference"] and k in table:
            cell.extend(bl.compare_csv(csv_path, ROOT / spec["reference"],
                                       [k]))
    return cells, outputs


def run_probe(spec, scale, seed, out, deadline, setup_only=False,
              trace_out=None):
    argv = [BUILD / "layer_probe", f"--figure={spec['figure']}",
            f"--scale={scale}", f"--seed={seed}",
            "--workloads=" + ",".join(spec["kernels"])]
    if setup_only:
        argv.append("--setup-only")
    if trace_out:
        argv.append(f"--trace-out={trace_out}")
    stdout = out / "probe.json"
    status = run_process(argv, stdout, out / "probe.log", deadline)[2]
    if status != 0:
        log(f"layer_probe failed for {spec['exe']}: "
            + (out / "probe.log").read_text()[-1000:])
        return None
    return json.loads(stdout.read_text())


def fail_all(cells, problem):
    for problems in cells.values():
        problems.append(problem)


# ------------------------------------------------------------- untraced

def run_rep(name, seed, deadline):
    """Regenerate @p name's outputs once; the rep's figures."""
    wl = WORKLOADS[name]
    rep = {"wall_s": 0.0, "setup_s": 0.0, "insts": 0, "rss_mb": 0.0,
           "cells": {}, "outputs": {}}
    for spec in wl["binaries"]:
        out = WORK / name / spec["exe"]
        res = run_binary(spec, seed, out, deadline)
        cells, outputs = check_binary(spec, res, seed, out)
        rep["cells"].update(cells)
        rep["outputs"].update(outputs)
        rep["wall_s"] += res["wall_s"]
        rep["rss_mb"] = max(rep["rss_mb"], res["rss_mb"])
        if spec["exe"] == "table2_characteristics":
            # Table 2 writes no run.json: the probe makes its set-up
            # calls, and its instruction count is in the CSV.
            probe = run_probe(spec, wl["scale"], seed, out, deadline,
                              setup_only=True)
            if probe is None:
                fail_all(cells, "layer_probe --setup-only failed")
            else:
                rep["setup_s"] += probe["create_s"] + probe["setup_s"]
            rep["insts"] += sum(int(float(v["csv"][1]))
                                for v in outputs.values() if v["csv"])
        else:
            rep["setup_s"] += res["setup_s"] or 0.0
            rep["insts"] += res["insts"]
    rep["fingerprint"] = bl.fingerprint_outputs(rep["outputs"])
    return rep


def aggregate(reps):
    """End-to-end metrics of a run's repetitions (medians), and the
    per-rep samples behind them."""
    samples = {
        "wall_s": [r["wall_s"] for r in reps],
        "setup_s": [r["setup_s"] for r in reps],
        "peak_rss_mb": [r["rss_mb"] for r in reps],
    }
    metrics = {m: statistics.median(v) for m, v in samples.items()}
    # The instruction count repeats exactly; the rate is instructions
    # / (wall_s - setup_s) of the reported medians.
    metrics["sim_mips"] = (statistics.median([r["insts"] for r in reps])
                           / (metrics["wall_s"] - metrics["setup_s"]) / 1e6)
    return {m: metrics[m] for m in END_TO_END_UNITS}, samples


def measure(name, seed, seconds, deadline):
    t0 = time.monotonic()
    reps = []
    while True:
        r0 = time.monotonic()
        reps.append(run_rep(name, seed, deadline))
        now = time.monotonic()
        last = now - r0
        # Another rep may overrun --seconds by half a rep, so a rep time
        # near seconds/n does not flip the rep count between runs.
        if len(reps) >= MIN_REPS and now - t0 + last / 2 > seconds:
            break
        if now + last > deadline:
            break
    # Outputs are deterministic: every rep must match the first.
    for rep in reps[1:]:
        if rep["fingerprint"] != reps[0]["fingerprint"]:
            for cell in rep["cells"].values():
                cell.append("output differs from the first repetition")
    metrics, samples = aggregate(reps)
    cells = {}
    for i, rep in enumerate(reps):
        for label, problems in rep["cells"].items():
            cells[f"rep{i}/{label}"] = problems
    return metrics, END_TO_END_UNITS, cells, {
        "reps": len(reps), "samples": samples,
        "output_fingerprint": reps[0]["fingerprint"],
        "outputs": reps[0]["outputs"]}


# --------------------------------------------------------------- traced

def probe_column(fig, column):
    """Figure CSV column ("4MB", "1KB") -> probe configuration name."""
    return f"32MB-{column}" if fig == "fig7" else f"{column}-64B"


# Probe totals that add up across a workload's binaries.
PROBE_SUMS = ("create_s", "setup_s", "run_span_s", "encode_s", "decode_s",
              "rig_build_s", "insts", "l1_accesses", "l1_misses",
              "l2_misses", "fsb_txns", "stream_bytes", "spans")


def traced(name, seed, deadline):
    """One pass: each binary untraced (its run phase and wall), then the
    probe timing every layer of the same work from outside."""
    wl = WORKLOADS[name]
    tot = collections.Counter()
    per_cfg = {c: collections.Counter() for c in CONFIGS}
    cells = {}
    outputs = {}
    for spec in wl["binaries"]:
        out = WORK / name / spec["exe"]
        res = run_binary(spec, seed, out, deadline)
        bin_cells, bin_outputs = check_binary(spec, res, seed, out)
        cells.update(bin_cells)
        outputs.update(bin_outputs)
        p = run_probe(spec, wl["scale"], seed, out, deadline,
                      trace_out=out / "layers.trace.json")
        if p is None:
            fail_all(bin_cells, "layer_probe failed")
            continue
        for k in PROBE_SUMS:
            tot[k] += p[k]
        for cfg, c in p["configs"].items():
            per_cfg[cfg]["observe_s"] += c["observe_s"]
            per_cfg[cfg]["misses"] += c["misses"]
            if c["in_figure"]:
                tot["observe_s"] += c["observe_s"]
        if res["run_s"] is None:
            # No run.json (Table 2 writes none); the probe made the
            # same calls.
            run_phase = p["profiler_run_s"] - p["encode_s"]
            setup_phase = p["profiler_setup_s"]
        else:
            run_phase, setup_phase = res["run_s"], res["setup_s"]
        tot["run_phase_s"] += run_phase
        tot["overhead_s"] += res["wall_s"] - setup_phase - run_phase
        tot["wall_s"] += res["wall_s"]
        tot["trace_overhead_s"] += p["spans"] * p["span_cost_s"]

        # The probe replays the recorded stream through fresh emulators;
        # their MPKI must equal the live figure's, exactly.
        if not p["verified"]:
            fail_all(bin_cells, "probe run failed verification")
        if spec["figure"] == "table2" or not bin_outputs:
            continue
        try:
            header, _ = bl.read_csv_table(out / csv_name(spec["exe"]))
        except (OSError, ValueError):
            continue  # already a failed cell
        for k in spec["kernels"]:
            row = bin_outputs[f"{spec['exe']}/{k}"]["csv"] or []
            mpki = p["mpki"].get(k, {})
            for col, value in zip(header[1:], row):
                want = mpki.get(probe_column(spec["figure"], col))
                if want != value:
                    bin_cells[f"{spec['exe']}/{k}"].append(
                        f"probe {col} MPKI {want} != {value}")
    txns = max(tot["fsb_txns"], 1)
    softsdv = tot["run_span_s"] - tot["setup_s"] - tot["encode_s"]
    metrics = {
        "workloads.setup_s": tot["create_s"] + tot["setup_s"],
        "softsdv.run_s": softsdv,
        "softsdv.ns_per_inst": softsdv / max(tot["insts"], 1) * 1e9,
        "softsdv.insts": tot["insts"],
        "cache.l1_accesses": tot["l1_accesses"],
        "cache.l1_misses": tot["l1_misses"],
        "cache.l2_misses": tot["l2_misses"],
        "mem.fsb_txns": tot["fsb_txns"],
        "mem.delivery_residual_s": bl.delivery_residual(
            tot["run_phase_s"], softsdv, tot["observe_s"]),
        "dragonhead.observe_s": tot["observe_s"],
        **{f"dragonhead.{c}.ns_per_txn": per_cfg[c]["observe_s"] / txns * 1e9
           for c in CONFIGS},
        **{f"dragonhead.{c}.misses": per_cfg[c]["misses"] for c in CONFIGS},
        "trace.encode_ns_per_txn": tot["encode_s"] / txns * 1e9,
        "trace.decode_ns_per_txn": tot["decode_s"] / txns * 1e9,
        "trace.bytes_per_txn": tot["stream_bytes"] / txns,
        "core.rig_build_s": tot["rig_build_s"],
        "harness.overhead_s": tot["overhead_s"],
        "perfbench.trace_overhead_s": tot["trace_overhead_s"],
    }
    info = {"spans": tot["spans"],
            "trace_overhead_share": (tot["trace_overhead_s"]
                                     / max(tot["wall_s"], 1e-9)),
            "output_fingerprint": bl.fingerprint_outputs(outputs),
            "outputs": outputs}
    return metrics, PER_LAYER_UNITS, cells, info


# ------------------------------------------------------------ reporting

def paper_error(outputs):
    """Table 2 model error against the paper's hardware counters."""
    errors = {}
    for label, v in outputs.items():
        row = v.get("csv")
        if not label.startswith("table2_characteristics/") or not row:
            continue
        vals = [float(x) for x in row]
        # ipc, insts, mem_pct, read_pct, dl1_apki, dl1_mpki, dl2_mpki,
        # paper_ipc, paper_dl1_mpki, paper_dl2_mpki
        errors[label.split("/", 1)[1]] = {
            "ipc": bl.relative_error(vals[0], vals[7]),
            "dl1_mpki": bl.relative_error(vals[5], vals[8]),
            "dl2_mpki": bl.relative_error(vals[6], vals[9]),
        }
    return errors


def report(name, seed, trace, metrics, units, cells, info, fingerprint):
    failed = sum(1 for p in cells.values() if p)
    print(f"== {name}  seed={seed}  trace={trace}  "
          f"cells attempted={len(cells)} failed={failed}")
    for label, problems in sorted(cells.items()):
        for p in problems:
            print(f"   FAIL {label}: {p}")
    for m, v in metrics.items():
        shown = f"{v:>16.0f}" if units[m] == "count" else f"{v:>16.6f}"
        print(f"   {m:<34} {shown} {units[m]}")
    if "reps" in info:
        print(f"   repetitions: {info['reps']} (medians reported)")
    else:
        print(f"   layer-probe spans: {info['spans']}, tracing overhead "
              f"{info['trace_overhead_share']:.3%} of the binaries' "
              f"untraced wall time")
    print(f"   output fingerprint: {info['output_fingerprint']}")
    if name == "characterize":
        print("   model vs paper Table 2 hardware counters "
              "(relative error, reported, never gated):")
        for k, e in paper_error(info["outputs"]).items():
            print("     " + k.ljust(9) + "  ".join(
                f"{m} {v:+.0%}" for m, v in e.items()))
    else:
        print("   fig4-7 have no hardware reference; the model is "
              "unvalidated there")
    host = ", ".join(f"{k}={v}" for k, v in fingerprint.items())
    print(f"   host: {host}")

    RESULTS.mkdir(parents=True, exist_ok=True)
    record = RESULTS / f"{name}-seed{seed}-trace{trace}.json"
    body = {"schema": "cosim-perfbench/1", "workload": name, "seed": seed,
            "trace": trace, "host": fingerprint,
            "metrics": {m: {"value": v, "unit": units[m]}
                        for m, v in metrics.items()},
            "attempted": len(cells), "failed": failed,
            "failures": {k: p for k, p in cells.items() if p},
            "output_fingerprint": info["output_fingerprint"],
            "samples": info.get("samples"),
            "paper_error": (paper_error(info["outputs"])
                            if name == "characterize" else None)}
    record.write_text(json.dumps(body, indent=1) + "\n")
    print(f"   record: {record.relative_to(ROOT)}")
    return failed


def compare(base_dir, new_dir):
    """Median of each metric per workload in two record directories."""
    def load(d):
        recs = [json.loads(p.read_text()) for p in sorted(Path(d).glob(
            "*.json"))]
        if not recs:
            raise BenchError(f"no records in {d}")
        return recs
    base, new = load(base_dir), load(new_dir)
    for r in base + new:
        bad = bl.fingerprint_mismatch(base[0]["host"], r["host"])
        if bad:
            raise BenchError("refusing to compare: host fingerprints "
                             "differ on " + ", ".join(bad))
    groups = {}
    for side, recs in (("base", base), ("new", new)):
        for r in recs:
            g = groups.setdefault((r["workload"], r["trace"]), {})
            for m, v in r["metrics"].items():
                g.setdefault(m, {"base": [], "new": [],
                                 "unit": v["unit"]})[side].append(v["value"])
    for (wl, trace), g in sorted(groups.items()):
        print(f"== {wl} trace={trace}")
        for m, v in g.items():
            if not v["base"] or not v["new"]:
                continue
            b = statistics.median(v["base"])
            n = statistics.median(v["new"])
            change = (n - b) / b if b else float("nan")
            print(f"   {m:<34} {b:>14.6f} -> {n:>14.6f} {v['unit']:<6} "
                  f"{change:+.2%}  IQR/median {bl.spread(v['base']):.1%}"
                  f" -> {bl.spread(v['new']):.1%}"
                  f"  (n={len(v['base'])}/{len(v['new'])})")
    seeds = {}
    for side, recs in (("base", base), ("new", new)):
        for r in recs:
            seeds.setdefault((r["workload"], r["seed"]), {}).setdefault(
                side, set()).add(r["output_fingerprint"])
    same = all(s.get("base") == s.get("new") for s in seeds.values()
               if len(s) == 2)
    print("outputs identical at every shared seed: "
          + ("yes" if same else "NO"))
    return 0 if same else 1


# ----------------------------------------------------------------- main

def run_one(name, seed, seconds, trace, deadline):
    if trace:
        metrics, units, cells, info = traced(name, seed, deadline)
    else:
        metrics, units, cells, info = measure(name, seed, seconds, deadline)
    fingerprint = bl.host_fingerprint(str(ROOT), str(BUILD))
    failed = report(name, seed, trace, metrics, units, cells, info,
                    fingerprint)
    return metrics, units, len(cells), failed


def main(argv):
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=REFERENCE_SEED)
    ap.add_argument("--seconds", type=float, default=26.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--compare", nargs=2, metavar=("BASE_DIR", "NEW_DIR"))
    args = ap.parse_args(argv)
    try:
        if args.compare:
            return compare(*args.compare)
        if not args.workload:
            ap.error("--workload is required")
        start = time.monotonic()
        build(start + 900.0)
        names = list(WORKLOADS) if args.workload == "all" else \
            [args.workload]
        results = {}
        attempted = failed = 0
        for name in names:
            deadline = time.monotonic() + RUN_LIMIT_S
            metrics, units, n, f = run_one(name, args.seed, args.seconds,
                                           args.trace, deadline)
            attempted += n
            failed += f
            for m, v in metrics.items():
                key = m if len(names) == 1 else f"{name}.{m}"
                results[key] = {"value": v, "unit": units[m]}
    except BenchError as e:
        log(f"perfbench: {e}")
        return 2
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
