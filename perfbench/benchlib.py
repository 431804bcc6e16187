"""Pure helpers of the benchmark: statistics, output references, layer
arithmetic, host fingerprints. Nothing here runs a program, so the
self-tests in perfbench/tests/ exercise all of it directly."""

import csv
import glob
import hashlib
import json
import os
import re
import statistics
import subprocess

NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")

# Host properties two results must share before they are compared.
HOST_KEYS = ("nproc", "cpu_model", "compiler", "build_type")


def quartiles(values):
    """Q1, median, Q3 as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def read_csv_table(path):
    """{row key: [value strings]} and the header, without the trailing
    per-cell `status` column the sweep binaries append."""
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    if not rows:
        raise ValueError(f"{path}: empty CSV")
    header = rows[0]
    drop_status = header[-1] == "status"
    if drop_status:
        header = header[:-1]
    table = {}
    for row in rows[1:]:
        if not row:
            continue
        values = row[1:-1] if drop_status else row[1:]
        table[row[0]] = values
    return header, table


def compare_csv(actual_path, reference_path, keys):
    """Mismatch descriptions for rows @p keys (exact string compare)."""
    ref_header, ref = read_csv_table(reference_path)
    header, got = read_csv_table(actual_path)
    problems = []
    if header != ref_header:
        problems.append(f"header {header} != reference {ref_header}")
    for key in keys:
        if key not in got:
            problems.append(f"{key}: row missing")
        elif key not in ref:
            problems.append(f"{key}: no reference row")
        elif got[key] != ref[key]:
            cols = [ref_header[i + 1] for i, (a, b)
                    in enumerate(zip(got[key], ref[key])) if a != b]
            problems.append(f"{key}: differs in {cols or 'width'}")
    return problems


def read_digest(path):
    """{workload: (txns, digest)} from a cosim-fsb-digest/1 manifest."""
    out = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            name, txns, digest = line.split()
            out[name] = (int(txns), digest)
    return out


def compare_digest(actual, reference, key):
    if key not in actual:
        return [f"{key}: no digest written"]
    if actual[key] != reference.get(key):
        return [f"{key}: stream {actual[key]} != golden {reference.get(key)}"]
    return []


def delivery_residual(run_phase_s, softsdv_run_s, observe_s):
    """Run-phase time no layer span accounts for: delivering each FSB
    transaction to the emulators one at a time, interleaved."""
    return run_phase_s - softsdv_run_s - observe_s


def relative_error(model, paper):
    return (model - paper) / paper if paper else None


def fingerprint_outputs(parts):
    """Stable hash of output values ({name: value}) for exact
    cross-commit comparison at seeds without a committed reference."""
    blob = json.dumps(parts, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _cmake_compiler(build_dir):
    for path in glob.glob(os.path.join(build_dir, "CMakeFiles", "*",
                                       "CMakeCXXCompiler.cmake")):
        with open(path) as f:
            text = f.read()
        cid = re.search(r'CMAKE_CXX_COMPILER_ID "([^"]*)"', text)
        ver = re.search(r'CMAKE_CXX_COMPILER_VERSION "([^"]*)"', text)
        if cid and ver:
            return f"{cid.group(1)} {ver.group(1)}"
    return "unknown"


def _cmake_build_type(build_dir):
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    return line.split("=", 1)[1].strip() or "unset"
    except OSError:
        pass
    return "unknown"


def _revision(root):
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             cwd=root, capture_output=True, text=True,
                             timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def source_digest(root):
    """sha256 of the program sources, the revision where git is absent."""
    h = hashlib.sha256()
    for top in ("src", "bench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def host_fingerprint(root, build_dir):
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "compiler": _cmake_compiler(build_dir),
        "build_type": _cmake_build_type(build_dir),
        "revision": _revision(root),
        "source_digest": source_digest(root),
    }


def fingerprint_mismatch(a, b):
    """Host keys on which two results differ; empty when comparable."""
    return [k for k in HOST_KEYS if a.get(k) != b.get(k)]
