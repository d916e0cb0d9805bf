"""tensorwave benchmark: one closed-loop client driving the CLI in process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a tensorwave checkout; it imports the package from
./src and writes only under ./.bench_work (scratch, removed at exit) and
./.bench_out (results and spans).  Every operation is `tensorwave.cli.main`
on a generated config, timed in a worker interpreter with TW_THREADS unset
and BLAS/OpenMP pinned to one thread, and checked against scipy/mpmath
oracles.  See bench/README.md for why each workload exists.

--trace 0 prints the end-to-end metrics of one workload.  --trace 1 traces
roundtrip, nearfield and shells (plus the requested one) and prints
the per-layer metrics.  The last stdout line is always one JSON object
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 3
RUN_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
    "passed_frac": "frac",
}

# per-layer metrics of the traced run, by the workload whose end-to-end
# numbers they should move (see bench/README.md for the mapping)
PER_WORKLOAD = {
    "roundtrip": (
        "cli.main.self_s", "cli.out_bytes",
        "fileio.write_field_csv.self_s", "fileio.read_field_csv.self_s",
        "fileio.csv_bytes",
        "synthesis.synthesize.self_s", "synthesis.synthesize.calls",
        "synthesis.synthesize.wave_points",
        "synthesis.project_sampled.self_s", "synthesis.project_sampled.calls",
        "synthesis.recover_coefficients.self_s",
        "specfun.ylm.self_s", "specfun.ylm.calls", "specfun.ylm.values",
        "specfun.spherical_radial.self_s", "specfun.spherical_radial.calls",
        "maxwell_radial.homogeneous_eta_zeta.self_s",
        "maxwell_radial.longitudinal_components.self_s",
        "maxwell_radial.fundamental_matrix.self_s",
        "check.max_rel_err",
    ),
    "nearfield": (
        "cli.main.self_s", "cli.out_bytes",
        "fileio.write_field_csv.self_s", "fileio.csv_bytes",
        "synthesis.synthesize.self_s", "synthesis.synthesize.calls",
        "synthesis.synthesize.wave_points",
        "specfun.ylm.self_s", "specfun.ylm.calls", "specfun.ylm.values",
        "specfun.spherical_radial.self_s", "specfun.spherical_radial.calls",
        "maxwell_radial.homogeneous_eta_zeta.self_s",
        "maxwell_radial.longitudinal_components.self_s",
        "check.max_rel_err",
    ),
    "shells": (
        "cli.main.self_s", "cli.out_bytes",
        "maxwell_radial.propagate.self_s",
        "maxwell_radial.system_matrix.self_s", "maxwell_radial.system_matrix.calls",
        "check.max_rel_err",
    ),
    "spectrum": (
        "cli.main.self_s", "cli.out_bytes",
        "synthesis.match_sphere.self_s", "synthesis.match_sphere.calls",
        "specfun.spherical_radial.self_s", "specfun.spherical_radial.calls",
        "check.max_rel_err",
    ),
}
GLOBAL_LAYER = {
    "import.cli_s": "s",
    "import.scipy_integrate_s": "s",
    "trace.overhead_frac": "frac",
    "src.lines": "lines",
}

# ROADMAP baseline rows, printed next to the traced number they correspond to
BASELINE = (
    ("import.cli_s", None, "import tensorwave.cli", "0.73 s"),
    ("import.scipy_integrate_s", None, "scipy.integrate alone", "0.55 s"),
    ("roundtrip", "synthesis.synthesize",
     "synthesize, L=16: 288 waves x 2,312 points", "0.60 s"),
    ("roundtrip", "synthesis.project_sampled",
     "project_sampled, every mode, L=16", "0.36 s"),
    ("shells", "maxwell_radial.propagate",
     "propagate l=3, homogeneous, k r 1 -> 100 / 40 shells (other case: "
     "here l=1..8, 20 shells, k r 0.5 -> 55)", "0.20 s / 62 ms"),
    ("spectrum", "synthesis.match_sphere",
     "match_sphere for l=1..121 at x=100 (other case: here seeded x)", "89 ms"),
)


def layer_unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("bytes"):
        return "bytes"
    if metric.endswith("max_rel_err"):
        return "ratio"
    return "count"


def per_layer_names(workloads) -> dict:
    names = dict(GLOBAL_LAYER)
    for w in workloads:
        names.update({f"{w}.{m}": layer_unit(m) for m in PER_WORKLOAD[w]})
    return names


class BenchError(Exception):
    pass


def worker_env(src: str) -> dict:
    env = dict(os.environ)
    env.pop("TW_THREADS", None)
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def run_worker(mode, args, workdir, env, deadline) -> dict:
    sub = tempfile.mkdtemp(dir=workdir)
    result = os.path.join(sub, "result.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), mode, args.workload,
           str(args.seed), str(args.seconds), sub, result]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker exceeded the {RUN_LIMIT_S:.0f} s run limit")
    if proc.returncode != 0 or not os.path.exists(result):
        raise BenchError(f"{mode} worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    with open(result) as handle:
        out = json.load(handle)
    out["dir"] = sub
    return out


def import_times(env, deadline) -> tuple:
    """Median cumulative import time of tensorwave.cli and scipy.integrate (s)."""
    cli_s, integ_s = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import tensorwave.cli"],
            env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
        if proc.returncode != 0:
            raise BenchError(f"import probe failed:\n{proc.stderr[-4000:]}")
        cum = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3:
                try:
                    cum[parts[2].strip()] = int(parts[1]) * 1e-6
                except ValueError:
                    continue  # the header line
        cli_s.append(cum.get("tensorwave.cli", 0.0))
        integ_s.append(cum.get("scipy.integrate", 0.0))
    return statistics.median(cli_s), statistics.median(integ_s)


def src_lines(src: str) -> int:
    total = 0
    for path in glob.glob(os.path.join(src, "tensorwave", "**", "*.py"), recursive=True):
        with open(path, "rb") as handle:
            total += handle.read().count(b"\n")
    return total


def environment(src: str) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next(ln.split(":", 1)[1].strip() for ln in handle
                       if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    versions = {}
    for pkg in ("numpy", "scipy", "mpmath"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    return {
        "python": platform.python_version(),
        **versions,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "threads": {v: "1" for v in THREAD_VARS} | {"TW_THREADS": "unset"},
        "src.lines": src_lines(src),
    }


def percentile90(values) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def end_to_end(args, env, workdir, deadline):
    setups = [run_worker("setup", args, workdir, env, deadline)
              for _ in range(SETUP_REPEATS - 1)]
    run = run_worker("run", args, workdir, env, deadline)
    setups.append(run)
    lat = run["latency_s"]
    attempted, failed = len(lat), len(run["failures"])
    metrics = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "latency_p50_s": statistics.median(lat),
        "latency_p90_s": percentile90(lat),
        "items_per_s": sum(run["items"]) / sum(lat),
        "peak_rss_mb": run["peak_rss_mb"],
        "passed_frac": (attempted - failed) / attempted,
    }
    lines = [
        f"{args.workload}: {attempted} ops, {failed} failed, closed loop, 1 client, "
        f"{args.seconds} s; setup median of {SETUP_REPEATS} fresh interpreters",
    ]
    lines += [f"warm-up op failed: {s['warmup_failure']}" for s in setups
              if s["warmup_failure"]]
    extra = {"latency_s": lat, "failures": run["failures"],
             "max_rel_err": max(run["errors"], default=None)}
    return metrics, END_TO_END, attempted, failed, lines, extra


def traced(args, env, workdir, deadline, src):
    cli_s, integ_s = import_times(env, deadline)
    res = run_worker("trace", args, workdir, env, deadline)
    covered = list(res["plain"])
    counters = {(w, k): v for w, k, v in res["counters"]}
    plain_s = sum(sum(r["latency_s"]) for r in res["plain"].values())
    traced_s = sum(sum(r["latency_s"]) for r in res["traced"].values())
    metrics = {
        "import.cli_s": cli_s,
        "import.scipy_integrate_s": integ_s,
        "trace.overhead_frac": traced_s / plain_s - 1.0,
        "src.lines": src_lines(src),
    }
    lines = []
    for w in covered:
        n = len(res["traced"][w]["latency_s"])
        errors = res["plain"][w]["errors"] + res["traced"][w]["errors"]
        for m in PER_WORKLOAD[w]:
            if m == "check.max_rel_err":
                value = max(errors, default=0.0)
            elif m.endswith((".self_s", ".calls")):
                layer, stat = m.rsplit(".", 1)
                value = res["layers"][w][layer][stat] / n
            else:
                value = counters.get((w, m), 0.0) / n
            metrics[f"{w}.{m}"] = value
        lines.append(f"{w}: {n} ops untraced then the same {n} traced")
    for key, layer, row, roadmap in BASELINE:
        if layer is None:
            ours = metrics[key]
        elif key in covered:
            ours = res["layers"][key][layer]["incl_s"] / len(res["traced"][key]["latency_s"])
        else:
            continue
        lines.append(f"baseline: {row}: ROADMAP {roadmap}, traced now {ours:.4g} s")
    if res["absent"]:
        lines.append(f"absent layers (reported as 0): {', '.join(res['absent'])}")
    units = per_layer_names(covered)
    runs = list(res["plain"].values()) + list(res["traced"].values())
    attempted = sum(len(r["latency_s"]) for r in runs)
    failures = [{**f, "workload": w, "pass": p} for p in ("plain", "traced")
                for w, r in res[p].items() for f in r["failures"]]
    failed = len(failures)
    extra = {"failures": failures, "absent": res["absent"], "bindings": res["bindings"],
             "layers": res["layers"], "spans": os.path.join(res["dir"], "spans.npz")}
    return metrics, units, attempted, failed, lines, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "tensorwave", "cli.py")):
        print("bench: ./src/tensorwave not found; run from a tensorwave checkout root",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    env = worker_env(src)
    os.makedirs(os.path.join(root, ".bench_work"), exist_ok=True)
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = tempfile.mkdtemp(prefix=tag + "-", dir=os.path.join(root, ".bench_work"))
    try:
        if args.trace:
            metrics, units, attempted, failed, lines, extra = traced(
                args, env, workdir, deadline, src)
            shutil.move(extra.pop("spans"), os.path.join(out_dir, tag + ".spans.npz"))
        else:
            metrics, units, attempted, failed, lines, extra = end_to_end(
                args, env, workdir, deadline)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env_doc = environment(src)
    for line in lines:
        print(line)
    for name, value in metrics.items():
        print(f"  {name:<48} {value!r} {units[name]}")
    reasons = {}  # failure reasons with their numbers masked -> (count, example)
    for f in extra["failures"]:
        key = re.sub(r"\d[\d.e+-]*", "#", f["reason"])
        count, example = reasons.get(key, (0, f["reason"]))
        reasons[key] = (count + 1, example)
    for count, example in sorted(reasons.values(), key=lambda v: -v[0]):
        print(f"  failed x{count}, e.g. {example}")
    print("env: " + json.dumps(env_doc))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    with open(os.path.join(out_dir, tag + ".json"), "w") as handle:
        json.dump({"args": vars(args), "env": env_doc, "result": result, **extra},
                  handle, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
