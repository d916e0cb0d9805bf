"""One benchmark client in a fresh interpreter.

Usage (from run.py, with PYTHONPATH pointing at the checkout's src):

    python3 bench/worker.py MODE WORKLOAD SEED SECONDS WORKDIR RESULT.json

MODE is `setup` (time import plus one warm-up op, then stop), `run` (then a
closed loop of ops for SECONDS, untraced) or `trace` (then, for each traced
workload, an untraced pass and a traced replay of the same ops).
Set-up time runs from before `import tensorwave.cli` to the end of the
warm-up op, so the clock starts before anything else is imported.
"""

from time import perf_counter

T0 = perf_counter()

import tensorwave.cli as cli  # noqa: E402  (timed as part of set-up)

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

from workloads import TRACED, WORKLOADS, CheckFailed  # noqa: E402


def run_cli(argv) -> str | None:
    """Run one CLI invocation in process; return a failure reason or None."""
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            code = cli.main(argv)  # looked up per call so trace wrappers apply
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # an escaped exception is a failed op, not a crash
        return f"raised {type(exc).__name__}: {exc}"
    if code != 0:
        return f"exit {code}: {err.getvalue().strip()}"
    return None


def run_op(workload, op, workdir):
    """Write the op's inputs, run its CLI calls; return (latency_s, reason)."""
    d = os.path.join(workdir, "op")
    shutil.rmtree(d, ignore_errors=True)
    os.makedirs(d)
    commands = workload.commands(op, d)
    t = perf_counter()
    reason = None
    for argv in commands:
        reason = run_cli(argv)
        if reason is not None:
            break
    return perf_counter() - t, reason


def check_op(workload, op, workdir, ref):
    """(items, rel_err, reason): items count only when the check passed."""
    try:
        items, err = workload.check(op, os.path.join(workdir, "op"), ref)
    except CheckFailed as exc:
        return 0, None, f"check {workload.name}: {exc}"
    except (OSError, ValueError, IndexError) as exc:
        return 0, None, f"check {workload.name}: unreadable output ({exc})"
    return items, err, None


def closed_loop(workload, seed, seconds, workdir, ref, count=None, tracer=None):
    """Run ops 0, 1, ... until `seconds` pass (or `count` ops ran)."""
    rec = {"latency_s": [], "items": [], "errors": [], "failures": []}
    t_end = perf_counter() + seconds
    i = 0
    while (perf_counter() < t_end) if count is None else (i < count):
        op = workload.op(seed, i)
        if tracer is not None:
            tracer.begin_op(workload.name)
        latency, reason = run_op(workload, op, workdir)
        items, err = 0, None
        if reason is None:
            items, err, reason = check_op(workload, op, workdir, ref)
        rec["latency_s"].append(latency)
        rec["items"].append(items)
        if err is not None:
            rec["errors"].append(err)
        if reason is not None:
            rec["failures"].append({"op": i, "reason": reason})
        i += 1
    return rec


def main(argv) -> int:
    mode, name, seed, seconds, workdir, result_path = argv
    seed, seconds = int(seed), float(seconds)
    workload = WORKLOADS[name]
    _, reason = run_op(workload, workload.warmup(seed), workdir)
    setup_s = perf_counter() - T0
    result = {"setup_s": setup_s, "warmup_failure": reason}

    if mode != "setup":
        import oracles as ref  # after set-up: mpmath is not the program's cost

    if mode == "run":
        result.update(closed_loop(workload, seed, seconds, workdir, ref))
    elif mode == "trace":
        from tracer import Tracer

        covered = list(TRACED) + ([name] if name not in TRACED else [])
        for w in covered:
            if w != name:  # the requested workload was warmed up in set-up
                run_op(WORKLOADS[w], WORKLOADS[w].warmup(seed), workdir)
        share = seconds / (2 * len(covered))
        plain = {w: closed_loop(WORKLOADS[w], seed, share, workdir, ref) for w in covered}
        tracer = Tracer()
        tracer.install()
        traced = {
            w: closed_loop(WORKLOADS[w], seed, 0, workdir, ref,
                           count=len(plain[w]["latency_s"]), tracer=tracer)
            for w in covered
        }
        tracer.save(os.path.join(workdir, "spans.npz"))
        result.update(
            plain=plain,
            traced=traced,
            layers=tracer.summary(),
            counters=[[w, k, v] for (w, k), v in tracer.counters.items()],
            absent=tracer.absent,
            bindings=tracer.bindings,
        )
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(result_path, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
