"""bellvol benchmark: one closed-loop client driving the CLI in-process.

    python3 bench/run.py --workload mc --seed 1 --seconds 20 --trace 0

The client runs one operation at a time and waits for it to finish before
the next.  A cycle runs every operation of the workload once; cycles repeat
until ``--seconds`` have passed (the last cycle is finished).  Every output
is checked (see workloads.py); an operation that raises or fails its check
counts as failed.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json for the
workload.  ``--trace 1`` runs every workload, alternating an untraced and a
traced cycle, so that each per-layer metric is defined in every traced run;
spans are written once to bench/results/trace.npz.

stdout: one JSON line with the details (run record, every timing as a median
with its sample count, failures), then the result line the contract asks
for.  The exit code is 0 whenever a result was printed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("mc", "quad", "poly", "points")

# end-to-end metrics of the contract, reported for every workload
E2E_UNITS = {"setup_s": "s", "cycle_s": "s", "op_geomean_s": "s",
             "peak_rss_mb": "MB"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be >= 1")
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def load_package():
    """Import bellvol from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "bellvol" / "__init__.py").is_file():
        raise SystemExit(f"bench: no bellvol sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import bellvol.cli
    if Path(bellvol.__file__).resolve().parent != src / "bellvol":
        raise SystemExit(f"bench: imported bellvol from {bellvol.__file__}")
    return bellvol.cli


# -- run record --------------------------------------------------------------

def _git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or platform.machine()


def run_record(seed: int) -> dict:
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(),
        "seed": seed,
        "threads": {v: os.environ.get(v)
                    for v in (*THREAD_VARS, "BELLVOL_WORKERS")},
    }


# -- measurement -------------------------------------------------------------

# Reference kernels: each factory returns a call that does a fixed amount of
# one kind of work.


def _python_kernel():
    def run():
        total = 0.0
        for i in range(20_000):
            total += math.sqrt(i) * (i & 7)
    return run


def _quadrature_kernel():
    from scipy import integrate

    def run():
        integrate.quad(lambda x: math.sin(40.0 * x) * math.exp(-0.1 * x),
                       0.0, 30.0, epsabs=1e-12, epsrel=1e-12, limit=5000)
    return run


def _numpy_kernel():
    import numpy as np
    a = np.random.default_rng(0).random((125_000, 4))
    return lambda: np.abs(a.sum(axis=1)[:, None] - 2.0 * a).max(axis=1)


#: kind -> (factory, repeats, nominal seconds).  The nominal value is about
#: the kernel's median on a shared 2-core Xeon VM, where scaled and wall
#: seconds then roughly agree.
REFERENCE_KERNELS = {
    "python": (_python_kernel, 15, 0.002),
    "quadrature": (_quadrature_kernel, 15, 0.0011),
    "numpy": (_numpy_kernel, 5, 0.0104),
}


class Reference:
    """Times a fixed reference kernel: the machine's speed now.

    On a shared host (a 2-core Xeon VM here) speed swings by tens of
    percent within seconds and drifts over minutes as other tenants come and
    go, far more than the changes the benchmark must resolve.  Every timing
    is therefore also scaled to a machine on which the kernel takes its
    nominal time, using the kernel timed just before and just after it.
    Each workload uses the kernel closest to its own work (plain Python,
    scipy quadrature with a Python integrand, or numpy array passes); none
    runs bellvol code.
    """

    def __init__(self, kind: str = "python"):
        factory, self.repeats, self.nominal = REFERENCE_KERNELS[kind]
        self.kernel = factory()

    def seconds(self) -> float:
        times = []
        for _ in range(self.repeats):
            start = time.perf_counter()
            self.kernel()
            times.append(time.perf_counter() - start)
        return statistics.median(times)

    def scale(self, before: float, after: float) -> float:
        """Factor from wall to scaled seconds, given the kernel's time
        before and after."""
        return self.nominal / (0.5 * (before + after))


def setup_seconds(repeats: int) -> float:
    """Median time to import bellvol.cli in a fresh interpreter, scaled."""
    code = ("import time; t = time.perf_counter(); import bellvol.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    ref = Reference()
    times = []
    before = ref.seconds()
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, check=True,
                              timeout=120)
        after = ref.seconds()
        times.append(float(proc.stdout) * ref.scale(before, after))
        before = after
    return statistics.median(times)


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest child (Linux KiB)."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def run_op(cli, op, tracer=None, root: str | None = None) -> None:
    """Run one operation, timing it; record its output or what went wrong."""
    idx = tracer.open(root) if tracer is not None else None
    start = time.perf_counter()
    try:
        if op.argv is not None:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(op.argv)
            out = buf.getvalue()
        else:
            code, out = 0, op.call()
    except (Exception, SystemExit) as exc:  # argparse exits on bad flags
        op.seconds = time.perf_counter() - start
        op.error = "".join(traceback.format_exception_only(exc)).strip()
        return
    finally:
        if idx is not None:
            tracer.close(idx)
    op.seconds = time.perf_counter() - start
    op.output = out
    if code != 0:
        op.error = f"exit code {code}"
        return
    try:
        op.check(out)
    except Exception as exc:  # a malformed output fails its check too
        op.error = "".join(traceback.format_exception_only(exc)).strip()


class Tally:
    """Attempted and failed operations, with the first few failures."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.failures: list[str] = []

    def add(self, op, workload: str) -> None:
        self.attempted += 1
        if op.error is not None:
            self.failed += 1
            if len(self.failures) < 10:
                what = " ".join(op.argv) if op.argv else op.metric
                msg = f"{workload}: {what}: {op.error}"
                self.failures.append(msg)
                print(f"bench: FAILED {msg}", file=sys.stderr)


#: An operation shorter than this is repeated within its cycle until it has
#: run this long, so that short operations get enough samples for a steady
#: median.
MIN_OP_S = 0.25


def run_cycle(cli, wl, k: int, tally: Tally, tracer=None) -> list[tuple]:
    """Run cycle ``k``; one (metric, key, wall s, scaled s) per call made."""
    samples = []
    ref = Reference(wl.reference)
    before = ref.seconds()
    for op in wl.cycle(k):
        root = f"cli.main.{wl.name}" if op.argv else f"harness.{op.metric}"
        runs: list[float] = []
        while sum(runs) < MIN_OP_S:
            run_op(cli, op, tracer, root)
            tally.add(op, wl.name)
            runs.append(op.seconds)
        after = ref.seconds()
        factor = ref.scale(before, after)
        key = f"{op.metric}:{op.label}"
        samples += [(op.metric, key, t, t * factor) for t in runs]
        before = after
    return samples


def run_after(cli, wl, tally: Tally) -> None:
    for op in wl.after():
        run_op(cli, op)
        tally.add(op, wl.name)


def _rng(seed: int, workload: str):
    import numpy as np
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


def _metric(value: float, unit: str, samples: int | None = None) -> dict:
    d = {"value": value, "unit": unit}
    if samples is not None:
        d["samples"] = samples
    return d


def measure(cli, name: str, seed: int, seconds: int, sizes) -> tuple:
    """Untraced run of one workload: the end-to-end metrics."""
    from workloads import BUILDERS

    wl = BUILDERS[name](_rng(seed, name), sizes)
    setup = setup_seconds(sizes.setup_repeats)
    tally = Tally()
    samples: list[tuple] = []
    cycles = 0
    deadline = time.perf_counter() + seconds
    while not cycles or time.perf_counter() < deadline:
        samples += run_cycle(cli, wl, cycles, tally)
        cycles += 1
    run_after(cli, wl, tally)

    # a metric is the sum over its operations of each one's median
    by_key: dict[str, tuple] = {}
    for metric, key, w, sc in samples:
        by_key.setdefault(key, (metric, [], []))
        by_key[key][1].append(w)
        by_key[key][2].append(sc)
    wall: dict[str, float] = {}
    scaled: dict[str, float] = {}
    count: dict[str, int] = {}
    for metric, w, sc in by_key.values():
        wall[metric] = wall.get(metric, 0.0) + statistics.median(w)
        scaled[metric] = scaled.get(metric, 0.0) + statistics.median(sc)
        count[metric] = count.get(metric, 0) + len(w)
    detail = {m: {**_metric(v, "s", count[m]), "scaled": scaled[m]}
              for m, v in wall.items()}
    if name == "points":
        points = wl.values["profile_points"]
        rec = detail.pop("points.profiles_s")
        detail["points.profiles_per_s"] = {
            **_metric(points / rec["value"], "1/s", rec["samples"]),
            "scaled": points / rec["scaled"]}
    rss = peak_rss_mb()
    detail["setup_s"] = _metric(setup, "s", sizes.setup_repeats)
    detail["peak_rss_mb"] = _metric(rss, "MB")
    detail["ops_failed_frac"] = _metric(tally.failed / tally.attempted, "1")
    e2e = {
        "setup_s": setup,
        "cycle_s": sum(scaled.values()),
        "op_geomean_s": math.exp(statistics.fmean(
            math.log(v) for v in scaled.values())),
        "peak_rss_mb": rss,
    }
    metrics = {m: _metric(v, E2E_UNITS[m]) for m, v in e2e.items()}
    return metrics, detail, tally, cycles


# -- traced run --------------------------------------------------------------

def _per(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracer, overhead: dict[str, float], values: dict) -> dict:
    """The per-layer metrics, from the spans and counters of a traced run.

    Kernel times are per 10^6 points scored, other times per call, so that
    they keep their meaning however many calls a run makes.
    """
    from tracer import ORACLES, QUAD_LEVELS

    total, self_, calls = tracer.totals()
    counts = tracer.counts
    out: dict[str, dict] = {}

    def put(name, value, unit):
        out[name] = _metric(value, unit)

    for r in "CQUTL":
        put(f"regions.mask_s.{r}", 1e6 * _per(
            total.get(f"regions.mask.{r}", 0.0), counts[f"mask.rows.{r}"]),
            "s/1e6pt")
    for engine in ("ratios", "volume"):
        put(f"regions.mask_evals_per_sample.{engine}",
            _per(counts[f"mc.rows.{engine}"], counts[f"mc.samples.{engine}"]),
            "count")
    engines = ["volumes.headline_report",
               *(f"volumes.mc_volume.{r}" for r in "CQUTL")]
    samples = counts["mc.samples.ratios"] + counts["mc.samples.volume"]
    put("volumes.mc.self_s",
        1e6 * _per(sum(self_.get(e, 0.0) for e in engines), samples),
        "s/1e6pt")
    put("volumes.mc.samples_per_s",
        _per(samples, sum(total.get(e, 0.0) for e in engines)), "1/s")
    for r in "CQUT":
        n = calls[f"volumes.quadrature_volume.{r}"]
        for level in QUAD_LEVELS:
            put(f"volumes.quad.calls.{level}.{r}",
                _per(calls[f"quad.{level}.{r}"], n), "count")
        put(f"volumes.quad.integrand_evals.{r}",
            _per(counts[f"quad.integrand.{r}"], n), "count")
        put(f"volumes.quad.inner_self_s.{r}",
            _per(self_.get(f"quad.inner.{r}", 0.0), n), "s")
        put(f"volumes.quad.abs_err.{r}",
            values.get(f"volumes.quad.abs_err.{r}", 0.0), "abs")
    for fn, tags in (("enumerate_vertices", ("ns", "cube4")),
                     ("enumerate_facets", ("local",)),
                     ("exact_volume", ("corrC", "cube4"))):
        for tag in tags:
            span = f"polytopes.{fn}.{tag}"
            put(f"polytopes.{fn}_s.{tag}",
                _per(total.get(span, 0.0), calls[span]), "s")
    put("quantum.sample_s",
        _per(total.get("quantum.sample", 0.0), calls["quantum.sample"]), "s")
    put("regions.profile_us", 1e6 * _per(total.get("regions.profile", 0.0),
                                         calls["regions.profile"]), "us")
    for short in ORACLES.values():
        span = f"regions.oracle.{short}"
        put(f"regions.oracle_us.{short}",
            1e6 * _per(total.get(span, 0.0), calls[span]), "us")
    for w in WORKLOADS:
        span = f"cli.main.{w}"
        put(f"cli.self_s.{w}", _per(self_.get(span, 0.0), calls[span]), "s")
    for w in WORKLOADS:
        put(f"trace.overhead_frac.{w}", overhead[w], "1")
    return out


def traced(cli, seed: int, seconds: int, sizes) -> tuple:
    """Every workload, alternating untraced and traced cycles, seconds/4 each
    (at least one pair)."""
    from tracer import Tracer, instrument
    from workloads import BUILDERS

    tracer = Tracer()
    tally = Tally()
    cycles: dict[str, int] = {}
    overhead: dict[str, float] = {}
    values: dict = {}
    for name in WORKLOADS:
        wl = BUILDERS[name](_rng(seed, name), sizes)
        plain = traced_s = 0.0
        k = pairs = 0
        deadline = time.perf_counter() + seconds / len(WORKLOADS)
        while not pairs or time.perf_counter() < deadline:
            plain += sum(w for *_, w, _ in run_cycle(cli, wl, k, tally))
            with instrument(tracer):
                traced_s += sum(w for *_, w, _ in run_cycle(
                    cli, wl, k + 1, tally, tracer))
            k, pairs = k + 2, pairs + 1
        run_after(cli, wl, tally)
        cycles[name] = pairs
        overhead[name] = traced_s / plain - 1.0
        values.update(wl.values)
    metrics = per_layer(tracer, overhead, values)
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    tracer.save(results / "trace.npz")
    detail = {"traced_cycles": cycles, "spans": len(tracer.names),
              "trace_file": str((results / "trace.npz").relative_to(ROOT))}
    return metrics, detail, tally


def main(argv=None, sizes=None) -> dict:
    args = parse_args(argv)
    for var in THREAD_VARS:  # --workers is the only parallelism
        os.environ[var] = "1"
    cli = load_package()
    from workloads import FULL
    sizes = sizes or FULL

    if args.trace:
        metrics, detail, tally = traced(cli, args.seed, args.seconds, sizes)
    else:
        metrics, detail, tally, n_cycles = measure(
            cli, args.workload, args.seed, args.seconds, sizes)
        detail = {"cycles": n_cycles, "metrics": detail}
    report = {"workload": args.workload, "trace": args.trace,
              "seconds": args.seconds, "run": run_record(args.seed),
              **detail, "failures": tally.failures}
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    print(json.dumps(report))
    print(json.dumps(result), flush=True)
    return {"report": report, "result": result}


if __name__ == "__main__":
    main()
