#!/usr/bin/env python3
"""cfolab benchmark: sweep throughput, capture latency and per-layer timings.

Usage (from the root of a checkout):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see bench/README.md for why each exists):

    sweep_proposed    in-process ``cfolab fig2 --paper --estimators proposed``
    sweep_sca         the same grid with ``--estimators sca``
    capture_estimate  in-process ``cfolab estimate`` on N=1024 IQ captures

One caller runs the workload's operations back to back (closed loop) in this
single-threaded process for S seconds.  Every output is checked.  The last
stdout line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer metrics
with ``--trace 1``.  The line before it carries the run's details (environment,
CSV digests, sample counts).  Files go to bench/out/<workload>/.
"""

import os

# The workloads are single-threaded by design: pin every BLAS/OpenMP pool to
# one thread before numpy loads, so no pool can use more threads than cores.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from captures import N_FFT as CAPTURE_N_FFT  # noqa: E402
from captures import CaptureSource  # noqa: E402
from spans import MissingLayer, Tracer  # noqa: E402
from speed import Reference, speed_scale  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

# The fig2 --paper grid; each call runs one trial per cell.
SWEEP_N = (64, 128)
SWEEP_MODES = ("varying", "static")
SWEEP_SNR_DB = tuple(float(s) for s in range(0, 21, 2))
SWEEP_TRIALS_PER_CELL = 1
SWEEP_COLUMNS = ("snr_db", "estimator", "mode", "trials", "failures")

# Captures are written in chunks between timed calls, never inside one.
CAPTURE_CHUNK = 256
# A total this far from the true offset is a miss.
MISS_DISTANCE = 0.5
# More confident wrong answers than this share marks the run incorrect.
MAX_WRONG_SHARE = 0.01
# Fresh processes timed for setup_s in a run of at least SETUP_MIN_SECONDS;
# the median is reported.  Shorter runs, such as the smoke test's, time one.
SETUP_RUNS = 7
SETUP_MIN_SECONDS = 10

# (span, statistic): p50 and p99 of the span's self or total time per call.
LAYER_TIMES = (
    ("estimator.freq_correlate", "self_us"),
    ("estimator.estimate_cfo", "self_us"),
    ("estimator.resolve_ifo", "us"),
    ("estimator.estimate_ffo", "us"),
    ("estimator.compensate", "us"),
    ("signal.dft", "self_us"),
    ("sca.sca_estimate", "self_us"),
    ("channel.transmit", "self_us"),
    ("channel.draw_channel", "us"),
    ("simlab.trial_rng", "us"),
    ("simlab.run_trial", "self_us"),
    ("simlab.run_sweep", "self_us"),
    ("cli.main", "self_us"),
    ("cli.build_parser", "us"),
    ("cli.read_iq", "us"),
)
# Spans whose calls per traced operation are reported.
LAYER_CALLS = ("signal.dft", "signal.idft", "sca.sca_build_preamble", "simlab.run_trial")
# (span, statistic): failures per traced operation.
LAYER_FAILURES = (("estimator.estimate_cfo", "failed"), ("estimator.estimate_ffo", "raised"))


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


class SweepWorkload:
    """Repeated ``fig2 --paper`` calls, each with its own fig2 seed."""

    # Misses are the failure probability the sweep measures, not failed calls.
    miss_fails_call = False

    def __init__(self, estimator: str, seed: int, out_dir: Path):
        self.estimator = estimator
        self.seed = seed
        self.out = out_dir / "fig2.csv"
        self.csv_sha256: dict[int, list[str]] = {}

    def prepare(self, index: int) -> None:
        pass

    def argv(self, index: int, out: Path | None = None) -> list[str]:
        return [
            "fig2", "--paper", "--estimators", self.estimator,
            "--trials", str(SWEEP_TRIALS_PER_CELL),
            "--seed", str((self.seed << 20) + index),
            "--out", str(out or self.out),
        ]

    def probe_argv(self, index: int) -> list[str]:
        return self.argv(0, self.out.with_name("probe.csv"))

    def check(self, index: int, stdout: str) -> tuple[int, int, str]:
        """Validate both CSVs of one call; return (trials, misses, digest)."""
        digests = []
        trials = misses = 0
        for n_fft in SWEEP_N:
            data = self.out.with_name(f"{self.out.stem}_n{n_fft}.csv").read_bytes()
            digests.append(hashlib.sha256(data).hexdigest())
            rows = list(csv.DictReader(io.StringIO(data.decode("utf-8"))))
            if not rows or any(col not in rows[0] for col in SWEEP_COLUMNS):
                raise ValueError(f"n{n_fft}: missing columns")
            cells = sorted((float(r["snr_db"]), r["mode"]) for r in rows)
            if cells != sorted((s, m) for s in SWEEP_SNR_DB for m in SWEEP_MODES):
                raise ValueError(f"n{n_fft}: unexpected cells")
            for r in rows:
                failures = int(r["failures"])
                if (r["estimator"] != self.estimator or int(r["trials"]) != SWEEP_TRIALS_PER_CELL
                        or not 0 <= failures <= SWEEP_TRIALS_PER_CELL):
                    raise ValueError(f"n{n_fft}: bad row {r}")
                trials += SWEEP_TRIALS_PER_CELL
                misses += failures
        self.csv_sha256.setdefault(index, digests)
        return trials, misses, ",".join(digests)

    def details(self) -> dict:
        first = [self.csv_sha256[i] for i in range(32) if i in self.csv_sha256]
        return {
            "fig2_seed_of_call_i": f"({self.seed} << 20) + i",
            "csv_sha256_call0": self.csv_sha256.get(0),
            "csv_sha256_first_calls": len(first),
            "csv_sha256_first": hashlib.sha256("".join(sum(first, [])).encode()).hexdigest(),
        }


class CaptureWorkload:
    """Repeated ``estimate`` calls, each on its own pre-written capture."""

    # A capture whose total misses its offset is a confident wrong answer.
    miss_fails_call = True

    def __init__(self, seed: int, out_dir: Path):
        self.source = CaptureSource(seed)
        self.out_dir = out_dir
        self.truth: dict[int, float] = {}

    def _path(self, index: int) -> Path:
        return self.out_dir / f"cap_{index:07d}.iq"

    def prepare(self, index: int) -> None:
        """Write the chunk holding capture ``index`` if it is not there yet."""
        if index in self.truth:
            return
        for old in list(self.truth):
            self._path(old).unlink()
        self.truth.clear()
        for i in range(index, index + CAPTURE_CHUNK):
            self.truth[i] = self.source.write(i, self._path(i))

    def argv(self, index: int) -> list[str]:
        return ["estimate", "--in", str(self._path(index)), "--n", str(CAPTURE_N_FFT)]

    def probe_argv(self, index: int) -> list[str]:
        return self.argv(index)

    def check(self, index: int, stdout: str) -> tuple[int, int, str]:
        """Parse the JSON report; return (1, miss, report line)."""
        line = stdout.strip().splitlines()[-1]
        total = json.loads(line)["total"]
        if not isinstance(total, (int, float)) or not np.isfinite(total):
            raise ValueError(f"total is {total!r}")
        return 1, int(abs(total - self.truth[index]) >= MISS_DISTANCE), line

    def details(self) -> dict:
        return {"capture_n_fft": CAPTURE_N_FFT, "capture_chunk": CAPTURE_CHUNK}


WORKLOADS = {
    "sweep_proposed": lambda seed, out: SweepWorkload("proposed", seed, out),
    "sweep_sca": lambda seed, out: SweepWorkload("sca", seed, out),
    "capture_estimate": lambda seed, out: CaptureWorkload(seed, out),
}


def import_package() -> dict:
    """Import cfolab from this checkout's src/ and return its layer modules."""
    if not (SRC / "cfolab" / "__init__.py").is_file():
        raise BenchError(f"no cfolab package under {SRC}")
    sys.path.insert(0, str(SRC))
    modules = {
        name: importlib.import_module(f"cfolab.{name}")
        for name in ("signal", "channel", "estimator", "sca", "simlab", "cli")
    }
    origin = Path(modules["cli"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise BenchError(f"cfolab imported from {origin}, not from {SRC}")
    return modules


def measure_setup(workload, index: int, reference: Reference) -> tuple[float, float]:
    """Seconds from a fresh process's start to the end of its first call: (corrected, raw).

    The correction is the one the calls get (see speed.py), from the
    reference kernel timed just before and just after the process.
    """
    before = reference.time()
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "probe.py"), str(SRC), *workload.probe_argv(index)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise BenchError(f"set-up probe exited {proc.returncode}: {proc.stderr.strip()}")
    raw = float(proc.stdout.strip().splitlines()[-1]) - t0
    return raw * float(speed_scale(np.array([before, reference.time()]))[0]), raw


def run_call(cli, workload, index: int, tracer: Tracer | None):
    """Run one command in-process; return (seconds, status, trials, misses, digest)."""
    workload.prepare(index)
    argv = workload.argv(index)
    stdout, stderr = io.StringIO(), io.StringIO()
    trace = tracer.operation(index) if tracer else contextlib.nullcontext()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), trace:
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a failed call, not a failed run
            elapsed = time.perf_counter() - t0
            return elapsed, f"raised {type(exc).__name__}", 0, 0, ""
        elapsed = time.perf_counter() - t0
    if code != 0:
        return elapsed, f"exit {code}", 0, 0, ""
    try:
        trials, misses, digest = workload.check(index, stdout.getvalue())
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return elapsed, f"malformed: {exc}", 0, 0, ""
    return elapsed, ("wrong" if misses and workload.miss_fails_call else "ok"), trials, misses, digest


def environment(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version(),
        "thread_vars": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "seed": seed,
    }


def blas_version() -> str:
    """BLAS name and version as numpy reports them; numpy before 1.26 has no dict form."""
    try:
        config = np.show_config(mode="dicts")
    except TypeError:
        return "unknown"
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return f"{blas.get('name')} {blas.get('version')}"


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
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


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "cfolab").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def layer_metrics(stats: dict, traced_ops: int, miss_rate: float, overhead_ms: float, base_ms: float) -> dict:
    metrics = {}
    for span, stat in LAYER_TIMES:
        for q in ("p50", "p99"):
            metrics[f"{span}.{stat}.{q}"] = (stats[span][f"{stat}.{q}"], "us")
    for span in LAYER_CALLS:
        metrics[f"{span}.calls"] = (stats[span]["calls_per_op"], "1/op")
    for span, stat in LAYER_FAILURES:
        metrics[f"{span}.{stat}"] = (stats[span][stat] / traced_ops, "1/op")
    metrics["miss_rate"] = (miss_rate, "ratio")
    metrics["tracing.overhead_ms"] = (overhead_ms, "ms")
    metrics["tracing.overhead_pct"] = (100.0 * overhead_ms / base_ms, "%")
    return metrics


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    modules = import_package()
    cli = modules["cli"]
    env = environment(seed)
    # One CPU for this process and the set-up probes it starts, so that the
    # speed reference (speed.py) measures the core the timed work runs on.
    env["pinned_cpu"] = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {env["pinned_cpu"]})
    out_dir = OUT / workload_name
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    workload = WORKLOADS[workload_name](seed, out_dir)
    workload.prepare(0)
    setup_runs = SETUP_RUNS if seconds >= SETUP_MIN_SECONDS else 1
    reference = Reference()
    setup = [measure_setup(workload, 0, reference)]

    tracer = Tracer(modules) if trace else None
    _, status, _, _, warm_digest = run_call(cli, workload, 0, None)
    if status != "ok":
        raise BenchError(f"warm-up call: {status}")

    # Closed loop.  In a traced run every second call goes through the spans,
    # so traced and untraced latency are sampled under the same conditions.
    # The speed reference runs after every call, outside its timing.  The
    # set-up probes are spread over the run, between calls, so that their
    # median averages over the machine's drift like the calls do.
    elapsed, kernel, traced, trials = [], [reference.time()], [], []
    statuses: dict[str, int] = {}
    misses = 0
    deterministic = True
    start = time.perf_counter()
    deadline = start + seconds
    index = 0
    # A traced run makes at least one traced call (odd index).
    min_calls = 2 if trace else 1
    while index < min_calls or time.perf_counter() < deadline:
        if len(setup) < setup_runs and time.perf_counter() >= start + len(setup) * seconds / setup_runs:
            workload.prepare(index)
            setup.append(measure_setup(workload, index, reference))
        is_traced = tracer is not None and index % 2 == 1
        call_s, status, n, m, digest = run_call(cli, workload, index, tracer if is_traced else None)
        kernel.append(reference.time())
        if index == 0:
            deterministic = digest == warm_digest
        elapsed.append(call_s)
        traced.append(is_traced)
        trials.append(n)
        statuses[status] = statuses.get(status, 0) + 1
        misses += m
        index += 1

    while len(setup) < setup_runs:
        setup.append(measure_setup(workload, index - 1, reference))

    attempted = index
    ok = statuses.get("ok", 0)
    wrong = statuses.get("wrong", 0)
    malformed = sum(v for k, v in statuses.items() if k.startswith("malformed"))
    correct = ok > 0 and deterministic and malformed == 0 and wrong <= MAX_WRONG_SHARE * attempted
    traced = np.array(traced)
    raw = np.array(elapsed)
    np.savez(out_dir / "calls.npz", elapsed=raw, kernel=np.array(kernel), traced=traced, trials=np.array(trials))
    scale = speed_scale(np.array(kernel))
    scaled = raw * scale
    plain = scaled[~traced]
    p50, p90, p99 = np.percentile(plain * 1e3, [50, 90, 99])
    raw_p50, raw_p90, raw_p99 = np.percentile(raw[~traced] * 1e3, [50, 90, 99])
    total_trials = sum(trials)
    details = {
        "workload": workload_name,
        "seconds": seconds,
        "trace": int(trace),
        "environment": env,
        "calls_untraced": int((~traced).sum()),
        "calls_traced": int(traced.sum()),
        "statuses": statuses,
        "trials": total_trials,
        "misses": misses,
        "deterministic_rerun": deterministic,
        "setup_s_samples": [corrected for corrected, _ in setup],
        "uncorrected_setup_s_samples": [raw for _, raw in setup],
        "reference_kernel_ms_p50": float(np.median(kernel) * 1e3),
        "call_p99_ms": float(p99),
        "uncorrected_call_p50_ms": float(raw_p50),
        "uncorrected_call_p90_ms": float(raw_p90),
        "uncorrected_call_p99_ms": float(raw_p99),
        **workload.details(),
    }
    if trace:
        traced_p50 = float(np.percentile(scaled[traced] * 1e3, 50))
        details["call_p50_ms_untraced"] = float(p50)
        details["call_p50_ms_traced"] = traced_p50
        stats = tracer.layer_stats(int(traced.sum()), scale)
        details["failure_counts"] = {f"{span}.{stat}": stats[span][stat] for span, stat in LAYER_FAILURES}
        metrics = layer_metrics(stats, int(traced.sum()), misses / total_trials if total_trials else 0.0,
                                traced_p50 - float(p50), float(p50))
        tracer.write(out_dir / "spans.npz")
    else:
        details["uncorrected_trials_per_s"] = total_trials / float(raw[~traced].sum())
        metrics = {
            "trials_per_s": (total_trials / float(plain.sum()), "1/s"),
            "call_p50_ms": (float(p50), "ms"),
            "call_p90_ms": (float(p90), "ms"),
            "setup_s": (float(np.median([corrected for corrected, _ in setup])), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    if isinstance(workload, SweepWorkload):
        details["csv_sha256"] = workload.csv_sha256
    result = {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": attempted - ok,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return details, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    try:
        details, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, MissingLayer) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    (OUT / args.workload / f"result_trace{args.trace}.json").write_text(
        json.dumps({"details": details, "result": result}, indent=1) + "\n"
    )
    details.pop("csv_sha256", None)
    print(json.dumps({"details": details}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
