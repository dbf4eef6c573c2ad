"""alphaz benchmark: end-to-end and per-layer metrics for three workloads.

Usage, from the root of a checkout:

    python3 benchmark/run.py --workload certify|grid16|pointwise \
        --seed N --seconds S --trace 0|1

Workloads (closed loop, one client, one process, BLAS pinned to 1 thread):

  certify    one op is `alphaz verify --suite all --seeds 10 --json <tmp>`
             run in-process; it must report 28/28 passed. The suites use
             pinned seeds, so the op is the same for every workload seed.
  grid16     one op is `alphaz sweep` over 15 alphas x 8 zs of a fresh,
             seeded, generic full-rank d = 16 pair written as matrix JSON at
             set-up; values are read back from the CSV.
  pointwise  one op is one scalar call (alpha_z, Petz, sandwiched,
             Mosonyi-Ogawa or relative entropy) on a pair no other op
             shares; d cycles 2/4/8/16 and the pairs mix full-rank,
             dominating, violating, orthogonal and leaking supports.

With --trace 0 the last stdout line carries the end-to-end metrics:
setup_s, op_p50_ms, op_tail_ms, values_per_s, passed_ratio,
accuracy_digits (first decile of -log10 relative error against a 40-digit
mpmath reference over a seed-chosen subsample; see workloads.accuracy) and
peak_rss_mb. Times are CPU times scaled to a reference host speed (see
HostSpeed); wall times are in the details. With --trace 1 the ops run
untraced for half of --seconds, then a fixed number of ops runs traced, and
the last line carries the per-layer metrics derived from the spans (see
tracing.py) and trace.overhead_ratio. Details (environment, tail
percentile and sample count, every failed and known-defect op with its
coordinates, the worst-accuracy point) go to .benchmark-out/ and, in
short, to stdout before the last line.

An op's output is wrong on an exception, a NaN, a negative finite
divergence (below the package's -1e-12 noise floor), a wrong infinity tag,
a verify check marked FAIL or a nonzero exit code. Two kinds of wrong
output come from known defects of the package (ROADMAP item 2) and are
kept in view rather than designed away:

  leak_finite         rho puts ~1e-10 on ker(sigma), alpha >= 1, and a
                      finite value comes back where inf support_violation
                      is due (the two support tolerances disagree);
  dual_path_mismatch  the sandwiched self-check at alpha < 1 raises
                      ArithmeticError (seen at alpha = z = 0.3) because its
                      direct route drops inner eigenvalues by magnitude
                      (the inner cutoff bias).

An op hit by a known defect is a defective op: it lowers passed_ratio
(the share of ops whose output is right) and is listed with its
coordinates in the details, but it is not a failed op. Any other wrong
output is a failed op: it counts in `failed`, lowers passed_ratio and
makes `correct` false, as does a checked value right to fewer than
ACCURACY_FLOOR digits.
"""

from __future__ import annotations

import os

# pin BLAS/OpenMP to one thread before numpy can be imported
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter, deque  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".benchmark-out"

# setup_s is the median of this many set-ups, each in a fresh interpreter so
# that it pays the cold imports a user pays; one process can import only once
SETUP_REPEATS = 9
# kernel runs after each such set-up (the median discards the first, cold ones)
PROBE_KERNEL_RUNS = 15
CAL_REPS = 16
CAL_DIMS = (2, 3, 4, 6, 8)
CAL_INTERVAL_S = 0.05
# a certify op (about 2 s) gets this many kernel runs after it, 5% of its time
CAL_MAX_RUNS = 40
# the host-speed kernel's duration that reported times refer to
CAL_REF_S = 2.5e-3
TRACED_OPS = {"certify": 2, "grid16": 16, "pointwise": 1000}
# A checked value wrong in its first digit is an incorrect output, not an
# inaccurate one. The inner cutoff bias alone costs at most about
# d * (1e-12)^z = 1.6e-2 at d = 16, z = 0.25.
ACCURACY_FLOOR = 1.0
TAIL_BEYOND = 10
# Above p99 the tail of a run with tens of thousands of ops is set by
# scheduling hiccups of a shared machine rather than by the program (p99.96
# spread 42% over five pointwise seeds), so the percentile stops there.
TAIL_MAX_PCT = 99.0
FAILURES_PRINTED = 5


def _import_package():
    """Put the checkout's src/ first on the path and import from there only."""
    src = ROOT / "src"
    if not (src / "alphaz" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no package source at {src / 'alphaz'}")
    sys.path[:0] = [str(src), str(BENCH_DIR)]
    import alphaz

    if Path(alphaz.__file__).resolve().parent != (src / "alphaz").resolve():
        raise SystemExit(f"benchmark: imported alphaz from {alphaz.__file__}, not {src}")
    import workloads

    return workloads


def set_up(name: str, seed: int, tmp: Path, perturb: bool):
    """Import, make the workload and its first batch of inputs. This is
    what setup_s measures."""
    workloads = _import_package()
    wl = workloads.WORKLOADS[name](seed, tmp, perturb)
    first = wl.inputs("main", 0, wl.batch)
    return workloads, wl, first


def setup_probe(name: str, seed: int) -> None:
    """Child process: one timed set-up in a fresh interpreter, then the
    host-speed kernel; prints both durations."""
    tmp = OUT_DIR / f"probe-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        t0, c0 = time.perf_counter(), time.process_time()
        set_up(name, seed, tmp, False)
        cpu_s, wall_s = time.process_time() - c0, time.perf_counter() - t0
        speed = HostSpeed()
        kernel_s = speed.calibrate(PROBE_KERNEL_RUNS)
        print(json.dumps([cpu_s, kernel_s, wall_s]))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def probe_setup_times(name: str, seed: int) -> list[tuple[float, float, float]]:
    """(set-up CPU seconds, kernel CPU seconds, set-up wall seconds) of
    SETUP_REPEATS fresh set-ups."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        times.append(tuple(json.loads(proc.stdout.strip().splitlines()[-1])))
    return times


class HostSpeed:
    """Interleaved calibration of the host's speed.

    The shared virtual host runs the same code up to 1.6x slower for seconds
    at a time (identical grid16 ops took 118 to 220 ms in 5-second windows
    of one run), and at times steals the CPU outright (pointwise ran 10k
    instead of 28k ops in one run, its p99 tripled). Both swamp any change
    to the program. So ops are timed in thread CPU time, which leaves out
    stolen time, and a fixed kernel of small eigendecompositions and matrix
    products (d = 2..8, where numpy's per-call cost dominates, as in the
    package) is timed the same way between ops, once per CAL_INTERVAL_S of
    elapsed time. Each op's time is scaled by CAL_REF_S over the median of
    the two kernel measurements before the op and the two after it (single
    kernel runs differ by up to 2x, so a measurement is the median of its
    runs): times are reported at the host
    speed where the kernel takes CAL_REF_S. Wall times stay in the details.

    In a 6.5-minute run that alternated kernels and ops of all three
    workloads, the quartile spread of single op times was 0.22-0.32 raw,
    0.14-0.18 over this kernel, 0.18 over a 16x16 eigh/svd kernel and
    0.21-0.22 over pure interpreter work.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._mats = []
        for d in CAL_DIMS:
            a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            self._mats.append(a + a.conj().T)
        self._np = np
        # bound now, so that a tracer patching np.linalg does not see the kernel
        self._eigh = np.linalg.eigh
        self.durations: list[float] = []
        self._last = -math.inf

    def calibrate(self, runs: int = 1) -> float:
        """Run the kernel `runs` times; record and return the median."""
        times = []
        for _ in range(runs):
            t0 = time.thread_time()
            for _ in range(CAL_REPS):
                for a in self._mats:
                    w, v = self._eigh(a)
                    m = (v * self._np.maximum(w, 0.0) ** 0.5) @ v.conj().T
                    float(self._np.trace(m).real)
            times.append(time.thread_time() - t0)
        self.durations.append(statistics.median(times))
        self._last = time.perf_counter()
        return self.durations[-1]

    def maybe_calibrate(self, force: bool = False) -> int:
        """Index of the latest kernel measurement, after a new one if it is
        due. A measurement runs the kernel once per CAL_INTERVAL_S since
        the last one (up to CAL_MAX_RUNS), so a long op is bracketed by as
        many kernel runs as the short ops that would fill its time."""
        due = int(min((time.perf_counter() - self._last) / CAL_INTERVAL_S, CAL_MAX_RUNS))
        if due or force:
            self.calibrate(max(due, 1))
        return len(self.durations) - 1

    def scaled(self, cpu: list[float], kernel_index: list[int]) -> list[float]:
        """CPU times at the reference speed; call after a final calibration."""
        d = self.durations
        return [c * CAL_REF_S / statistics.median(d[max(i - 1, 0):i + 3])
                for c, i in zip(cpu, kernel_index)]


class Phase:
    """Closed-loop run of ops; op time covers only the call into the package."""

    def __init__(self, speed: HostSpeed):
        self.speed = speed
        self.samples: list[float] = []  # CPU seconds at the reference host speed
        self.cpu: list[float] = []
        self.raw: list[float] = []      # wall seconds
        self.kernel_index: list[int] = []
        self.values = 0
        self.generated = 0  # inputs made by this phase
        self.attempted = 0
        self.failed = 0
        self.failures: list[dict] = []
        self.defective = 0
        self.defects: list[dict] = []

    def run(self, wl, phase: str, *, seconds: float | None = None,
            count: int | None = None, first=(), tracer=None):
        pending = deque(first)
        deadline = None if seconds is None else time.perf_counter() + seconds
        k = 0
        while ((count is None or k < count)
               and (deadline is None or time.perf_counter() < deadline)):
            if not pending:
                pending.extend(wl.inputs(phase, k, wl.batch))
                self.generated += wl.batch
            inp = pending.popleft()
            error = raw = None
            self.kernel_index.append(self.speed.maybe_calibrate())
            if tracer is not None:
                tracer.op_id = k
            t0, c0 = time.perf_counter(), time.thread_time()
            try:
                raw = wl.run(inp)
            except Exception as exc:  # an op that raises is a failed op
                error = exc
                traceback.print_exc(file=sys.stderr)
            c1, t1 = time.thread_time(), time.perf_counter()
            if tracer is not None:
                tracer.op_id = -1
            self.raw.append(t1 - t0)
            self.cpu.append(c1 - c0)
            outcome = wl.check(inp, raw, error)
            self.values += outcome.values
            self.attempted += 1
            self.failed += bool(outcome.failures)
            self.failures.extend(dict(f, op=f"{phase}{k}") for f in outcome.failures)
            self.defective += bool(outcome.defects) and not outcome.failures
            self.defects.extend(dict(f, op=f"{phase}{k}") for f in outcome.defects)
            k += 1
        self.speed.maybe_calibrate(force=True)
        self.samples = self.speed.scaled(self.cpu, self.kernel_index)
        return self


def median_ms(samples: list[float]) -> float:
    return statistics.median(samples) * 1e3


def tail_ms(samples: list[float]) -> tuple[float, float, int]:
    """(ms, percentile, samples beyond): the highest percentile with at
    least TAIL_BEYOND samples beyond it, kept between the median and
    TAIL_MAX_PCT; the maximum when there are no more than TAIL_BEYOND
    samples."""
    ordered = sorted(samples)
    n = len(ordered)
    cap = math.ceil(n * TAIL_MAX_PCT / 100.0) - 1
    idx = max(min(n - 1 - TAIL_BEYOND, cap), n // 2) if n > TAIL_BEYOND else n - 1
    return ordered[idx] * 1e3, 100.0 * (idx + 1) / n, n - 1 - idx


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError, ValueError):
        blas = {"name": None, "version": None}
    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
        commit = head.stdout.strip() if head.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "RENYI_EPS": os.environ.get("RENYI_EPS"),
        "seed": seed,
        "git_head": commit,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["certify", "grid16", "pointwise"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--perturb", action="store_true",
                        help="corrupt one output (certify: every op, through "
                             "--self-test-perturb) to show the checks count it")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tmp = OUT_DIR / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, tag, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def run(args, tag: str, tmp: Path) -> int:
    workloads, wl, first = set_up(args.workload, args.seed, tmp, args.perturb)
    speed = HostSpeed()

    warm = Phase(speed).run(wl, "warm", count=wl.warmup_ops)
    seconds = args.seconds / 2 if args.trace else args.seconds
    main_phase = Phase(speed).run(wl, "main", seconds=seconds, first=first)
    rss = peak_rss_mb()
    phases = [warm, main_phase]

    layer, entry_counts = {}, {}
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = Phase(speed).run(wl, "trace", count=TRACED_OPS[args.workload],
                                      tracer=tracer)
        finally:
            tracer.uninstall()
        phases.append(traced)
        tracer.save(OUT_DIR / f"spans-{args.workload}.npz")
        layer = tracer.layer_metrics(traced.attempted, traced.generated,
                                     wl.values_per_op)
        entry_counts = tracer.calls_per_entry()
        layer["trace.overhead_ratio"] = (
            median_ms(traced.samples) / median_ms(main_phase.samples), "ratio")

    accuracy, worst_point = workloads.accuracy(wl.checked_points())
    setup_times = probe_setup_times(args.workload, args.seed)

    attempted = sum(p.attempted for p in phases)
    failures = [f for p in phases for f in p.failures]
    failed = sum(p.failed for p in phases)
    defects = [f for p in phases for f in p.defects]
    defective = sum(p.defective for p in phases)
    correct = not failed and worst_point.get("digits", 0.0) >= ACCURACY_FLOOR
    tail, tail_pct, tail_beyond = tail_ms(main_phase.samples)

    end_to_end = {
        "setup_s": (statistics.median(c * CAL_REF_S / k for c, k, _ in setup_times), "s"),
        "op_p50_ms": (median_ms(main_phase.samples), "ms"),
        "op_tail_ms": (tail, "ms"),
        "values_per_s": (main_phase.values / sum(main_phase.samples), "1/s"),
        "passed_ratio": ((attempted - failed - defective) / attempted, "ratio"),
        "accuracy_digits": (accuracy, "digits"),
        "peak_rss_mb": (rss, "MB"),
    }

    detail = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(args.seed),
        "end_to_end": {k: v for k, (v, _) in end_to_end.items()},
        "tail": {"percentile": tail_pct, "samples_beyond": tail_beyond,
                 "samples": len(main_phase.samples)},
        "wall": {"op_p50_ms": median_ms(main_phase.raw),
                 "op_tail_ms": tail_ms(main_phase.raw)[0],
                 "values_per_s": main_phase.values / sum(main_phase.raw),
                 "setup_s": statistics.median(w for _, _, w in setup_times)},
        "host_kernel_ms": {"reference": CAL_REF_S * 1e3,
                           "median": median_ms(speed.durations),
                           "min": min(speed.durations) * 1e3,
                           "max": max(speed.durations) * 1e3},
        "setup_samples_s": setup_times,
        "attempted": attempted,
        "failed": failed,
        "failure_kinds": _kinds(failures),
        "failures": failures,
        "defective": defective,
        "defect_kinds": _kinds(defects),
        "defects": defects,
        "worst_accuracy_point": worst_point,
        "per_layer": {k: v for k, (v, _) in layer.items()},
        "eigh_svd_per_op_by_entry": entry_counts,
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(detail, indent=1, default=str) + "\n")

    print(f"environment: {json.dumps(detail['environment'])}")
    for name, (value, unit) in end_to_end.items():
        print(f"{name:>18} {value:.6g} {unit}")
    print(f"tail: p{tail_pct:.3f} of {len(main_phase.samples)} samples, "
          f"{tail_beyond} beyond")
    print(f"CPU times at the host speed where the kernel takes {CAL_REF_S * 1e3:g} ms; "
          f"wall: {json.dumps(detail['wall'])}, kernel: {json.dumps(detail['host_kernel_ms'])}")
    print(f"failed {failed}/{attempted} {json.dumps(_kinds(failures))}")
    for f in failures[:FAILURES_PRINTED]:
        print(f"  failed op: {json.dumps(f, default=str)}")
    print(f"known-defect ops {defective}/{attempted} {json.dumps(_kinds(defects))}")
    for f in defects[:FAILURES_PRINTED]:
        print(f"  known-defect op: {json.dumps(f, default=str)}")
    print(f"worst accuracy point: {json.dumps(worst_point)}")
    for name, (value, unit) in layer.items():
        print(f"{name:>44} {value:.6g} {unit}")
    for fn, counts in entry_counts.items():
        print(f"eigh, svd per op entering {fn}: "
              + ", ".join(f"[{e}, {v}] x{n}" for e, v, n in counts))

    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _kinds(failures: list[dict]) -> dict[str, int]:
    return dict(Counter(f["kind"] for f in failures))


if __name__ == "__main__":
    raise SystemExit(main())
