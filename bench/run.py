#!/usr/bin/env python3
"""The smoothce benchmark: one closed-loop workload per invocation.

Usage (from the repository root):

    python3 bench/run.py --workload plain-16k --seed 0 --seconds 20 --trace 0

Imports the package from `src/` of the checkout the script sits in, builds
the workload's inputs from `--seed`, sets up three times, checks every
output, and then runs whole rounds of three operations, one after another
with no threads of its own, until `--seconds` have passed:

    step      smoothce.blocked.loss_and_grad at the workload's shape
    report    two `smoothce calibrate` runs through smoothce.cli.main
    sweep     one `smoothce entropy --verify` run through smoothce.cli.main

The last line of standard output is a JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`. See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
import traceback
import tracemalloc
from dataclasses import asdict, dataclass
from pathlib import Path

# Numpy's and scipy's OpenBLAS copies each start a pool of nproc threads.
# On 2 CPUs the two pools and the main thread contend: over five
# alternating pairs of processes the step median ranged 496-685 ms with
# the default pools and 622-670 ms with one thread each. A package that
# sets its own thread counts at run time still takes effect.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
from pace import Pace  # noqa: E402
from tracer import Tracer, counting_allocator, gemm_flop, oracle_steps  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"

SETUP_REPEATS = 3
NAIVE_REPEATS = 3
SCALE = 0.02  # entry scale of E and C, as `smoothce bench` uses
BINS = 15
ORACLE_RESTARTS = 16
ORACLE_ITERATIONS = 1500


@dataclass(frozen=True)
class Engine:
    n: int
    v: int
    d: int
    beta: float


@dataclass(frozen=True)
class Calib:
    records: int    # probability records, scored for all four metrics
    classes: int
    summaries: int  # confidence records in the mixed-form file


@dataclass(frozen=True)
class Sweep:
    ds: tuple
    vs: tuple
    rhos: tuple


@dataclass(frozen=True)
class Workload:
    engine: Engine
    calib: Calib
    sweep: Sweep
    steps: int = 1  # steps per round, so that a tiny step gets enough samples


# Every workload runs all three operations so that every end-to-end metric
# is measured on every workload; each makes one part large and keeps the
# others small. The small parts are the no-change controls for the rest.
SMALL_CALIB = Calib(records=200, classes=100, summaries=500)
SMALL_SWEEP = Sweep(ds=(16,), vs=(64,), rhos=(1.0,))
WORKLOADS = {
    "plain-16k": Workload(Engine(1024, 16384, 64, 0.0),
                          SMALL_CALIB, SMALL_SWEEP),
    "smooth-64k": Workload(Engine(256, 65536, 128, 0.1),
                           SMALL_CALIB, SMALL_SWEEP),
    "analysis": Workload(Engine(256, 4096, 64, 0.1),
                         Calib(records=300, classes=1000, summaries=2000),
                         Sweep(ds=(16, 64), vs=(256, 1024), rhos=(0.5,)), steps=8),
}


class SetupError(Exception):
    pass


def import_package():
    """Import smoothce from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import smoothce
        from smoothce import blocked, cli, entropy, reference, tensors
    except ImportError as exc:
        raise SetupError(f"cannot import smoothce from {src}: {exc}") from exc
    if Path(smoothce.__file__).resolve().parent != src / "smoothce":
        raise SetupError(f"smoothce was imported from {smoothce.__file__}, not {src}")
    return argparse.Namespace(blocked=blocked, cli=cli, entropy=entropy,
                              reference=reference, tensors=tensors)


def environment() -> dict:
    """CPU count, library versions, and each OpenBLAS mapped into the
    process with its thread count."""
    import scipy
    libs = []
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[5] for line in fh
                            if len(line.split()) > 5 and "openblas" in line.split()[5].lower()})
    except OSError:
        paths = []
    for path in paths:
        threads = None
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                threads = fn()
                break
        libs.append({"lib": os.path.basename(path), "threads": threads})
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "openblas": libs,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}


def traced_peak(fn):
    """Run fn under tracemalloc; return (result, peak bytes above the start)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak - before


class Bench:
    """Inputs, operations and checks of one workload run."""

    def __init__(self, pkg, spec: Workload, seed: int, work: Path):
        self.pkg, self.spec, self.seed, self.work = pkg, spec, seed, work
        self.errors: list[str] = []

    # -- set-up ------------------------------------------------------------

    def make_inputs(self) -> None:
        e, c = self.spec.engine, self.spec.calib
        tensors = self.pkg.tensors
        self.E, self.C, self.x = tensors.random_instance(self.seed, e.n, e.v, e.d, SCALE)
        self.plan = tensors.plan_blocks(e.n, e.v, e.d)

        rng = np.random.default_rng(self.seed)
        p = inputs.draw_probs(rng, c.records, c.classes)
        labels = inputs.draw_labels(rng, p, 0.0)
        s_conf, s_correct = inputs.draw_summaries(rng, c.summaries)
        over = inputs.draw_labels(rng, p, inputs.GAP)
        head = c.records // 4
        self.probs_path = self.work / "probs.jsonl"
        self.mixed_path = self.work / "mixed.jsonl"
        self.over_path = self.work / "overconfident.jsonl"
        inputs.write_probs(self.probs_path, p, labels)
        inputs.write_mixed(self.mixed_path, p[:head], labels[:head], s_conf, s_correct)
        inputs.write_probs(self.over_path, p, over)
        self.calib_data = (p, labels, over, head, s_conf, s_correct)

    def setup_once(self) -> None:
        self.make_inputs()
        for op in (self.step, self.report, self.sweep):
            op()

    # -- operations --------------------------------------------------------

    def step(self):
        e = self.spec.engine
        return self.pkg.blocked.loss_and_grad(self.E, self.C, self.x, e.beta, self.plan)

    def _calibrate(self, records, out, rel, *extra) -> None:
        rc = self.pkg.cli.main(["calibrate", "--records", str(records), "--bins", str(BINS),
                                "--out", str(out), "--reliability-csv", str(rel), *extra])
        if rc != 0:
            raise RuntimeError(f"calibrate {records.name} exited {rc}")

    def report(self) -> None:
        self._calibrate(self.probs_path, self.work / "probs.csv", self.work / "probs_rel.csv")
        self._calibrate(self.mixed_path, self.work / "mixed.csv", self.work / "mixed_rel.csv",
                        "--reliability-scheme", "equal_mass")

    def _grid_args(self):
        s = self.spec.sweep
        return ["--d", ",".join(map(str, s.ds)), "--v", ",".join(map(str, s.vs)),
                "--rho", ",".join(map(repr, s.rhos))]

    def sweep(self) -> None:
        rc = self.pkg.cli.main(["entropy", *self._grid_args(), "--verify",
                                "--restarts", str(ORACLE_RESTARTS),
                                "--iterations", str(ORACLE_ITERATIONS),
                                "--oracle-seed", str(self.seed),
                                "--out", str(self.work / "entropy.csv")])
        if rc != 0:
            raise RuntimeError(f"entropy --verify exited {rc}")

    # -- checks ------------------------------------------------------------

    def verify_engine(self, result) -> None:
        """Check one step against the independent reference and keep its
        arrays as the ones every later step must repeat bit for bit."""
        out, grads, stats = result
        e = self.spec.engine
        want = checks.reference_loss_grad(self.E.data, self.C.data, self.x.targets, e.beta)
        bound = self.pkg.blocked.aux_bound_bytes(self.plan, e.n, e.v, e.d)
        got = checks.engine_arrays(out, grads)
        self.errors += checks.check_engine(got, want, stats.peak_auxiliary_bytes, bound)
        self.verified = got
        self.want_engine = want

    def check_step(self, result) -> None:
        out, grads, _ = result
        self.errors += checks.check_same(checks.engine_arrays(out, grads), self.verified)

    def verify_calibration(self) -> None:
        """Reference values for both reports, plus the property that an
        overconfident population scores a higher ECE than a calibrated one."""
        p, labels, over, head, s_conf, s_correct = self.calib_data
        conf, correct = inputs.top_label(p, labels)
        mconf, mcorrect = inputs.top_label(p[:head], labels[:head])
        mconf = np.concatenate([mconf, s_conf])
        mcorrect = np.concatenate([mcorrect, s_correct])
        self.want_calib = {
            "probs": (checks.calibration_reference(conf, correct, BINS, p, labels),
                      checks.reliability_rows(conf, correct, BINS, "equal_width")),
            "mixed": (checks.calibration_reference(mconf, mcorrect, BINS),
                      checks.reliability_rows(mconf, mcorrect, BINS, "equal_mass")),
        }
        self.check_report()

        out = self.work / "over.csv"
        rc = self.pkg.cli.main(["calibrate", "--records", str(self.over_path),
                                "--bins", str(BINS), "--metrics", "ece", "--out", str(out)])
        if rc != 0:
            self.errors.append(f"calibrate on the overconfident records exited {rc}")
            return
        oconf, ocorrect = inputs.top_label(p, over)
        want = {k: v for k, v in checks.calibration_reference(oconf, ocorrect, BINS).items()
                if k[0] == "ece"}
        got = checks.parse_metric_csv(out.read_text(), BINS)
        self.errors += checks.check_metrics(got, want)
        calibrated = self.want_calib["probs"][0]
        for scheme in ("equal_width", "equal_mass"):
            if not calibrated[("ece", scheme)] < got.get(("ece", scheme), float("-inf")):
                self.errors.append(f"{scheme} ECE of the calibrated records is not below "
                                   f"that of records overconfident by {inputs.GAP}")

    def check_report(self) -> None:
        for name, (metrics, rel) in self.want_calib.items():
            got = checks.parse_metric_csv((self.work / f"{name}.csv").read_text(), BINS)
            self.errors += [f"{name}: {m}" for m in checks.check_metrics(got, metrics)]
            rows = checks.parse_reliability_csv((self.work / f"{name}_rel.csv").read_text())
            self.errors += [f"{name}: {m}" for m in checks.check_reliability(rows, rel)]

    def verify_entropy(self) -> None:
        """Closed-form rows, the minimizer's entropy at the floor, and the
        oracle never below the floor by more than the slack."""
        ent = self.pkg.entropy
        s = self.spec.sweep
        self.want_sweep = checks.entropy_grid(s.ds, s.vs, s.rhos)
        self.check_sweep()
        seen = set()
        for d, v, rho, r, floor in self.want_sweep:
            u = ent.minimizer_vector(ent.BoundParams(sigma_c=rho, sigma_h=1.0, d=d, v=v))
            h = checks.softmax_entropy(u)
            if not abs(h - floor) <= 1e-9 * max(1.0, floor):
                self.errors.append(f"minimizer entropy {h!r} is not the floor {floor!r} "
                                   f"at d={d} v={v} rho={rho}")
            if r > 0 and (r, v) not in seen:
                seen.add((r, v))
                got = ent.numeric_min_entropy(r, v, restarts=ORACLE_RESTARTS,
                                              iterations=ORACLE_ITERATIONS, seed=self.seed)
                if got < floor - checks.ORACLE_SLACK:
                    self.errors.append(f"oracle entropy {got!r} undercuts the floor "
                                       f"{floor!r} at r={r} v={v}")

    def check_sweep(self) -> None:
        rows = checks.parse_entropy_csv((self.work / "entropy.csv").read_text())
        self.errors += checks.check_entropy_rows(rows, self.want_sweep)

    # -- naive engine (traced run only) ------------------------------------

    def naive_step(self):
        e, ref = self.spec.engine, self.pkg.reference
        out = ref.naive_forward(self.E, self.C, self.x, e.beta)
        grads = ref.naive_backward(self.E, self.C, self.x, e.beta)
        return out, grads

    def check_naive(self, result) -> None:
        got = checks.engine_arrays(*result)
        self.errors += [f"naive {m}" for m in checks.check_engine(got, self.want_engine, 0, 0)]


def output_bytes(out, grads) -> int:
    return (out.lse.nbytes + out.o.nbytes + out.per_token_loss.nbytes
            + grads.grad_e.data.nbytes + grads.grad_c.data.nbytes)


def make_tracer(pkg):
    tr = Tracer()
    b, cli = pkg.blocked, pkg.cli
    tr.time(pkg.tensors, "random_instance", "random_instance")
    tr.time(b, "blocked_forward", "forward")
    tr.time(b, "blocked_backward", "backward")
    tr.time(b, "dgemm", "gemm", gemm_flop)
    tr.replace(b, "TrackingAllocator", lambda base: counting_allocator(base, tr.totals))
    tr.time(pkg.reference, "lse_columns", "lse_columns")
    tr.time(cli, "ingest_records", "ingest")
    tr.time(cli, "bin_records", "bin")
    tr.time(cli, "sce", "sce")
    tr.time(cli, "ace", "ace")
    tr.time(cli, "entropy_lower_bound", "floor")
    tr.time(cli, "numeric_min_entropy", "oracle", oracle_steps(cli.numeric_min_entropy))
    return tr


def median(values, scale=1.0) -> float:
    return statistics.median(values) * scale if values else 0.0


class Samples:
    """Wall seconds, pace marks and layer deltas of the calls of one
    operation; `scale` turns them into pace-scaled values."""

    def __init__(self):
        self.wall, self.marks, self.raw_layers = [], [], []
        self.scaled, self.layers = [], []

    def add(self, wall: float, mark: int, layers: dict) -> None:
        self.wall.append(wall)
        self.marks.append(mark)
        self.raw_layers.append(layers)

    def scale(self, pace: Pace, time_keys) -> None:
        factors = [pace.factor(i) for i in self.marks]
        self.scaled = [w * f for w, f in zip(self.wall, factors)]
        self.layers = [{k: v * f if k in time_keys else v for k, v in d.items()}
                       for d, f in zip(self.raw_layers, factors)]

    def p50_ms(self) -> float:
        return median(self.scaled, 1e3)

    def layer_ms(self, key: str) -> float:
        return median([d.get(key, 0.0) for d in self.layers], 1e3)

    def layer_count(self, key: str) -> float:
        return median([d.get(key, 0.0) for d in self.layers])


def run(pkg, spec: Workload, seed: int, seconds: int, trace: bool, work: Path,
        import_s: float) -> tuple[dict, dict]:
    pace = Pace()
    first_mark = pace.mark()
    bench = Bench(pkg, spec, seed, work)
    tracer = make_tracer(pkg) if trace else None
    installed = tracer if tracer is not None else contextlib.nullcontext()

    def timed(fn, into: Samples):
        mark = pace.mark()
        before = tracer.snapshot() if tracer else {}
        t0 = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - t0
        into.add(wall, mark, tracer.delta(before) if tracer else {})
        return result

    setup = Samples()
    with installed:
        for _ in range(SETUP_REPEATS):
            timed(bench.setup_once, setup)
    pace.mark()

    # one untimed step under tracemalloc, with no wrapper installed
    first, peak = traced_peak(bench.step)
    beyond_outputs = peak - output_bytes(first[0], first[1])
    bench.verify_engine(first)
    bench.verify_calibration()
    bench.verify_entropy()

    ops = {"step": (bench.step, bench.check_step),
           "report": (bench.report, lambda _: bench.check_report()),
           "sweep": (bench.sweep, lambda _: bench.check_sweep())}
    round_ops = ["step"] * spec.steps + ["report", "sweep"]
    samples = {name: Samples() for name in ops}
    naive = Samples()
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    with installed:
        while True:
            for name in round_ops:
                fn, check = ops[name]
                attempted += 1
                try:
                    result = timed(fn, samples[name])
                except Exception:
                    failed += 1
                    traceback.print_exc(file=sys.stderr)
                    continue
                check(result)
            if time.perf_counter() >= deadline:
                break
        pace.mark()
        if trace:
            for _ in range(NAIVE_REPEATS):
                result = timed(bench.naive_step, naive)
            pace.mark()
            bench.check_naive(result)
    naive_peak = 0
    if trace:
        result, naive_peak = traced_peak(bench.naive_step)
        naive_peak -= output_bytes(*result)

    time_keys = tracer.time_keys if tracer else ()
    for smp in (setup, naive, *samples.values()):
        smp.scale(pace, time_keys)
    import_scaled = import_s * pace.factor(first_mark)
    if trace:
        metrics = layer_metrics(samples, setup, naive, naive_peak, first[2], beyond_outputs)
    else:
        step = samples["step"]
        metrics = {
            "setup_s": (import_scaled + median(setup.scaled), "s"),
            "step_p50_ms": (step.p50_ms(), "ms"),
            "tokens_per_s": (spec.engine.n / median(step.scaled) if step.scaled else 0.0,
                             "tokens/s"),
            "traced_peak_bytes": (beyond_outputs, "bytes"),
            "calib_report_p50_ms": (samples["report"].p50_ms(), "ms"),
            "entropy_verify_p50_ms": (samples["sweep"].p50_ms(), "ms"),
        }

    for err in bench.errors:
        print(f"check failed: {err}", file=sys.stderr)
    result = {"correct": not bench.errors, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    raw = {"wall_s": {name: smp.wall for name, smp in samples.items()},
           "setup_wall_s": setup.wall, "import_s": import_s, "naive_wall_s": naive.wall,
           "pace_s": pace.samples, "errors": bench.errors}
    return result, raw


def layer_metrics(samples, setup, naive, naive_peak, stats, beyond_outputs) -> dict:
    step, report, sweep = samples["step"], samples["report"], samples["sweep"]
    gemm_s = sum(d.get("gemm", 0.0) for d in step.layers)
    gemm_flop = sum(d.get("gemm_flop", 0.0) for d in step.layers)
    non_gemm = [d.get("forward", 0.0) + d.get("backward", 0.0) - d.get("gemm", 0.0)
                for d in step.layers]
    calib_parts = ("ingest", "bin", "sce", "ace")
    calib_other = [t - sum(d.get(k, 0.0) for k in calib_parts)
                   for t, d in zip(report.scaled, report.layers)]
    return {
        "trace.step_p50_ms": (step.p50_ms(), "ms"),
        "blocked.forward_ms": (step.layer_ms("forward"), "ms"),
        "blocked.backward_ms": (step.layer_ms("backward"), "ms"),
        "blocked.gemm_calls": (step.layer_count("gemm_calls"), "count"),
        "blocked.gemm_ms": (step.layer_ms("gemm"), "ms"),
        "blocked.gemm_flop": (step.layer_count("gemm_flop"), "flop"),
        "blocked.gemm_gflop_per_s": (gemm_flop / gemm_s / 1e9 if gemm_s else 0.0, "GFLOP/s"),
        "blocked.non_gemm_ms": (median(non_gemm, 1e3), "ms"),
        "blocked.tiles": (stats.tiles_processed, "count"),
        "memtrack.alloc_calls": (step.layer_count("alloc_calls"), "count"),
        "memtrack.alloc_bytes": (step.layer_count("alloc_bytes"), "bytes"),
        "memtrack.peak_bytes": (stats.peak_auxiliary_bytes, "bytes"),
        "memtrack.unreported_bytes": (beyond_outputs - stats.peak_auxiliary_bytes, "bytes"),
        "reference.naive_step_ms": (naive.p50_ms(), "ms"),
        "reference.naive_peak_bytes": (naive_peak, "bytes"),
        "reductions.lse_columns_ms": (naive.layer_ms("lse_columns"), "ms"),
        "tensors.random_instance_ms": (setup.layer_ms("random_instance"), "ms"),
        "calibration.ingest_ms": (report.layer_ms("ingest"), "ms"),
        "calibration.bin_ms": (report.layer_ms("bin"), "ms"),
        "calibration.sce_ms": (report.layer_ms("sce"), "ms"),
        "calibration.ace_ms": (report.layer_ms("ace"), "ms"),
        "cli.calibrate_other_ms": (median(calib_other, 1e3), "ms"),
        "entropy.floor_ms": (sweep.layer_ms("floor"), "ms"),
        "entropy.oracle_ms": (sweep.layer_ms("oracle"), "ms"),
        "entropy.oracle_steps": (sweep.layer_count("oracle_steps"), "count"),
    }


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    t0 = time.perf_counter()
    try:
        pkg = import_package()
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t0

    spec = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        result, raw = run(pkg, spec, args.seed, args.seconds, bool(args.trace), work, import_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = environment()
    raw_dir = WORK / "raw"
    raw_dir.mkdir(exist_ok=True)
    raw.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
               trace=args.trace, spec=asdict(spec), env=env, result=result)
    (raw_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(raw, indent=1) + "\n")
    print("env " + json.dumps(env))
    print("wall_p50_ms " + json.dumps({k: median(v, 1e3) for k, v in raw["wall_s"].items()}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
