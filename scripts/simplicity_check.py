#!/usr/bin/env python3
"""Code-line counts and a bit-identity digest of the engines' results.

Prints the code lines of each `src/smoothce/*.py` (non-blank lines that
are neither comments nor docstrings) and their total; the options of each
command (its parser's actions other than `--help`, so `--config` counts)
and their total; the places in `src/smoothce` that read the environment
(`os.environ` or `os.getenv`, found in the syntax tree); then the number
of engine calls in a fixed grid, the tracked allocations they make (`alloc_calls`: every buffer
the engine's `TrackingAllocator` hands out, counted by a subclass put in its
place; one per worker per call, each taken before the workers start) and one SHA-256 over every result they return, a second
SHA-256 over the entropy oracle's values on its own grid, and a third over
what fixed runs of the `calibrate` and `entropy --verify` commands write
and what the command line prints for help and usage errors.
Run it on two checkouts on the same host: equal digests mean the change
kept every output, counter, peak and bound (or every oracle value, or
every byte the commands write or print) bit for bit. The engine digest depends on
the host's BLAS kernels, so runs from different hosts do not compare, and
the oracle digest on numpy's `vecdot` loops, so the script prints numpy's
version too.

The grid:
- shapes (n, v, d, N_B, V_B) (300, 5000, 48, 64, 512) and (64, 512, 32, 16,
  64), plus 4 x 2 x 1000 and 0 x 96 x 8 at the default plan;
- beta 0 and 0.1, reductions `sum` and `mean`;
- `naive_forward` and `naive_backward` with no mask, a seeded 30% mask and
  every token ignored, the backward at upstream 1 and 0.5;
- `blocked_forward`, `blocked_backward` and `loss_and_grad` on 1-3 workers,
  the last two at filter 0 and 0.5 and upstream 1 and 0.5, plus
  `aux_bound_bytes` for each plan;
- `finite_diff_grad` on a 3 x 5 x 2 instance with the same three masks.

The oracle grid: `numeric_min_entropy` at v 2, 64, 256 and 1024, each over
the radii 1e-200, 0.5, 4 and 1e150, with 4 restarts and 50 iterations.

The command runs, each hashed by its exit code, stdout, stderr and every
file it writes:
- `calibrate` on a seeded 300 x 50 probs file and a seeded 400-record
  confidence file, once per reliability scheme, with every metric that
  applies; then, on the confidence file, `--metrics sce`, which must fail;
- `entropy --verify` over d 1, 64, v 2, 16, 256 and rho 0, 1e-13, 4e-13,
  0.5, 2, with 4 restarts and 50 iterations;
- `--help` and each command's `--help`, no command and an unknown one, and
  one unrecognized flag per command (after its required flags), under
  COLUMNS=80 so that the help text wraps the same on any terminal.

Usage:
    OPENBLAS_NUM_THREADS=1 python scripts/simplicity_check.py [ROOT]

ROOT is a checkout (default: the one holding this script); its `src` is
imported ahead of any installed copy. OPENBLAS_NUM_THREADS defaults to 1.
"""

import argparse
import ast
import contextlib
import dataclasses
import hashlib
import io
import itertools
import json
import os
import pathlib
import sys
import tempfile

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ["COLUMNS"] = "80"  # argparse wraps help at the terminal width

import numpy as np  # noqa: E402

ROOT = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else
                    pathlib.Path(__file__).resolve().parent.parent).resolve()
sys.path.insert(0, str(ROOT / "src"))

from smoothce import (DenseMatrix, TokenSequence, blocked_backward,  # noqa: E402
                      blocked_forward, finite_diff_grad, loss_and_grad,
                      naive_backward, naive_forward, numeric_min_entropy, plan_blocks,
                      random_instance)
import smoothce.blocked  # noqa: E402
from smoothce.blocked import aux_bound_bytes  # noqa: E402
from smoothce.cli import build_parser, main as cli_main  # noqa: E402

SHAPES = [(300, 5000, 48, 64, 512), (64, 512, 32, 16, 64),
          (4, 2, 1000, None, None), (0, 96, 8, None, None)]
BETAS, REDUCTIONS, UPSTREAMS, FILTERS = (0.0, 0.1), ("sum", "mean"), (1.0, 0.5), (0.0, 0.5)
ORACLE_VOCABS, ORACLE_RADII = (2, 64, 256, 1024), [1e-200, 0.5, 4.0, 1e150]
COMMANDS = ("loss", "gradcheck", "bench", "calibrate", "entropy")
ENTROPY_GRID = ["--d", "1,64", "--v", "2,16,256", "--rho", "0,1e-13,4e-13,0.5,2",
                "--restarts", "4", "--iterations", "50"]


def code_lines(path: pathlib.Path) -> int:
    """Non-blank lines that are neither comments nor docstrings."""
    text = path.read_text()
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            first = node.body[0]
            docstrings.update(range(first.lineno, first.end_lineno + 1))
    return sum(1 for no, line in enumerate(text.splitlines(), 1)
               if line.strip() and not line.strip().startswith("#") and no not in docstrings)


def env_reads(path: pathlib.Path) -> int:
    """`os.environ` and `os.getenv` expressions in a module."""
    return sum(1 for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv")
               and isinstance(node.value, ast.Name) and node.value.id == "os")


def option_counts() -> dict[str, int]:
    """Each command's options: its parser's actions other than `--help`."""
    subs = next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction))
    return {name: sum(not isinstance(a, argparse._HelpAction) for a in sub._actions)
            for name, sub in subs.choices.items()}


def feed(h, value) -> None:
    """Hash a result: arrays by shape and bytes, dataclasses by their
    compared fields (so timings are left out), anything else by repr."""
    if isinstance(value, DenseMatrix):
        value = value.data
    if isinstance(value, np.ndarray):
        h.update(repr(value.shape).encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            if f.compare:
                feed(h, getattr(value, f.name))
    elif isinstance(value, (tuple, list)):
        for item in value:
            feed(h, item)
    else:
        h.update(repr(value).encode())


def instance(seed, n, v, d):
    e, c, x = random_instance(seed, max(n, 1), v, d, 0.5)
    if n == 0:
        e = DenseMatrix.from_array(np.zeros((d, 0)))
        x = TokenSequence(np.array([], dtype=np.int64))
    return e, c, x


def masks(n, seed):
    return (None, np.random.default_rng(seed).random(n) < 0.3, np.ones(n, dtype=bool))


def grid():
    """Yield each call of the grid as (function, args, kwargs), in order."""
    for seed, (n, v, d, nb, vb) in enumerate(SHAPES):
        e, c, x = instance(seed, n, v, d)
        for beta, red, mask in itertools.product(BETAS, REDUCTIONS, masks(n, seed)):
            yield naive_forward, (e, c, x, beta), dict(reduction=red, ignore_mask=mask)
            for up in UPSTREAMS:
                yield naive_backward, (e, c, x, beta), dict(reduction=red, upstream=up,
                                                            ignore_mask=mask)
        for workers in (1, 2, 3):
            plan = plan_blocks(n, v, d, n_block=nb, v_block=vb, workers=workers)
            yield aux_bound_bytes, (plan, n, v, d), {}
            for beta, red in itertools.product(BETAS, REDUCTIONS):
                yield blocked_forward, (e, c, x, beta, plan), dict(reduction=red)
                lse = naive_forward(e, c, x, beta).lse
                for filt, up in itertools.product(FILTERS, UPSTREAMS):
                    yield blocked_backward, (e, c, x, beta, plan, lse), dict(
                        upstream=up, filter_epsilon=filt, reduction=red)
                    yield loss_and_grad, (e, c, x, beta, plan), dict(
                        filter_epsilon=filt, reduction=red, upstream=up)
    e, c, x = instance(7, 3, 5, 2)
    for beta, red, mask in itertools.product(BETAS, REDUCTIONS, masks(3, 7)):
        yield finite_diff_grad, (e, c, x, beta, 1e-4), dict(reduction=red, ignore_mask=mask)


def write_records(tmp: pathlib.Path):
    """A seeded probs-form file and a seeded confidence-form file."""
    rng = np.random.default_rng(11)
    logits = rng.normal(scale=3.0, size=(300, 50))
    probs = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)
    labels = rng.integers(0, 50, size=300)
    probs_path, conf_path = tmp / "probs.jsonl", tmp / "conf.jsonl"
    probs_path.write_text("".join(
        json.dumps({"probs": row.tolist(), "label": int(k)}) + "\n"
        for row, k in zip(probs, labels)))
    conf = rng.random(400)
    conf_path.write_text("".join(
        json.dumps({"confidence": float(c), "correct": bool(rng.random() < c)}) + "\n"
        for c in conf))
    return probs_path, conf_path


def cli_runs(tmp: pathlib.Path):
    """Yield the argument list of each command run, in order."""
    probs_path, conf_path = write_records(tmp)
    for path, scheme in itertools.product((probs_path, conf_path),
                                          ("equal_width", "equal_mass")):
        yield ["calibrate", "--records", str(path), "--bins", "10",
               "--out", str(tmp / "metrics.csv"), "--reliability-scheme", scheme,
               "--reliability-csv", str(tmp / "reliability.csv")]
    yield ["calibrate", "--records", str(probs_path), "--bins", "15", "--ace-empty", "zero"]
    yield ["calibrate", "--records", str(conf_path), "--metrics", "sce"]
    yield ["entropy", *ENTROPY_GRID, "--verify"]
    yield ["--help"]
    yield []
    yield ["nope"]
    required = {"loss": ["--embeddings", "e", "--classifier", "c", "--targets", "t"],
                "calibrate": ["--records", "r"]}
    for command in COMMANDS:
        yield [command, "--help"]
        yield [command, *required.get(command, []), "--nope"]


def cli_digest() -> str:
    """SHA-256 over what each command run returns, prints and writes."""
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as name:
        tmp = pathlib.Path(name)
        for argv in cli_runs(tmp):
            for out in tmp.glob("*.csv"):
                out.unlink()
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                rc = cli_main(argv)
            feed(h, [rc, stdout.getvalue(), stderr.getvalue().replace(name, "TMP")])
            for out in sorted(tmp.glob("*.csv")):
                feed(h, [out.name, out.read_bytes()])
    return h.hexdigest()


def main() -> int:
    print(f"root {ROOT}")
    total = reads = 0
    for path in sorted((ROOT / "src" / "smoothce").glob("*.py")):
        lines = code_lines(path)
        total += lines
        reads += env_reads(path)
        print(f"code_lines {path.name} {lines}")
    print(f"code_lines total {total}")
    options = option_counts()
    for name, count in options.items():
        print(f"options {name} {count}")
    print(f"options total {sum(options.values())}")
    print(f"env_reads {reads}")
    h = hashlib.sha256()
    calls, allocs = 0, []

    class CountingAllocator(smoothce.blocked.TrackingAllocator):
        def empty(self, shape, order="F"):
            allocs.append(None)  # one per buffer, all on the calling thread
            return super().empty(shape, order)

    smoothce.blocked.TrackingAllocator = CountingAllocator
    for fn, args, kwargs in grid():
        feed(h, fn(*args, **kwargs))
        calls += 1
    print(f"OPENBLAS_NUM_THREADS {os.environ['OPENBLAS_NUM_THREADS']}")
    print(f"numpy {np.__version__}")
    print(f"calls {calls}")
    print(f"alloc_calls {len(allocs)}")
    print(f"sha256 {h.hexdigest()}")
    h = hashlib.sha256()
    for v in ORACLE_VOCABS:
        feed(h, numeric_min_entropy(ORACLE_RADII, v, restarts=4, iterations=50))
    print(f"oracle_sha256 {h.hexdigest()}")
    print(f"cli_sha256 {cli_digest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
