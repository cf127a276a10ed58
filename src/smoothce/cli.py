"""Command-line surface: loss computation, gradient checking, benchmarking,
calibration reports, and entropy-floor sweeps.

Exit codes: 0 success, 1 data or verification failure, 2 usage error.
Every flag value but a path is checked as it is parsed, by a type that
`_checked` builds or by argparse `choices`, so a bad value exits 2 naming
the flag before any work or output; the command bodies check no flag of
their own. A path is checked when it is opened: a bad one exits 1.
Every flag can also be supplied through `--config FILE` (one `key=value`
per line, hyphen or underscore keys). Every `--config` is read, in the
order given: a later file overrides an earlier one, and command-line flags
win over both. A file cannot name another (`config=` is a usage error).
A `true` or `false` value means a boolean only for a boolean flag (`true`
the key's own flag, `false` its other one); for any other flag it is the
flag's value. Flags and config keys are spelled out in full: a prefix is
a usage error.
Each call builds only its own command's parser. The command list is built
only for help and command errors: `--help`, a missing or unknown command,
and unrecognized arguments, which it reports in its own usage words.
"""

from __future__ import annotations

import argparse
import csv
import functools
import math
import os
import statistics
import sys
import time
import tracemalloc

import numpy as np

from .blocked import (aux_bound_bytes, blocked_backward, blocked_forward,
                      loss_and_grad)
from .calibration import (SCHEMES, ace, bin_records, ece, ingest_records,
                          reliability_data, rms_ce, sce)
from .entropy import (BoundParams, effective_params, entropy_lower_bound,
                      normalized_gap, numeric_min_entropy)
from .reference import finite_diff_grad, naive_backward, naive_forward
from .tensors import (MatrixFileError, load_matrix, load_tokens, plan_blocks,
                      random_instance)

__all__ = ["main", "entry"]


class UsageError(Exception):
    pass


def _fmt(x) -> str:
    # repr of a float is its shortest exact round-trip form
    if x is None:
        return ""
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _checked(cast, ok, what: str):
    """Argparse type: `cast` the text and keep the value if `ok` accepts
    it; otherwise, or if the cast fails, refuse it as "expected <what>"."""
    def parse(text: str):
        try:
            val = cast(text)
        except ValueError:
            pass
        else:
            if ok(val):
                return val
        raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
    return parse


def _list_arg(item, what: str):
    """Type for a non-empty comma-separated list of `what`, each entry
    parsed by the type `item`."""
    def parse(text: str) -> list:
        vals = [item(tok) for tok in text.split(",") if tok.strip()]
        if not vals:
            raise argparse.ArgumentTypeError(f"expected comma-separated {what}, got {text!r}")
        return vals
    return parse


def _one_of(names):
    return _checked(str.strip, names.__contains__, f"one of {', '.join(names)}")


_PHASES = ("fwd", "bwd", "fwd_bwd")
_METRICS = ("ece", "rms_ce", "sce", "ace")

_int = _checked(int, lambda n: True, "an integer")
_nonnegative_int = _checked(int, lambda n: n >= 0, "a nonnegative integer")
_positive_int = _checked(int, lambda n: n >= 1, "a positive integer")
_positive_float = _checked(float, lambda x: 0 < x < math.inf, "a finite positive number")
_beta_arg = _checked(float, lambda x: 0 <= x <= 1, "a number in [0, 1]")
_vocab_int = _checked(int, lambda n: n >= 2, "an integer >= 2")  # one class has no gradient


def _open_out(path):
    if path in (None, "-"):
        return sys.stdout, False
    return open(path, "w", newline="", encoding="utf-8"), True


def _write_csv(path, header, rows) -> None:
    fh, close = _open_out(path)
    try:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(cell) for cell in row])
    finally:
        if close:
            fh.close()


def _rel_frobenius(a: np.ndarray, b: np.ndarray) -> float:
    denom = float(np.linalg.norm(b))
    return float(np.linalg.norm(a - b)) / max(denom, 1e-300)


def _grad_error(got, want) -> float:
    return max(
        _rel_frobenius(got.grad_e.data, want.grad_e.data),
        _rel_frobenius(got.grad_c.data, want.grad_c.data),
    )


# ---------------------------------------------------------------------------
# subcommands

def _make_plan(args, n, v, d):
    """The engine plan, on `--threads` workers, else every CPU this process
    may run on; the plan is the only place the worker count goes."""
    return plan_blocks(n, v, d, n_block=args.n_block, v_block=args.v_block,
                       workers=args.threads)


def cmd_loss(args) -> int:
    emb = load_matrix(args.embeddings)
    cls = load_matrix(args.classifier)
    tgt = load_tokens(args.targets)
    if args.engine == "blocked":
        plan = _make_plan(args, emb.cols, cls.cols, emb.rows)
        out, _ = blocked_forward(emb, cls, tgt, args.beta, plan,
                                 reduction=args.reduction)
    else:
        out = naive_forward(emb, cls, tgt, args.beta, reduction=args.reduction)
    # the CSV first, so that a path it cannot write leaves no total behind
    if args.per_token_csv is not None:
        rows = [(i, out.lse[i], out.o[i], out.per_token_loss[i])
                for i in range(len(out.per_token_loss))]
        _write_csv(args.per_token_csv, ("token", "lse", "o", "loss"), rows)
    print(f"total {_fmt(out.total)}")
    return 0


def cmd_gradcheck(args) -> int:
    emb, cls, tgt = random_instance(args.seed, args.n, args.v, args.d, args.scale)
    plan = _make_plan(args, args.n, args.v, args.d)
    tol_analytic = args.tol_analytic
    if tol_analytic is None:
        tol_analytic = 1e-3 if args.filter_eps > 0 else 1e-9

    analytic = naive_backward(emb, cls, tgt, args.beta, reduction=args.reduction)
    _, grads, stats = loss_and_grad(emb, cls, tgt, args.beta, plan,
                                    filter_epsilon=args.filter_eps,
                                    reduction=args.reduction)

    err_analytic = _grad_error(grads, analytic)
    print(f"blocked vs analytic relative error: {err_analytic:.3e} (tol {tol_analytic:g})")
    if args.filter_eps > 0:
        print(f"tiles skipped by filter: {stats.tiles_skipped_by_filter}")
    ok = err_analytic <= tol_analytic

    if not args.skip_fd:
        fd = finite_diff_grad(emb, cls, tgt, args.beta, args.h,
                              reduction=args.reduction)
        err_fd = _grad_error(analytic, fd)
        print(f"analytic vs finite-difference relative error: {err_fd:.3e} "
              f"(tol {args.tol_fd:g})")
        ok = ok and err_fd <= args.tol_fd

    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def _time_runs(fn, repetitions: int, warmups: int) -> float:
    for _ in range(warmups):
        fn()
    samples = []
    for _ in range(repetitions):
        t0 = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - t0) * 1000.0)
    return statistics.median(samples)


def _tracemalloc_peak(fn) -> int:
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    before, _ = tracemalloc.get_traced_memory()
    fn()
    _, peak = tracemalloc.get_traced_memory()
    if not was_tracing:
        tracemalloc.stop()
    return max(0, peak - before)


def _reported_peak(fn) -> int:
    """Peak auxiliary bytes that a blocked-engine call reports."""
    return fn()[-1].peak_auxiliary_bytes


def cmd_bench(args) -> int:
    n, v, d = args.n, args.v, args.d
    plan = _make_plan(args, n, v, d)

    emb, cls, tgt = random_instance(args.seed, n, v, d, args.scale)
    rows = []
    ceiling = aux_bound_bytes(plan, n, v, d)

    for beta in args.betas:
        lse = None  # only the bwd phase reads the forward's lse
        if "bwd" in args.phases:
            lse = blocked_forward(emb, cls, tgt, beta, plan)[0].lse

        def naive_both():
            # the forward's output is dropped before the backward runs
            naive_forward(emb, cls, tgt, beta)
            naive_backward(emb, cls, tgt, beta)

        # (method, peak meter, peak ceiling, phase -> runner)
        methods = [("blocked", _reported_peak, ceiling, {
            "fwd": lambda: blocked_forward(emb, cls, tgt, beta, plan),
            "bwd": lambda: blocked_backward(emb, cls, tgt, beta, plan, lse),
            "fwd_bwd": lambda: loss_and_grad(emb, cls, tgt, beta, plan)})]
        if not args.skip_naive:
            methods.append(("naive", _tracemalloc_peak, math.inf, {
                "fwd": lambda: naive_forward(emb, cls, tgt, beta),
                "bwd": lambda: naive_backward(emb, cls, tgt, beta),
                "fwd_bwd": naive_both}))
        for method, meter, bound, runners in methods:
            for phase in args.phases:
                peak = meter(runners[phase])
                if args.deterministic:
                    wall = None
                else:
                    wall = _time_runs(runners[phase], args.repetitions, args.warmups)
                rows.append((method, phase, n, v, d, beta, args.repetitions, wall,
                             peak))
                if peak > bound:
                    print(f"error: {method} {phase} peak {peak} bytes exceeds "
                          f"the {bound}-byte ceiling", file=sys.stderr)
                    return 1

    header = ("method", "phase", "n", "v", "d", "beta", "repetitions",
              "wall_time_ms", "peak_auxiliary_bytes")
    _write_csv(args.out, header, rows)
    return 0


def cmd_calibrate(args) -> int:
    records = ingest_records(args.records)
    if not records:
        raise ValueError(f"{args.records} holds no records")

    wanted = args.metrics or (
        ["ece", "rms_ce"] + (["sce", "ace"] if records.probs is not None else []))

    m = args.bins

    @functools.cache
    def bins_for(scheme):
        return bin_records(records.confidence, records.correct, m, scheme)

    # bin_records, sce and ace stay module names looked up at call time:
    # the benchmark's tracer wraps them here
    binned_metrics = {"ece": ece, "rms_ce": rms_ce}
    rows = []
    for name in wanted:
        if name in binned_metrics:
            rows += [(name, m, scheme, binned_metrics[name](bins_for(scheme)))
                     for scheme in SCHEMES]
        elif name == "sce":
            rows.append(("sce", m, "equal_width",
                         sce(records.probs, records.labels, m)))
        else:
            rows.append(("ace", m, "equal_mass",
                         ace(records.probs, records.labels, m, args.ace_empty)))

    _write_csv(args.out, ("metric", "bins", "scheme", "value"), rows)
    if args.reliability_csv is not None:
        _write_csv(args.reliability_csv,
                   ("lo", "hi", "count", "mean_confidence", "accuracy", "gap"),
                   reliability_data(bins_for(args.reliability_scheme)))
    return 0


def cmd_entropy(args) -> int:
    rows = []
    for d in args.d:
        for v in args.v:
            for rho in args.rho:
                base = BoundParams(sigma_c=rho, sigma_h=1.0, d=d, v=v)
                p = effective_params(base, args.temperature, args.softcap)
                rows.append((d, v, rho, args.temperature, args.softcap,
                             p.r, entropy_lower_bound(p), normalized_gap(p)))
    oracle = {}
    if args.verify:
        # one oracle call per v, over its distinct radii in grid order, all
        # before the table is written, so that a refused input leaves none
        radii: dict[int, dict[float, None]] = {}
        for _, v, *_, r_eff, _, _ in rows:
            if r_eff > 0:
                radii.setdefault(v, {})[r_eff] = None
        for v, by_radius in radii.items():
            values = numeric_min_entropy(list(by_radius), v, restarts=args.restarts,
                                         iterations=args.iterations, seed=args.oracle_seed)
            oracle.update(zip([(r_eff, v) for r_eff in by_radius], values))
    _write_csv(args.out,
               ("d", "v", "rho", "temperature", "softcap", "r_effective",
                "bound", "normalized_gap"),
               rows)
    for _, v, *_, r_eff, bound, _ in rows:
        numeric = oracle.get((r_eff, v))
        if numeric is not None and numeric < bound - 1e-6:
            print(f"error: oracle entropy {numeric!r} undercuts the closed-form "
                  f"bound {bound!r} at r={r_eff}, v={v}", file=sys.stderr)
            return 1
    return 0


# ---------------------------------------------------------------------------
# parser and config plumbing

_BOOL = argparse.BooleanOptionalAction


def _add_engine(sub):
    sub.add_argument("--n-block", type=_positive_int, default=None)
    sub.add_argument("--v-block", type=_positive_int, default=None)
    sub.add_argument("--threads", type=_positive_int, default=None,
                     help="threads the engine computes on, each running "
                          "BLAS on one thread (default: every available "
                          "CPU); for given tile sizes results are "
                          "bit-identical for any count")


def _loss_flags(p):
    p.add_argument("--embeddings", required=True, help="SCE1 matrix, D x N")
    p.add_argument("--classifier", required=True, help="SCE1 matrix, D x |V|")
    p.add_argument("--targets", required=True, help="SCE1 token sequence")
    p.add_argument("--beta", type=_beta_arg, default=0.0)
    p.add_argument("--engine", choices=("blocked", "naive"), default="blocked")
    p.add_argument("--reduction", choices=("sum", "mean"), default="sum")
    p.add_argument("--per-token-csv", default=None)
    _add_engine(p)


def _gradcheck_flags(p):
    p.add_argument("--n", type=_positive_int, default=8)
    p.add_argument("--v", type=_vocab_int, default=64)
    p.add_argument("--d", type=_positive_int, default=8)
    p.add_argument("--beta", type=_beta_arg, default=0.1)
    p.add_argument("--seed", type=_int, default=1)
    p.add_argument("--scale", type=_positive_float, default=0.5)
    p.add_argument("--reduction", choices=("sum", "mean"), default="sum")
    p.add_argument("--h", type=_positive_float, default=1e-3,
                   help="finite-difference step")
    p.add_argument("--tol-analytic", type=_positive_float, default=None,
                   help="blocked-vs-analytic tolerance (default 1e-9, or 1e-3 "
                        "when filtering)")
    p.add_argument("--tol-fd", type=_positive_float, default=1e-4)
    p.add_argument("--filter-eps", default=0.0,
                   type=_checked(float, lambda x: 0 <= x < 1, "a number in [0, 1)"))
    p.add_argument("--skip-fd", action=_BOOL, default=False)
    _add_engine(p)


def _bench_flags(p):
    p.add_argument("--n", type=_positive_int, default=1024)
    p.add_argument("--v", type=_positive_int, default=16384)
    p.add_argument("--d", type=_positive_int, default=64)
    p.add_argument("--betas", type=_list_arg(_beta_arg, "betas"), default=[0.0, 0.1])
    p.add_argument("--phases", type=_list_arg(_one_of(_PHASES), "phases"),
                   default=",".join(_PHASES))
    p.add_argument("--repetitions", default=10,
                   type=_checked(int, lambda n: n >= 3, "an integer >= 3"))
    p.add_argument("--warmups", type=_nonnegative_int, default=3)
    p.add_argument("--seed", type=_int, default=0)
    p.add_argument("--scale", type=_positive_float, default=0.02)
    p.add_argument("--skip-naive", action=_BOOL, default=False)
    p.add_argument("--out", default="-")
    _add_engine(p)
    p.add_argument("--deterministic", action=_BOOL, default=True,
                   help="leave wall times empty so that every output is "
                        "byte-identical across reruns")


def _calibrate_flags(p):
    p.add_argument("--records", required=True)
    # beyond 2**53 float64 no longer tells every bin apart
    p.add_argument("--bins", type=_checked(int, lambda m: 1 <= m <= 2**53,
                                           "an integer in [1, 2**53]"), default=10)
    p.add_argument("--metrics", type=_list_arg(_one_of(_METRICS), "metrics"),
                   default=None,
                   help="comma list from ece,rms_ce,sce,ace (default: all applicable)")
    p.add_argument("--ace-empty", choices=("skip", "zero"), default="skip")
    p.add_argument("--out", default="-")
    p.add_argument("--reliability-csv", default=None)
    p.add_argument("--reliability-scheme", choices=SCHEMES, default="equal_width")


def _entropy_flags(p):
    p.add_argument("--d", type=_list_arg(_positive_int, "positive integers"),
                   default=[1, 64])
    p.add_argument("--v", type=_list_arg(_vocab_int, "integers >= 2"), default=[2, 16, 256])
    p.add_argument("--rho", default=[0.0, 0.5, 2.0], type=_list_arg(
        _checked(float, lambda x: 0 <= x < math.inf, "a finite nonnegative number"),
        "finite nonnegative numbers"))
    p.add_argument("--temperature", type=_positive_float, default=None)
    p.add_argument("--softcap", type=_positive_float, default=None)
    p.add_argument("--out", default="-")
    p.add_argument("--verify", action=_BOOL, default=False,
                   help="run the projected-gradient oracle and fail if it "
                        "undercuts the bound")
    p.add_argument("--restarts", type=_positive_int, default=16,
                   help="random starting points the oracle descends from, "
                        "per radius")
    p.add_argument("--iterations", type=_positive_int, default=1500,
                   help="cap on the oracle's descent steps per start; a "
                        "start stops sooner once its best entropy has "
                        "stalled for 50 steps")
    p.add_argument("--oracle-seed", type=_nonnegative_int, default=0)


# name -> (its help in the command list, adds its flags, runs it)
_COMMANDS = {
    "loss": ("compute a smoothed cross-entropy loss", _loss_flags, cmd_loss),
    "gradcheck": ("cross-check gradients against oracles", _gradcheck_flags, cmd_gradcheck),
    "bench": ("time and meter both engines", _bench_flags, cmd_bench),
    "calibrate": ("calibration metrics from JSONL records", _calibrate_flags, cmd_calibrate),
    "entropy": ("entropy-floor sweeps over (d, v, rho)", _entropy_flags, cmd_entropy),
}


def _with_flags(parser, name: str) -> argparse.ArgumentParser:
    _COMMANDS[name][1](parser)
    parser.add_argument("--config", help="key=value file mirroring every flag")
    return parser


def _command_parser(name: str) -> argparse.ArgumentParser:
    """One command's parser: its flags and `--config`, nothing else."""
    # argparse would take an unambiguous prefix for a flag, but
    # `_expand_config` finds `--config` by its full name
    return _with_flags(argparse.ArgumentParser(prog=f"smoothce {name}",
                                               allow_abbrev=False), name)


def build_parser() -> argparse.ArgumentParser:
    """The command list, each command with its flags, so that help and
    command errors read as they would with every parser built."""
    parser = argparse.ArgumentParser(
        prog="smoothce", allow_abbrev=False,
        description="Smoothed cross-entropy engines, calibration metrics, "
                    "and entropy-floor analysis.")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in _COMMANDS.items():
        _with_flags(subs.add_parser(name, help=help_text, allow_abbrev=False), name)
    return parser


def _config_flags(cfg_path: str, parser) -> list[str]:
    """The flags one config file stands for. A `true` or `false` line for
    a boolean flag of `parser` becomes the key's own option string or the
    flag's other one (`no-verify=false` is `--verify`); any other line
    becomes `--key=value`. A `config` line is refused: files do not nest."""
    flags: list[str] = []
    try:
        with open(cfg_path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                key, sep, value = line.partition("=")
                key, value = f"--{key.strip().replace('_', '-')}", value.strip()
                if not sep or key == "--config":
                    what = "a config file cannot name another" if sep else "expected key=value"
                    raise UsageError(f"{cfg_path}:{lineno}: {what}, got {line!r}")
                action = parser._option_string_actions.get(key)
                if isinstance(action, _BOOL) and value.lower() in ("true", "false"):
                    flags.append(key if value.lower() == "true" else
                                 next(s for s in action.option_strings if s != key))
                else:
                    flags.append(f"{key}={value}")
    except (OSError, ValueError) as exc:  # a decode error or a NUL in the path
        raise UsageError(f"cannot read config {cfg_path}: {exc}")
    return flags


def _expand_config(flags: list[str], parser) -> list[str]:
    """Put the flags of every `--config FILE` among a command's `flags`,
    file by file in the order given, ahead of the user's, so that a later
    file overrides an earlier one and explicit flags override both."""
    injected: list[str] = []
    for i, tok in enumerate(flags):
        if tok == "--config" and i + 1 < len(flags):
            injected += _config_flags(flags[i + 1], parser)
        elif tok.startswith("--config="):
            injected += _config_flags(tok.split("=", 1)[1], parser)
    return injected + flags


def main(argv=None) -> int:
    argv = [os.fspath(arg) for arg in (sys.argv[1:] if argv is None else argv)]
    try:
        name = argv[0] if argv else None
        if name in _COMMANDS:
            parser = _command_parser(name)
            args, extra = parser.parse_known_args(_expand_config(argv[1:], parser))
            if extra:
                build_parser().error(f"unrecognized arguments: {' '.join(extra)}")
        else:
            parser = build_parser()
            args = parser.parse_args(argv[:1] + _expand_config(argv[1:], parser))
            name = args.command
        return _COMMANDS[name][2](args)
    except SystemExit as exc:  # argparse's: 0 after --help, else 2
        return int(exc.code) if exc.code else 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (MatrixFileError, ValueError, OSError, MemoryError, OverflowError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
