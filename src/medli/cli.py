"""Command-line interface: JSON ensembles in, machine-readable reports out.

Exit codes partition outcomes: 0 when the sought property holds (certified
optimum, Optimal verdict, fixed point), 2 for parse or validation errors,
3 when the computation succeeded but the property does not hold, 4 for
internal numerical failures. Reports go to stdout (or --out); diagnostics
and wall-clock timing go to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import os
import sys
import time

import numpy as np

from .belavkin import forward_map, inverse_map, roundtrip_check
from .certify import OPTIMAL, _simplified_rule, certify_full, fixpoint_check, rank_matched
from .ensembles import random_ensemble
from .errors import MEDError, NotProjective, SolverFailed
from .linalg import DEFAULT_TOL
from .serialize import (
    dumps,
    ensemble_from_doc,
    ensemble_to_doc,
    load_json,
    measurement_to_doc,
    povm_from_doc,
)
from .solver import SolveResult, check_oracle_size, generate_fixed_point, solve, solve_oracle

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_UNCERTIFIED = 3
EXIT_NUMERICAL = 4

_TOL_FLAGS = ("tol_psd", "tol_rank", "tol_recon", "tol_fixpoint")


class _BadInput(Exception):
    """A flag, an input or output file, its parse or its validation is at fault."""


# What a command raises -> exit code and diagnostic prefix; the first
# matching row wins. A MEDError raised while reading flags and files is
# re-raised as _BadInput (see _input_phase); one raised while computing is a
# numerical failure.
_EXIT_TABLE = (
    (_BadInput, EXIT_INPUT, "input error"),
    (SolverFailed, EXIT_UNCERTIFIED, "uncertified"),
    (MEDError, EXIT_NUMERICAL, "numerical failure"),
    (np.linalg.LinAlgError, EXIT_NUMERICAL, "numerical failure"),
    (MemoryError, EXIT_NUMERICAL, "out of memory"),
)

# Fields every report carries, in order, null when a command has no value.
_REPORT_FIELDS = (
    "success_prob", "dual_value", "verdict", "residuals", "measurement", "fixed_point", "timings"
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="medli",
        description="Minimum-error discrimination toolkit for linearly independent ensembles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help_text, *positionals):
        p = sub.add_parser(name, help=help_text)
        for positional in positionals:
            p.add_argument(positional)
        p.add_argument("--out", help="write the primary output to this path instead of stdout")
        p.add_argument("--quiet", action="store_true", help="suppress stderr diagnostics")
        for flag in _TOL_FLAGS:
            p.add_argument(f"--{flag.replace('_', '-')}", type=float, default=None, dest=flag)
        return p

    p = command("solve", "find and certify the optimal measurement", "input")
    p.add_argument("--oracle", action="store_true", help="use the brute-force oracle (dim<=4, m<=3)")
    p.add_argument("--seed", type=int, default=0, help="seed of the oracle's sample grid")
    command("certify", "check optimality of a measurement for an ensemble", "input", "povm")
    p = command("map", "apply the ensemble transform or its inverse", "input")
    p.add_argument("--direction", choices=("forward", "inverse"), required=True)
    command("roundtrip", "deviations of both transform compositions", "input")
    p = command("gen", "generate a random or fixed-point ensemble file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--signature", required=True, help='comma-separated ranks, e.g. "2,1,1"')
    p.add_argument("--fixed-point", action="store_true")
    command("fixpoint", "test whether the PGM is already optimal", "input")
    return parser


@contextlib.contextmanager
def _input_phase():
    """Re-raise what reading flags and files raises as _BadInput."""
    try:
        yield
    except (MEDError, OSError, ValueError) as exc:
        raise _BadInput(str(exc)) from exc


def _tolerances(args):
    overrides = {flag: getattr(args, flag) for flag in _TOL_FLAGS if getattr(args, flag) is not None}
    with _input_phase():
        return DEFAULT_TOL.replace(**overrides) if overrides else DEFAULT_TOL


def _echo(args, *names) -> dict:
    """The named flags a report echoes, then the tolerance overrides."""
    echo = {name: getattr(args, name) for name in names}
    echo["tolerances"] = {flag: getattr(args, flag) for flag in _TOL_FLAGS}
    return echo


def _diag(args, message: str) -> None:
    if not getattr(args, "quiet", False):
        print(message, file=sys.stderr)


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _load(args):
    """Tolerances from the flags, the validated input ensemble and its file digest."""
    tol = _tolerances(args)
    with _input_phase():
        doc, data = load_json(args.input)
        return tol, ensemble_from_doc(doc, tol), _digest(data)


def _check_out(path: str) -> None:
    """Reject an --out path that cannot be written, before any computation."""
    target = os.path.abspath(path)
    parent = os.path.dirname(target)
    if os.path.isdir(target):
        reason = "Is a directory"
    elif not os.path.isdir(parent):
        reason = "No such file or directory"
    elif not os.access(target if os.path.exists(target) else parent, os.W_OK):
        reason = "Permission denied"
    else:
        return
    raise _BadInput(f"cannot write --out {path}: {reason}")


def _write(args, text: str) -> None:
    if not args.out:
        sys.stdout.write(text)
        return
    try:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise _BadInput(f"cannot write --out {args.out}: {exc.strerror}") from exc


def _report(command: str, args_echo: dict, digest, **fields) -> dict:
    doc = {"command": command, "args": args_echo, "input_digest": digest}
    doc.update((key, fields.pop(key, None)) for key in _REPORT_FIELDS)
    doc.update(fields)
    return doc


def _report_fields(report) -> dict:
    return {
        "success_prob": report.success_prob,
        "dual_value": report.dual_value,
        "verdict": report.verdict,
        "residuals": {
            "stationarity": report.stationarity_residual,
            "min_slack_eig": report.min_slack_eig,
            "positivity_min_eig": report.positivity_min_eig,
            "hermiticity": report.hermiticity_residual,
        },
    }


def _seed(args) -> int:
    """The --seed flag of ``solve`` and ``gen``, refused before any computation when negative."""
    if args.seed < 0:
        raise _BadInput(f"seed must be at least 0, got {args.seed}")
    return args.seed


def _result_fields(result) -> dict:
    """Report fields of a SolveResult, all but its measurement."""
    timings = {"iterations": result.iterations, "certified": result.certified}
    return {**_report_fields(result.report), "timings": timings}


# Each handler returns the document to write and the exit code.


def cmd_solve(args):
    tol, ensemble, digest = _load(args)
    seed = _seed(args)
    started = time.perf_counter()
    if args.oracle:
        with _input_phase():
            check_oracle_size(ensemble)
        result = solve_oracle(ensemble, seed=seed, tol=tol)
    else:
        result = solve(ensemble, tol=tol)
    _diag(args, f"solve finished in {time.perf_counter() - started:.3f}s")
    doc = _report(
        "solve",
        _echo(args, "seed", "oracle"),
        digest,
        measurement=measurement_to_doc(result.measurement),
        **_result_fields(result),
    )
    return doc, EXIT_OK if result.certified else EXIT_UNCERTIFIED


def cmd_certify(args):
    tol, ensemble, digest_in = _load(args)
    with _input_phase():
        povm_doc, povm_data = load_json(args.povm)
        measurement = povm_from_doc(povm_doc, tol)
        projective = None
        with contextlib.suppress(NotProjective):
            projective = rank_matched(ensemble, measurement, tol)
    full = certify_full(ensemble, measurement, tol)
    simplified = None if projective is None else _simplified_rule(full, tol).verdict
    doc = _report(
        "certify",
        _echo(args),
        {"ensemble": digest_in, "measurement": _digest(povm_data)},
        **_report_fields(full),
        simplified_verdict=simplified,
        verdicts_agree=None if simplified is None else simplified == full.verdict,
    )
    return doc, EXIT_OK if full.verdict == OPTIMAL else EXIT_UNCERTIFIED


def cmd_map(args):
    tol, ensemble, digest = _load(args)
    echo = _echo(args, "direction")
    if args.direction == "forward":
        result = solve(ensemble, tol=tol)
        if not result.certified:
            _diag(args, "forward map requires a certified optimum; solve was uncertified")
            return _report("map", echo, digest, **_result_fields(result)), EXIT_UNCERTIFIED
        image = forward_map(ensemble, result.measurement, result.report, tol)
    else:
        image, measurement, report, _ = inverse_map(ensemble, tol)
        if report.verdict != OPTIMAL:
            raise MEDError(f"inverse map failed to self-certify: verdict {report.verdict}")
        result = SolveResult(measurement, report, iterations=0)
    doc = _report(
        "map",
        echo,
        digest,
        measurement=measurement_to_doc(result.measurement),
        **_result_fields(result),
        ensemble=ensemble_to_doc(image),
    )
    return doc, EXIT_OK


def cmd_roundtrip(args):
    tol, ensemble, digest = _load(args)
    report = roundtrip_check(ensemble, tol)
    doc = _report(
        "roundtrip",
        _echo(args),
        digest,
        residuals={
            "forward_then_inverse": report.p_deviation,
            "inverse_then_forward": report.q_deviation,
        },
    )
    return doc, EXIT_OK


def cmd_gen(args):
    try:
        signature = tuple(int(part) for part in args.signature.split(","))
    except ValueError:
        raise _BadInput(f"cannot parse signature {args.signature!r}") from None
    tol = _tolerances(args)
    seed = _seed(args)
    generate = generate_fixed_point if args.fixed_point else random_ensemble
    with _input_phase():
        ensemble = generate(args.dim, signature, seed, tol)
    kind = "fixed-point" if args.fixed_point else "random"
    label = f"{kind} d={args.dim} signature={args.signature} seed={args.seed}"
    return ensemble_to_doc(ensemble, label=label), EXIT_OK


def cmd_fixpoint(args):
    tol, ensemble, digest = _load(args)
    result = fixpoint_check(ensemble, tol)
    doc = _report(
        "fixpoint",
        _echo(args),
        digest,
        fixed_point={
            "is_fixed": result.is_fixed,
            "c_estimate": result.c_estimate,
            "residual": result.residual,
        },
    )
    return doc, EXIT_OK if result.is_fixed else EXIT_UNCERTIFIED


_HANDLERS = {
    "solve": cmd_solve,
    "certify": cmd_certify,
    "map": cmd_map,
    "roundtrip": cmd_roundtrip,
    "gen": cmd_gen,
    "fixpoint": cmd_fixpoint,
}


def main(argv=None) -> int:
    """Run one command; the only place an exception becomes an exit code."""
    args = build_parser().parse_args(argv)
    try:
        if args.out:
            _check_out(args.out)
        doc, code = _HANDLERS[args.command](args)
        _write(args, dumps(doc))
    except tuple(kind for kind, _, _ in _EXIT_TABLE) as exc:
        code, prefix = next((c, p) for kind, c, p in _EXIT_TABLE if isinstance(exc, kind))
        _diag(args, f"{prefix}: {exc}")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
