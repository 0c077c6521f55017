"""The four benchmark workloads: seeded inputs, one op per call, and its check.

Each builder returns a ``Cycle``: the workload's fixed op list for one seed.
The benchmark repeats the cycle, so every op in it runs at least once per
run, and the traced run replays a fixed prefix of the repeated cycle. An op
returns ``None`` when its result passed the reference check and a one-line
reason otherwise; an exception raised by an op also counts as a failure. The
reason ``UNCERTIFIED`` marks a solve that returned without a certificate.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import medli
from medli.serialize import dumps, ensemble_to_doc, measurement_to_doc

HERE = Path(__file__).resolve().parent

# Reference-check tolerances, fixed beforehand.
PROB_TOL = 1e-9  # success probability against the Helstrom value or the known answer
ROUNDTRIP_TOL = 1e-7  # forward(inverse(Q)) against Q; the acceptance suite's bound
PROFILE_TOL = 1e-7  # detection profile / ranks, relative spread at a fixed point

# An uncertified solve is medli's documented best-effort answer, not a wrong
# one: it counts against ok_frac but not as a failed (wrong) op.
UNCERTIFIED = "uncertified"


@dataclass
class Op:
    key: str
    run: Callable[[], "str | None"]


@dataclass
class Cycle:
    ops: list[Op]
    # Seconds one cycle takes at the reference speed; a timed run makes
    # round(--seconds / nominal_s) cycles, so its op count is fixed.
    nominal_s: float
    # Ops the traced run replays, from the start of the repeated cycle; a fixed
    # count keeps its counters exact. Zero means one whole cycle.
    trace_ops: int = 0
    # Only the cli workload runs ops in child processes.
    cli: "CliRunner | None" = None


def _rng_seed(seed: int, stream: int) -> int:
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


def _mixed(dim: int) -> tuple[int, ...]:
    """Rank-2 states with one rank-1 state when the dimension is odd."""
    if dim == 2:
        return (1, 1)
    return (2,) * (dim // 2) + ((1,) if dim % 2 else ())


# --- qubit-pairs ---

QUBIT_PAIRS = 300


def build_qubit_pairs(seed: int, workdir: Path) -> Cycle:
    """Two pure qubit states per instance, checked against the Helstrom value."""
    ops = []
    for k in range(QUBIT_PAIRS):
        ens = medli.random_ensemble(2, (1, 1), seed=_rng_seed(seed, k))
        ops.append(Op(f"qubit-{k}", _solve_op(ens, medli.helstrom_comparator(ens))))
    return Cycle(ops, nominal_s=14.0, trace_ops=200)


def _solve_op(ensemble, known: float):
    def run():
        result = medli.solve(ensemble)
        if not result.certified:
            return UNCERTIFIED
        gap = abs(result.success_prob - known)
        if gap > PROB_TOL:
            return f"success_prob off the reference by {gap:.1e}"
        return None

    return run


# --- solve-dense ---

# (dim, signatures, instances per cycle), the signatures taken in turn. d=6
# gives most ops, so the median lies well inside it; d=8 holds the tail
# percentile; one d=12 and one d=16 solve, pure or mixed by the seed's parity,
# carry most of the regular solve time, as polish does inside them.
DENSE_CLASSES = (
    (6, ((1,) * 6, (2, 2, 2)), 40),
    (8, ((1,) * 8, (2, 2, 2, 2)), 10),
    (12, ((1,) * 12, (3, 3, 3, 3)), 1),
    (16, ((1,) * 16, (4, 4, 4, 4)), 1),
)

# Near-collinear d=4 known-answer instances, (noise, signature, seed); the
# noise sets cond(sigma_P) of the pre-image from ~4e2 to ~6e5. Each one either
# certifies at the first restart (0.05-0.7 s) or runs all 16 restarts and fails
# (~8-11 s), so a handful drawn from the workload seed would swing the run time
# two-fold from seed to seed. The set is therefore fixed: the first seed at
# each noise level, and at noise 0.01 the first seed of its stream, which does
# not certify today.
STIFF = (
    (0.3, (1, 1, 1, 1), 20231),
    (0.1, (1, 1, 1, 1), 20232),
    (0.03, (1, 1, 1, 1), 20233),
    (0.01, (1, 1, 1, 1), 20331),
)


def near_collinear(dim: int, signature, noise: float, seed: int):
    """LI ensemble whose state vectors all lie within ``noise`` of one direction."""
    rng = np.random.default_rng(seed)
    base = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    base /= np.linalg.norm(base)
    states = []
    for r in signature:
        vecs = []
        for _ in range(r):
            g = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            x = base + noise * g / np.linalg.norm(g)
            vecs.append(x / np.linalg.norm(x))
        lam = rng.uniform(0.25, 1.0, size=r)
        lam /= lam.sum()
        rho = sum(weight * np.outer(x, x.conj()) for weight, x in zip(lam, vecs))
        states.append((rho + rho.conj().T) / 2)
    return medli.validate_ensemble(rng.dirichlet(np.ones(len(signature))), states)


def _known_answer_op(key: str, image) -> Op:
    """solve on P = inverse_map(Q): its optimum is PGM(Q), with a closed-form value."""
    pre_image, measurement, _, _ = medli.inverse_map(image)
    return Op(key, _solve_op(pre_image, medli.success_probability(pre_image, measurement)))


def build_solve_dense(seed: int, workdir: Path) -> Cycle:
    ops = []
    stream = 0
    for dim, signatures, count in DENSE_CLASSES:
        for k in range(count):
            sig = signatures[(k + seed) % len(signatures)]
            q = medli.random_ensemble(dim, sig, seed=_rng_seed(seed, stream))
            stream += 1
            ops.append(_known_answer_op(f"d{dim}-{'pure' if max(sig) == 1 else 'mixed'}-{k}", q))
    for noise, sig, stiff_seed in STIFF:
        q = near_collinear(4, sig, noise, stiff_seed)
        ops.append(_known_answer_op(f"stiff-d4-noise{noise}-seed{stiff_seed}", q))
    # A fixed shuffle spreads the long ops among the short ones, between
    # which the machine's speed is sampled.
    order = np.random.default_rng(0).permutation(len(ops))
    return Cycle([ops[i] for i in order], nominal_s=19.0)


# --- closed-form ---


def build_closed_form(seed: int, workdir: Path) -> Cycle:
    """inverse map, both certifiers, forward map and the fixed-point test, d = 2..16."""
    ops = []
    stream = 0
    for kind in ("pure", "mixed"):
        for dim in range(2, 17):
            sig = (1,) * dim if kind == "pure" else _mixed(dim)
            q = medli.random_ensemble(dim, sig, seed=_rng_seed(seed, stream))
            fixed = medli.generate_fixed_point(dim, sig, seed=_rng_seed(seed, stream + 1))
            stream += 2
            ops.append(Op(f"d{dim}-{kind}", _closed_form_op(q, fixed)))
    return Cycle(ops, nominal_s=0.5, trace_ops=240)


def _max_dev(first, second) -> float:
    return max(
        float(np.abs(a - b).max())
        for a, b in zip(first.weighted_states(), second.weighted_states())
    )


def _closed_form_op(image, fixed):
    ranks = np.array(fixed.rank_signature, dtype=float)

    def run():
        pre_image, measurement, certificate, _ = medli.inverse_map(image)
        simplified = medli.certify_simplified(pre_image, measurement)
        full = medli.certify_full(pre_image, measurement)
        derived = medli.forward_map(pre_image, measurement, certificate)
        medli.fixpoint_check(image)
        fixed_result = medli.fixpoint_check(fixed)
        profile = np.array(medli.detection_profile(fixed, medli.pgm(fixed)))
        if simplified.verdict != medli.OPTIMAL or full.verdict != medli.OPTIMAL:
            return f"pre-image verdicts {simplified.verdict}/{full.verdict}"
        dev = _max_dev(derived, image)
        if dev > ROUNDTRIP_TOL:
            return f"forward(inverse(Q)) deviates by {dev:.1e}"
        if not fixed_result.is_fixed:
            return f"generated fixed point fails fixpoint_check ({fixed_result.residual:.1e})"
        per_rank = profile / ranks
        spread = float(per_rank.max() - per_rank.min()) / float(per_rank.mean())
        if spread > PROFILE_TOL:
            return f"detection profile not proportional to ranks ({spread:.1e})"
        return None

    return run


# --- cli ---


class CliRunner:
    """Runs ``python -m medli`` children, one at a time, and keeps their peak RSS.

    With ``trace_dir`` set, each child starts through ``launcher.py``, which
    installs the tracer before it calls ``medli.cli.main``; the child writes
    its spans to ``trace_dir`` and ``on_trace`` receives them.
    """

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.peak_rss_kb = 0
        self.trace_dir: Path | None = None
        self.on_trace: Callable[[dict], None] | None = None
        self._launches = 0

    def run(self, argv: list[str]) -> tuple[int, bytes]:
        trace_file = None
        if self.trace_dir is None:
            cmd = [sys.executable, "-m", "medli", *argv]
        else:
            self._launches += 1
            trace_file = self.trace_dir / f"child-{self._launches}.json"
            cmd = [sys.executable, str(HERE / "launcher.py"), str(trace_file), *argv]
        proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, cwd=self.workdir
        )
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        if trace_file is not None and self.on_trace is not None:
            self.on_trace(json.loads(trace_file.read_text()))
            trace_file.unlink()
        return proc.returncode, out


def build_cli(seed: int, workdir: Path) -> Cycle:
    """Eight invocations: gen, solve and certify at d=4, map and fixpoint at d=4 and d=16."""
    runner = CliRunner(workdir)
    q4 = medli.random_ensemble(4, (2, 1, 1), seed=_rng_seed(seed, 0))
    q16 = medli.random_ensemble(16, (4, 4, 4, 4), seed=_rng_seed(seed, 1))
    fixed4 = medli.generate_fixed_point(4, (2, 1, 1), seed=_rng_seed(seed, 2))
    pre4, meas4, _, _ = medli.inverse_map(q4)
    pre16, _, _, _ = medli.inverse_map(q16)
    files = {
        "q4.json": ensemble_to_doc(q4),
        "q16.json": ensemble_to_doc(q16),
        "p4.json": ensemble_to_doc(pre4),
        "m4.json": measurement_to_doc(meas4),
        "f4.json": ensemble_to_doc(fixed4),
    }
    for name, doc in files.items():
        (workdir / name).write_text(dumps(doc), encoding="utf-8")
    gen_seed = _rng_seed(seed, 3) % 2**31
    known4 = medli.success_probability(pre4, meas4)

    def gen_check(dim, sig, fixed_point):
        make = medli.generate_fixed_point if fixed_point else medli.random_ensemble
        expected = make(dim, sig, seed=gen_seed)

        def check(doc):
            got = np.array(doc["priors"], dtype=float)
            if doc["dim"] != dim or not np.array_equal(got, expected.priors):
                return "generated ensemble differs from the library's"
            return None

        return check

    def expect(field_name, value, tol=0.0):
        def check(doc):
            got = doc
            for part in field_name.split("."):
                got = got[part]
            ok = abs(got - value) <= tol if isinstance(value, float) else got == value
            return None if ok else f"{field_name} = {got!r}, expected {value!r}"

        return check

    def priors_match(ensemble):
        def check(doc):
            got = np.array(doc["ensemble"]["priors"], dtype=float)
            same = np.allclose(got, ensemble.priors, rtol=0, atol=1e-12)
            return None if same else "pre-image differs from the library's"

        return check

    gen = ["gen", "--seed", str(gen_seed)]
    # (key, argv, exit code, report file or None for stdout, check)
    invocations = [
        ("gen-d4", gen + ["--dim", "4", "--signature", "2,1,1", "--out", "gen4.json"],
         0, "gen4.json", gen_check(4, (2, 1, 1), False)),
        ("gen-d16-fixed",
         gen + ["--dim", "16", "--signature", "4,4,4,4", "--fixed-point", "--out", "gen16.json"],
         0, "gen16.json", gen_check(16, (4, 4, 4, 4), True)),
        ("solve-d4", ["solve", "p4.json"], 0, None, expect("success_prob", known4, PROB_TOL)),
        ("certify-d4", ["certify", "p4.json", "m4.json"], 0, None, expect("verdict", medli.OPTIMAL)),
        ("map-inverse-d4", ["map", "q4.json", "--direction", "inverse"], 0, None, priors_match(pre4)),
        ("map-inverse-d16", ["map", "q16.json", "--direction", "inverse"], 0, None, priors_match(pre16)),
        ("fixpoint-d4", ["fixpoint", "f4.json"], 0, None, expect("fixed_point.is_fixed", True)),
        ("fixpoint-d16", ["fixpoint", "q16.json"], 3, None, expect("fixed_point.is_fixed", False)),
    ]
    first_reports: dict[str, bytes] = {}

    def make_op(key, argv, want_code, out_file, check):
        def run():
            if out_file:
                (workdir / out_file).unlink(missing_ok=True)
            code, out = runner.run(argv)
            if code != want_code:
                return f"exit code {code}, expected {want_code}"
            report = (workdir / out_file).read_bytes() if out_file else out
            reason = check(json.loads(report))
            if reason:
                return reason
            if first_reports.setdefault(key, report) != report:
                return "report differs from the first invocation's"
            return None

        return run

    ops = [Op(key, make_op(key, *rest)) for key, *rest in invocations]
    return Cycle(ops, nominal_s=2.5, trace_ops=16, cli=runner)


BUILDERS = {
    "qubit-pairs": build_qubit_pairs,
    "solve-dense": build_solve_dense,
    "closed-form": build_closed_form,
    "cli": build_cli,
}
