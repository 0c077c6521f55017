"""Regenerate the committed CLI fixtures.

Run from the repository root:

    PYTHONPATH=src python3 tests/make_fixtures.py

Fixture content is deterministic (fixed seeds, 17-significant-digit floats),
so reruns should be no-ops unless the generators changed.
"""

import pathlib
import sys

import numpy as np

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from medli import generate_fixed_point, random_ensemble, validate_ensemble  # noqa: E402
from medli.serialize import dumps, ensemble_to_doc  # noqa: E402

FIXTURES = HERE / "fixtures"


def write(name, text):
    path = FIXTURES / name
    path.write_text(text, encoding="utf-8")
    print(f"wrote {path}")


def pure_pair(theta):
    """Equal-prior real qubit pair |0> and cos(theta)|0> + sin(theta)|1>."""
    psi1 = np.array([1.0, 0.0])
    psi2 = np.array([np.cos(theta), np.sin(theta)])
    return validate_ensemble(
        [0.5, 0.5], [np.outer(psi1, psi1), np.outer(psi2, psi2)]
    )


def main():
    FIXTURES.mkdir(exist_ok=True)

    orth = validate_ensemble(
        [0.5, 0.5], [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    )
    write("orthogonal_pair.json", dumps(ensemble_to_doc(orth, label="orthogonal pair")))

    pair = pure_pair(np.pi / 6)
    write("theta_pi6_pair.json", dumps(ensemble_to_doc(pair, label="equal-prior pure pair, overlap cos(pi/6)")))

    # cond(sigma) 4.0e12, beyond the average state's COND_LIMIT
    near = pure_pair(1e-6)
    write("near_singular_pair.json", dumps(ensemble_to_doc(near, label="equal-prior pure pair, overlap cos(1e-6)")))

    fixed = generate_fixed_point(3, (2, 1), seed=5)
    write("fixed_point_d3.json", dumps(ensemble_to_doc(fixed, label="fixed-point d=3 signature (2,1) seed 5")))

    rand = random_ensemble(4, (2, 1, 1), seed=11)
    write("random_d4.json", dumps(ensemble_to_doc(rand, label="random d=4 signature (2,1,1) seed 11")))

    write("malformed.json", '{"schema_version": "med-li/1", "dim": 2, "priors": [0.5,\n')


if __name__ == "__main__":
    main()
