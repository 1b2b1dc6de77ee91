"""Shared fixtures: a small three-block system used across suites.

Kept independent of the catalog module on purpose, so the model and
dynamics suites exercise hand-assembled systems and the catalog suite
can cross-check its own constructions against these.
"""

import numpy as np

from blocksep.model import (
    BlockStructure, NaturalBlock, PhasePoint, ProbePlan,
    SingularMatrixError, StackelMatrix, _inverse_lines, build_system,
)


def make_pendula_like():
    """Two pendulum blocks and a free block, polynomially coupled."""
    structure = BlockStructure((1, 1, 1), (("q1",), ("q2",), ("q3",)))
    stackel = StackelMatrix((
        ("2", "1+q1", "2*q1^2+2"),
        ("3", "q2", "q2^3+2"),
        ("4", "q3", "q3^2+1"),
    ))
    blocks = (
        NaturalBlock((("1",),), "-cos(q1)/2"),
        NaturalBlock((("1",),), "-cos(q2)/2"),
        NaturalBlock((("1",),), "0"),
    )
    probes = ProbePlan(points=({"q1": 0.0, "q2": 0.0, "q3": 0.0},),
                       box={"q1": (-0.3, 0.3), "q2": (-0.3, 0.3),
                            "q3": (-0.3, 0.3)})
    return build_system(structure, stackel, blocks, probes)


def generated_inverse(n):
    """The gated S^-1 that a generated field writes out for an n-by-n
    S, as a function of S (an n-by-n array) and the point to name,
    returning (S^-1, cond)."""
    rows = ", ".join("[" + ", ".join(f"m{a}_{b}" for b in range(n)) + "]"
                     for a in range(n))
    code = ("def inverse(v, point):\n"
            + "".join(f"    {line}\n" for line in _inverse_lines(n, "point"))
            + f"    return [{rows}], cond\n")
    namespace = {"SingularMatrixError": SingularMatrixError}
    exec(code, namespace)
    inverse = namespace["inverse"]

    def gated(S, point=None):
        M, cond = inverse(np.asarray(S, dtype=float).ravel().tolist(), point)
        return np.array(M), cond

    return gated


# rest point of the two pendula with a slight offset, used throughout
PENDULA_P0 = PhasePoint((0.2, -0.2, 0.0), (0.0, 0.0, 0.0))

# frozen reference values of H, K_2, K_3 on the orbit through P0
PENDULA_C = (0.09494666248, 0.0916913483, -0.3797866499)
