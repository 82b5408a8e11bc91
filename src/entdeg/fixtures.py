"""Built-in example states with known entanglement degrees.

These back the ``examples`` CLI command and the regression tests. Expected
values are exact rationals: 2/3 and 4/9 for the two partial superpositions,
1 for the maximally entangled pairs, 0 for the products.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .states import StateVector, state_from_amplitudes


@dataclass(frozen=True)
class ExampleFixture:
    name: str
    state: StateVector
    expected_pe: float


def _qubit_from_bloch(n1: float, n2: float, n3: float) -> np.ndarray:
    """Single-qubit amplitudes whose Bloch vector is the given unit vector."""
    theta = np.arccos(n3)
    phi = np.arctan2(n2, n1)
    return np.array([np.cos(theta / 2.0), np.exp(1j * phi) * np.sin(theta / 2.0)])


def example_fixtures() -> tuple[ExampleFixture, ...]:
    """The fixture table, in presentation order."""
    s3 = 1.0 / np.sqrt(3.0)
    oblique = np.kron(
        _qubit_from_bloch(2 / 3, -1 / 3, 2 / 3), _qubit_from_bloch(1 / 3, 2 / 3, 2 / 3)
    )
    qutrit = np.zeros(9, dtype=complex)
    qutrit[[0, 4, 8]] = s3
    return tuple(
        ExampleFixture(name, state_from_amplitudes(amps, n, n), expected_pe)
        for name, n, amps, expected_pe in (
            ("three-term superposition", 2, [s3, s3, 0.0, s3], 2.0 / 3.0),
            ("weighted superposition", 2, [1 / 3, 2 / 3, 0.0, 2 / 3], 4.0 / 9.0),
            ("Bell pair", 2, [np.sqrt(0.5), 0.0, 0.0, np.sqrt(0.5)], 1.0),
            ("product, axis aligned", 2, [0.5, 0.5, 0.5, 0.5], 0.0),
            ("product, oblique", 2, oblique, 0.0),
            ("qutrit maximal superposition", 3, qutrit, 1.0),
        )
    )
